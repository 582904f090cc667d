//! Where the serve workloads' threads run, so that a run measures the
//! program and not the host's delivery of wake-ups between vCPUs.
//!
//! The reference host is a Firecracker guest without a cpuidle driver: an
//! idle vCPU halts at once, and how fast the host wakes it again is
//! bimodal. A closed loop over loopback whose client and worker sit on
//! different CPUs pays that wake-up twice per request, so the same binary
//! reads p50 ≈ 15 µs or ≈ 48 µs from one pass to the next, depending on
//! where the scheduler put the two threads (README, "Noise").
//!
//! [`OneCpu`] is for one client: the client and every daemon thread are
//! confined to one CPU, which then never idles (one of the two is always
//! runnable), and a request is two context switches and no inter-processor
//! interrupt.
//!
//! [`Awake`] is for a reader beside a writer, which need both CPUs: one
//! spinning thread per CPU in the `SCHED_IDLE` class removes the halts. It
//! is pinned to its CPU, only runs when that CPU has nothing else to do, and
//! any waking thread preempts it at once.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The kernel's `cpu_set_t`: one bit per CPU.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// The CPUs this process may run on.
#[cfg(target_os = "linux")]
fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `pid` 0 names the calling thread and `mask` is a live buffer
    // of exactly the size passed; the kernel writes at most that many bytes.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return Vec::new();
    }
    (0..64 * mask.len()).filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
}

/// Pin the calling thread to `cpu` and move it to the `SCHED_IDLE` class;
/// `false` when the kernel refuses either.
#[cfg(target_os = "linux")]
fn pin_in_idle_class(cpu: usize) -> bool {
    const SCHED_IDLE: i32 = 5;
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // `sched_param` is one int, the static priority, which must be 0 here.
    let priority = 0;
    // SAFETY: plain libc calls on the calling thread (`pid` 0). `mask` and
    // `priority` are live for the calls and laid out as the kernel's
    // `cpu_set_t` and `sched_param`; the kernel only reads them.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) == 0
            && sched_setscheduler(0, SCHED_IDLE, &priority) == 0
    }
}

/// Confine the calling thread to `cpus`; `false` when the kernel refuses.
#[cfg(target_os = "linux")]
fn confine_to(cpus: &[usize]) -> bool {
    let mut mask: CpuSet = [0; 16];
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: as in `pin_in_idle_class`; the kernel only reads `mask`.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn confine_to(_cpus: &[usize]) -> bool {
    false
}

#[cfg(not(target_os = "linux"))]
fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
fn pin_in_idle_class(_cpu: usize) -> bool {
    false
}

/// The spinners; dropping the guard stops and joins them.
pub struct Awake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Awake {
    /// One idle-class spinner pinned to each CPU the process may use. A
    /// thread that cannot enter the idle class ends at once: it must never
    /// compete with the measured code.
    pub fn start() -> Awake {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = allowed_cpus()
            .into_iter()
            .map(|cpu| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if pin_in_idle_class(cpu) {
                        // Relaxed: the flag publishes no other data.
                        while !stop.load(Ordering::Relaxed) {
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        Awake { stop, threads }
    }
}

impl Drop for Awake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            // A spinner cannot panic; nothing to report either way.
            let _ = thread.join();
        }
    }
}

/// The calling thread, and every thread it spawns while the guard lives,
/// confined to one CPU; dropping the guard gives the calling thread its
/// CPUs back.
pub struct OneCpu {
    before: Vec<usize>,
}

impl OneCpu {
    /// Confine to the first CPU the process may use (a no-op where the
    /// kernel refuses, or off Linux).
    pub fn confine() -> OneCpu {
        let before = allowed_cpus();
        if let Some(&first) = before.first() {
            confine_to(&[first]);
        }
        OneCpu { before }
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if !self.before.is_empty() {
            confine_to(&self.before);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cpu_confines_spawned_threads_and_gives_the_cpus_back() {
        let before = allowed_cpus();
        let guard = OneCpu::confine();
        let inside = std::thread::spawn(allowed_cpus).join().unwrap();
        assert_eq!(inside, before.iter().take(1).copied().collect::<Vec<_>>());
        drop(guard);
        assert_eq!(allowed_cpus(), before);
    }

    #[test]
    fn the_guard_stops_and_joins_its_threads() {
        let awake = Awake::start();
        assert_eq!(awake.threads.len(), allowed_cpus().len());
        let stop = Arc::clone(&awake.stop);
        drop(awake);
        assert!(stop.load(Ordering::Relaxed));
        assert_eq!(Arc::strong_count(&stop), 1, "every spinner has ended");
    }
}
