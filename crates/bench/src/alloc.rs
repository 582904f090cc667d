//! A byte-exact high-water-mark counting allocator.
//!
//! Register it as the process-wide allocator in a `harness = false` test
//! or a binary — the counters are global, so the registering binary owns
//! every allocation in the process:
//!
//! ```
//! use scube_bench::alloc::{measure, CountingAlloc};
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc;
//!
//! # fn expensive_build() -> Vec<u64> {
//! #     (0..1_000).collect()
//! # }
//! fn main() {
//!     let (db, peak) = measure(|| expensive_build());
//!     println!("peak allocation growth: {peak} bytes");
//!     assert!(peak >= db.len() * std::mem::size_of::<u64>());
//! }
//! ```
//!
//! [`measure`] reports *growth over the live heap at entry*, so separate
//! measurements in one process do not contaminate each other through
//! allocations that outlive an earlier closure. The counters cost two
//! relaxed atomic ops per allocation — cheap enough to leave on for a
//! whole benchmark binary, but they do serialize allocation-heavy
//! multi-threaded code slightly; prefer single-threaded measurement for
//! byte-stable numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The counting allocator. Zero-sized; all state lives in process-global
/// counters, so `measure` works whichever instance was registered.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(n: usize) {
    let live = LIVE.fetch_add(n, Ordering::Relaxed) + n;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            if new_size >= layout.size() {
                on_alloc(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        q
    }
}

/// Bytes currently allocated and not yet freed. Zero unless a
/// [`CountingAlloc`] is registered as the global allocator.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Run `f`, returning its result and the peak allocation growth (bytes
/// above the live heap at entry) it caused. Resets the high-water mark at
/// entry, so back-to-back measurements are independent.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(start))
}
