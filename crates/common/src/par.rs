//! One fan-out for every data-parallel pass: [`map`] runs owned jobs on
//! scoped worker threads and returns their results in job order.
//!
//! The cube builder's root subtrees (Eclat's DFS, folded as it emits),
//! update staging and batched point queries all go through [`map`]. So one
//! set of rules holds for all of them:
//!
//! * **Worker count.** [`workers`] gives the requested count, at least 1,
//!   never more than one per job and never more than 8× the host's
//!   parallelism ([`host_threads`]; floor 8, so concurrency tests run real
//!   threads on a 1-CPU host). A runaway request such as `usize::MAX` must
//!   not become thousands of OS threads: `thread::scope` aborts on a failed
//!   spawn rather than returning an error.
//! * **Dynamic claiming.** Workers claim the next job from one shared
//!   iterator, so uneven jobs (Eclat's prefix subtrees) still balance.
//! * **Inline at one worker.** No thread is spawned. Jobs are taken by
//!   value, so each is dropped as soon as its call returns.
//! * **Panics are errors.** Every worker is joined, and a panicking job
//!   fails the call with [`ScubeError::Inconsistent`] naming the panic
//!   payload. A serving process survives one poisoned batch.
//! * **First error in job order wins.** Once a job fails, no later job is
//!   claimed; every earlier one was already claimed and runs to its end,
//!   so the error returned is the one a serial loop would hit first.
//!
//! ```
//! use scube_common::par;
//!
//! // Per-worker state (here a reusable buffer) is built once per worker.
//! let lens = par::map(vec!["a", "bb", "ccc"], 2, String::new, |buf, word| {
//!     buf.clear();
//!     buf.push_str(word);
//!     Ok(buf.len())
//! })?;
//! assert_eq!(lens, [1, 2, 3]);
//! # Ok::<(), scube_common::ScubeError>(())
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

use crate::{lock, Result, ScubeError};

/// The host's available parallelism (1 when it cannot be read).
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How many workers [`map`] runs for `requested` threads over `jobs` jobs:
/// at least 1, at most one per job, at most `max(8, 8 × host_threads())`.
pub fn workers(requested: usize, jobs: usize) -> usize {
    requested.max(1).min((8 * host_threads()).max(8)).min(jobs.max(1))
}

/// Run `work` over every job on up to `threads` workers (see the module
/// docs for the rules). Each worker builds its own state with `state` and
/// hands it to each of its calls. The results come back in job order.
pub fn map<I, S, R>(
    jobs: I,
    threads: usize,
    state: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, I::Item) -> Result<R> + Sync,
) -> Result<Vec<R>>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    R: Send,
{
    let jobs = jobs.into_iter();
    let n = jobs.len();
    let n_workers = workers(threads, n);
    if n_workers == 1 {
        let inline = catch_unwind(AssertUnwindSafe(|| {
            let mut state = state();
            let mut out = Vec::with_capacity(n);
            for job in jobs {
                out.push(work(&mut state, job)?);
            }
            Ok(out)
        }));
        return inline.unwrap_or_else(|payload| Err(panicked(payload)));
    }

    // One lock hands out the next job and takes in the last one's result,
    // straight into its slot: no per-worker buffers, no merge.
    let shared = Mutex::new(Shared {
        jobs: jobs.enumerate(),
        slots: std::iter::repeat_with(|| None).take(n).collect(),
        failed: None,
    });
    let worker = || {
        let mut state = state();
        let mut finished: Option<(usize, Result<R>)> = None;
        loop {
            let (i, job) = {
                let mut shared = lock(&shared);
                match finished.take() {
                    Some((i, Ok(r))) => shared.slots[i] = Some(r),
                    Some((i, Err(e))) if shared.failed.as_ref().is_none_or(|(j, _)| i < *j) => {
                        shared.failed = Some((i, e));
                    }
                    _ => {}
                }
                // After a failure nothing more is claimed: every earlier
                // job already was, so the lowest failed index is final.
                match shared.jobs.next() {
                    Some(claim) if shared.failed.is_none() => claim,
                    _ => return,
                }
            };
            finished = Some((i, work(&mut state, job)));
        }
    };
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_workers).map(|_| scope.spawn(worker)).collect();
        // Join every handle: an unjoined panicked scoped thread re-panics
        // at scope exit.
        handles.into_iter().map(|h| h.join()).collect()
    });
    joined.into_iter().try_for_each(|outcome| outcome.map_err(panicked))?;
    let Shared { slots, failed, .. } = shared.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some((_, e)) = failed {
        return Err(e);
    }
    slots
        .into_iter()
        .collect::<Option<Vec<R>>>()
        .ok_or_else(|| ScubeError::Inconsistent("a parallel job went unclaimed".into()))
}

/// What the workers of one [`map`] call share behind its lock.
struct Shared<J, R> {
    jobs: J,
    slots: Vec<Option<R>>,
    failed: Option<(usize, ScubeError)>,
}

/// A panic payload as an error naming its message.
fn panicked(payload: Box<dyn std::any::Any + Send>) -> ScubeError {
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "non-string panic payload"
    };
    ScubeError::Inconsistent(format!("worker panicked: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Uneven jobs (the early ones slow) finish out of order under dynamic
    /// claiming, and still come back in job order, each computed once.
    #[test]
    fn results_come_back_in_job_order() {
        for threads in [1, 2, 3, 8] {
            let calls = AtomicUsize::new(0);
            let out = map(
                0..40u32,
                threads,
                || (),
                |_, i| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    if i < 4 {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    Ok(i * i)
                },
            )
            .unwrap();
            assert_eq!(out, (0..40u32).map(|i| i * i).collect::<Vec<_>>(), "threads {threads}");
            assert_eq!(calls.load(Ordering::Relaxed), 40, "threads {threads}");
        }
        assert!(map(Vec::<u8>::new(), 4, || (), |_, b| Ok(b)).unwrap().is_empty());
    }

    /// Each job is dropped as soon as its call returns: while job `i` runs,
    /// every earlier job is gone unless another worker is still on it.
    #[test]
    fn each_job_is_dropped_after_its_call() {
        for threads in [1, 3] {
            let jobs: Vec<Arc<()>> = (0..32).map(|_| Arc::new(())).collect();
            let watch: Vec<_> = jobs.iter().map(Arc::downgrade).collect();
            let watch = &watch;
            map(
                jobs.into_iter().enumerate(),
                threads,
                || (),
                |_, (i, job)| {
                    let earlier = watch[..i].iter().filter(|w| w.strong_count() > 0).count();
                    assert!(earlier < threads, "job {i}: {earlier} earlier jobs alive");
                    drop(job);
                    Ok(())
                },
            )
            .unwrap();
            assert!(watch.iter().all(|w| w.strong_count() == 0), "threads {threads}");
        }
    }

    /// The clamp: never more workers than jobs, at least one, and a runaway
    /// request bounded by the host, not the caller.
    #[test]
    fn worker_count_is_clamped() {
        let cap = (8 * host_threads()).max(8);
        assert_eq!(workers(1_000_000, 3), 3);
        assert_eq!(workers(usize::MAX, 100_000), cap);
        assert_eq!(workers(0, 10), 1);
        assert_eq!(workers(4, 0), 1);
        assert_eq!(workers(8, 100), 8);
        // End to end: usize::MAX threads over many jobs, and over none.
        let out = map(0..1000u32, usize::MAX, || (), |_, i| Ok(i)).unwrap();
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
        assert!(map(0..0u32, usize::MAX, || (), |_, i| Ok(i)).unwrap().is_empty());
        // Worker state is built once per worker, never per job.
        let built = AtomicUsize::new(0);
        let state = || built.fetch_add(1, Ordering::Relaxed);
        map(0..500u32, usize::MAX, state, |_, i| Ok(i)).unwrap();
        assert!(built.load(Ordering::Relaxed) <= cap);
    }

    /// Two failing jobs: the earlier one's error is returned, whichever
    /// worker hit its own first, and no job after the first failure is
    /// claimed once the failure is seen.
    #[test]
    fn first_error_in_job_order_wins() {
        for threads in [1, 2, 4] {
            let err = map(
                0..200u32,
                threads,
                || (),
                |_, i| {
                    if i == 150 {
                        return Err(ScubeError::InvalidParameter("late".into()));
                    }
                    if i == 60 {
                        // Give the later failure every chance to land first.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        return Err(ScubeError::InvalidParameter("early".into()));
                    }
                    Ok(i)
                },
            )
            .unwrap_err();
            assert!(err.to_string().contains("early"), "threads {threads}: {err}");
        }
        let claimed = AtomicUsize::new(0);
        let _ = map(
            0..10_000u32,
            2,
            || (),
            |_, i| {
                claimed.fetch_add(1, Ordering::Relaxed);
                if i == 0 {
                    Err(ScubeError::InvalidParameter("stop".into()))
                } else {
                    Ok(i)
                }
            },
        );
        assert!(claimed.load(Ordering::Relaxed) < 10_000, "claiming stops after a failure");
    }

    /// A panicking job fails the call with `Inconsistent` naming its
    /// payload, inline and on workers, and the caller keeps running.
    #[test]
    fn a_panicking_job_becomes_inconsistent() {
        let payloads: [fn(); 3] = [
            || panic!("static payload"),
            || panic!("{} payload", "formatted"),
            || std::panic::panic_any(7u8),
        ];
        let expected = ["static payload", "formatted payload", "non-string panic payload"];
        for threads in [1, 3] {
            for (payload, want) in payloads.iter().zip(expected) {
                let err = map(
                    0..9u32,
                    threads,
                    || (),
                    |_, i| {
                        if i == 4 {
                            payload();
                        }
                        Ok(i)
                    },
                )
                .unwrap_err();
                match err {
                    ScubeError::Inconsistent(msg) => {
                        assert_eq!(msg, format!("worker panicked: {want}"), "threads {threads}")
                    }
                    other => panic!("threads {threads}: expected Inconsistent, got {other:?}"),
                }
            }
        }
        // Every worker panicking still joins to one error.
        let err = map(0..9u32, 3, || (), |_, _| -> Result<()> { panic!("everywhere") });
        assert!(err.unwrap_err().to_string().contains("worker panicked: everywhere"));
    }
}
