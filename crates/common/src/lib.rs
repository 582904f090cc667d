#![warn(missing_docs)]
//! Shared utilities for the `scube` workspace.
//!
//! This crate collects the small pieces of infrastructure that every other
//! crate in the workspace needs and that the original Java implementation of
//! SCube obtained from third-party libraries:
//!
//! * [`hash`] — a fast, non-cryptographic hasher (FxHash) plus `HashMap`/
//!   `HashSet` aliases, used for the hot itemset and pair-counting maps.
//! * [`csv`] — a small, dependency-free CSV reader/writer supporting quoting,
//!   CRLF, and embedded newlines (SCube's inputs and outputs are CSV files).
//! * [`error`] — the shared [`error::ScubeError`] type and `Result` alias.
//! * [`table`] — plain-text aligned table rendering used by the Visualizer
//!   and by the experiment binaries to print paper-shaped reports.
//! * [`lock`] — the one way the workspace takes a std `Mutex`: a lock
//!   poisoned by a panicking holder is taken over, not propagated.
//! * [`mmap`] — read-only memory-mapped files and the owned-or-mapped
//!   [`mmap::Store`] backing zero-copy snapshot serving.
//! * [`par`] — the one fan-out every data-parallel pass runs through:
//!   owned jobs on scoped workers, results in job order, panics as errors.

pub mod csv;
pub mod error;
pub mod hash;
pub mod mmap;
pub mod par;
pub mod table;

pub use error::{Result, ScubeError};
pub use hash::{FxHashMap, FxHashSet};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `mutex`, taking over one poisoned by a panicking holder: every
/// value the workspace guards stays consistent between its O(1) mutations,
/// so a contained panic costs its own request, never the lock.
pub fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A holder that panics poisons a std `Mutex`; `lock` takes it over and
    /// the value is still there.
    #[test]
    fn lock_takes_over_a_poisoned_mutex() {
        let mutex = Mutex::new(vec![1]);
        let panicked = std::panic::catch_unwind(|| {
            let _guard = mutex.lock().unwrap();
            panic!("holder panics");
        });
        assert!(panicked.is_err());
        assert!(mutex.is_poisoned());
        lock(&mutex).push(2);
        assert_eq!(*lock(&mutex), [1, 2]);
    }
}
