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
//! * [`sync`] — a minimal, poison-free [`sync::SpinLock`] guarding the
//!   sharded caches of the concurrent serving layer.
//! * [`mmap`] — read-only memory-mapped files and the owned-or-mapped
//!   [`mmap::Store`] backing zero-copy snapshot serving.
//! * [`par`] — the one fan-out every data-parallel pass runs through:
//!   owned jobs on scoped workers, results in job order, panics as errors.

pub mod csv;
pub mod error;
pub mod hash;
pub mod mmap;
pub mod par;
pub mod sync;
pub mod table;

pub use error::{Result, ScubeError};
pub use hash::{FxHashMap, FxHashSet};
pub use sync::SpinLock;
