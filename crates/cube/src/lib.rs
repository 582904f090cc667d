#![warn(missing_docs)]
//! The multi-dimensional segregation data cube — SCube's core contribution.
//!
//! A cube cell is addressed by a pair of coordinate sets ([`CellCoords`]):
//! `A` over segregation-attribute items (defining a minority subgroup, e.g.
//! `sex=female ∧ age=young`) and `B` over context-attribute items (defining
//! a context, e.g. `region=north`); the absent attributes are at the `⋆`
//! granularity of standard multi-dimensional modelling. The cell's metric
//! ([`scube_segindex::IndexValues`]) is every segregation index computed
//! over the organizational units, taking
//!
//! * total population  = individuals matching `B`, split per unit (`t_i`),
//! * minority population = individuals matching `A ∪ B`, per unit (`m_i`).
//!
//! Segregation indexes are **not additive**, so cells cannot be rolled up
//! from finer cells; the [`builder::CubeBuilder`] instead enumerates every
//! sufficiently-populated cell by frequent-itemset mining and computes its
//! per-unit histograms from tidset bitmaps (the `SegregationDataCubeBuilder`
//! algorithm of the companion journal paper). Two materialization
//! strategies are offered:
//!
//! * **AllFrequent** — one cell per frequent itemset `A ∪ B`;
//! * **ClosedOnly** — one cell per *closed* frequent itemset: lossless in
//!   the sense that a non-closed cell's minority statistics equal those of
//!   its closure (the [`explore::CubeExplorer`] resolves any coordinates on
//!   demand), while storing far fewer cells.
//!
//! The cube also *serves*: [`snapshot::CubeSnapshot`] persists a built cube
//! plus its vertical postings in a versioned, checksummed binary format,
//! and [`serve::ConcurrentCubeEngine`] answers point / top-k / slice / dice
//! queries from the materialized store with a cached explorer fallback for
//! non-materialized ⋆-combinations, through `&self` — sharded cell cache,
//! pooled explorer scratches, atomic counters — so the one engine serves a
//! single caller or many threads.
//!
//! And it is *maintained*: an [`update::UpdateBatch`] of appended rows
//! folds into a snapshot in place — postings extended at their tails,
//! newly-frequent itemsets promoted, only dirty cells recomputed from
//! incrementally maintained integer histograms —
//! bit-identical to a full rebuild on the concatenated data at a fraction
//! of the cost (the streaming-ingest path; see [`update`]). A served engine
//! is immutable: it is updated by applying the batch to its
//! [`serve::ConcurrentCubeEngine::snapshot`] and serving a fresh engine.

pub mod builder;
pub mod coords;
pub mod cube;
pub mod explore;
pub mod histogram;
pub mod query;
pub mod report;
pub mod serve;
pub mod snapshot;
pub mod update;

pub use builder::{CubeBuilder, CubeConfig, Materialize};
pub use coords::CellCoords;
pub use cube::{CubeLabels, SegregationCube};
pub use explore::{CubeExplorer, ExplorerScratch};
pub use query::{AtomicQueryStats, QueryStats, RankedCells, DEFAULT_CACHE_CAPACITY};
pub use report::{fig1_grid, radial_series, to_csv, top_contexts};
pub use serve::{ConcurrentCubeEngine, DEFAULT_SHARDS};
pub use snapshot::{CubeSnapshot, RunCensus, SnapshotCensus, StoreCensus};
pub use update::{UpdateBatch, UpdateStats};
