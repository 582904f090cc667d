//! The query engine: point, batch, top-k, slice, dice and breakdown queries
//! over a cube snapshot.
//!
//! A [`ConcurrentCubeEngine`] is the one engine behind `scube query`, the
//! `scubed` daemon and the experiments. It answers the three bit-identical
//! tiers of [`crate::query`] through `&self`, so one engine serves one
//! caller or any number of threads:
//!
//! * **materialized** — the [`SegregationCube`] store is immutable after
//!   construction, so store hits are lock-free hash lookups;
//! * **cached** — the fallback cell cache is split into N shards (shard
//!   chosen by [`CellCoords`] hash), each an independent slab-LRU behind
//!   its own std [`Mutex`]: two threads only contend when their cells land
//!   in the same shard, and critical sections are O(1) probes/inserts —
//!   never recomputation. A lock poisoned by a panicking holder is taken
//!   over ([`scube_common::lock`]), so a contained panic costs its own
//!   request, never the shard;
//! * **explored** — cold cells are recomputed exactly by a shared
//!   [`CubeExplorer`] through `&self`, with the mutable histogram state
//!   checked out of a pool of reusable [`ExplorerScratch`]es, so steady-
//!   state recomputation allocates nothing per query.
//!
//! Two threads racing on the same cold cell may both recompute it; cell
//! evaluation is pure, so both insert the *same* value and the answer stays
//! bit-identical to the full build (checked by the model-based test
//! `tests/cube_model.rs`, stress-tested in
//! `tests/concurrent_stress.rs`). Counters are [`AtomicQueryStats`], so no
//! update is lost under contention, and [`ConcurrentCubeEngine::successor`]
//! hands them to the engine that serves the next snapshot, so a query that
//! finishes on the old engine after a swap is still counted.
//!
//! Raw [`CellCoords`] are validated on the cold paths only, so hostile ids
//! are a [`ScubeError::InvalidParameter`] and the warm tiers pay nothing.

use std::sync::{Arc, Mutex};

use scube_common::{lock, Result, ScubeError};
use scube_data::TransactionDb;
use scube_segindex::{IndexValues, SegIndex};

use crate::builder::CubeBuilder;
use crate::coords::CellCoords;
use crate::cube::SegregationCube;
use crate::explore::{CubeExplorer, ExplorerScratch};
use crate::query::{
    resolve_coords, AtomicQueryStats, LruCache, QueryStats, RankedCells, BREAKDOWN_TRIPLE_BUDGET,
    DEFAULT_CACHE_CAPACITY,
};
use crate::snapshot::CubeSnapshot;

/// Default shard count of the fallback cell cache: enough that a handful of
/// worker threads rarely collide, small enough to be negligible memory.
pub const DEFAULT_SHARDS: usize = 16;

/// One per-unit drill-down: ascending `(unit, minority, total)` triples.
/// Shared, not owned, inside the cache: cloning an `Arc` is O(1), so cache
/// probes and inserts stay O(1) *inside the shard lock* — the big value
/// copy happens outside the critical section.
type Breakdown = Arc<[(u32, u64, u64)]>;

/// One lock-guarded shard of an LRU cache.
type Shard<V> = Mutex<LruCache<CellCoords, V>>;

/// A scratch checked out of an engine's pool; it goes back when dropped.
/// A worker that panicked drops its scratch instead (the pool regrows on
/// demand), so a half-updated scratch is never handed out again.
struct Checkout<'a> {
    engine: &'a ConcurrentCubeEngine,
    scratch: Option<ExplorerScratch>,
}

impl std::ops::Deref for Checkout<'_> {
    type Target = ExplorerScratch;
    fn deref(&self) -> &ExplorerScratch {
        self.scratch.as_ref().expect("held until drop")
    }
}

impl std::ops::DerefMut for Checkout<'_> {
    fn deref_mut(&mut self) -> &mut ExplorerScratch {
        self.scratch.as_mut().expect("held until drop")
    }
}

impl Drop for Checkout<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take().filter(|_| !std::thread::panicking()) {
            lock(&self.engine.scratches).push(scratch);
        }
    }
}

/// Owned copies of a view's cells in canonical (sa, ca) order.
fn canonical_rows<'a>(
    cells: impl Iterator<Item = (&'a CellCoords, &'a IndexValues)>,
) -> Vec<(CellCoords, IndexValues)> {
    let mut rows: Vec<_> = cells.map(|(c, v)| (c.clone(), *v)).collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

/// A `Sync` serving layer over a cube snapshot: shared-reference point,
/// batch, top-k, slice, dice, and breakdown queries from any number of
/// threads (see the module docs).
///
/// ```
/// use scube_cube::{ConcurrentCubeEngine, CubeBuilder};
/// use scube_data::{Attribute, Schema, TransactionDbBuilder};
///
/// let schema = Schema::new(vec![Attribute::sa("sex"), Attribute::ca("region")])?;
/// let mut b = TransactionDbBuilder::new(schema);
/// for (sex, unit) in [("F", "u0"), ("F", "u1"), ("M", "u0"), ("M", "u1")] {
///     b.add_row(&[vec![sex], vec!["north"]], unit)?;
/// }
/// let db = b.finish();
///
/// let engine: ConcurrentCubeEngine = ConcurrentCubeEngine::from_db(&db, &CubeBuilder::new())?;
/// // `query` takes `&self`: one engine serves any number of threads.
/// std::thread::scope(|scope| {
///     for _ in 0..4 {
///         let engine = &engine;
///         scope.spawn(move || {
///             let v = engine.query_by_names(&[("sex", "F")], &[]).unwrap();
///             assert_eq!(v.dissimilarity, Some(0.0)); // perfectly even
///         });
///     }
/// });
/// assert_eq!(engine.stats().total(), 4);
/// # Ok::<(), scube_common::ScubeError>(())
/// ```
#[derive(Debug)]
pub struct ConcurrentCubeEngine {
    cube: SegregationCube,
    explorer: CubeExplorer,
    shards: Vec<Shard<IndexValues>>,
    breakdown_shards: Vec<Shard<Breakdown>>,
    scratches: Mutex<Vec<ExplorerScratch>>,
    /// The total cache capacity [`Self::with_config`] was given.
    capacity: usize,
    /// Shared with every [`Self::successor`].
    stats: Arc<AtomicQueryStats>,
}

impl ConcurrentCubeEngine {
    /// Serve from a snapshot with the default shard count and cache
    /// capacity.
    pub fn new(snapshot: CubeSnapshot) -> Self {
        Self::with_config(snapshot, DEFAULT_SHARDS, DEFAULT_CACHE_CAPACITY)
    }

    /// Serve from a snapshot with an explicit shard count and *total*
    /// fallback-cache capacity, split evenly across shards (rounded up, so
    /// e.g. 16 shards × capacity 100 hold up to 7 cells each; capacity 0
    /// disables caching entirely).
    pub fn with_config(snapshot: CubeSnapshot, shards: usize, capacity: usize) -> Self {
        let CubeSnapshot { cube, vertical } = snapshot;
        let n_shards = shards.max(1);
        let per_shard = if capacity == 0 { 0 } else { capacity.div_ceil(n_shards) };
        // Breakdown values are per-unit Vecs, so that cache is bounded by
        // an exact retained-triple budget (each entry weighs its own
        // triples), split across shards like the cell cache.
        let bd_budget = if capacity == 0 { 0 } else { BREAKDOWN_TRIPLE_BUDGET.div_ceil(n_shards) };
        // Recompute fallback cells with the Atkinson parameter and measure
        // set the cube was built with: the cold tier stays bit-identical to
        // the store even for non-default `b` or a partial measure suite.
        let explorer = CubeExplorer::from_vertical(vertical)
            .with_atkinson_b(cube.atkinson_b())
            .with_measures(cube.measures());
        // Seed the scratch pool for the host's parallelism so even the
        // first wave of cold queries finds a scratch waiting; the pool
        // still grows (one allocation, once) if more threads ever query
        // simultaneously.
        let seed = scube_common::par::host_threads();
        let scratches = (0..seed).map(|_| explorer.new_scratch()).collect();
        ConcurrentCubeEngine {
            cube,
            explorer,
            shards: (0..n_shards).map(|_| Mutex::new(LruCache::new(per_shard))).collect(),
            breakdown_shards: (0..n_shards)
                .map(|_| Mutex::new(LruCache::with_budget(per_shard, bd_budget)))
                .collect(),
            scratches: Mutex::new(scratches),
            capacity,
            stats: Arc::default(),
        }
    }

    /// The engine that serves `snapshot` next, typically this engine's
    /// [`Self::snapshot`] with an update applied: the same shard count and
    /// cache capacity (the caches start cold) and the *same* counters, so
    /// [`Self::stats`] keeps counting across the swap — including queries
    /// that finish on this engine after it.
    pub fn successor(&self, snapshot: CubeSnapshot) -> Self {
        let next = Self::with_config(snapshot, self.shards.len(), self.capacity);
        ConcurrentCubeEngine { stats: Arc::clone(&self.stats), ..next }
    }

    /// The snapshot this engine serves — the cube (its maintenance store
    /// and build parameters included; a mapped store stays undecoded) and
    /// its postings; the inverse of [`Self::with_config`]. Cells, labels
    /// and the `tid → unit` map are cloned; the postings and the store are
    /// shared with this engine and copied on the first write. The engine
    /// is immutable, so this is how a served cube is updated: apply the
    /// batch to the returned snapshot, then serve its [`Self::successor`].
    /// An update that fails leaves this engine as it was.
    ///
    /// ```
    /// use scube_cube::{ConcurrentCubeEngine, CubeBuilder, UpdateBatch};
    /// use scube_data::{Attribute, Schema, TransactionDbBuilder};
    ///
    /// let schema = Schema::new(vec![Attribute::sa("sex"), Attribute::ca("region")])?;
    /// let mut b = TransactionDbBuilder::new(schema);
    /// for (sex, unit) in [("F", "u0"), ("M", "u1")] {
    ///     b.add_row(&[vec![sex], vec!["north"]], unit)?;
    /// }
    /// let engine = ConcurrentCubeEngine::from_db(&b.finish(), &CubeBuilder::new())?;
    ///
    /// let mut next = engine.snapshot();
    /// let mut batch = UpdateBatch::new();
    /// batch.add_row(&[("sex", "F"), ("region", "north")], "u1");
    /// next.apply_update(&batch)?;
    /// let engine = engine.successor(next);
    /// assert_eq!(engine.query_by_names(&[("sex", "F")], &[])?.minority, 2);
    /// # Ok::<(), scube_common::ScubeError>(())
    /// ```
    pub fn snapshot(&self) -> CubeSnapshot {
        CubeSnapshot { cube: self.cube.clone(), vertical: self.explorer.vertical().clone() }
    }

    /// Build cube and engine straight from a transaction database (the
    /// in-memory path; equivalent to snapshotting and serving immediately).
    pub fn from_db(db: &TransactionDb, builder: &CubeBuilder) -> Result<Self> {
        Ok(Self::new(CubeSnapshot::from_db(db, builder)?))
    }

    /// The materialized cube.
    pub fn cube(&self) -> &SegregationCube {
        &self.cube
    }

    /// Number of cell-cache shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which tier answered each query so far, across all threads and every
    /// engine these counters were handed down through [`Self::successor`].
    pub fn stats(&self) -> QueryStats {
        self.stats.load()
    }

    fn shard_index(&self, coords: &CellCoords) -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = scube_common::hash::FxHasher::default();
        coords.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    fn shard_of(&self, coords: &CellCoords) -> &Shard<IndexValues> {
        &self.shards[self.shard_index(coords)]
    }

    fn breakdown_shard_of(&self, coords: &CellCoords) -> &Shard<Breakdown> {
        &self.breakdown_shards[self.shard_index(coords)]
    }

    /// Check a scratch out of the pool (allocating a fresh one only if
    /// every pooled scratch is in use right now).
    fn checkout(&self) -> Checkout<'_> {
        let pooled = lock(&self.scratches).pop();
        Checkout {
            engine: self,
            scratch: Some(pooled.unwrap_or_else(|| self.explorer.new_scratch())),
        }
    }

    /// Reject coordinates outside this cube's coordinate space: an item id
    /// beyond the postings would index out of bounds, and an item on the
    /// wrong side (a context value as minority, or vice versa) addresses a
    /// cell no build could produce — the hazard [`resolve_coords`] closes
    /// for names, closed here for raw ids. Runs on the cold paths only:
    /// everything in the store and the caches already passed it.
    fn validate(&self, coords: &CellCoords) -> Result<()> {
        let labels = self.cube.labels();
        let n_items = self.explorer.vertical().num_items();
        for (side, items, want_sa) in [("sa", &coords.sa, true), ("ca", &coords.ca, false)] {
            for &item in items {
                if item as usize >= n_items {
                    return Err(ScubeError::InvalidParameter(format!(
                        "{side} item {item} is outside the cube's {n_items} items"
                    )));
                }
                if labels.is_sa_item(item) != want_sa {
                    return Err(ScubeError::InvalidParameter(format!(
                        "{side} item {item} ({}={}) belongs on the other side of the cell",
                        labels.attr_of(item),
                        labels.value_of(item)
                    )));
                }
            }
        }
        Ok(())
    }

    /// The cold tier: validate, recompute from postings, record, insert
    /// into the cell's shard. Called only after the store and cache tiers
    /// missed.
    fn explore(&self, coords: &CellCoords, scratch: &mut ExplorerScratch) -> Result<IndexValues> {
        self.validate(coords)?;
        let v = self.explorer.values_at_with(coords, scratch)?;
        self.stats.record_explored();
        // Clone the key before taking the lock: critical sections stay O(1).
        let key = coords.clone();
        lock(self.shard_of(coords)).insert(key, v);
        Ok(v)
    }

    /// The two warm tiers shared by single and batch lookups: materialized
    /// store (lock-free), then the cell's cache shard.
    fn warm_hit(&self, coords: &CellCoords) -> Option<IndexValues> {
        if let Some(v) = self.cube.get(coords) {
            self.stats.record_materialized();
            return Some(*v);
        }
        if let Some(v) = lock(self.shard_of(coords)).get(coords).copied() {
            self.stats.record_cached();
            return Some(v);
        }
        None
    }

    /// Point lookup with a caller-held scratch: what batch workers use so a
    /// whole chunk of queries shares one checkout.
    fn query_with(
        &self,
        coords: &CellCoords,
        scratch: &mut ExplorerScratch,
    ) -> Result<IndexValues> {
        match self.warm_hit(coords) {
            Some(v) => Ok(v),
            None => self.explore(coords, scratch),
        }
    }

    /// Point lookup: materialized store (lock-free), then the cell's cache
    /// shard, then exact recomputation from postings — all through `&self`.
    pub fn query(&self, coords: &CellCoords) -> Result<IndexValues> {
        if let Some(v) = self.warm_hit(coords) {
            return Ok(v);
        }
        // Only the cold path needs histogram state.
        self.explore(coords, &mut self.checkout())
    }

    /// Point lookup by attribute/value names, e.g.
    /// `query_by_names(&[("sex", "F")], &[("region", "north")])`.
    pub fn query_by_names(&self, sa: &[(&str, &str)], ca: &[(&str, &str)]) -> Result<IndexValues> {
        self.query(&self.resolve(sa, ca)?)
    }

    /// Resolve attribute/value names against the cube labels, enforcing
    /// attribute roles: a context attribute on the minority side (or vice
    /// versa) errors instead of addressing a cell outside the cube.
    pub fn resolve(&self, sa: &[(&str, &str)], ca: &[(&str, &str)]) -> Result<CellCoords> {
        resolve_coords(self.cube.labels(), sa, ca)
    }

    /// Per-unit `(unit, minority, total)` drill-down of any cell.
    ///
    /// Repeated drill-downs — including of materialized cells, whose stored
    /// [`IndexValues`] carry no per-unit data — are served from a sharded
    /// breakdown cache instead of being re-partitioned from postings on
    /// every ask. Coordinates outside the cube are an error, as in
    /// [`Self::query`].
    pub fn unit_breakdown(&self, coords: &CellCoords) -> Result<Vec<(u32, u64, u64)>> {
        let shard = self.breakdown_shard_of(coords);
        // Under the lock only an O(1) `Arc` clone; the value copy for the
        // caller happens after release.
        let cached: Option<Breakdown> = lock(shard).get(coords).cloned();
        if let Some(b) = cached {
            self.stats.record_breakdown_cached();
            return Ok(b.to_vec());
        }
        self.validate(coords)?;
        let b = self.explorer.unit_breakdown_with(coords, &mut self.checkout());
        self.stats.record_breakdown_computed();
        let (key, value): (CellCoords, Breakdown) = (coords.clone(), b.as_slice().into());
        // An entry weighs its retained triples, floored at 1 so an empty
        // breakdown still occupies a slot's worth of the budget.
        let weight = value.len().max(1);
        lock(shard).insert_weighted(key, value, weight);
        Ok(b)
    }

    /// Answer a batch of point queries, one contiguous run per worker of
    /// [`scube_common::par`], each with one scratch checked out of the
    /// pool. Results come back in input order and are bit-identical to
    /// issuing the queries serially; the first error wins, and a panicking
    /// worker fails only this call with [`ScubeError::Inconsistent`].
    pub fn query_batch(&self, coords: &[CellCoords], threads: usize) -> Result<Vec<IndexValues>> {
        let workers = scube_common::par::workers(threads, coords.len());
        let runs: Vec<Vec<IndexValues>> = scube_common::par::map(
            coords.chunks(coords.len().div_ceil(workers).max(1)),
            workers,
            || self.checkout(),
            |scratch, run| run.iter().map(|c| self.query_with(c, scratch)).collect(),
        )?;
        Ok(runs.concat())
    }

    /// Top-k materialized cells by one index (descending), restricted to
    /// real minorities (non-⋆ SA side) with population at least `min_total`.
    /// `k = 0` returns all matches. The order is
    /// [`crate::report::top_contexts`]'s.
    pub fn top_k(&self, index: SegIndex, k: usize, min_total: u64) -> RankedCells {
        crate::report::top_contexts(&self.cube, index, k, min_total)
            .into_iter()
            .map(|(coords, v, x)| (coords.clone(), *v, x))
            .collect()
    }

    /// Slice: materialized cells fixing all the given `(attr, value)`
    /// coordinates, in canonical (sa, ca) order.
    pub fn slice(&self, fixed: &[(&str, &str)]) -> Vec<(CellCoords, IndexValues)> {
        canonical_rows(self.cube.slice(fixed))
    }

    /// Dice: the materialized sub-cube over the listed attributes only, in
    /// canonical (sa, ca) order.
    pub fn dice(&self, attrs: &[&str]) -> Vec<(CellCoords, IndexValues)> {
        canonical_rows(self.cube.cells_over(attrs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Materialize;
    use scube_data::{Attribute, Schema, TransactionDbBuilder};

    fn db() -> TransactionDb {
        let schema =
            Schema::new(vec![Attribute::sa("sex"), Attribute::sa("age"), Attribute::ca("region")])
                .unwrap();
        let mut b = TransactionDbBuilder::new(schema);
        let rows = [
            ("F", "young", "north", "u0"),
            ("F", "young", "north", "u0"),
            ("M", "old", "north", "u0"),
            ("F", "old", "south", "u1"),
            ("M", "young", "south", "u1"),
            ("M", "old", "south", "u1"),
            ("F", "young", "south", "u0"),
            ("M", "young", "north", "u1"),
        ];
        for (s, a, r, u) in rows {
            b.add_row(&[vec![s], vec![a], vec![r]], u).unwrap();
        }
        b.finish()
    }

    /// The `AllFrequent` build (the reference every answer is compared to),
    /// a direct explorer over the same rows, and a closed-store engine.
    fn engines() -> (SegregationCube, CubeExplorer, ConcurrentCubeEngine) {
        let db = db();
        let full = CubeBuilder::new().materialize(Materialize::AllFrequent).build(&db).unwrap();
        let closed = CubeBuilder::new().materialize(Materialize::ClosedOnly);
        let engine = ConcurrentCubeEngine::from_db(&db, &closed).unwrap();
        (full, CubeExplorer::new(&db), engine)
    }

    #[test]
    fn cold_and_warm_queries_match_the_full_cube() {
        let (full, _, engine) = engines();
        for (coords, v) in full.cells() {
            assert_eq!(engine.query(coords).unwrap(), *v, "cold {coords:?}");
            assert_eq!(engine.query(coords).unwrap(), *v, "warm {coords:?}");
        }
        let stats = engine.stats();
        assert_eq!(stats.total(), 2 * full.len() as u64);
        assert!(stats.materialized > 0);
        assert!(stats.explored > 0, "closed store must force fallbacks");
        assert_eq!(stats.cached, stats.explored, "second pass hits the shards");
    }

    #[test]
    fn batch_matches_pointwise_and_preserves_order() {
        let (full, _, concurrent) = engines();
        let mut coords: Vec<CellCoords> = full.cells().map(|(c, _)| c.clone()).collect();
        coords.sort();
        // A runaway request is clamped by the fan-out, not refused.
        for threads in [1, 2, 5, usize::MAX] {
            let batch = concurrent.query_batch(&coords, threads).unwrap();
            assert_eq!(batch.len(), coords.len());
            for (c, got) in coords.iter().zip(&batch) {
                assert_eq!(full.get(c), Some(got), "threads {threads}: {c:?}");
            }
        }
        // Empty batch is fine.
        assert!(concurrent.query_batch(&[], 4).unwrap().is_empty());
    }

    #[test]
    fn threads_share_one_engine() {
        let (full, _, concurrent) = engines();
        let coords: Vec<CellCoords> = full.cells().map(|(c, _)| c.clone()).collect();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let coords = &coords;
                let engine = &concurrent;
                let full = &full;
                scope.spawn(move || {
                    // Interleaved stripes: all threads collide on shards.
                    for c in coords.iter().skip(t).step_by(4) {
                        assert_eq!(engine.query(c).unwrap(), *full.get(c).unwrap());
                    }
                });
            }
        });
        assert_eq!(concurrent.stats().total(), coords.len() as u64);
    }

    #[test]
    fn ranking_and_views_match_report_and_store() {
        let (_, _, engine) = engines();
        let cube = engine.cube();
        let reference = |index: SegIndex, k: usize| -> RankedCells {
            crate::report::top_contexts(cube, index, k, 1)
                .into_iter()
                .map(|(c, v, x)| (c.clone(), *v, x))
                .collect()
        };
        for index in
            [SegIndex::Dissimilarity, SegIndex::Gini, SegIndex::Isolation, SegIndex::Atkinson]
        {
            // k = 0 returns every match.
            for k in [0, 3, 4] {
                assert_eq!(engine.top_k(index, k, 1), reference(index, k), "{index} k {k}");
            }
        }

        // Slice fixes its coordinates, dice drops every other attribute,
        // and both come back in canonical (sa, ca) order.
        let sliced = engine.slice(&[("region", "north")]);
        assert!(!sliced.is_empty());
        for (coords, v) in &sliced {
            assert_eq!(cube.labels().attr_values(coords, "region"), vec!["north"]);
            assert_eq!(cube.get(coords), Some(v));
        }
        let diced = engine.dice(&["sex", "region"]);
        assert!(!diced.is_empty());
        for (coords, v) in &diced {
            assert!(cube.labels().attr_values(coords, "age").is_empty());
            assert_eq!(cube.get(coords), Some(v));
        }
        for rows in [&sliced, &diced] {
            for w in rows.windows(2) {
                assert!(w[0].0 < w[1].0, "canonical order");
            }
        }
    }

    #[test]
    fn breakdown_and_names_resolve() {
        let (full, mut explorer, engine) = engines();
        // A fallback cell and a materialized one: stored `IndexValues`
        // carry no per-unit data, so both compute once and then hit the
        // sharded breakdown cache.
        let fallback = engine.resolve(&[("sex", "F")], &[("region", "north")]).unwrap();
        let stored = engine.resolve(&[("sex", "F")], &[]).unwrap();
        assert!(engine.cube().get(&stored).is_some(), "cell should be materialized");
        for (n, coords) in [(1, &fallback), (2, &stored)] {
            let first = engine.unit_breakdown(coords).unwrap();
            assert_eq!(first, explorer.unit_breakdown(coords));
            assert_eq!(engine.stats().breakdown_computed, n);
            assert_eq!(engine.unit_breakdown(coords).unwrap(), first);
            assert_eq!(engine.stats().breakdown_computed, n, "no recomputation");
            assert_eq!(engine.stats().breakdown_cached, n);
        }
        assert_eq!(
            engine.query_by_names(&[("sex", "F")], &[]).unwrap(),
            *full.get(&stored).unwrap()
        );
        // Unknown names and role confusion are errors, not plausible answers.
        assert!(engine.query_by_names(&[("sex", "X")], &[]).is_err());
        assert!(engine.query_by_names(&[], &[("nope", "north")]).is_err());
        assert!(engine.query_by_names(&[("region", "north")], &[]).is_err(), "role confusion");
        assert!(engine.query_by_names(&[], &[("sex", "F")]).is_err(), "role confusion");
    }

    #[test]
    fn capacity_zero_disables_shard_caching() {
        let db = db();
        let closed = CubeBuilder::new().materialize(Materialize::ClosedOnly);
        let snap: CubeSnapshot = CubeSnapshot::from_db(&db, &closed).unwrap();
        let full = CubeBuilder::new().materialize(Materialize::AllFrequent).build(&db).unwrap();
        let engine = ConcurrentCubeEngine::with_config(snap, 4, 0);
        for round in 0..2 {
            for (coords, v) in full.cells() {
                assert_eq!(engine.query(coords).unwrap(), *v, "round {round}");
            }
        }
        let stats = engine.stats();
        assert_eq!(stats.cached, 0, "no cache to hit");
        assert!(stats.explored > 0);
        assert_eq!(stats.total(), 2 * full.len() as u64);
    }

    /// Item ids beyond the postings used to index out of bounds in
    /// `VerticalDb::tidset`, and an item on the wrong side silently
    /// addressed a cell outside the cube. Both are `InvalidParameter` from
    /// every entry point, and a refused request costs the engine nothing.
    #[test]
    fn hostile_coordinates_are_errors_not_panics() {
        let (full, _, engine) = engines();
        let good: Vec<CellCoords> = full.cells().map(|(c, _)| c.clone()).collect();
        let labels = engine.cube().labels();
        let n_items = labels.num_items() as u32;
        let sa_item = (0..n_items).find(|&i| labels.is_sa_item(i)).unwrap();
        let ca_item = (0..n_items).find(|&i| !labels.is_sa_item(i)).unwrap();
        let hostile = [
            CellCoords::new(vec![9999], vec![]),
            CellCoords::new(vec![], vec![9999]),
            CellCoords::new(vec![sa_item, u32::MAX], vec![ca_item]),
            CellCoords::new(vec![ca_item], vec![]),
            CellCoords::new(vec![], vec![sa_item]),
        ];
        let pool_before = lock(&engine.scratches).len();
        let refused = |r: Result<()>, what: &str| match r {
            Err(ScubeError::InvalidParameter(_)) => {}
            other => panic!("{what}: expected InvalidParameter, got {other:?}"),
        };
        for bad in &hostile {
            assert!(full.get(bad).is_none(), "hostile coordinates must miss the store");
            refused(engine.query(bad).map(drop), "query");
            refused(engine.unit_breakdown(bad).map(drop), "unit_breakdown");
            // In the middle of a batch, on the in-line and the spawning path.
            let mut batch = good.clone();
            batch.insert(good.len() / 2, bad.clone());
            for threads in [1, 4] {
                refused(engine.query_batch(&batch, threads).map(drop), "query_batch");
            }
        }
        assert!(lock(&engine.scratches).len() >= pool_before, "scratch pool shrank");
        assert_eq!(engine.stats().breakdowns(), 0, "a refused drill-down is not counted");

        // The engine still answers, bit-identically to the full build.
        let after = engine.query_batch(&good, 4).unwrap();
        for (c, got) in good.iter().zip(&after) {
            assert_eq!(full.get(c), Some(got));
            assert!(engine.unit_breakdown(c).is_ok());
        }
        assert!(!engine.top_k(SegIndex::Gini, 3, 1).is_empty());
    }

    /// `snapshot` is the inverse of `with_config`: warm both caches (and,
    /// for the mapped open, leave the store unscanned), and the engine
    /// still hands back exactly the bytes it was built from.
    #[test]
    fn snapshot_round_trips_after_warm_queries() {
        let db = db();
        let closed = CubeBuilder::new().materialize(Materialize::ClosedOnly);
        let heap: CubeSnapshot = CubeSnapshot::from_db(&db, &closed).unwrap();
        let path = std::env::temp_dir()
            .join(format!("scube_engine_snapshot_{}.scube", std::process::id()));
        heap.save(&path).unwrap();
        let mapped = CubeSnapshot::open_mmap(&path).unwrap();
        let full = CubeBuilder::new().materialize(Materialize::AllFrequent).build(&db).unwrap();
        for (what, snap) in [("heap", heap), ("mapped", mapped)] {
            let bytes = snap.to_bytes();
            let engine = ConcurrentCubeEngine::with_config(snap, 4, 64);
            for (coords, _) in full.cells() {
                engine.query(coords).unwrap();
                engine.unit_breakdown(coords).unwrap();
            }
            let stats = engine.stats();
            assert!(stats.explored > 0 && stats.breakdown_computed > 0, "{what}: caches warm");
            assert_eq!(engine.snapshot().to_bytes(), bytes, "{what}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shard_count_is_clamped_and_reported() {
        let db = db();
        let snap: CubeSnapshot = CubeSnapshot::from_db(&db, &CubeBuilder::new()).unwrap();
        let engine = ConcurrentCubeEngine::with_config(snap, 0, 64);
        assert_eq!(engine.shard_count(), 1, "shards clamp to at least 1");
    }
}
