//! `SegregationDataCubeBuilder`: fill the cube from frequent itemsets.
//!
//! The algorithm (from the companion journal paper) in this implementation:
//!
//! 1. build the vertical database (item → tidset bitmap);
//! 2. mine frequent itemsets *with their tidsets* (Eclat-style DFS,
//!    fanned out over threads when `parallel` is on); under
//!    [`Materialize::ClosedOnly`], keep only closed ones;
//! 3. split each itemset `I` into cell coordinates `(A, B)` by attribute
//!    role; the minority histogram is the per-unit partition of `tidset(I)`
//!    and the population histogram the per-unit partition of `tidset(B)`.
//!    Context tidsets are *reused from the miner's output* (a cell's
//!    context `B` is a subset of its itemset, hence itself frequent and
//!    already mined), so no posting is ever re-intersected; histograms are
//!    computed once per distinct context and cached as its run table
//!    ([`ContextTotals`]: the ascending `(unit, total)` list plus its
//!    `(t, k)` runs);
//! 4. evaluate the selected indexes per cell ([`IndexValues`]) from the
//!    context's run table and the cell's minority units, counted into
//!    per-worker reusable [`UnitScratch`] histograms and fanned out through
//!    [`scube_common::par`] when `parallel` is on. A cell costs
//!    O(|tidset|) for its histogram, a sort of its touched (minority)
//!    units, a galloping lookup of their totals in the context list, a
//!    sort of their `(t, m)` keys and a pass over the context's runs —
//!    never a per-unit histogram or sort of the whole context; an `A = ⋆`
//!    cell folds the context's runs alone. The same pairs are the cube's
//!    maintenance store: each cell's ascending `m > 0` pairs become its
//!    minority entry, and the context lists become the context entries.
//!    Each mined tidset is dropped once its cell is evaluated, so the store
//!    grows as the tidsets it replaces are freed.
//!
//! The parallel build is bit-identical to the serial one: the miner merges
//! per-subtree outputs deterministically and cell evaluation is pure.

use scube_bitmap::EwahBitmap;
use scube_common::mmap::Store;
use scube_common::{FxHashMap, FxHashSet, Result, ScubeError};
use scube_data::{ItemId, TableMeta, TransactionDb, UnitScratch, VerticalDb};
use scube_fpm::eclat::{mine_vertical_with_tidsets, mine_vertical_with_tidsets_parallel};
use scube_fpm::itemset::FrequentItemset;
use scube_segindex::{ContextTotals, IndexValues, MeasureSet, DEFAULT_ATKINSON_B};

use crate::coords::CellCoords;
use crate::cube::{CubeLabels, SegregationCube};
use crate::update::{encode_entry, MaintenanceStore};

/// Cell materialization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Materialize {
    /// One cell per frequent itemset (the full cube; the default, since
    /// every frequent coordinate combination answers exact lookups).
    #[default]
    AllFrequent,
    /// One cell per **closed** frequent itemset — the compression the
    /// paper's builder applies: a non-closed cell's minority statistics
    /// are recoverable from its closure (resolve arbitrary coordinates
    /// through [`crate::explore::CubeExplorer`]). Far fewer cells on
    /// correlated data; benchmarked in experiment E11.
    ClosedOnly,
}

/// Parameters of a cube build.
#[derive(Debug, Clone, Copy)]
pub struct CubeConfig {
    /// Minimum absolute support (population) of a cell.
    pub min_support: u64,
    /// Materialization strategy.
    pub materialize: Materialize,
    /// Atkinson shape parameter.
    pub atkinson_b: f64,
    /// Which segregation indexes to fold per cell (default: all six).
    pub measures: MeasureSet,
    /// Mine and evaluate on multiple threads.
    pub parallel: bool,
    /// Worker count when `parallel` (`None` = the host's parallelism).
    pub threads: Option<usize>,
}

impl Default for CubeConfig {
    fn default() -> Self {
        CubeConfig {
            min_support: 1,
            materialize: Materialize::default(),
            atkinson_b: DEFAULT_ATKINSON_B,
            measures: MeasureSet::FULL,
            parallel: false,
            threads: None,
        }
    }
}

/// One evaluated cell: coordinates, values, and its minority store entry
/// (`None` when the SA side is `⋆`).
type Evaluated = (CellCoords, IndexValues, Option<Store<u8>>);

/// Builds [`SegregationCube`]s.
///
/// ```
/// use scube_cube::{CubeBuilder, Materialize};
/// use scube_data::{Attribute, Schema, TransactionDbBuilder};
///
/// // Two units: women fill u0, men fill u1 — complete segregation.
/// let schema = Schema::new(vec![Attribute::sa("sex"), Attribute::ca("region")])?;
/// let mut b = TransactionDbBuilder::new(schema);
/// for (sex, unit) in [("F", "u0"), ("F", "u0"), ("M", "u1"), ("M", "u1")] {
///     b.add_row(&[vec![sex], vec!["north"]], unit)?;
/// }
/// let db = b.finish();
///
/// let cube = CubeBuilder::new()
///     .min_support(1)
///     .materialize(Materialize::AllFrequent)
///     .build(&db)?;
/// let women = cube.get_by_names(&[("sex", "F")], &[]).unwrap();
/// assert_eq!(women.dissimilarity, Some(1.0));
/// assert_eq!(women.minority, 2);
/// # Ok::<(), scube_common::ScubeError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CubeBuilder {
    config: CubeConfig,
}

impl CubeBuilder {
    /// Builder with default configuration.
    pub fn new() -> Self {
        CubeBuilder::default()
    }

    /// Set the minimum cell population.
    pub fn min_support(mut self, min_support: u64) -> Self {
        self.config.min_support = min_support;
        self
    }

    /// Set the materialization strategy.
    pub fn materialize(mut self, m: Materialize) -> Self {
        self.config.materialize = m;
        self
    }

    /// Set the Atkinson shape parameter.
    pub fn atkinson_b(mut self, b: f64) -> Self {
        self.config.atkinson_b = b;
        self
    }

    /// Select which segregation indexes each cell folds (default: all six,
    /// [`MeasureSet::FULL`] — the paper's full suite). A subset build
    /// leaves the unselected `IndexValues` fields `None`, and its snapshot
    /// stores only the selected measures.
    pub fn measures(mut self, measures: MeasureSet) -> Self {
        self.config.measures = measures;
        self
    }

    /// Toggle parallel mining and histogram evaluation.
    pub fn parallel(mut self, on: bool) -> Self {
        self.config.parallel = on;
        self
    }

    /// Pin the worker count of a parallel build (benchmarks; the default
    /// is [`scube_common::par::host_threads`], and any count is clamped by
    /// [`scube_common::par::workers`]).
    pub fn threads(mut self, n: usize) -> Self {
        self.config.threads = (n > 0).then_some(n);
        self
    }

    /// The current configuration.
    pub fn config(&self) -> &CubeConfig {
        &self.config
    }

    /// Build the cube of a horizontal database.
    pub fn build(&self, db: &TransactionDb) -> Result<SegregationCube> {
        self.build_from_vertical(db, &VerticalDb::build(db))
    }

    /// Build over a pre-constructed vertical database.
    pub fn build_from_vertical(
        &self,
        db: &TransactionDb,
        vertical: &VerticalDb,
    ) -> Result<SegregationCube> {
        if db.num_units() == 0 && !db.is_empty() {
            return Err(ScubeError::Inconsistent("database has rows but no units".into()));
        }
        self.build_from_labels(CubeLabels::from_db(db), vertical)
    }

    /// Build over a chunked construction's output: the vertical database
    /// plus its [`TableMeta`] — no horizontal [`TransactionDb`] anywhere.
    /// Mining, closedness, histograms, and index evaluation all run off the
    /// postings, so a chunked build's cube (and snapshot) is byte-identical
    /// to the resident path's on the same table.
    pub fn build_streaming(
        &self,
        meta: &TableMeta,
        vertical: &VerticalDb,
    ) -> Result<SegregationCube> {
        self.build_from_labels(CubeLabels::from_meta(meta), vertical)
    }

    /// The shared build core: everything runs off the vertical database and
    /// the label snapshot (itemset → cell splits use the labels' SA roles).
    fn build_from_labels(
        &self,
        labels: CubeLabels,
        vertical: &VerticalDb,
    ) -> Result<SegregationCube> {
        let cfg = &self.config;
        if cfg.min_support == 0 {
            return Err(ScubeError::InvalidParameter("min_support must be >= 1".into()));
        }
        if vertical.num_units() == 0 && vertical.num_transactions() > 0 {
            return Err(ScubeError::Inconsistent("database has rows but no units".into()));
        }
        if labels.unit_names.len() != vertical.num_units() as usize {
            return Err(ScubeError::Inconsistent(format!(
                "{} unit names for {} units in the vertical database",
                labels.unit_names.len(),
                vertical.num_units()
            )));
        }

        let n_threads = if cfg.parallel {
            cfg.threads.unwrap_or_else(scube_common::par::host_threads)
        } else {
            1
        };

        // 1-2. Mine frequent itemsets with tidsets (fanning prefix subtrees
        // out over workers when parallel; both paths are bit-identical).
        let mut mined: Vec<(FrequentItemset, EwahBitmap)> = if n_threads > 1 {
            mine_vertical_with_tidsets_parallel(vertical, cfg.min_support, n_threads)?
        } else {
            mine_vertical_with_tidsets(vertical, cfg.min_support)?
        };

        // 3. Split every itemset into (A, B) coordinates by attribute role.
        let mut splits: Vec<CellCoords> = mined
            .iter()
            .map(|(set, _)| CellCoords::split_sorted(&set.items, |it| labels.is_sa_item(it)))
            .collect();

        // Under ClosedOnly, mark survivors now but filter *after* harvesting
        // context tidsets: a kept cell's context may itself be non-closed.
        let keep: Option<Vec<bool>> = (cfg.materialize == Materialize::ClosedOnly).then(|| {
            let positions = scube_fpm::closed::closed_positions(mined.len(), |i| {
                (mined[i].0.items.as_slice(), mined[i].0.support)
            });
            let mut mask = vec![false; mined.len()];
            for i in positions {
                mask[i] = true;
            }
            mask
        });

        // Population histogram (context ⋆).
        let n_units = vertical.num_units() as usize;
        let mut population = vec![0u64; n_units];
        for &u in vertical.units() {
            population[u as usize] += 1;
        }

        // Every context B of a cell (A, B) is a subset of the cell's
        // itemset, hence frequent and already mined with its tidset: index
        // the pure-context itemsets instead of re-intersecting postings.
        let mut context_source: FxHashMap<&[ItemId], &EwahBitmap> = FxHashMap::default();
        for ((set, tids), coords) in mined.iter().zip(&splits) {
            if coords.sa.is_empty() && !coords.ca.is_empty() {
                context_source.insert(set.items.as_slice(), tids);
            }
        }

        // Distinct contexts referenced by surviving cells, in first-seen
        // order (the job order of the fan-out below).
        let mut distinct_contexts: Vec<&CellCoords> = Vec::new();
        let mut seen_contexts: FxHashSet<&[ItemId]> = FxHashSet::default();
        for (i, coords) in splits.iter().enumerate() {
            if keep.as_ref().is_some_and(|mask| !mask[i]) {
                continue;
            }
            if !coords.ca.is_empty() && seen_contexts.insert(coords.ca.as_slice()) {
                distinct_contexts.push(coords);
            }
        }

        // Per-context run tables over compact ascending (unit, total) lists,
        // one job per context, with per-worker scratch buffers.
        let mut context_hists: FxHashMap<Vec<ItemId>, ContextTotals> =
            scube_common::hash::fx_map_with_capacity(distinct_contexts.len() + 1);
        context_hists.insert(
            Vec::new(),
            ContextTotals::new(
                population
                    .iter()
                    .enumerate()
                    .filter(|&(_, &t)| t > 0)
                    .map(|(u, &t)| (u as u32, t))
                    .collect(),
            )?,
        );
        let contexts = scube_common::par::map(
            distinct_contexts,
            n_threads,
            || UnitScratch::new(n_units as u32),
            |scratch, coords| {
                vertical.unit_histogram_into(context_source[coords.ca.as_slice()], scratch);
                Ok((coords.ca.clone(), ContextTotals::new(scratch.sorted_pairs())?))
            },
        )?;
        context_hists.extend(contexts);
        drop(seen_contexts);
        drop(context_source);

        // Apply the ClosedOnly filter now that contexts are harvested.
        if let Some(mask) = keep {
            let mut keep_iter = mask.iter();
            mined.retain(|_| *keep_iter.next().expect("mask covers mined"));
            let mut keep_iter = mask.iter();
            splits.retain(|_| *keep_iter.next().expect("mask covers splits"));
        }

        // 4. Evaluate cells, consuming each mined tidset as its cell is
        // evaluated, and emit the store from the same pairs: the cell's
        // touched units, sorted, are its ascending `m > 0` pairs — the
        // minority entry, and what the cell folds from beside the context's
        // runs. An `A = ⋆` cell's minority is its context: it folds the runs
        // alone.
        let atkinson_b = cfg.atkinson_b;
        let measures = cfg.measures;
        let evaluated = scube_common::par::map(
            mined.into_iter().zip(splits),
            n_threads,
            || (UnitScratch::new(n_units as u32), Vec::new()),
            |(scratch, pairs), ((_, tids), coords)| -> Result<Evaluated> {
                let context = &context_hists[&coords.ca];
                if coords.sa.is_empty() {
                    return Ok((coords, context.fold_whole(atkinson_b, measures), None));
                }
                vertical.unit_histogram_into(&tids, scratch);
                scratch.sorted_pairs_into(pairs);
                let values = context.fold(pairs, atkinson_b, measures)?;
                Ok((coords, values, Some(encode_entry(pairs))))
            },
        )?;
        let mut cells: FxHashMap<CellCoords, IndexValues> =
            scube_common::hash::fx_map_with_capacity(evaluated.len() + 1);
        let mut store = MaintenanceStore::default();
        for (coords, values, minority) in evaluated {
            if let Some(entry) = minority {
                store.minorities.insert(coords.clone(), entry);
            }
            cells.insert(coords, values);
        }
        // Apex cell (⋆ | ⋆): whole population vs itself.
        let apex = context_hists[&Vec::new()].fold_whole(atkinson_b, measures);
        cells.insert(CellCoords::apex(), apex);
        store.contexts = context_hists
            .into_iter()
            .map(|(ca, totals)| (ca, encode_entry(totals.units())))
            .collect();

        Ok(SegregationCube::new(cells, labels, cfg, store))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scube_data::{Attribute, Schema, TransactionDbBuilder};
    use scube_segindex::UnitCounts;

    /// 40 individuals across 2 units, engineered so that women concentrate
    /// in unit u0 within the north and are even in the south.
    fn sample_db() -> TransactionDb {
        let schema = Schema::new(vec![Attribute::sa("sex"), Attribute::ca("region")]).unwrap();
        let mut b = TransactionDbBuilder::new(schema);
        let mut add = |sex: &str, region: &str, unit: &str, n: usize| {
            for _ in 0..n {
                b.add_row(&[vec![sex], vec![region]], unit).unwrap();
            }
        };
        // North: u0 = 8F+2M, u1 = 2F+8M  → segregated by sex.
        add("F", "north", "u0", 8);
        add("M", "north", "u0", 2);
        add("F", "north", "u1", 2);
        add("M", "north", "u1", 8);
        // South: u0 = 5F+5M, u1 = 5F+5M → perfectly even.
        add("F", "south", "u0", 5);
        add("M", "south", "u0", 5);
        add("F", "south", "u1", 5);
        add("M", "south", "u1", 5);
        b.finish()
    }

    #[test]
    fn hand_computed_cell_values() {
        let db = sample_db();
        let cube = CubeBuilder::new()
            .min_support(1)
            .materialize(Materialize::AllFrequent)
            .build(&db)
            .unwrap();
        // Cell (sex=F | region=north): units (m,t) = (8,10), (2,10).
        // D = ½(|8/10 − 2/10| + |2/10 − 8/10|) = 0.6.
        let v = cube.get_by_names(&[("sex", "F")], &[("region", "north")]).unwrap();
        assert!((v.dissimilarity.unwrap() - 0.6).abs() < 1e-9);
        assert_eq!(v.minority, 10);
        assert_eq!(v.total, 20);
        // Cell (sex=F | region=south): perfectly even → D = 0.
        let v = cube.get_by_names(&[("sex", "F")], &[("region", "south")]).unwrap();
        assert!((v.dissimilarity.unwrap()).abs() < 1e-9);
        // Cell (sex=F | *): overall: u0 = 13F/20? u0 total = 20, F in u0 = 13;
        // u1: F = 7, total 20. D = ½(|13/20−7/20|·2)/... compute directly:
        // m = (13, 7), t = (20, 20), M = 20, T = 40.
        // minority shares (0.65, 0.35), majority ((20−13)/20=0.35, 0.65)/…
        // majority shares = (7/20, 13/20) = (0.35, 0.65).
        // D = ½(|0.65−0.35| + |0.35−0.65|) = 0.3.
        let v = cube.get_by_names(&[("sex", "F")], &[]).unwrap();
        assert!((v.dissimilarity.unwrap() - 0.3).abs() < 1e-9, "{:?}", v.dissimilarity);
    }

    #[test]
    fn apex_cell_present_and_degenerate() {
        let db = sample_db();
        let cube = CubeBuilder::new().build(&db).unwrap();
        let apex = cube.get(&CellCoords::apex()).unwrap();
        assert_eq!(apex.minority, 40);
        assert_eq!(apex.total, 40);
        assert_eq!(apex.dissimilarity, None); // M = T ⇒ evenness undefined
    }

    #[test]
    fn sa_star_cells_have_full_context_population_as_minority() {
        let db = sample_db();
        let cube = CubeBuilder::new().materialize(Materialize::AllFrequent).build(&db).unwrap();
        let v = cube.get_by_names(&[], &[("region", "north")]).unwrap();
        assert_eq!(v.minority, v.total);
        assert_eq!(v.total, 20);
    }

    #[test]
    fn min_support_prunes_cells() {
        let db = sample_db();
        let small = CubeBuilder::new()
            .min_support(15)
            .materialize(Materialize::AllFrequent)
            .build(&db)
            .unwrap();
        let large = CubeBuilder::new()
            .min_support(1)
            .materialize(Materialize::AllFrequent)
            .build(&db)
            .unwrap();
        assert!(small.len() < large.len());
        // Every cell in the small cube is above the support threshold.
        for (coords, v) in small.cells() {
            if !coords.is_empty() {
                assert!(v.minority >= 15, "{}: {}", small.labels().describe(coords), v.minority);
            }
        }
    }

    #[test]
    fn closed_cube_is_a_restriction_of_full_cube() {
        let db = sample_db();
        let full = CubeBuilder::new().materialize(Materialize::AllFrequent).build(&db).unwrap();
        let closed = CubeBuilder::new().materialize(Materialize::ClosedOnly).build(&db).unwrap();
        assert!(closed.len() <= full.len());
        for (coords, v) in closed.cells() {
            let in_full = full.get(coords).expect("closed cell missing from full cube");
            assert_eq!(v, in_full, "cell {}", closed.labels().describe(coords));
        }
    }

    #[test]
    fn parallel_build_matches_serial() {
        let db = sample_db();
        let serial = CubeBuilder::new()
            .materialize(Materialize::AllFrequent)
            .parallel(false)
            .build(&db)
            .unwrap();
        for threads in [0, 2, 3, 8] {
            let parallel = CubeBuilder::new()
                .materialize(Materialize::AllFrequent)
                .parallel(true)
                .threads(threads)
                .build(&db)
                .unwrap();
            assert_eq!(serial.len(), parallel.len(), "threads {threads}");
            for (coords, v) in serial.cells() {
                assert_eq!(parallel.get(coords), Some(v), "threads {threads}");
            }
        }
    }

    #[test]
    fn subset_measures_mask_the_fold_bit_exactly() {
        use scube_segindex::SegIndex;
        let db = sample_db();
        let full = CubeBuilder::new().materialize(Materialize::AllFrequent).build(&db).unwrap();
        let set = MeasureSet::only(SegIndex::Gini).with(SegIndex::Isolation);
        let subset = CubeBuilder::new()
            .materialize(Materialize::AllFrequent)
            .measures(set)
            .build(&db)
            .unwrap();
        assert_eq!(full.len(), subset.len(), "measure selection never changes the cell set");
        for (coords, v) in subset.cells() {
            let reference = full.get(coords).expect("same coordinates");
            assert_eq!(v.minority, reference.minority);
            assert_eq!(v.total, reference.total);
            assert_eq!(v.num_units, reference.num_units);
            for idx in SegIndex::ALL {
                let expected = if set.contains(idx) { reference.get(idx) } else { None };
                assert_eq!(v.get(idx).map(f64::to_bits), expected.map(f64::to_bits), "{idx}");
            }
        }
    }

    /// 300 rows over 9 units with a multi-valued `sector` (one or two
    /// values a row): over 256 mined itemsets and 64 contexts at support 2,
    /// so both parallel fan-outs of the builder really split.
    fn multi_valued_db() -> TransactionDb {
        let schema = Schema::new(vec![
            Attribute::sa("sex"),
            Attribute::sa("age"),
            Attribute::ca("region"),
            Attribute::ca("sector").multi(),
            Attribute::ca("size"),
        ])
        .unwrap();
        let mut b = TransactionDbBuilder::new(schema);
        let mut state = 0x2545_f491_u64;
        let mut next = |n: u64| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((state >> 33) % n) as usize
        };
        let sectors = ["agri", "edu", "energy", "retail", "transport"];
        for _ in 0..300 {
            let (first, second) = (next(5), next(5));
            let mut sector = vec![sectors[first]];
            if next(3) == 0 && second != first {
                sector.push(sectors[second]);
            }
            let row = [
                vec![["F", "M"][next(2)]],
                vec![["young", "mid", "old"][next(3)]],
                vec![["north", "south", "east", "west"][next(4)]],
                sector,
                vec![["small", "large", "huge"][next(3)]],
            ];
            b.add_row(&row, &format!("u{}", next(9))).unwrap();
        }
        b.finish()
    }

    /// Ascending `(unit, count)` pairs of the rows holding every item of
    /// `items`, counted off the horizontal rows — no posting, no miner.
    fn counted_from_rows(db: &TransactionDb, items: &[ItemId]) -> Vec<(u32, u64)> {
        let mut counts = std::collections::BTreeMap::new();
        for (row, unit) in db.iter() {
            if items.iter().all(|it| row.contains(it)) {
                *counts.entry(unit).or_insert(0u64) += 1;
            }
        }
        counts.into_iter().collect()
    }

    #[test]
    fn store_matches_histograms_counted_from_rows() {
        use scube_segindex::SegIndex;
        let subset = MeasureSet::only(SegIndex::Gini).with(SegIndex::Isolation);
        for (name, db, min_support) in
            [("sample", sample_db(), 1), ("multi-valued", multi_valued_db(), 2)]
        {
            for materialize in [Materialize::AllFrequent, Materialize::ClosedOnly] {
                for threads in [1, 2, 3] {
                    for measures in [MeasureSet::FULL, subset] {
                        let cube = CubeBuilder::new()
                            .min_support(min_support)
                            .materialize(materialize)
                            .measures(measures)
                            .parallel(threads > 1)
                            .threads(threads)
                            .build(&db)
                            .unwrap();
                        let case = format!("{name} {materialize:?} threads {threads} {measures:?}");
                        let n_units = cube.num_units();
                        let decode =
                            |entry: &[u8]| crate::histogram::decode(entry, n_units).unwrap();
                        let store = &cube.store;
                        let contexts: FxHashSet<&[ItemId]> =
                            cube.cells().map(|(c, _)| c.ca.as_slice()).collect();
                        assert_eq!(store.contexts.len(), contexts.len(), "{case}: context keys");
                        for ca in contexts {
                            let entry = store.contexts.get(ca).expect("every context stored");
                            assert_eq!(decode(entry), counted_from_rows(&db, ca), "{case}: {ca:?}");
                        }
                        let cells: Vec<&CellCoords> =
                            cube.cells().map(|(c, _)| c).filter(|c| !c.sa.is_empty()).collect();
                        assert_eq!(store.minorities.len(), cells.len(), "{case}: minority keys");
                        for coords in cells {
                            let entry = store.minorities.get(coords).expect("every cell stored");
                            let want = counted_from_rows(&db, &coords.union());
                            assert_eq!(decode(entry), want, "{case}: {coords:?}");
                        }
                        // The run-table fold ≡ the per-unit fold of the
                        // histograms counted from rows, `m = 0` units and
                        // `A = ⋆` cells included.
                        for (coords, values) in cube.cells() {
                            let totals = counted_from_rows(&db, &coords.ca);
                            let minority = counted_from_rows(&db, &coords.union());
                            let m_of =
                                |u: u32| minority.iter().find(|p| p.0 == u).map_or(0, |p| p.1);
                            let counts = UnitCounts::from_triples(
                                totals.iter().map(|&(u, t)| (u, m_of(u), t)),
                            )
                            .unwrap();
                            let want =
                                IndexValues::compute_masked(&counts, DEFAULT_ATKINSON_B, measures);
                            assert_eq!(values, &want, "{case}: values of {coords:?}");
                        }
                        if name == "multi-valued" && materialize == Materialize::AllFrequent {
                            assert!(cube.len() > 257 && store.contexts.len() > 64, "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_min_support_rejected() {
        let db = sample_db();
        assert!(CubeBuilder::new().min_support(0).build(&db).is_err());
    }

    #[test]
    fn rollup_navigation() {
        let db = sample_db();
        let cube = CubeBuilder::new().materialize(Materialize::AllFrequent).build(&db).unwrap();
        let coords = cube.coords_by_names(&[("sex", "F")], &[("region", "north")]).unwrap();
        let rolled = cube.rollup(&coords, "region").unwrap();
        let direct = cube.get_by_names(&[("sex", "F")], &[]).unwrap();
        assert_eq!(rolled, direct);
    }
}
