//! `SegregationDataCubeBuilder`: fill the cube from frequent itemsets.
//!
//! The algorithm (from the companion journal paper) in this implementation:
//!
//! 1. build the vertical database (item → tidset bitmap);
//! 2. walk the frequent itemsets with Eclat's emitting DFS
//!    ([`scube_fpm::eclat::walk`]), one job per root subtree, fanned out
//!    through [`scube_common::par`] when `parallel` is on. The roots are
//!    ordered CA items first, so a cell's context `B` is a prefix of its
//!    itemset `B ∪ A` in DFS order: an ancestor of the cell's node. Each
//!    node is folded as the DFS reaches it and its tidset is dropped, so a
//!    build holds one root-to-leaf path of extension lists, never every
//!    mined tidset at once;
//! 3. split each node's itemset into cell coordinates `(A, B)` by attribute
//!    role. A pure-CA node is the context of every cell in its subtree: its
//!    per-unit histogram is counted from the tidset live at it and kept, while
//!    the DFS is below it, as its run table ([`ContextTotals`]: the ascending
//!    `(unit, total)` list plus its `(t, k)` runs). No posting is ever
//!    re-intersected and each context is histogrammed once;
//! 4. evaluate the selected indexes per cell ([`IndexValues`]) from the
//!    context's run table and the cell's minority units, counted into
//!    per-worker reusable [`UnitScratch`] histograms. A cell costs
//!    O(|tidset|) for its histogram, a sort of its touched (minority)
//!    units, a galloping lookup of their totals in the context list, a
//!    sort of their `(t, m)` keys and a pass over the context's runs —
//!    never a per-unit histogram or sort of the whole context; an `A = ⋆`
//!    cell folds the context's runs alone. The same pairs are the cube's
//!    maintenance store: each cell's ascending `m > 0` pairs become its
//!    minority entry, and the context lists become the context entries.
//!
//! Under [`Materialize::ClosedOnly`], a node its DFS path proves not closed
//! (it lacks an item that extends a node of the path at equal support) is
//! not folded. A closedness test over every emitted `(items, support)` pair
//! drops the other non-closed nodes at the end, and the store keeps only
//! the contexts a kept cell references.
//!
//! The parallel build is bit-identical to the serial one: workers return
//! what they fold keyed by coordinates, and cell evaluation is pure.

use scube_bitmap::EwahBitmap;
use scube_common::mmap::Store;
use scube_common::{FxHashMap, FxHashSet, Result, ScubeError};
use scube_data::{ItemId, TableMeta, TransactionDb, UnitScratch, VerticalDb};
use scube_fpm::closed::closed_positions;
use scube_fpm::eclat::{frequent_roots, walk, Node};
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

        // Population (context ⋆): the totals of the apex and of SA-only cells.
        let n_units = vertical.num_units() as usize;
        let mut population = vec![0u64; n_units];
        for &u in vertical.units() {
            population[u as usize] += 1;
        }
        let population = ContextTotals::new(
            population
                .iter()
                .enumerate()
                .filter(|&(_, &t)| t > 0)
                .map(|(u, &t)| (u as u32, t))
                .collect(),
        )?;

        // 2. Roots CA items first (a stable sort keeps ascending support
        // within each role): a cell's context is then a prefix of its
        // itemset in DFS order, so an ancestor of the cell's node.
        let mut roots = frequent_roots(vertical, cfg.min_support)?;
        roots.sort_by_key(|&(item, _)| labels.is_sa_item(item));

        // 3-4. One job per root subtree: each worker folds every node the
        // DFS emits and drops its tidset before the next one.
        let fold = FoldInputs { vertical, labels: &labels, population: &population, config: cfg };
        let roots = &roots;
        let subtrees = scube_common::par::map(
            0..roots.len(),
            n_threads,
            || (EwahBitmap::default(), Folder::new(n_units as u32)),
            |(join, folder), root| {
                let mut out = Subtree::default();
                walk(roots, root, cfg.min_support, join, &mut |node| {
                    folder.emit(node, &fold, &mut out)
                })?;
                Ok(out)
            },
        )?;

        // Under ClosedOnly, the closed nodes among all emitted: this finds
        // the non-closed nodes their DFS path could not prove so.
        let closed: Option<Vec<bool>> = (cfg.materialize == Materialize::ClosedOnly).then(|| {
            let nodes: Vec<&(Vec<ItemId>, u64)> =
                subtrees.iter().flat_map(|subtree| &subtree.nodes).collect();
            let mut mask = vec![false; nodes.len()];
            for i in closed_positions(nodes.len(), |i| (nodes[i].0.as_slice(), nodes[i].1)) {
                mask[i] = true;
            }
            mask
        });

        let folded: usize = subtrees.iter().map(|subtree| subtree.cells.len()).sum();
        let mut cells: FxHashMap<CellCoords, IndexValues> =
            scube_common::hash::fx_map_with_capacity(folded + 1);
        let mut store = MaintenanceStore {
            minorities: scube_common::hash::fx_map_with_capacity(folded),
            ..MaintenanceStore::default()
        };
        let mut contexts = Vec::new();
        let mut offset = 0;
        for subtree in subtrees {
            for (index, (coords, values, minority)) in subtree.cells {
                if closed.as_ref().is_some_and(|mask| !mask[offset + index]) {
                    continue;
                }
                if let Some(entry) = minority {
                    store.minorities.insert(coords.clone(), entry);
                }
                cells.insert(coords, values);
            }
            offset += subtree.nodes.len();
            contexts.extend(subtree.contexts);
        }
        // The store keeps only the contexts a kept cell references.
        let referenced: FxHashSet<&[ItemId]> = cells.keys().map(|c| c.ca.as_slice()).collect();
        store.contexts =
            contexts.into_iter().filter(|(ca, _)| referenced.contains(ca.as_slice())).collect();
        store.contexts.insert(Vec::new(), encode_entry(population.units()));
        // Apex cell (⋆ | ⋆): whole population vs itself.
        cells.insert(CellCoords::apex(), population.fold_whole(cfg.atkinson_b, cfg.measures));

        Ok(SegregationCube::new(cells, labels, cfg, store))
    }
}

/// The read-only inputs every worker folds against.
struct FoldInputs<'a> {
    vertical: &'a VerticalDb,
    labels: &'a CubeLabels,
    population: &'a ContextTotals,
    config: &'a CubeConfig,
}

/// What one root's subtree emits: every node's sorted itemset and support
/// (the closedness test's input), the cells folded at emit, each with its
/// node's index, and the store entry of every context built on the way.
#[derive(Default)]
struct Subtree {
    nodes: Vec<(Vec<ItemId>, u64)>,
    cells: Vec<(usize, Evaluated)>,
    contexts: Vec<(Vec<ItemId>, Store<u8>)>,
}

/// One worker's reusable fold state and its view of the current DFS path.
struct Folder {
    scratch: UnitScratch,
    pairs: Vec<(u32, u64)>,
    /// The run tables of the path's pure-CA nodes: `contexts[d]` is the
    /// context at depth `d + 1`.
    contexts: Vec<ContextTotals>,
    /// Per node of the path: the items that extend it at equal support.
    equal: Vec<Vec<ItemId>>,
}

impl Folder {
    fn new(n_units: u32) -> Self {
        Folder {
            scratch: UnitScratch::new(n_units),
            pairs: Vec::new(),
            contexts: Vec::new(),
            equal: Vec::new(),
        }
    }

    /// Fold one emitted node, then drop its tidset. A pure-CA node is the
    /// context of every cell in its subtree: its run table is built here,
    /// from the tidset live at it, before any of those cells is emitted.
    ///
    /// Under ClosedOnly a node that lacks an item `e` extending some node
    /// `N` of its path (itself included) at equal support is not closed,
    /// since `tids(M ∪ e) = tids(M ∖ N) ∩ tids(N ∪ e) = tids(M)`: it is not
    /// folded. The closedness test at the end drops any other non-closed
    /// node (one whose equal-support superset adds an item earlier in root
    /// order than its path can see).
    fn emit(&mut self, node: Node<'_>, fold: &FoldInputs<'_>, out: &mut Subtree) -> Result<()> {
        let support = node.tids.cardinality();
        let depth = node.items.len();
        let mut items = node.items.to_vec();
        items.sort_unstable();
        let coords = CellCoords::split_sorted(&items, |it| fold.labels.is_sa_item(it));
        debug_assert!(
            node.items[..coords.ca.len()].iter().all(|&it| !fold.labels.is_sa_item(it)),
            "a node's CA items lead its DFS path"
        );
        let index = out.nodes.len();
        out.nodes.push((items, support));
        if coords.sa.is_empty() {
            fold.vertical.unit_histogram_into(&node.tids, &mut self.scratch);
            let totals = ContextTotals::new(self.scratch.sorted_pairs())?;
            out.contexts.push((coords.ca.clone(), encode_entry(totals.units())));
            self.contexts.truncate(depth - 1);
            self.contexts.push(totals);
        }
        self.equal.truncate(depth - 1);
        self.equal.push(
            node.extensions
                .iter()
                .filter(|(_, tids)| tids.cardinality() == support)
                .map(|&(item, _)| item)
                .collect(),
        );
        let cfg = fold.config;
        if cfg.materialize == Materialize::ClosedOnly
            && self.equal.iter().flatten().any(|item| !node.items.contains(item))
        {
            return Ok(());
        }
        let context = match coords.ca.len() {
            0 => fold.population,
            k => &self.contexts[k - 1],
        };
        // An `A = ⋆` cell's minority is its context: it folds the runs
        // alone. Any other cell's touched units, sorted, are its ascending
        // `m > 0` pairs — its minority entry, and what it folds from beside
        // the context's runs.
        let evaluated = if coords.sa.is_empty() {
            (coords, context.fold_whole(cfg.atkinson_b, cfg.measures), None)
        } else {
            fold.vertical.unit_histogram_into(&node.tids, &mut self.scratch);
            self.scratch.sorted_pairs_into(&mut self.pairs);
            let values = context.fold(&self.pairs, cfg.atkinson_b, cfg.measures)?;
            (coords, values, Some(encode_entry(&self.pairs)))
        };
        out.cells.push((index, evaluated));
        Ok(())
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
        use scube_fpm::Miner;
        for (db, min_support) in [(sample_db(), 1), (multi_valued_db(), 2)] {
            let build = |materialize| {
                CubeBuilder::new().min_support(min_support).materialize(materialize).build(&db)
            };
            let full = build(Materialize::AllFrequent).unwrap();
            let closed = build(Materialize::ClosedOnly).unwrap();
            // Exactly the closed frequent itemsets (and the apex) are cells.
            let mut want: Vec<CellCoords> = scube_fpm::FpGrowth
                .mine_closed(&db, min_support)
                .unwrap()
                .iter()
                .map(|set| CellCoords::from_itemset(&set.items, &db))
                .chain([CellCoords::apex()])
                .collect();
            want.sort();
            let mut got: Vec<CellCoords> = closed.cells().map(|(c, _)| c.clone()).collect();
            got.sort();
            assert_eq!(got, want);
            for (coords, v) in closed.cells() {
                let in_full = full.get(coords).expect("closed cell missing from full cube");
                assert_eq!(v, in_full, "cell {}", closed.labels().describe(coords));
            }
        }
    }

    #[test]
    fn closed_cell_keeps_its_non_closed_context() {
        // Every northern row is a woman: `{north}` is not closed (its
        // closure adds `F`), yet `(F | north)` is a closed cell whose
        // context is `{north}`.
        let schema = Schema::new(vec![Attribute::sa("sex"), Attribute::ca("region")]).unwrap();
        let mut b = TransactionDbBuilder::new(schema);
        for (sex, region, unit, n) in [
            ("F", "north", "u0", 4),
            ("F", "north", "u1", 2),
            ("F", "south", "u0", 3),
            ("M", "south", "u1", 5),
            ("M", "south", "u0", 1),
        ] {
            for _ in 0..n {
                b.add_row(&[vec![sex], vec![region]], unit).unwrap();
            }
        }
        let db = b.finish();
        let full = CubeBuilder::new().materialize(Materialize::AllFrequent).build(&db).unwrap();
        let closed = CubeBuilder::new().materialize(Materialize::ClosedOnly).build(&db).unwrap();
        let cell = closed.coords_by_names(&[("sex", "F")], &[("region", "north")]).unwrap();
        assert_eq!(closed.get(&cell), full.get(&cell));
        assert!(closed.get(&cell).is_some());
        let context = closed.coords_by_names(&[], &[("region", "north")]).unwrap();
        assert!(closed.get(&context).is_none(), "the context itself is not closed");
        assert_eq!(
            crate::histogram::decode(&closed.store.contexts[&cell.ca], 2).unwrap(),
            [(0, 4), (1, 2)]
        );
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
