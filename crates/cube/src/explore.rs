//! On-demand cell evaluation for interactive exploration.
//!
//! A [`crate::builder::Materialize::ClosedOnly`] cube stores one cell per
//! closed itemset; an analyst exploring the cube may ask for *any*
//! coordinates (Fig. 1 shows arbitrary ⋆ combinations). The explorer
//! answers such queries exactly by going back to the vertical database:
//! the minority statistics of `(A, B)` equal those of the closure of
//! `A ∪ B`, and the population statistics those of the closure of `B`, so
//! recomputing from tidsets gives the same numbers the full cube would
//! store — property-tested in `tests/cube_properties.rs`.
//!
//! The explorer splits cleanly into an **immutable** half (the vertical
//! postings and the Atkinson parameter, shared freely across threads) and a
//! **mutable** half ([`ExplorerScratch`]: two reusable [`UnitScratch`]
//! histograms, the cell's minority pairs and its context and minority
//! tidsets as dense words). The `&mut self` methods
//! ([`CubeExplorer::values_at`], [`CubeExplorer::unit_breakdown`]) lend the
//! explorer's own scratch to the same evaluation — the convenient form for
//! a reference computation — while the `_with` variants take `&self` plus
//! an external scratch, which is what lets the query engine
//! ([`crate::serve::ConcurrentCubeEngine`]) share one explorer across
//! worker threads, each with a checked-out scratch, so cold recomputation
//! never allocates per query.

use scube_common::Result;
use scube_data::{TransactionDb, UnitScratch, VerticalDb};
use scube_segindex::{ContextTotals, IndexValues, MeasureSet, DEFAULT_ATKINSON_B};

use crate::coords::CellCoords;

/// The mutable half of cell evaluation: two reusable per-unit histograms
/// (minority and population), the buffer of the cell's minority pairs, and
/// the context and minority tidsets as dense words, which grow on first use
/// to the spans the queries need. One scratch per worker thread lets any
/// number of threads evaluate cells through a shared [`CubeExplorer`]
/// without a single histogram allocation.
#[derive(Debug, Clone)]
pub struct ExplorerScratch {
    minority: UnitScratch,
    total: UnitScratch,
    pairs: Vec<(u32, u64)>,
    context_words: Vec<u64>,
    minority_words: Vec<u64>,
}

impl ExplorerScratch {
    /// Scratch for databases with `n_units` organizational units.
    pub fn new(n_units: u32) -> Self {
        ExplorerScratch {
            minority: UnitScratch::new(n_units),
            total: UnitScratch::new(n_units),
            pairs: Vec::new(),
            context_words: Vec::new(),
            minority_words: Vec::new(),
        }
    }
}

/// Evaluates arbitrary cube cells directly from a vertical database.
///
/// Single-threaded queries take `&mut self` and reuse the explorer's own
/// [`ExplorerScratch`]; concurrent callers use [`Self::values_at_with`] /
/// [`Self::unit_breakdown_with`] through `&self` with per-worker scratches.
/// Either way a query allocates no per-unit arrays and costs
/// `O(Σ|tidset| + |touched units|)` rather than `O(n_units)`, and folds the
/// cell from its context's run table ([`ContextTotals`]) and its minority
/// pairs — the builder's fold, so the floats are the materialized cell's.
#[derive(Debug)]
pub struct CubeExplorer {
    vertical: VerticalDb,
    atkinson_b: f64,
    measures: MeasureSet,
    scratch: ExplorerScratch,
}

impl CubeExplorer {
    /// Build an explorer over a database.
    pub fn new(db: &TransactionDb) -> Self {
        Self::from_vertical(VerticalDb::build(db))
    }

    /// Wrap an existing vertical database (e.g. one loaded from a
    /// [`crate::snapshot::CubeSnapshot`]) without touching the original
    /// horizontal data.
    pub fn from_vertical(vertical: VerticalDb) -> Self {
        let n_units = vertical.num_units();
        CubeExplorer {
            vertical,
            atkinson_b: DEFAULT_ATKINSON_B,
            measures: MeasureSet::FULL,
            scratch: ExplorerScratch::new(n_units),
        }
    }

    /// Override the Atkinson shape parameter.
    pub fn with_atkinson_b(mut self, b: f64) -> Self {
        self.atkinson_b = b;
        self
    }

    /// Restrict the fallback fold to a measure subset, so recomputed cells
    /// match a subset-built cube's materialized cells bit for bit.
    pub fn with_measures(mut self, measures: MeasureSet) -> Self {
        self.measures = measures;
        self
    }

    /// The underlying vertical database.
    pub fn vertical(&self) -> &VerticalDb {
        &self.vertical
    }

    /// A fresh scratch sized for this explorer's database (what a worker
    /// thread checks out before calling the `_with` methods).
    pub fn new_scratch(&self) -> ExplorerScratch {
        ExplorerScratch::new(self.vertical.num_units())
    }

    /// Fill the scratch histograms — the minority one only when the SA
    /// side is not `⋆` — and return the context's populated units as
    /// ascending `(unit, total)` pairs. The one evaluation core: it takes
    /// the two halves of the explorer apart, so the `&mut self` forms can
    /// lend their own scratch while the postings stay shared.
    fn histograms(
        vertical: &VerticalDb,
        coords: &CellCoords,
        scratch: &mut ExplorerScratch,
    ) -> Vec<(u32, u64)> {
        // The context side; the full tid universe when it is `⋆`.
        let context = &mut scratch.context_words;
        vertical.tidset_words_into(&coords.ca, context);
        vertical.unit_histogram_words_into(context, &mut scratch.total);
        if !coords.sa.is_empty() {
            // `A ∪ B` narrows the context's words by the SA postings rather
            // than intersecting the CA postings again; a `⋆` context
            // intersects the SA postings directly.
            let minority = &mut scratch.minority_words;
            if coords.ca.is_empty() {
                vertical.tidset_words_into(&coords.sa, minority);
            } else {
                vertical.narrow_words_into(context, &coords.sa, minority);
            }
            vertical.unit_histogram_words_into(minority, &mut scratch.minority);
        }
        scratch.total.sorted_pairs()
    }

    /// The cell's values: its context's run table, folded with the cell's
    /// sorted minority pairs (`A = ⋆` ⇒ minority ≡ population, the runs
    /// alone).
    fn values(
        vertical: &VerticalDb,
        coords: &CellCoords,
        scratch: &mut ExplorerScratch,
        atkinson_b: f64,
        measures: MeasureSet,
    ) -> Result<IndexValues> {
        let context = ContextTotals::new(Self::histograms(vertical, coords, scratch))?;
        if coords.sa.is_empty() {
            return Ok(context.fold_whole(atkinson_b, measures));
        }
        scratch.minority.sorted_pairs_into(&mut scratch.pairs);
        context.fold(&scratch.pairs, atkinson_b, measures)
    }

    /// Ascending `(unit, minority, total)` triples over the context's
    /// populated units (minority zero where the subgroup is absent).
    fn triples(
        vertical: &VerticalDb,
        coords: &CellCoords,
        scratch: &mut ExplorerScratch,
    ) -> Vec<(u32, u64, u64)> {
        let totals = Self::histograms(vertical, coords, scratch);
        let star = coords.sa.is_empty();
        let minority = &scratch.minority;
        totals
            .into_iter()
            .map(|(u, t)| (u, if star { t } else { minority.count_of(u) }, t))
            .collect()
    }

    /// Evaluate the cell at `coords` through `&self` with an external
    /// scratch (the concurrent path).
    pub fn values_at_with(
        &self,
        coords: &CellCoords,
        scratch: &mut ExplorerScratch,
    ) -> Result<IndexValues> {
        Self::values(&self.vertical, coords, scratch, self.atkinson_b, self.measures)
    }

    /// Per-unit `(unit, minority, total)` drill-down through `&self` with
    /// an external scratch (the concurrent path).
    pub fn unit_breakdown_with(
        &self,
        coords: &CellCoords,
        scratch: &mut ExplorerScratch,
    ) -> Vec<(u32, u64, u64)> {
        Self::triples(&self.vertical, coords, scratch)
    }

    /// Evaluate the cell at `coords`, regardless of materialization.
    pub fn values_at(&mut self, coords: &CellCoords) -> Result<IndexValues> {
        Self::values(&self.vertical, coords, &mut self.scratch, self.atkinson_b, self.measures)
    }

    /// Per-unit `(unit, minority, total)` drill-down of a cell — what the
    /// paper's pivot-table exploration shows when expanding a cube row.
    pub fn unit_breakdown(&mut self, coords: &CellCoords) -> Vec<(u32, u64, u64)> {
        Self::triples(&self.vertical, coords, &mut self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{CubeBuilder, Materialize};
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

    #[test]
    fn explorer_matches_materialized_cells() {
        let db = db();
        let cube = CubeBuilder::new().materialize(Materialize::AllFrequent).build(&db).unwrap();
        let mut explorer: CubeExplorer = CubeExplorer::new(&db);
        for (coords, values) in cube.cells() {
            let recomputed = explorer.values_at(coords).unwrap();
            assert_eq!(&recomputed, values, "cell {}", cube.labels().describe(coords));
        }
    }

    #[test]
    fn explorer_resolves_non_materialized_cells() {
        let db = db();
        let closed = CubeBuilder::new().materialize(Materialize::ClosedOnly).build(&db).unwrap();
        let full = CubeBuilder::new().materialize(Materialize::AllFrequent).build(&db).unwrap();
        let mut explorer: CubeExplorer = CubeExplorer::new(&db);
        // Every full-cube cell — materialized in `closed` or not — must be
        // answerable by the explorer with identical values.
        for (coords, values) in full.cells() {
            let via_explorer = explorer.values_at(coords).unwrap();
            assert_eq!(&via_explorer, values);
        }
        assert!(closed.len() <= full.len());
    }

    #[test]
    fn unit_breakdown_sums_match() {
        let db = db();
        let cube = CubeBuilder::new().materialize(Materialize::AllFrequent).build(&db).unwrap();
        let mut explorer: CubeExplorer = CubeExplorer::new(&db);
        for (coords, values) in cube.cells() {
            let breakdown = explorer.unit_breakdown(coords);
            let m: u64 = breakdown.iter().map(|&(_, m, _)| m).sum();
            let t: u64 = breakdown.iter().map(|&(_, _, t)| t).sum();
            assert_eq!(m, values.minority);
            assert_eq!(t, values.total);
        }
    }

    #[test]
    fn shared_ref_path_matches_owned_scratch_path() {
        let db = db();
        let cube = CubeBuilder::new().materialize(Materialize::AllFrequent).build(&db).unwrap();
        let mut owned: CubeExplorer = CubeExplorer::new(&db);
        let shared: CubeExplorer = CubeExplorer::new(&db);
        let mut scratch = shared.new_scratch();
        for (coords, values) in cube.cells() {
            assert_eq!(&shared.values_at_with(coords, &mut scratch).unwrap(), values);
            assert_eq!(
                shared.unit_breakdown_with(coords, &mut scratch),
                owned.unit_breakdown(coords)
            );
        }
    }
}
