//! Incremental cube maintenance: fold appended *and retracted* rows into a
//! built cube.
//!
//! SCube as published is a batch tool — any new data meant re-mining and
//! rebuilding the whole cube. This module makes a built cube a *maintained*
//! artifact instead: an [`UpdateBatch`] of appended rows and retractions
//! (by tid or by exact row match) is folded into the existing
//! [`VerticalDb`] — postings extended at their tails via
//! [`EwahBitmap::append_sorted`], shrunk via [`EwahBitmap::remove_sorted`] — and
//! only the affected cells are recomputed. The result is **bit-identical**
//! to a full rebuild on the edited data (the model-based test
//! `tests/cube_model.rs` checks it after every operation) because the
//! maintenance store holds exact integer sufficient statistics, and
//! integers subtract as exactly as they add: `hist(edited) = hist(base) +
//! hist(appended Δ) − hist(retracted Δ)`. The structural facts that bound
//! the work:
//!
//! 1. **Dirtiness is decided by the context alone.** A cell `(A | B)` is
//!    evaluated from the per-unit histograms of `tidset(B)` (population)
//!    and `tidset(A ∪ B) ⊆ tidset(B)` (minority). The histograms change
//!    iff `tidset(B)` gained appended tids or lost retracted ones — iff
//!    some delta row contains all of `B` (`B = ⋆` is always dirty: the
//!    population universe changed). Clean cells keep their exact floats,
//!    untouched.
//! 2. **Appends only promote; retractions only demote.** Appends never
//!    evict a cell (supports only grow, and a superset can never catch an
//!    equal-support subset by gaining rows). Retractions never create one:
//!    supports only shrink, and two itemsets with equal tidsets lose the
//!    same transactions, so a non-closed itemset stays non-closed.
//!    Demotion therefore mirrors promotion exactly: a dirty cell whose
//!    support falls below `min_support` — or whose itemset loses
//!    closedness under [`Materialize::ClosedOnly`], checked against an
//!    O(row-width) witness transaction — is evicted.
//! 3. **Promotions are subsets of single appended rows.** An itemset that
//!    becomes newly frequent — or newly closed — must have gained ids,
//!    hence be contained in some *one* appended row (this survives mixed
//!    batches: a net gain requires an appended occurrence). Each row's
//!    frequent-item projection is enumerated as candidates, with
//!    [`scube_fpm::eclat::mine_vertical_with_tidsets_scoped`] as the
//!    class-level fallback for pathologically wide rows. Supports are
//!    counted over the full updated postings, so promotion is exact.
//!
//! All histogram staging — including the dominated subtraction, which hard-
//! errors on underflow — happens **before** any mutation, so a rejected
//! batch or an inconsistent store leaves the snapshot untouched, byte for
//! byte. Dirty cells are re-evaluated with the same [`UnitScratch`]
//! machinery and the same index fold as [`crate::builder::CubeBuilder`] —
//! identical integer histograms, hence identical index values — and large
//! dirty sets fan out over scoped worker threads with per-worker scratches
//! (cell evaluation is pure, so the parallel update is bit-identical to the
//! serial one). The fold reads a histogram as a *multiset* of `(m, t)`
//! pairs and orders them itself (`scube_segindex::indexes`), so a value
//! depends on no unit id and no visit order: a cell whose histogram the
//! delta did not touch keeps floats that a rebuild would reproduce to the
//! bit, however the batch renumbers the units.
//!
//! **Dictionary maintenance.** Appends extend the label dictionary at the
//! tail in first-seen order, matching a rebuild on base-then-delta rows.
//! Retractions may *shrink or reorder* it: a rebuild on the edited table
//! interns values and units by first occurrence, so a retraction that
//! removes a value's last row (the value leaves the dictionary) or its
//! first row (its intern position moves) triggers a relabeling pass that
//! renumbers items, units, cells, postings, and store entries exactly as a
//! rebuild would assign them — a pure renaming, which by the invariance
//! above dirties no cell. Tail retractions that empty nothing skip the
//! pass — survivors keep their ids and the postings shrink in place. The
//! within-row tie-break is attribute-major, then prior id, which matches a
//! rebuild's interning whenever a row lists each attribute's values in
//! dictionary order: always for single-valued attributes, and for
//! multi-valued ones as `final_table_relation` writes them (the datagen
//! final tables have two). Values of one multi-valued attribute listed out
//! of that order and re-first-seen together in one row may tie-break
//! differently than their cell order.

use scube_bitmap::EwahBitmap;
use scube_common::mmap::{ByteRegion, Store};
use scube_common::{FxHashMap, FxHashSet, Result, ScubeError};
use scube_data::{ItemId, Relation, UnitId, UnitScratch, VerticalDb, MULTI_VALUE_SEPARATOR};
use scube_fpm::eclat::mine_vertical_with_tidsets_scoped;
use scube_fpm::itemset::is_sorted_subset;
use scube_segindex::{IndexValues, MeasureSet, UnitCounts};

use crate::builder::Materialize;
use crate::coords::CellCoords;
use crate::cube::{CubeLabels, SegregationCube};
use crate::histogram;

/// Widest frequent-item row projection whose subsets are enumerated
/// directly; wider rows fall back to the scoped Eclat re-mine.
const MAX_SUBSET_WIDTH: usize = 16;

/// A batch of appended individuals and retractions, expressed in label
/// space (`attribute = value` pairs plus a unit name), waiting to be folded
/// into a built cube.
///
/// Appended rows are applied in insertion order; values and units first
/// seen in the batch extend the cube's dictionary. Retractions (by
/// pre-update tid, or by exact row match via [`Self::remove_row`]) apply to
/// the *existing* rows; the edited table a batch produces is
/// `(base ∖ retracted) ⧺ appended`, and the updated snapshot is
/// byte-identical to a rebuild on it whenever every multi-valued cell lists
/// its values in dictionary order, as `final_table_relation` writes them
/// (single-valued attributes always do). Otherwise there is one narrow
/// exception: a retraction that makes two values of one attribute
/// first-occur simultaneously in the same surviving row cannot recover that
/// row's original cell order (the vertical database stores sets, not
/// sequences), so the relabeled dictionary may order those two values
/// differently than a rebuild would intern them. Every cell *value* is
/// still exact — item ids never enter the index math — only the serialized
/// dictionary order can differ (pinned by
/// `multi_valued_relabel_caveat_is_value_exact`).
///
/// ```
/// use scube_cube::UpdateBatch;
///
/// let mut batch = UpdateBatch::new();
/// batch
///     .add_row(&[("sex", "F"), ("region", "north")], "acme")
///     .add_row(&[("sex", "M"), ("region", "south")], "globex");
/// assert_eq!(batch.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    /// `(attribute, value)` pairs + unit name, one entry per individual.
    rows: Vec<(Vec<(String, String)>, String)>,
    /// Retractions by transaction id (pre-update numbering).
    remove_tids: Vec<u32>,
    /// Retractions by exact row match: the `(attribute, value)` pairs and
    /// unit of a row to remove (first unclaimed match wins).
    remove_rows: Vec<(Vec<(String, String)>, String)>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        UpdateBatch::default()
    }

    /// Append one individual: its `(attribute, value)` pairs (repeat the
    /// attribute for multi-valued ones; omit it for missing values) and the
    /// name of the organizational unit it belongs to.
    pub fn add_row<S: AsRef<str>>(&mut self, values: &[(S, S)], unit: &str) -> &mut Self {
        self.rows.push((
            values
                .iter()
                .map(|(a, v)| (a.as_ref().to_string(), v.as_ref().trim().to_string()))
                .collect(),
            unit.to_string(),
        ));
        self
    }

    /// Retract one existing individual by transaction id (the id space of
    /// the snapshot *before* this batch applies; survivors renumber
    /// downwards exactly as a rebuild on the edited table would).
    pub fn remove_tid(&mut self, tid: u32) -> &mut Self {
        self.remove_tids.push(tid);
        self
    }

    /// Retract one existing individual by exact row match: the same
    /// `(attribute, value)` pairs (order-insensitive) and unit name as the
    /// row to remove. When several identical rows exist, the earliest
    /// not-yet-claimed one is removed; a removal that matches no remaining
    /// row is an error at apply time, as is one referencing an attribute
    /// value or unit absent from the snapshot's dictionary.
    pub fn remove_row<S: AsRef<str>>(&mut self, values: &[(S, S)], unit: &str) -> &mut Self {
        self.remove_rows.push((
            values
                .iter()
                .map(|(a, v)| (a.as_ref().to_string(), v.as_ref().trim().to_string()))
                .collect(),
            unit.to_string(),
        ));
        self
    }

    /// Total operations in the batch — appended rows plus retractions —
    /// so `len() == 0` exactly when [`Self::is_empty`] (a retraction-only
    /// batch is *not* empty). Use [`Self::num_rows`] / [`Self::num_removals`]
    /// for the per-side counts.
    pub fn len(&self) -> usize {
        self.num_rows() + self.num_removals()
    }

    /// Number of appended rows in the batch.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of retractions (by tid or by row match) in the batch.
    pub fn num_removals(&self) -> usize {
        self.remove_tids.len() + self.remove_rows.len()
    }

    /// True when the batch holds no appended rows and no retractions.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty() && self.remove_tids.is_empty() && self.remove_rows.is_empty()
    }

    /// Build a batch from a final-table-shaped [`Relation`]: one column per
    /// cube attribute (all of the cube's SA and CA attributes must be
    /// present; multi-valued cells use the `;` separator) plus the unit
    /// column. This is what `scube update --add rows.csv` parses.
    pub fn from_relation(rel: &Relation, labels: &CubeLabels, unit_column: &str) -> Result<Self> {
        let attrs: Vec<&String> = labels.sa_attrs.iter().chain(labels.ca_attrs.iter()).collect();
        let mut cols = Vec::with_capacity(attrs.len());
        for attr in &attrs {
            let idx = rel.column_index(attr).ok_or_else(|| {
                ScubeError::Schema(format!("update rows miss the cube attribute column '{attr}'"))
            })?;
            cols.push(idx);
        }
        let unit_col = rel.column_index(unit_column).ok_or_else(|| {
            ScubeError::Schema(format!("update rows miss the unit column '{unit_column}'"))
        })?;
        let mut batch = UpdateBatch::new();
        for row in rel.rows() {
            let mut pairs: Vec<(&str, &str)> = Vec::new();
            for (attr, &col) in attrs.iter().zip(&cols) {
                for value in row[col].split(MULTI_VALUE_SEPARATOR) {
                    let value = value.trim();
                    if !value.is_empty() {
                        pairs.push((attr, value));
                    }
                }
            }
            batch.add_row(&pairs, &row[unit_col]);
        }
        Ok(batch)
    }

    /// Add retractions from a final-table-shaped [`Relation`] (same column
    /// rules as [`Self::from_relation`]): every listed row is removed by
    /// exact match. This is what `scube update --remove rows.csv` parses.
    pub fn remove_relation(
        &mut self,
        rel: &Relation,
        labels: &CubeLabels,
        unit_column: &str,
    ) -> Result<&mut Self> {
        let removals = UpdateBatch::from_relation(rel, labels, unit_column)?;
        for (pairs, unit) in removals.rows {
            self.remove_rows.push((pairs, unit));
        }
        Ok(self)
    }
}

/// What one [`UpdateBatch`] application did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Transactions appended.
    pub rows_added: usize,
    /// Transactions retracted.
    pub rows_removed: usize,
    /// Attribute values first seen in the batch (dictionary growth).
    pub new_items: usize,
    /// Units first seen in the batch.
    pub new_units: usize,
    /// Attribute values that lost their last occurrence and left the
    /// dictionary (retractions shrink it exactly as a rebuild would).
    pub dropped_items: usize,
    /// Units that lost their last transaction and were dropped.
    pub dropped_units: usize,
    /// Existing cells whose context gained or lost transactions and
    /// survived re-evaluation.
    pub dirty_cells: usize,
    /// Newly materialized cells (itemsets promoted to frequent — or, under
    /// [`Materialize::ClosedOnly`], to closed).
    pub promoted_cells: usize,
    /// Cells evicted because their support fell below `min_support` (or,
    /// under [`Materialize::ClosedOnly`], because their itemset lost
    /// closedness) — demotion mirrors promotion.
    pub demoted_cells: usize,
    /// Cells left untouched, bit for bit.
    pub clean_cells: usize,
}

/// Non-empty intersection of the delta postings of `items` (which must be
/// non-empty), or `None` when no appended row contains them all. One
/// batched k-way AND: items past the delta's item range short-circuit to
/// `None` before any intersection runs.
fn delta_tidset(postings: &[EwahBitmap], items: &[ItemId]) -> Option<EwahBitmap> {
    assert!(!items.is_empty(), "delta_tidset needs items");
    let mut refs: Vec<&EwahBitmap> = Vec::with_capacity(items.len());
    for &it in items {
        refs.push(postings.get(it as usize)?);
    }
    let acc = EwahBitmap::intersect_many(&refs).expect("non-empty items");
    (!acc.is_empty()).then_some(acc)
}

/// A batch encoded against the cube's labels: dictionary-encoded rows plus
/// the new labels they introduced, in first-seen (intern) order.
struct EncodedBatch {
    rows: Vec<(Vec<ItemId>, UnitId)>,
    new_items: Vec<(String, String, bool)>,
    new_units: Vec<String>,
}

/// Resolve the batch against the current labels, interning new values and
/// units in first-seen order — per row, SA attributes before CA attributes,
/// mirroring the schema order of every final-table build.
fn encode_batch(batch: &UpdateBatch, labels: &CubeLabels) -> Result<EncodedBatch> {
    let mut item_lookup: FxHashMap<(String, String), ItemId> = FxHashMap::default();
    for (id, (attr, value, _)) in labels.items.iter().enumerate() {
        item_lookup.insert((attr.clone(), value.clone()), id as ItemId);
    }
    let mut unit_lookup: FxHashMap<String, UnitId> = FxHashMap::default();
    for (id, name) in labels.unit_names.iter().enumerate() {
        unit_lookup.insert(name.clone(), id as UnitId);
    }
    let is_sa: FxHashMap<&str, bool> = labels
        .sa_attrs
        .iter()
        .map(|a| (a.as_str(), true))
        .chain(labels.ca_attrs.iter().map(|a| (a.as_str(), false)))
        .collect();

    let mut out = EncodedBatch { rows: Vec::new(), new_items: Vec::new(), new_units: Vec::new() };
    let n_base_items = labels.num_items();
    let n_base_units = labels.unit_names.len();
    for (pairs, unit) in &batch.rows {
        for (attr, _) in pairs {
            if !is_sa.contains_key(attr.as_str()) {
                return Err(ScubeError::Schema(format!(
                    "update row references unknown attribute '{attr}'"
                )));
            }
        }
        let mut items: Vec<ItemId> = Vec::with_capacity(pairs.len());
        // Intern attribute-major — SA attributes in label order, then CA
        // attributes, values in row order within an attribute — regardless
        // of how the caller ordered the pairs. This is the order a
        // rebuild's TransactionDbBuilder interns in (for the SA-before-CA
        // schemas every final-table spec produces), which is what keeps
        // updated snapshots byte-identical to rebuilt ones.
        for attr in labels.sa_attrs.iter().chain(labels.ca_attrs.iter()) {
            for (a, value) in pairs {
                if a != attr || value.is_empty() {
                    continue;
                }
                let sa = is_sa[attr.as_str()];
                let id = *item_lookup.entry((a.clone(), value.clone())).or_insert_with(|| {
                    out.new_items.push((a.clone(), value.clone(), sa));
                    (n_base_items + out.new_items.len() - 1) as ItemId
                });
                items.push(id);
            }
        }
        items.sort_unstable();
        items.dedup();
        let unit_id = *unit_lookup.entry(unit.clone()).or_insert_with(|| {
            out.new_units.push(unit.clone());
            (n_base_units + out.new_units.len() - 1) as UnitId
        });
        out.rows.push((items, unit_id));
    }
    Ok(out)
}

/// The cube's *sufficient statistics*: the integer per-unit histograms
/// every cell value is computed from, kept inside the cube so updates
/// never have to re-derive them from the full postings. There is one
/// derivation: the builder's fold emits each entry from the histograms it
/// evaluates the cell with; a snapshot carries the store and never
/// reconstructs it.
///
/// Per distinct context `B`, the ascending `(unit, total)` pairs of
/// `tidset(B)`; per materialized cell with a non-`⋆` minority side, the
/// ascending `(unit, minority)` pairs of `tidset(A ∪ B)` (`A = ⋆` cells
/// mirror the context totals and store nothing). Histograms are plain
/// `u64` counts, so `hist(base ⧺ delta) = hist(base) + hist(delta)`
/// **exactly** — folding a delta in means histogramming only the appended
/// transactions and adding, after which the recomputed index values equal
/// a from-scratch rebuild bit for bit. This is what turns dirty-cell
/// re-evaluation from `O(Σ |full tidset|)` into `O(Σ |delta tidset| +
/// dirty cells × populated units)`. Counts are exact integers, so
/// retractions *subtract* as losslessly as appends add — with a domination
/// check turning any disagreement between store and delta into a hard
/// error before mutation.
///
/// A histogram has **one form — its canonical bytes**
/// ([`crate::histogram`], about 2 B per pair): the same entry is what
/// the builder emits, what the snapshot file stores (canonical
/// order: contexts by item list, cells by coordinates), what a mapped
/// snapshot serves in place ([`Store::Mapped`]) and what the heap holds
/// ([`Store::Owned`]). `(unit, count)` pairs exist only transiently: an
/// update decodes — and thereby validates — exactly the entries its delta
/// dirties, and re-encodes them at commit; everything else stays bytes,
/// and a mapped entry no update has dirtied is never copied at all.
#[derive(Debug, Clone, Default)]
pub(crate) struct MaintenanceStore {
    /// Distinct cell contexts → entry of the `(unit, total)` pairs.
    pub(crate) contexts: FxHashMap<Vec<ItemId>, Store<u8>>,
    /// Cells with a non-`⋆` SA side → entry of the `(unit, minority)` pairs.
    pub(crate) minorities: FxHashMap<CellCoords, Store<u8>>,
    /// The store region of a mapped snapshot no update has looked at yet:
    /// `open_mmap` attaches it without scanning (queries never touch the
    /// store, so a cold open stays O(metadata)) and the maps above are
    /// empty. The first update's [`Self::scan`] files every entry into
    /// them as a mapped slice and drops this.
    pub(crate) unscanned: Option<ByteRegion>,
}

impl MaintenanceStore {
    /// Key-level consistency against a cube: every cell's context has
    /// totals, every non-`⋆`-SA cell has minority counts, and nothing else
    /// is stored. What the entries *hold* is [`Self::validate_entries`]'
    /// business (heap loads, eagerly) or is checked entry by entry as an
    /// update decodes what its delta dirties (mapped opens).
    pub(crate) fn covers(&self, cube: &SegregationCube) -> bool {
        let mut want_min = 0usize;
        let mut want_ctx: FxHashSet<&[ItemId]> = FxHashSet::default();
        for (coords, _) in cube.cells() {
            want_ctx.insert(&coords.ca);
            if coords.sa.is_empty() {
                continue;
            }
            if !self.minorities.contains_key(coords) {
                return false;
            }
            want_min += 1;
        }
        self.minorities.len() == want_min
            && self.contexts.len() == want_ctx.len()
            && want_ctx.iter().all(|&ca| self.contexts.contains_key(ca))
    }

    /// Decode every entry once — range-checking its units against
    /// `n_units` — and require each cell's minority counts to be dominated
    /// by its context's totals (minority units are populated units with
    /// `m ≤ t`); the decoded forms are dropped as the walk moves on. Heap
    /// loads run this up front, so a crafted store errors at load instead
    /// of mid-update; so does a relabeling update, which is about to
    /// rewrite every entry. The store must [`Self::covers`] its cube.
    pub(crate) fn validate_entries(&self, n_units: u32) -> Result<()> {
        let mut cells_of: FxHashMap<&[ItemId], Vec<&Store<u8>>> = FxHashMap::default();
        for (coords, minority) in &self.minorities {
            cells_of.entry(&coords.ca).or_default().push(minority);
        }
        for (ca, totals) in &self.contexts {
            let totals = histogram::decode(totals, n_units)?;
            for minority in cells_of.get(ca.as_slice()).into_iter().flatten() {
                if !dominated(&histogram::decode(minority, n_units)?, &totals) {
                    return Err(not_dominated());
                }
            }
        }
        Ok(())
    }
}

/// A histogram in the one form the store keeps it in.
pub(crate) fn encode_entry(pairs: &[(u32, u64)]) -> Store<u8> {
    Store::Owned(histogram::encode(pairs))
}

/// Whether every `minority` unit is a `totals` unit with `m ≤ t` (both
/// ascending by unit).
fn dominated(minority: &[(u32, u64)], totals: &[(u32, u64)]) -> bool {
    let mut ti = totals.iter().peekable();
    minority.iter().all(|&(mu, mc)| {
        while ti.next_if(|&&(tu, _)| tu < mu).is_some() {}
        matches!(ti.peek(), Some(&&(tu, tc)) if tu == mu && mc <= tc)
    })
}

fn not_dominated() -> ScubeError {
    ScubeError::Inconsistent(
        "snapshot: a cell's minority histogram is not dominated by its context's totals".into(),
    )
}

/// Add `delta` into `base`, both ascending by unit (a sorted merge; counts
/// are exact `u64` sums, which is what keeps updated histograms identical
/// to recomputed ones).
fn merge_add(base: &mut Vec<(u32, u64)>, delta: &[(u32, u64)]) {
    if delta.is_empty() {
        return;
    }
    let mut out = Vec::with_capacity(base.len() + delta.len());
    let (mut i, mut j) = (0, 0);
    while i < base.len() && j < delta.len() {
        match base[i].0.cmp(&delta[j].0) {
            std::cmp::Ordering::Less => {
                out.push(base[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(delta[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((base[i].0, base[i].1 + delta[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&base[i..]);
    out.extend_from_slice(&delta[j..]);
    *base = out;
}

/// Subtract `delta` from `base`, both ascending by unit. Every delta unit
/// must be dominated by the base (`present with count ≥ delta count`) —
/// exact integer subtraction is what keeps retracted histograms identical
/// to recomputed ones. Underflow (or a missing unit) means the maintenance
/// store and the delta disagree: a hard error, raised **before** anything
/// is mutated, so the snapshot stays untouched.
fn merge_sub(base: &mut Vec<(u32, u64)>, delta: &[(u32, u64)]) -> Result<()> {
    if delta.is_empty() {
        return Ok(());
    }
    let mut out = Vec::with_capacity(base.len());
    let mut j = 0;
    for &(u, c) in base.iter() {
        if j < delta.len() && delta[j].0 == u {
            let d = delta[j].1;
            j += 1;
            match c.checked_sub(d) {
                Some(0) => {}
                Some(rest) => out.push((u, rest)),
                None => {
                    return Err(ScubeError::Inconsistent(format!(
                        "update: histogram subtraction underflow at unit {u} ({c} − {d})"
                    )))
                }
            }
        } else {
            out.push((u, c));
        }
    }
    if j < delta.len() {
        return Err(ScubeError::Inconsistent(format!(
            "update: histogram subtraction references unit {} absent from the base",
            delta[j].0
        )));
    }
    *base = out;
    Ok(())
}

/// Index values from stored histograms: triples over the context's
/// populated units, minority counts merged in (absent unit ⇒ 0) — the
/// same `(m, t)` multiset the builder feeds [`UnitCounts::from_triples`].
fn values_from_hists(
    context: &[(u32, u64)],
    minority: &[(u32, u64)],
    atkinson_b: f64,
    measures: MeasureSet,
) -> Result<IndexValues> {
    let mut mi = minority.iter().peekable();
    let counts = UnitCounts::from_triples(context.iter().map(|&(u, t)| {
        let m = match mi.peek() {
            Some(&&(mu, mc)) if mu == u => {
                mi.next();
                mc
            }
            _ => 0,
        };
        (u, m, t)
    }))?;
    Ok(IndexValues::compute_masked(&counts, atkinson_b, measures))
}

/// Tidset and support of `items` over the full postings, intersecting
/// smallest-first and aborting as soon as the running intersection drops
/// below `floor` (supports only shrink under intersection, so an early
/// sub-floor cardinality is conclusive). `None` = support below floor.
fn tidset_if_frequent(vertical: &VerticalDb, items: &[ItemId], floor: u64) -> Option<EwahBitmap> {
    let mut order: Vec<ItemId> = items.to_vec();
    order.sort_by_cached_key(|&it| vertical.posting(it).cardinality());
    let mut acc = vertical.posting(order[0]).clone();
    if acc.cardinality() < floor {
        return None;
    }
    // Ping-pong two accumulators through the buffer-reusing `and_into`
    // kernel: the floor check needs the intermediate cardinalities, so the
    // opaque `intersect_many` doesn't apply, but the allocation profile is
    // the same (two buffers total, not one fresh posting per step).
    let mut spare = EwahBitmap::new();
    for &it in &order[1..] {
        acc.and_into(vertical.posting(it), &mut spare);
        std::mem::swap(&mut acc, &mut spare);
        if acc.cardinality() < floor {
            return None;
        }
    }
    Some(acc)
}

/// Per-dirty-cell staging outcome, decided before any mutation.
enum CellFate {
    /// The cell survives: the entry of its staged minority histogram
    /// (`None` for `⋆`-SA cells, which store none) and the re-evaluated
    /// values.
    Keep(Option<Store<u8>>, IndexValues),
    /// The cell is evicted: its support fell below `min_support`, or its
    /// itemset lost closedness under [`Materialize::ClosedOnly`].
    Demote,
}

/// Resolved retractions plus the reconstructed base rows they were matched
/// against (the rows are reused for closedness witnesses and relabeling).
struct Removals {
    /// Sorted, distinct retracted tids, in pre-update numbering.
    tids: Vec<u32>,
    /// Every base row: sorted item ids + unit.
    base_rows: Vec<(Vec<ItemId>, UnitId)>,
}

/// Validate and resolve the batch's retractions against the current
/// snapshot: tids must be in range and distinct, and row-match retractions
/// must reference only values and units present in the dictionary and must
/// each claim a distinct matching row — any miss is an error, never a
/// silent no-op.
fn resolve_removals(
    batch: &UpdateBatch,
    labels: &CubeLabels,
    vertical: &VerticalDb,
) -> Result<Option<Removals>> {
    if batch.remove_tids.is_empty() && batch.remove_rows.is_empty() {
        return Ok(None);
    }
    let n = vertical.num_transactions();
    let mut claimed: FxHashSet<u32> = FxHashSet::default();
    for &t in &batch.remove_tids {
        if t >= n {
            return Err(ScubeError::InvalidParameter(format!(
                "update: retracted tid {t} out of range (snapshot has {n} rows)"
            )));
        }
        if !claimed.insert(t) {
            return Err(ScubeError::InvalidParameter(format!("update: tid {t} retracted twice")));
        }
    }
    let base_rows = vertical.transactions();
    if !batch.remove_rows.is_empty() {
        let mut item_lookup: FxHashMap<(&str, &str), ItemId> = FxHashMap::default();
        for (id, (attr, value, _)) in labels.items.iter().enumerate() {
            item_lookup.insert((attr.as_str(), value.as_str()), id as ItemId);
        }
        let unit_lookup: FxHashMap<&str, UnitId> = labels
            .unit_names
            .iter()
            .enumerate()
            .map(|(id, name)| (name.as_str(), id as UnitId))
            .collect();
        let mut by_shape: FxHashMap<(&[ItemId], UnitId), Vec<u32>> = FxHashMap::default();
        for (t, (items, unit)) in base_rows.iter().enumerate() {
            by_shape.entry((items.as_slice(), *unit)).or_default().push(t as u32);
        }
        for (pairs, unit) in &batch.remove_rows {
            let mut items: Vec<ItemId> = Vec::with_capacity(pairs.len());
            for (attr, value) in pairs {
                if value.is_empty() {
                    continue;
                }
                let Some(&id) = item_lookup.get(&(attr.as_str(), value.as_str())) else {
                    return Err(ScubeError::InvalidParameter(format!(
                        "update: retraction references {attr}={value}, which is absent from \
                         the snapshot's dictionary"
                    )));
                };
                items.push(id);
            }
            items.sort_unstable();
            items.dedup();
            let Some(&uid) = unit_lookup.get(unit.as_str()) else {
                return Err(ScubeError::InvalidParameter(format!(
                    "update: retraction references unknown unit '{unit}'"
                )));
            };
            let found = by_shape
                .get(&(items.as_slice(), uid))
                .and_then(|tids| tids.iter().find(|t| !claimed.contains(t)))
                .copied();
            let Some(t) = found else {
                return Err(ScubeError::InvalidParameter(format!(
                    "update: retraction ({pairs:?}, {unit}) matches no remaining row"
                )));
            };
            claimed.insert(t);
        }
    }
    let mut tids: Vec<u32> = claimed.into_iter().collect();
    tids.sort_unstable();
    Ok(Some(Removals { tids, base_rows }))
}

/// Exact closedness of an existing cell's itemset in the *edited* database,
/// decided before any mutation. An extender `j` must appear in **every**
/// post-edit transaction of the itemset — in particular in one witness
/// transaction — so the only candidates are the witness row's other items;
/// each candidate's post-edit support is counted as `base − retracted +
/// appended` against the still-unmodified postings.
#[allow(clippy::too_many_arguments)]
fn closed_after_edit(
    items: &[ItemId],
    new_support: u64,
    vertical: &VerticalDb,
    removed: &[u32],
    base_rows: &[(Vec<ItemId>, UnitId)],
    added_rows: &[(Vec<ItemId>, UnitId)],
    add_postings: &[EwahBitmap],
    n_base_items: usize,
) -> bool {
    debug_assert!(new_support > 0, "demotion by support precedes the closedness check");
    let tids_base = vertical.tidset(items);
    let mut surviving: Option<u32> = None;
    tids_base.for_each(|t| {
        if surviving.is_none() && removed.binary_search(&t).is_err() {
            surviving = Some(t);
        }
    });
    let witness: Option<&[ItemId]> = match surviving {
        Some(t) => Some(&base_rows[t as usize].0),
        None => added_rows.iter().map(|(r, _)| r.as_slice()).find(|r| is_sorted_subset(items, r)),
    };
    let Some(witness) = witness else {
        // new_support > 0 guarantees a witness; treat the impossible as
        // closed so the rebuild-identity tests would expose the breach.
        return true;
    };
    let add_union = delta_tidset(add_postings, items);
    for &j in witness {
        if items.contains(&j) {
            continue;
        }
        let added = add_union.as_ref().map_or(0, |a| a.and_cardinality(&add_postings[j as usize]));
        let (base_cnt, removed_in) = if (j as usize) < n_base_items {
            let a = tids_base.and(vertical.posting(j));
            let mut rem_in = 0u64;
            a.for_each(|t| {
                if removed.binary_search(&t).is_ok() {
                    rem_in += 1;
                }
            });
            (a.cardinality(), rem_in)
        } else {
            (0, 0)
        };
        if base_cnt - removed_in + added == new_support {
            return false;
        }
    }
    true
}

/// The item/unit renumbering a retraction induces: a rebuild on the edited
/// table interns dictionary entries in first-occurrence order (attribute-
/// major within a row), so items and units whose first occurrence moved —
/// or disappeared — get new ids. Identity for pure appends and for tail
/// retractions that empty nothing.
struct Relabel {
    /// Old item id → new id (`None` = the value left the dictionary).
    item_map: Vec<Option<ItemId>>,
    /// Old unit id → new id (`None` = the unit lost its last row).
    unit_map: Vec<Option<UnitId>>,
    n_new_items: usize,
    n_new_units: u32,
    identity: bool,
}

/// Derive the relabeling from the edited table's first-occurrence arrays
/// (old id space; `u32::MAX` = never occurs) and each item's attribute
/// rank. Ties inside one row order attribute-major (SA attributes in label
/// order, then CA attributes — the schema order every final-table spec
/// declares) and by old id within an attribute, which matches a rebuild's
/// interning for single-valued-per-row attributes (the shape of every
/// final table in this workspace).
fn compute_relabel(first_item: &[u32], first_unit: &[u32], item_attr_pos: &[usize]) -> Relabel {
    let n_items = first_item.len();
    let n_units = first_unit.len();
    let mut order: Vec<ItemId> =
        (0..n_items as ItemId).filter(|&it| first_item[it as usize] != u32::MAX).collect();
    order.sort_unstable_by_key(|&it| (first_item[it as usize], item_attr_pos[it as usize], it));
    let mut item_map = vec![None; n_items];
    for (new, &old) in order.iter().enumerate() {
        item_map[old as usize] = Some(new as ItemId);
    }
    let mut uorder: Vec<UnitId> =
        (0..n_units as UnitId).filter(|&u| first_unit[u as usize] != u32::MAX).collect();
    uorder.sort_unstable_by_key(|&u| first_unit[u as usize]);
    let mut unit_map = vec![None; n_units];
    for (new, &old) in uorder.iter().enumerate() {
        unit_map[old as usize] = Some(new as UnitId);
    }
    let identity = item_map.iter().enumerate().all(|(i, m)| *m == Some(i as ItemId))
        && unit_map.iter().enumerate().all(|(u, m)| *m == Some(u as UnitId));
    Relabel {
        item_map,
        unit_map,
        n_new_items: order.len(),
        n_new_units: uorder.len() as u32,
        identity,
    }
}

/// Remap cell coordinates through an item permutation (re-sorting each
/// side: the permutation need not be monotone).
fn remap_coords(coords: &CellCoords, item_map: &[Option<ItemId>]) -> CellCoords {
    let map = |ids: &[ItemId]| {
        let mut out: Vec<ItemId> =
            ids.iter().map(|&it| item_map[it as usize].expect("cell item survives")).collect();
        out.sort_unstable();
        out
    };
    CellCoords { sa: map(&coords.sa), ca: map(&coords.ca) }
}

/// Append the batch's new labels and commit the grown unit count (the
/// non-relabeling commit path).
fn commit_labels(cube: &mut SegregationCube, encoded: &EncodedBatch, n_units_after: u32) {
    let (labels, _, n_units) = cube.update_parts();
    for (attr, value, is_sa) in &encoded.new_items {
        labels.push_item(attr.clone(), value.clone(), *is_sa);
    }
    labels.unit_names.extend(encoded.new_units.iter().cloned());
    *n_units = n_units_after;
}

/// Fold `batch` into `(cube, vertical, store)` in place (see the module
/// docs): stage exact histogram deltas (addition for appends, dominated
/// subtraction for retractions) before any mutation, re-evaluate exactly
/// the dirty cells — fanned over `threads` scoped workers when the dirty
/// set is large — demote cells that fell below `min_support` or lost
/// closedness, promote newly-frequent itemsets, and relabel the id space
/// when retractions shrank or reordered the dictionary. `materialize`,
/// `atkinson_b`, and `measures` must be the configuration the cube was
/// built with — snapshots record all three, so re-evaluated and promoted cells fold the exact same
/// index subset a rebuild would.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_update(
    cube: &mut SegregationCube,
    vertical: &mut VerticalDb,
    store: &mut MaintenanceStore,
    batch: &UpdateBatch,
    materialize: Materialize,
    atkinson_b: f64,
    measures: MeasureSet,
    threads: usize,
) -> Result<UpdateStats> {
    if batch.is_empty() {
        return Ok(UpdateStats { clean_cells: cube.len(), ..UpdateStats::default() });
    }
    let min_support = cube.min_support();
    // All fallible validation and histogram staging happens before anything
    // is mutated, so a rejected batch, an inconsistent store, or a
    // subtraction underflow leaves the snapshot exactly as it was.
    //
    // A mapped store is *scanned* here — O(keys), entries stepped over —
    // not decoded: each histogram stays a slice of the mapped file until
    // this update (or a later one) dirties its entry, so a small batch
    // decodes only the contexts and cells it touches.
    store.scan(cube.labels().num_items())?;
    if !store.covers(cube) {
        return Err(ScubeError::Inconsistent(
            "update: maintenance store does not cover the cube".into(),
        ));
    }
    let encoded = encode_batch(batch, cube.labels())?;
    let removals = resolve_removals(batch, cube.labels(), vertical)?;
    let old_n = vertical.num_transactions();
    let n_base_units = vertical.num_units();
    let n_base_items = cube.labels().num_items();
    let n_items_after = n_base_items + encoded.new_items.len();
    let n_units_after = (cube.labels().unit_names.len() + encoded.new_units.len()) as u32;
    let removed: &[u32] = removals.as_ref().map_or(&[], |r| &r.tids);
    let base_rows: &[(Vec<ItemId>, UnitId)] = removals.as_ref().map_or(&[], |r| &r.base_rows);
    let new_base = old_n - removed.len() as u32;

    // Delta postings: per item, the appended tids containing it (in their
    // *final* numbering — retractions renumber survivors first) and the
    // retracted tids containing it (pre-update numbering). The two sides
    // are only ever intersected within themselves, so the mixed numbering
    // is sound. They decide which cells are dirty.
    let mut add_tids: Vec<Vec<u32>> = vec![Vec::new(); n_items_after];
    for (i, (items, _)) in encoded.rows.iter().enumerate() {
        for &it in items {
            add_tids[it as usize].push(new_base + i as u32);
        }
    }
    let add_postings: Vec<EwahBitmap> =
        add_tids.iter().map(|t| EwahBitmap::from_sorted(t)).collect();
    let mut rem_tids: Vec<Vec<u32>> = vec![Vec::new(); n_items_after];
    for &t in removed {
        for &it in &base_rows[t as usize].0 {
            rem_tids[it as usize].push(t);
        }
    }
    let rem_postings: Vec<EwahBitmap> =
        rem_tids.iter().map(|t| EwahBitmap::from_sorted(t)).collect();

    // Relabel plan (pre-mutation, retractions only): the edited table's
    // intern order decides the final item and unit ids. Ids never reach a
    // cell *value* — the index fold reads a histogram as a multiset of
    // `(m, t)` pairs and orders them itself — so the plan only renames:
    // labels, postings, coordinates and store keys at commit, no float is
    // recomputed because of it. Only the first-occurrence scan runs here —
    // O(Σ row width), no row or label clones — so the (common) identity
    // outcome costs no materialization; the relabeling commit path
    // reconstructs the edited rows when, and only when, the ids actually
    // change.
    let plan: Option<Relabel> = removals.as_ref().map(|rem| {
        let mut first_item = vec![u32::MAX; n_items_after];
        let mut first_unit = vec![u32::MAX; n_units_after as usize];
        let mut t = 0u32;
        let mut r = 0usize;
        let mut visit = |row: &[ItemId], unit: UnitId, t: u32| {
            for &it in row {
                if first_item[it as usize] == u32::MAX {
                    first_item[it as usize] = t;
                }
            }
            if first_unit[unit as usize] == u32::MAX {
                first_unit[unit as usize] = t;
            }
        };
        for (old_t, (row, unit)) in rem.base_rows.iter().enumerate() {
            if r < rem.tids.len() && rem.tids[r] as usize == old_t {
                r += 1;
                continue;
            }
            visit(row, *unit, t);
            t += 1;
        }
        for (row, unit) in &encoded.rows {
            visit(row, *unit, t);
            t += 1;
        }
        // Attribute rank of every item — old ones from the labels, batch-
        // new ones from the encoded batch (no label-table clone).
        let attr_pos: FxHashMap<&str, usize> = cube
            .labels()
            .sa_attrs
            .iter()
            .chain(cube.labels().ca_attrs.iter())
            .enumerate()
            .map(|(i, a)| (a.as_str(), i))
            .collect();
        let item_attr_pos: Vec<usize> = (0..n_items_after)
            .map(|it| {
                let attr = if it < n_base_items {
                    cube.labels().attr_of(it as ItemId)
                } else {
                    encoded.new_items[it - n_base_items].0.as_str()
                };
                attr_pos[attr]
            })
            .collect();
        compute_relabel(&first_item, &first_unit, &item_attr_pos)
    });
    // A dictionary-relabeling retraction rewrites every store entry under
    // new ids at commit: validate them all now, while a corrupt mapped
    // entry can still error before mutation.
    if plan.as_ref().is_some_and(|p| !p.identity) {
        store.validate_entries(n_base_units)?;
    }

    // Phase 1 — stage the dirty context histograms: `hist(edited) =
    // hist(base) + hist(appended Δ) − hist(retracted Δ)`, all exact
    // integer sums over delta-sized tidsets. Appended tids histogram
    // through the batch rows' units, retracted tids through the still-
    // unmodified `tid → unit` map.
    let add_all: Option<EwahBitmap> = (!encoded.rows.is_empty()).then(|| {
        EwahBitmap::from_sorted(
            &(new_base..new_base + encoded.rows.len() as u32).collect::<Vec<u32>>(),
        )
    });
    let rem_all: Option<EwahBitmap> = removals.as_ref().map(|r| EwahBitmap::from_sorted(&r.tids));
    struct StagedCtx {
        /// The stored totals, decoded: what the stored minorities of the
        /// context's cells must be dominated by.
        base: Vec<(u32, u64)>,
        /// The totals after the delta.
        totals: Vec<(u32, u64)>,
        add: Option<EwahBitmap>,
        rem: Option<EwahBitmap>,
    }
    let mut scratch = UnitScratch::new(n_units_after);
    let mut staged_ctx: FxHashMap<Vec<ItemId>, StagedCtx> = FxHashMap::default();
    // Delta-clean contexts are skipped *before* their entries are looked
    // into, so on a mapped snapshot they stay slices of the file.
    for (ca, entry) in &store.contexts {
        let add = if ca.is_empty() { add_all.clone() } else { delta_tidset(&add_postings, ca) };
        let rem = if ca.is_empty() { rem_all.clone() } else { delta_tidset(&rem_postings, ca) };
        if add.is_none() && rem.is_none() {
            continue;
        }
        let base = histogram::decode(entry, n_base_units)?;
        let mut new_totals = base.clone();
        if let Some(a) = &add {
            scratch.clear();
            a.for_each(|t| scratch.bump(encoded.rows[(t - new_base) as usize].1));
            merge_add(&mut new_totals, &scratch.sorted_pairs());
        }
        if let Some(r) = &rem {
            scratch.clear();
            r.for_each(|t| scratch.bump(vertical.unit_of(t)));
            merge_sub(&mut new_totals, &scratch.sorted_pairs())?;
        }
        staged_ctx.insert(ca.clone(), StagedCtx { base, totals: new_totals, add, rem });
    }

    // Phase 2 — stage every dirty cell: advance its minority histogram by
    // the delta tidsets, decide demotion (support floor; closedness under
    // ClosedOnly when the cell's own tidset shrank), and recompute its
    // values from the staged integer histograms. Cells are independent, so
    // large dirty sets fan out over scoped worker threads with per-worker
    // scratches; results are pure, hence bit-identical to the serial pass.
    let dirty_cells: Vec<CellCoords> = cube
        .cells()
        .filter(|(coords, _)| staged_ctx.contains_key(&coords.ca))
        .map(|(coords, _)| coords.clone())
        .collect();
    let eval_one = |coords: &CellCoords, scratch: &mut UnitScratch| -> Result<CellFate> {
        let sc = &staged_ctx[&coords.ca];
        if coords.sa.is_empty() {
            // `A = ⋆` ⇒ minority ≡ population (the builder's apex path).
            let support: u64 = sc.totals.iter().map(|&(_, t)| t).sum();
            if !coords.ca.is_empty() {
                if support < min_support {
                    return Ok(CellFate::Demote);
                }
                if materialize == Materialize::ClosedOnly
                    && sc.rem.is_some()
                    && !closed_after_edit(
                        &coords.ca,
                        support,
                        vertical,
                        removed,
                        base_rows,
                        &encoded.rows,
                        &add_postings,
                        n_base_items,
                    )
                {
                    return Ok(CellFate::Demote);
                }
            }
            let counts = UnitCounts::from_triples(sc.totals.iter().map(|&(u, t)| (u, t, t)))?;
            Ok(CellFate::Keep(None, IndexValues::compute_masked(&counts, atkinson_b, measures)))
        } else {
            let entry = store.minorities.get(coords).ok_or_else(|| {
                ScubeError::Inconsistent("update: cell missing from maintenance store".into())
            })?;
            // Decoding validates the entry itself; domination by the
            // context's stored totals is the one thing only the pair of
            // them can show.
            let mut minority = histogram::decode(entry, n_base_units)?;
            if !dominated(&minority, &sc.base) {
                return Err(not_dominated());
            }
            if let Some(a) = &sc.add {
                let mut delta = a.clone();
                for &item in &coords.sa {
                    if delta.is_empty() {
                        break;
                    }
                    delta = delta.and(&add_postings[item as usize]);
                }
                if !delta.is_empty() {
                    scratch.clear();
                    delta.for_each(|t| scratch.bump(encoded.rows[(t - new_base) as usize].1));
                    merge_add(&mut minority, &scratch.sorted_pairs());
                }
            }
            let mut shrank = false;
            if let Some(r) = &sc.rem {
                let mut delta = r.clone();
                for &item in &coords.sa {
                    if delta.is_empty() {
                        break;
                    }
                    delta = delta.and(&rem_postings[item as usize]);
                }
                if !delta.is_empty() {
                    shrank = true;
                    scratch.clear();
                    delta.for_each(|t| scratch.bump(vertical.unit_of(t)));
                    merge_sub(&mut minority, &scratch.sorted_pairs())?;
                }
            }
            let support: u64 = minority.iter().map(|&(_, m)| m).sum();
            if support < min_support {
                return Ok(CellFate::Demote);
            }
            if materialize == Materialize::ClosedOnly && shrank {
                let union = coords.union();
                if !closed_after_edit(
                    &union,
                    support,
                    vertical,
                    removed,
                    base_rows,
                    &encoded.rows,
                    &add_postings,
                    n_base_items,
                ) {
                    return Ok(CellFate::Demote);
                }
            }
            let values = values_from_hists(&sc.totals, &minority, atkinson_b, measures)?;
            Ok(CellFate::Keep(Some(encode_entry(&minority)), values))
        }
    };
    let n_workers = threads.max(1).min(dirty_cells.len().max(1));
    let fates: Vec<(CellCoords, CellFate)> = if n_workers > 1 && dirty_cells.len() >= 64 {
        let chunk = dirty_cells.len().div_ceil(n_workers);
        let results: Vec<Result<Vec<(CellCoords, CellFate)>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = dirty_cells
                .chunks(chunk)
                .map(|cells| {
                    let eval_one = &eval_one;
                    scope.spawn(move || {
                        let mut scratch = UnitScratch::new(n_units_after);
                        cells.iter().map(|c| Ok((c.clone(), eval_one(c, &mut scratch)?))).collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("update worker panicked")).collect()
        });
        let mut out = Vec::with_capacity(dirty_cells.len());
        for r in results {
            out.extend(r?);
        }
        out
    } else {
        let mut scratch = UnitScratch::new(n_units_after);
        dirty_cells
            .iter()
            .map(|c| Ok((c.clone(), eval_one(c, &mut scratch)?)))
            .collect::<Result<Vec<_>>>()?
    };

    // ---- Commit. Everything below applies already-validated state. ----
    let mut stats = UpdateStats {
        rows_added: encoded.rows.len(),
        rows_removed: removed.len(),
        new_items: encoded.new_items.len(),
        new_units: encoded.new_units.len(),
        ..UpdateStats::default()
    };
    {
        let (_, cells, _) = cube.update_parts();
        for (coords, fate) in fates {
            match fate {
                CellFate::Demote => {
                    cells.remove(&coords);
                    store.minorities.remove(&coords);
                    stats.demoted_cells += 1;
                }
                CellFate::Keep(minority, values) => {
                    if let Some(m) = minority {
                        store.minorities.insert(coords.clone(), m);
                    }
                    cells.insert(coords, values);
                    stats.dirty_cells += 1;
                }
            }
        }
        for (ca, sc) in staged_ctx {
            store.contexts.insert(ca, encode_entry(&sc.totals));
        }
        // Contexts no longer referenced by any cell leave the store,
        // exactly as a rebuild's store (derived from surviving cells)
        // would have it.
        let live: FxHashSet<Vec<ItemId>> = cells.keys().map(|c| c.ca.clone()).collect();
        store.contexts.retain(|ca, _| live.contains(ca));
    }

    // Mutate the vertical database and labels; relabel when retraction
    // shrank or reordered the dictionary.
    let promo_rows: Vec<(Vec<ItemId>, UnitId)>;
    match plan {
        None => {
            vertical
                .append_rows(&encoded.rows, n_items_after, n_units_after)
                .map_err(|e| ScubeError::Inconsistent(format!("update: {e}")))?;
            commit_labels(cube, &encoded, n_units_after);
            promo_rows = encoded.rows.clone();
        }
        Some(relabel) if relabel.identity => {
            // Retraction that moves no first occurrence and empties
            // nothing (any tail retraction, and interior ones with stable
            // dictionaries): postings shrink in place — `remove_sorted`
            // for tails, a renumbering rebuild for interiors — and every
            // surviving id keeps its meaning.
            let rem = removals.as_ref().expect("plan implies removals");
            vertical
                .remove_rows(&rem.tids)
                .map_err(|e| ScubeError::Inconsistent(format!("update: {e}")))?;
            vertical
                .append_rows(&encoded.rows, n_items_after, n_units_after)
                .map_err(|e| ScubeError::Inconsistent(format!("update: {e}")))?;
            commit_labels(cube, &encoded, n_units_after);
            promo_rows = encoded.rows.clone();
        }
        Some(relabel) => {
            // Dictionary-shrinking or -reordering retraction: rebuild the
            // id space the way a from-scratch build on the edited table
            // would intern it, then rebuild postings, labels, cells, and
            // store under the new ids. Only now — when the ids actually
            // change — are the edited rows and extended label tables
            // materialized.
            let rem = removals.as_ref().expect("plan implies removals");
            let mut final_rows: Vec<(Vec<ItemId>, UnitId)> =
                Vec::with_capacity(new_base as usize + encoded.rows.len());
            let mut r = 0usize;
            for (t, row) in rem.base_rows.iter().enumerate() {
                if r < rem.tids.len() && rem.tids[r] as usize == t {
                    r += 1;
                    continue;
                }
                final_rows.push(row.clone());
            }
            final_rows.extend(encoded.rows.iter().cloned());
            let mut ext_items = cube.labels().items.clone();
            for (a, v, sa) in &encoded.new_items {
                ext_items.push((a.clone(), v.clone(), *sa));
            }
            let mut ext_units = cube.labels().unit_names.clone();
            ext_units.extend(encoded.new_units.iter().cloned());
            stats.dropped_items = n_items_after - relabel.n_new_items;
            stats.dropped_units = n_units_after as usize - relabel.n_new_units as usize;
            let map_item =
                |it: ItemId| relabel.item_map[it as usize].expect("occurring item survives");
            let mut new_unit_of: Vec<UnitId> = Vec::with_capacity(final_rows.len());
            let mut tids_new: Vec<Vec<u32>> = vec![Vec::new(); relabel.n_new_items];
            let mut mapped_rows: Vec<(Vec<ItemId>, UnitId)> = Vec::with_capacity(final_rows.len());
            for (t, (row, unit)) in final_rows.iter().enumerate() {
                let mut mapped: Vec<ItemId> = row.iter().map(|&it| map_item(it)).collect();
                mapped.sort_unstable();
                for &it in &mapped {
                    tids_new[it as usize].push(t as u32);
                }
                let u = relabel.unit_map[*unit as usize].expect("occurring unit survives");
                new_unit_of.push(u);
                mapped_rows.push((mapped, u));
            }
            let postings: Vec<EwahBitmap> =
                tids_new.iter().map(|t| EwahBitmap::from_sorted(t)).collect();
            *vertical = VerticalDb::from_parts(
                postings,
                final_rows.len() as u32,
                new_unit_of,
                relabel.n_new_units,
            )
            .ok_or_else(|| {
                ScubeError::Inconsistent("update: rebuilt vertical parts inconsistent".into())
            })?;
            {
                let (labels, cells, n_units) = cube.update_parts();
                let mut new_items =
                    vec![(String::new(), String::new(), false); relabel.n_new_items];
                for (old, entry) in ext_items.into_iter().enumerate() {
                    if let Some(new) = relabel.item_map[old] {
                        new_items[new as usize] = entry;
                    }
                }
                labels.items = new_items;
                let mut new_names = vec![String::new(); relabel.n_new_units as usize];
                for (old, name) in ext_units.into_iter().enumerate() {
                    if let Some(new) = relabel.unit_map[old] {
                        new_names[new as usize] = name;
                    }
                }
                labels.unit_names = new_names;
                *n_units = relabel.n_new_units;
                let old_cells = std::mem::take(cells);
                for (coords, v) in old_cells {
                    cells.insert(remap_coords(&coords, &relabel.item_map), v);
                }
            }
            // Decode → rename → re-encode, one entry at a time.
            let remap_entry = |entry: Store<u8>| {
                let mut pairs = histogram::decode(&entry, n_units_after)
                    .expect("every store entry was validated before mutation");
                for p in pairs.iter_mut() {
                    p.0 = relabel.unit_map[p.0 as usize].expect("populated unit survives");
                }
                pairs.sort_unstable_by_key(|&(u, _)| u);
                encode_entry(&pairs)
            };
            store.contexts = std::mem::take(&mut store.contexts)
                .into_iter()
                .map(|(ca, entry)| {
                    let mut ca: Vec<ItemId> = ca.iter().map(|&it| map_item(it)).collect();
                    ca.sort_unstable();
                    (ca, remap_entry(entry))
                })
                .collect();
            store.minorities = std::mem::take(&mut store.minorities)
                .into_iter()
                .map(|(coords, entry)| {
                    (remap_coords(&coords, &relabel.item_map), remap_entry(entry))
                })
                .collect();
            // The appended rows in the new id space seed promotion.
            promo_rows = mapped_rows.split_off(new_base as usize);
        }
    }

    // Phase 3 — promotions over the mutated (and possibly relabeled)
    // database: newly-frequent (or newly-closed) itemsets are subsets of
    // single appended rows, so enumerate each row's frequent-item
    // projection — deduplicated, with one generating row remembered as the
    // closedness witness. Wide rows fall back to the scoped Eclat re-mine
    // over their items. Retraction-only batches have no rows here and skip
    // the phase entirely (supports only shrink, and non-closed itemsets
    // stay non-closed when both sides of an equal-support pair lose the
    // same transactions).
    let mut candidates: FxHashMap<Vec<ItemId>, usize> = FxHashMap::default();
    let mut seen_projections: FxHashSet<Vec<ItemId>> = FxHashSet::default();
    let mut wide_items: Vec<ItemId> = Vec::new();
    let mut wide_rows: Vec<usize> = Vec::new();
    for (r, (items, _)) in promo_rows.iter().enumerate() {
        let frequent: Vec<ItemId> = items
            .iter()
            .copied()
            .filter(|&it| vertical.posting(it).cardinality() >= min_support)
            .collect();
        // Categorical deltas repeat row shapes heavily; one enumeration
        // per *distinct* frequent-item projection bounds the subset work
        // by shape count, not batch size.
        if frequent.is_empty() || !seen_projections.insert(frequent.clone()) {
            continue;
        }
        if frequent.len() > MAX_SUBSET_WIDTH {
            wide_items.extend_from_slice(&frequent);
            wide_rows.push(r);
            continue;
        }
        for mask in 1u32..(1 << frequent.len()) {
            let subset: Vec<ItemId> = frequent
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask & (1 << i) != 0)
                .map(|(_, &it)| it)
                .collect();
            candidates.entry(subset).or_insert(r);
        }
    }
    if !wide_items.is_empty() {
        for (set, _) in mine_vertical_with_tidsets_scoped(vertical, min_support, &wide_items)? {
            // Attribute each mined itemset to a wide row containing it (it
            // may be a cross-row combination that gained nothing — those
            // are filtered below by the delta-gain check).
            if let Some(&r) =
                wide_rows.iter().find(|&&r| is_sorted_subset(&set.items, &promo_rows[r].0))
            {
                candidates.entry(set.items).or_insert(r);
            }
        }
    }

    // Candidates are visited smallest-first so an infrequent itemset
    // prunes its supersets without touching a posting (Apriori
    // monotonicity); surviving ones intersect smallest-posting-first with
    // a sub-threshold abort. Promoted cells get fresh store entries from
    // their full tidsets — new contexts too — exactly as a rebuild would
    // compute them.
    let mut scratch = UnitScratch::new(vertical.num_units());
    let mut promoted: Vec<(CellCoords, IndexValues)> = Vec::new();
    let mut ordered: Vec<(&Vec<ItemId>, usize)> =
        candidates.iter().map(|(items, &row)| (items, row)).collect();
    ordered.sort_unstable_by_key(|(items, _)| items.len());
    let mut infrequent: FxHashSet<&[ItemId]> = FxHashSet::default();
    for (items, row) in ordered {
        if items.len() > 1 {
            let mut sub: Vec<ItemId> = items[1..].to_vec();
            let mut pruned = infrequent.contains(&sub[..]);
            for i in 0..items.len() - 1 {
                if pruned {
                    break;
                }
                sub[i] = items[i];
                // sub now misses items[i + 1] (it holds the other items in
                // sorted order).
                pruned = infrequent.contains(&sub[..]);
            }
            if pruned {
                infrequent.insert(items.as_slice());
                continue;
            }
        }
        let coords = CellCoords::split_sorted(items, |it| cube.labels().is_sa_item(it));
        if cube.get(&coords).is_some() {
            continue;
        }
        let Some(tids) = tidset_if_frequent(vertical, items, min_support) else {
            infrequent.insert(items.as_slice());
            continue;
        };
        if materialize == Materialize::ClosedOnly
            && !is_closed(vertical, items, &tids, &promo_rows[row].0)
        {
            continue;
        }
        // An existing context gained the candidate's generating row, so
        // its entry is one this update just encoded.
        let totals = match store.contexts.get(&coords.ca) {
            Some(entry) => histogram::decode(entry, vertical.num_units())?,
            None => {
                let ctx_tids = vertical.tidset(&coords.ca);
                vertical.unit_histogram_into(&ctx_tids, &mut scratch);
                let pairs = scratch.sorted_pairs();
                store.contexts.insert(coords.ca.clone(), encode_entry(&pairs));
                pairs
            }
        };
        let values = if coords.sa.is_empty() {
            let counts = UnitCounts::from_triples(totals.iter().map(|&(u, t)| (u, t, t)))?;
            IndexValues::compute_masked(&counts, atkinson_b, measures)
        } else {
            vertical.unit_histogram_into(&tids, &mut scratch);
            let minority = scratch.sorted_pairs();
            store.minorities.insert(coords.clone(), encode_entry(&minority));
            values_from_hists(&totals, &minority, atkinson_b, measures)?
        };
        promoted.push((coords, values));
    }
    {
        let (_, cells, _) = cube.update_parts();
        for (coords, values) in promoted {
            cells.insert(coords, values);
            stats.promoted_cells += 1;
        }
    }

    stats.clean_cells = cube.len() - stats.dirty_cells - stats.promoted_cells;
    Ok(stats)
}

/// Exact closedness of a promotion candidate in the grown database, using
/// its generating appended row to keep the check O(row width): an item
/// extending the candidate with equal support must occur in *every*
/// transaction of the candidate's tidset — in particular in the generating
/// row — so the only possible extenders are that row's other items.
fn is_closed(
    vertical: &VerticalDb,
    items: &[ItemId],
    tids: &EwahBitmap,
    row_items: &[ItemId],
) -> bool {
    let support = tids.cardinality();
    !row_items
        .iter()
        .any(|j| !items.contains(j) && vertical.posting(*j).and_cardinality(tids) == support)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CubeBuilder;
    use crate::snapshot::CubeSnapshot;
    use scube_data::{Attribute, Schema, TransactionDb, TransactionDbBuilder};

    type Row = (&'static str, &'static str, &'static str, &'static str);

    const BASE: &[Row] = &[
        ("F", "young", "north", "u0"),
        ("F", "young", "north", "u0"),
        ("M", "old", "north", "u0"),
        ("F", "old", "south", "u1"),
        ("M", "young", "south", "u1"),
        ("M", "old", "south", "u1"),
        ("F", "young", "south", "u0"),
        ("M", "young", "north", "u1"),
    ];

    /// Delta with an existing shape, a new value ("mid"), and a new unit.
    const DELTA: &[Row] = &[
        ("F", "old", "north", "u0"),
        ("M", "mid", "north", "u2"),
        ("F", "mid", "south", "u2"),
        ("F", "old", "north", "u0"),
    ];

    fn db(rows: &[Row]) -> TransactionDb {
        let schema =
            Schema::new(vec![Attribute::sa("sex"), Attribute::sa("age"), Attribute::ca("region")])
                .unwrap();
        let mut b = TransactionDbBuilder::new(schema);
        for (s, a, r, u) in rows {
            b.add_row(&[vec![*s], vec![*a], vec![*r]], u).unwrap();
        }
        b.finish()
    }

    fn batch(rows: &[Row]) -> UpdateBatch {
        let mut batch = UpdateBatch::new();
        for (s, a, r, u) in rows {
            batch.add_row(&[("sex", *s), ("age", *a), ("region", *r)], u);
        }
        batch
    }

    fn check_roundtrip(materialize: Materialize, min_support: u64) {
        let builder = CubeBuilder::new().min_support(min_support).materialize(materialize);
        let mut updated = CubeSnapshot::from_db(&db(BASE), &builder).unwrap();
        let stats = updated.apply_update(&batch(DELTA)).unwrap();
        let all: Vec<Row> = BASE.iter().chain(DELTA.iter()).copied().collect();
        let rebuilt = CubeSnapshot::from_db(&db(&all), &builder).unwrap();
        assert_eq!(updated.cube(), rebuilt.cube(), "{materialize:?} minsup {min_support}");
        assert_eq!(
            updated.to_bytes(),
            rebuilt.to_bytes(),
            "{materialize:?} minsup {min_support}: snapshot bytes diverge"
        );
        assert_eq!(stats.rows_added, DELTA.len());
        assert_eq!(stats.new_items, 1, "age=mid is the one new value");
        assert_eq!(stats.new_units, 1, "u2 is the one new unit");
        assert_eq!(
            stats.dirty_cells + stats.promoted_cells + stats.clean_cells,
            updated.cube().len()
        );
    }

    #[test]
    fn update_matches_rebuild_every_strategy_and_support() {
        for minsup in [1, 2, 3] {
            check_roundtrip(Materialize::AllFrequent, minsup);
            check_roundtrip(Materialize::ClosedOnly, minsup);
        }
    }

    #[test]
    fn promotion_crosses_the_support_threshold() {
        // At min_support 3, (age=old, region=north) has base support 1;
        // the delta adds two more rows with that pair, promoting it (and
        // (sex=F, age=old, region=north), support 0 → 2... still below).
        let builder = CubeBuilder::new().min_support(3);
        let mut snap = CubeSnapshot::from_db(&db(BASE), &builder).unwrap();
        let before = snap.cube().len();
        let coords = |snap: &CubeSnapshot, sa: &[(&str, &str)], ca: &[(&str, &str)]| {
            snap.cube().coords_by_names(sa, ca)
        };
        let promoted = coords(&snap, &[("age", "old")], &[("region", "north")]).unwrap();
        assert!(snap.cube().get(&promoted).is_none(), "below threshold before the update");
        let stats = snap.apply_update(&batch(DELTA)).unwrap();
        assert!(stats.promoted_cells > 0);
        assert!(snap.cube().len() > before);
        let v = snap.cube().get(&promoted).expect("promoted after the update");
        assert_eq!(v.minority, 3);
    }

    #[test]
    fn clean_cells_are_not_reevaluated() {
        // A delta touching only the north leaves pure-south contexts clean.
        let builder = CubeBuilder::new().min_support(1);
        let mut snap = CubeSnapshot::from_db(&db(BASE), &builder).unwrap();
        let south_delta: &[Row] = &[("F", "young", "north", "u0")];
        let stats = snap.apply_update(&batch(south_delta)).unwrap();
        assert!(stats.clean_cells > 0, "south-context cells must stay untouched");
        assert!(stats.dirty_cells > 0, "north and ⋆ contexts are dirty");
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let builder = CubeBuilder::new();
        let mut snap = CubeSnapshot::from_db(&db(BASE), &builder).unwrap();
        let bytes = snap.to_bytes();
        let stats = snap.apply_update(&UpdateBatch::new()).unwrap();
        assert_eq!(stats, UpdateStats { clean_cells: snap.cube().len(), ..Default::default() });
        assert_eq!(snap.to_bytes(), bytes);
    }

    #[test]
    fn unknown_attribute_rejected_before_mutation() {
        let builder = CubeBuilder::new();
        let mut snap = CubeSnapshot::from_db(&db(BASE), &builder).unwrap();
        let bytes = snap.to_bytes();
        let mut bad = UpdateBatch::new();
        bad.add_row(&[("sex", "F"), ("planet", "mars")], "u0");
        assert!(snap.apply_update(&bad).is_err());
        assert_eq!(snap.to_bytes(), bytes, "failed update must not mutate the snapshot");
    }

    #[test]
    fn batch_from_relation_matches_hand_built() {
        let builder = CubeBuilder::new();
        let snap = CubeSnapshot::from_db(&db(BASE), &builder).unwrap();
        let mut rel =
            Relation::new(vec!["sex".into(), "age".into(), "region".into(), "unitID".into()])
                .unwrap();
        for (s, a, r, u) in DELTA {
            rel.push_row(vec![s.to_string(), a.to_string(), r.to_string(), u.to_string()]).unwrap();
        }
        let from_rel = UpdateBatch::from_relation(&rel, snap.cube().labels(), "unitID").unwrap();
        let mut a = snap.clone();
        let mut b = snap.clone();
        a.apply_update(&from_rel).unwrap();
        b.apply_update(&batch(DELTA)).unwrap();
        assert_eq!(a.to_bytes(), b.to_bytes());
        // Missing columns are schema errors.
        let empty = Relation::new(vec!["sex".into(), "unitID".into()]).unwrap();
        assert!(UpdateBatch::from_relation(&empty, snap.cube().labels(), "unitID").is_err());
        assert!(UpdateBatch::from_relation(&rel, snap.cube().labels(), "nope").is_err());
    }

    #[test]
    fn pair_order_does_not_change_interning() {
        // Two new values in one row, given in reverse attribute order: the
        // dictionary must still grow in label (schema) order, keeping the
        // updated snapshot byte-identical to a rebuild.
        let builder = CubeBuilder::new();
        let mut snap = CubeSnapshot::from_db(&db(BASE), &builder).unwrap();
        let mut reversed = UpdateBatch::new();
        reversed.add_row(&[("region", "west"), ("age", "mid"), ("sex", "F")], "u0");
        snap.apply_update(&reversed).unwrap();
        let all: Vec<Row> = BASE.iter().copied().chain([("F", "mid", "west", "u0")]).collect();
        let rebuilt = CubeSnapshot::from_db(&db(&all), &builder).unwrap();
        assert_eq!(snap.to_bytes(), rebuilt.to_bytes());
    }

    /// Apply `remove` (tids) + `delta` (appends) to a BASE snapshot and
    /// require byte-identity with a from-scratch snapshot on the edited
    /// table, for one materialization × threshold.
    fn check_churn(remove: &[u32], delta: &[Row], materialize: Materialize, min_support: u64) {
        let builder = CubeBuilder::new().min_support(min_support).materialize(materialize);
        let mut updated = CubeSnapshot::from_db(&db(BASE), &builder).unwrap();
        let mut b = batch(delta);
        for &t in remove {
            b.remove_tid(t);
        }
        let stats = updated.apply_update(&b).unwrap();
        assert_eq!(stats.rows_removed, remove.len());
        assert_eq!(stats.rows_added, delta.len());
        assert_eq!(
            stats.dirty_cells + stats.promoted_cells + stats.clean_cells,
            updated.cube().len(),
            "stats partition the surviving store"
        );
        let edited: Vec<Row> = BASE
            .iter()
            .enumerate()
            .filter(|(i, _)| !remove.contains(&(*i as u32)))
            .map(|(_, r)| *r)
            .chain(delta.iter().copied())
            .collect();
        let rebuilt = CubeSnapshot::from_db(&db(&edited), &builder).unwrap();
        assert_eq!(
            updated.to_bytes(),
            rebuilt.to_bytes(),
            "{materialize:?} minsup {min_support} remove {remove:?} +{} rows: snapshot bytes \
             diverge",
            delta.len()
        );
    }

    fn check_churn_all(remove: &[u32], delta: &[Row]) {
        for minsup in [1, 2, 3] {
            for materialize in [Materialize::AllFrequent, Materialize::ClosedOnly] {
                check_churn(remove, delta, materialize, minsup);
            }
        }
    }

    #[test]
    fn suffix_retraction_matches_rebuild() {
        check_churn_all(&[6, 7], &[]);
    }

    #[test]
    fn interior_retraction_matches_rebuild() {
        check_churn_all(&[2], &[]);
        check_churn_all(&[0, 4], &[]);
    }

    #[test]
    fn retraction_emptying_a_value_matches_rebuild() {
        // Rows 2, 3, 5 are the only age=old rows: the value must leave the
        // dictionary and every surviving id renumber, as a rebuild would.
        check_churn_all(&[2, 3, 5], &[]);
    }

    #[test]
    fn retraction_emptying_a_unit_matches_rebuild() {
        // Rows 3, 4, 5, 7 are all of u1: the unit disappears.
        check_churn_all(&[3, 4, 5, 7], &[]);
    }

    /// Every (sex, age, role) shape in both regions over units `u1`/`u2`,
    /// behind a north-only head (`with_head`): one row of `u2`, then the
    /// only three rows of `u0`. The head interns `u2, u0, u1`; retracting
    /// it drops `u0` and *swaps* the survivors (`u1 → 0`, `u2 → 1`) while
    /// no south context gains or loses a row. The 36 SA itemsets keep 72
    /// cells dirty (`⋆` and north contexts), enough for `threads > 1` to
    /// really fan out.
    fn north_only_head_db(with_head: bool) -> TransactionDb {
        let schema = Schema::new(vec![
            Attribute::sa("sex"),
            Attribute::sa("age"),
            Attribute::sa("role"),
            Attribute::ca("region"),
        ])
        .unwrap();
        let mut b = TransactionDbBuilder::new(schema);
        let mut add = |sex: &str, age: &str, role: &str, region: &str, unit: &str| {
            b.add_row(&[vec![sex], vec![age], vec![role], vec![region]], unit).unwrap();
        };
        if with_head {
            add("F", "young", "clerk", "north", "u2");
            add("F", "young", "clerk", "north", "u0");
            add("M", "old", "chief", "north", "u0");
            add("F", "old", "clerk", "north", "u0");
        }
        for region in ["north", "south"] {
            let mut shape = 0;
            for sex in ["F", "M"] {
                for age in ["young", "old"] {
                    for role in ["clerk", "chief", "owner"] {
                        // 1–3 copies per shape, alternating units: uneven
                        // two-unit histograms in every context.
                        for copy in 0..=shape % 3 {
                            let unit = if (shape + copy) % 2 == 0 { "u1" } else { "u2" };
                            add(sex, age, role, region, unit);
                        }
                        shape += 1;
                    }
                }
            }
        }
        b.finish()
    }

    #[test]
    fn unit_renumbering_retraction_dirties_only_what_its_delta_touches() {
        let mut retract_head = UpdateBatch::new();
        retract_head.remove_tid(0).remove_tid(1).remove_tid(2).remove_tid(3);
        for materialize in [Materialize::AllFrequent, Materialize::ClosedOnly] {
            let builder = CubeBuilder::new().min_support(1).materialize(materialize);
            let base = CubeSnapshot::from_db(&north_only_head_db(true), &builder).unwrap();
            let rebuilt = CubeSnapshot::from_db(&north_only_head_db(false), &builder).unwrap();
            for threads in 1..=4 {
                let mut updated = base.clone();
                let stats = updated.apply_update_threads(&retract_head, threads).unwrap();
                assert_eq!(stats.dropped_units, 1, "u0 leaves; u1 and u2 swap ids");
                assert!(stats.dirty_cells >= 64, "{materialize:?}: workers fan out: {stats:?}");
                assert!(
                    stats.clean_cells > 0,
                    "{materialize:?}: south cells stay clean: {stats:?}"
                );
                assert_eq!(
                    updated.to_bytes(),
                    rebuilt.to_bytes(),
                    "{materialize:?}, {threads} threads: snapshot bytes diverge from a rebuild"
                );
            }
        }
    }

    #[test]
    fn remove_everything_from_a_context_matches_rebuild() {
        // Rows 0, 1, 2, 7 are the whole region=north context: all of its
        // cells demote, and the context leaves the maintenance store.
        check_churn_all(&[0, 1, 2, 7], &[]);
    }

    #[test]
    fn remove_all_rows_matches_rebuild_on_empty_table() {
        check_churn_all(&[0, 1, 2, 3, 4, 5, 6, 7], &[]);
    }

    #[test]
    fn mixed_churn_matches_rebuild() {
        check_churn_all(&[1, 6], DELTA);
        check_churn_all(&[6, 7], DELTA);
        check_churn_all(&[2, 3, 5], DELTA);
    }

    #[test]
    fn remove_then_readd_identical_rows_is_byte_identical_to_base() {
        for materialize in [Materialize::AllFrequent, Materialize::ClosedOnly] {
            let builder = CubeBuilder::new().min_support(2).materialize(materialize);
            let base = CubeSnapshot::from_db(&db(BASE), &builder).unwrap();
            let bytes = base.to_bytes();
            let mut snap = base.clone();
            let mut b = batch(&BASE[6..]);
            b.remove_tid(6).remove_tid(7);
            let stats = snap.apply_update(&b).unwrap();
            assert_eq!((stats.rows_removed, stats.rows_added), (2, 2));
            assert_eq!(snap.to_bytes(), bytes, "{materialize:?}: must return to the base bytes");
        }
    }

    #[test]
    fn parallel_update_is_bit_identical_to_serial() {
        for (remove, delta) in
            [(vec![2u32, 5], DELTA), (vec![], DELTA), (vec![0, 1, 2, 7], &[] as &[Row])]
        {
            let builder = CubeBuilder::new().min_support(1);
            let mut serial = CubeSnapshot::from_db(&db(BASE), &builder).unwrap();
            let mut parallel = serial.clone();
            let mut b = batch(delta);
            for &t in &remove {
                b.remove_tid(t);
            }
            let s1 = serial.apply_update_threads(&b, 1).unwrap();
            let s2 = parallel.apply_update_threads(&b, 8).unwrap();
            assert_eq!(s1, s2, "stats must agree");
            assert_eq!(serial.to_bytes(), parallel.to_bytes(), "bytes must agree");
        }
    }

    #[test]
    fn remove_by_row_match_equals_remove_by_tid() {
        let builder = CubeBuilder::new();
        let base = CubeSnapshot::from_db(&db(BASE), &builder).unwrap();
        let mut by_tid = base.clone();
        let mut b1 = UpdateBatch::new();
        b1.remove_tid(0);
        by_tid.apply_update(&b1).unwrap();
        let mut by_row = base.clone();
        let mut b2 = UpdateBatch::new();
        // Row 0 is the first (sex=F, age=young, region=north, u0) row; the
        // matcher must claim the earliest occurrence.
        b2.remove_row(&[("sex", "F"), ("age", "young"), ("region", "north")], "u0");
        by_row.apply_update(&b2).unwrap();
        assert_eq!(by_tid.to_bytes(), by_row.to_bytes());

        // Two identical removals claim two distinct rows (0 and 1)...
        let mut both = base.clone();
        let mut b3 = UpdateBatch::new();
        b3.remove_row(&[("sex", "F"), ("age", "young"), ("region", "north")], "u0")
            .remove_row(&[("age", "young"), ("sex", "F"), ("region", "north")], "u0");
        let stats = both.apply_update(&b3).unwrap();
        assert_eq!(stats.rows_removed, 2);
        // ...and a third has nothing left to claim.
        let mut over = base.clone();
        let mut b4 = b3.clone();
        b4.remove_row(&[("sex", "F"), ("age", "young"), ("region", "north")], "u0");
        assert!(over.apply_update(&b4).is_err());
    }

    #[test]
    fn bad_retractions_rejected_before_mutation() {
        let builder = CubeBuilder::new();
        let snap = CubeSnapshot::from_db(&db(BASE), &builder).unwrap();
        let bytes = snap.to_bytes();
        // Unknown value: absent from the dictionary, can match nothing.
        let mut b = UpdateBatch::new();
        b.remove_row(&[("sex", "F"), ("age", "ancient"), ("region", "north")], "u0");
        let mut s = snap.clone();
        let err = s.apply_update(&b).unwrap_err().to_string();
        assert!(err.contains("absent from the snapshot's dictionary"), "{err}");
        assert_eq!(s.to_bytes(), bytes);
        // Unknown unit.
        let mut b = UpdateBatch::new();
        b.remove_row(&[("sex", "F"), ("age", "young"), ("region", "north")], "u9");
        let mut s = snap.clone();
        assert!(s.apply_update(&b).is_err());
        assert_eq!(s.to_bytes(), bytes);
        // Known values, but no row has this combination.
        let mut b = UpdateBatch::new();
        b.remove_row(&[("sex", "F"), ("age", "old"), ("region", "north")], "u0");
        let mut s = snap.clone();
        assert!(s.apply_update(&b).is_err());
        assert_eq!(s.to_bytes(), bytes);
        // Out-of-range and duplicate tids.
        for bad in [vec![8u32], vec![3, 3]] {
            let mut b = UpdateBatch::new();
            for &t in &bad {
                b.remove_tid(t);
            }
            let mut s = snap.clone();
            assert!(s.apply_update(&b).is_err(), "{bad:?}");
            assert_eq!(s.to_bytes(), bytes, "{bad:?}");
        }
    }

    #[test]
    fn demotion_mirrors_promotion() {
        // At min_support 2, (sex=F, age=young, region=north) has support 2
        // (rows 0, 1); retracting row 1 drops it below threshold and the
        // cell must leave the store.
        let builder = CubeBuilder::new().min_support(2).materialize(Materialize::AllFrequent);
        let mut snap = CubeSnapshot::from_db(&db(BASE), &builder).unwrap();
        let coords = snap
            .cube()
            .coords_by_names(&[("sex", "F"), ("age", "young")], &[("region", "north")])
            .unwrap();
        assert!(snap.cube().get(&coords).is_some(), "materialized before the retraction");
        let before = snap.cube().len();
        let mut b = UpdateBatch::new();
        b.remove_tid(1);
        let stats = snap.apply_update(&b).unwrap();
        assert!(stats.demoted_cells > 0, "{stats:?}");
        assert!(snap.cube().len() < before);
        assert!(snap.cube().get(&coords).is_none(), "demoted after the retraction");
    }

    #[test]
    fn multi_valued_relabel_caveat_is_value_exact() {
        // The documented edge of the byte-identity contract: a retraction
        // that makes two values of one *multi-valued* attribute first-occur
        // in the same surviving row cannot recover that row's original cell
        // order, so the relabeled dictionary may differ from a rebuild's.
        // What must still hold — and what this test pins — is that the
        // updated cube is *value*-exact: same cells by name, same floats,
        // bit for bit.
        let schema =
            Schema::new(vec![Attribute::sa("lang").multi(), Attribute::ca("region")]).unwrap();
        let mut b = TransactionDbBuilder::new(schema.clone());
        b.add_row(&[vec!["b"], vec!["north"]], "u0").unwrap(); // b interns first
        b.add_row(&[vec!["a"], vec!["north"]], "u0").unwrap(); // then a
        b.add_row(&[vec!["a", "b"], vec!["south"]], "u1").unwrap(); // cell order a;b
        b.add_row(&[vec!["a"], vec!["south"]], "u1").unwrap();
        let base_db = b.finish();
        let builder = CubeBuilder::new().min_support(1);
        let mut updated = CubeSnapshot::from_db(&base_db, &builder).unwrap();
        // Retract rows 0 and 1: both `a` and `b` now first-occur in row 2,
        // whose original cell order ("a" before "b") is unrecoverable from
        // the postings — old-id order says b before a.
        let mut batch = UpdateBatch::new();
        batch.remove_tid(0).remove_tid(1);
        updated.apply_update(&batch).unwrap();

        let mut rb = TransactionDbBuilder::new(schema);
        rb.add_row(&[vec!["a", "b"], vec!["south"]], "u1").unwrap();
        rb.add_row(&[vec!["a"], vec!["south"]], "u1").unwrap();
        let rebuilt = CubeSnapshot::from_db(&rb.finish(), &builder).unwrap();

        // Value-exactness across the possibly-different dictionaries: every
        // rebuilt cell resolves by *name* in the updated cube to identical
        // floats, and the stores are the same size.
        assert_eq!(updated.cube().len(), rebuilt.cube().len());
        for (coords, values) in rebuilt.cube().cells() {
            let labels = rebuilt.cube().labels();
            let name = |items: &[ItemId]| -> Vec<(String, String)> {
                items
                    .iter()
                    .map(|&it| (labels.attr_of(it).to_string(), labels.value_of(it).to_string()))
                    .collect()
            };
            let (sa, ca) = (name(&coords.sa), name(&coords.ca));
            let sa_refs: Vec<(&str, &str)> =
                sa.iter().map(|(a, v)| (a.as_str(), v.as_str())).collect();
            let ca_refs: Vec<(&str, &str)> =
                ca.iter().map(|(a, v)| (a.as_str(), v.as_str())).collect();
            let got = updated
                .cube()
                .get_by_names(&sa_refs, &ca_refs)
                .unwrap_or_else(|| panic!("cell {sa:?} | {ca:?} missing after relabel"));
            assert_eq!(got, values, "cell {sa:?} | {ca:?} diverged in value");
        }
    }

    #[test]
    fn histogram_subtraction_underflow_is_a_hard_error() {
        let mut base = vec![(0u32, 2u64), (2, 1)];
        assert!(merge_sub(&mut base, &[(0, 3)]).is_err(), "underflow");
        assert!(merge_sub(&mut base, &[(1, 1)]).is_err(), "unit absent from base");
        assert_eq!(base, vec![(0, 2), (2, 1)], "failed subtraction must not mutate");
        assert!(merge_sub(&mut base, &[(0, 2)]).is_ok());
        assert_eq!(base, vec![(2, 1)], "exact-zero pairs are removed");
    }

    #[test]
    fn repeated_small_updates_match_one_rebuild() {
        // Stream the delta row by row: four updates ≡ one concatenated
        // rebuild, bit for bit.
        let builder = CubeBuilder::new().min_support(2).materialize(Materialize::ClosedOnly);
        let mut snap = CubeSnapshot::from_db(&db(BASE), &builder).unwrap();
        for row in DELTA {
            snap.apply_update(&batch(&[*row])).unwrap();
        }
        let all: Vec<Row> = BASE.iter().chain(DELTA.iter()).copied().collect();
        let rebuilt = CubeSnapshot::from_db(&db(&all), &builder).unwrap();
        assert_eq!(snap.to_bytes(), rebuilt.to_bytes());
    }
}
