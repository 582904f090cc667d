//! Incremental cube maintenance: fold appended *and retracted* rows into a
//! built cube.
//!
//! SCube as published is a batch tool — any new data meant re-mining and
//! rebuilding the whole cube. This module makes a built cube a *maintained*
//! artifact instead: an [`UpdateBatch`] of appended rows and retractions
//! (by tid or by exact row match) is folded into the existing
//! [`VerticalDb`] — postings extended at their tails via
//! [`EwahBitmap::append_sorted`], cut or rebuilt by
//! [`VerticalDb::remove_rows`] — and only the affected cells are
//! recomputed. The result is **bit-identical** to a full rebuild on the
//! edited data (the model-based test
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
//!    batches: a net gain requires an appended occurrence). Each distinct
//!    frequent-item projection of a row is walked level-wise (Apriori: a
//!    `k + 1`-set is counted only when all its `k`-subsets are frequent), so
//!    no row is too wide; an item's support is read off stored
//!    cardinalities, and the walk interns each itemset it meets once,
//!    allocating nothing per subset. A candidate is then staged like a dirty cell —
//!    its base histogram counted from `base(X)`'s dense words instead of
//!    decoded from the store, advanced by the same deltas, put to the same
//!    closedness test with its generating row as the witness — so
//!    promotion is exact.
//!
//! **Stage, then commit.** Every fallible step of an update — validation,
//! the exact subtractions and run moves (a count past zero or a missing
//! run is a hard error), closedness,
//! the index folds, promotions included — runs in `stage`, which reads the
//! cube, postings and store through shared references only. It sees the
//! *edited* table through the unmodified base postings plus delta-sized
//! dense sets of the appended and retracted rows: `|edited(X)| = |base(X)| −
//! |rem(X)| + |add(X)|`. The one `&mut` step, `StagedUpdate::commit`,
//! cannot fail, and has one path for every batch: retracted rows out,
//! appended rows in, staged labels, cells and store entries pushed, unused
//! contexts dropped, and a rename when the ids moved. So a rejected batch
//! or an inconsistent store leaves the snapshot untouched, byte for byte.
//!
//! **Nothing sized by the table, outside the dirty cells.** The batch's
//! names are resolved in one pass over the item labels and one over the
//! unit names, each ending once every name is found, into a batch-sized map
//! (no map of the cube's labels is built). Retractions resolve through the
//! postings: a row match's candidates are the tids its items' postings
//! share, filtered by unit, and a candidate matches only if its row —
//! rebuilt from the postings, one membership test per item — holds exactly
//! those items; which retracted rows hold an item is gathered from its
//! posting at the retracted tids. No horizontal table is built. The labels
//! sit behind an `Arc` shared with the clone the update started from, and
//! the commit copies them only when the batch adds a label or renames.
//!
//! **Per-context jobs over run tables.** Dirty cells, and then promotion
//! candidates, are sorted by context and fan out through
//! [`scube_common::par`] one job per context (staging is pure, so the
//! parallel update is bit-identical to the serial one); both kinds go
//! through one `Stager::stage_cell`. A stored cell's entry is its minority
//! run table (`(t, m, k)`: `k` units of population `t` and minority `m ≥
//! 1`), and a batch moves at most one run unit per unit it touches, so a
//! dirty cell is staged in three steps, none sized by the cell's units:
//!
//! 1. its entry is decoded (with [`crate::histogram`]'s validation)
//!    against `base(B)`'s distinct totals, which its context's staged
//!    totals give back once the context's moved units are undone;
//! 2. each unit `u` the edit moved in the context moves one run unit from
//!    `(t_old, m_old)` to `(t_new, m_new)`: `t_old` and `t_new` are the
//!    context's, `m_old = |base(X) ∩ rows(u)|` is counted from per-item
//!    dense sets over `S`, the base rows of the batch's units (one pass
//!    over the `tid → unit` map, each posting gathered at `S` once per
//!    batch), and `m_new` adds the cell's own delta. A run the table
//!    lacks is an `Inconsistent` error, raised before the commit;
//! 3. the runs fold through [`ContextTotals::fold_runs`] — which
//!    [`ContextTotals::fold`], the builder's and the explorer's fold, ends
//!    in too, so every producer yields the same floats — and are
//!    re-encoded against the staged totals; an entry whose bytes did not
//!    change stays as it was (a mapped slice stays mapped).
//!
//! A promotion candidate has no entry: its `(unit, m)` pairs are counted
//! from `base(X)`'s words, advanced by its own delta, and collapsed into
//! runs through the context's galloping unit lookup, as the builder does.
//! Closedness runs on two dense tidsets per worker, each at most ⌈rows/64⌉
//! words and grown on first use: a job's `base(B)`, intersected once when
//! its cells may lose closedness, and a cell's `base(X)`, that copy
//! narrowed by the cell's SA postings. The witness is the row of
//! `base(X)`'s first bit that was not retracted, rebuilt from the postings
//! into the worker's scratch and reused while that tid repeats, and each
//! extender's kept count is its posting counted against those words. The
//! fold reads a histogram as a *multiset* of `(m, t)` pairs and orders them
//! itself (`scube_segindex::indexes`), so a value depends on no unit id and
//! no visit order: a cell whose histogram the delta did not touch keeps
//! floats that a rebuild would reproduce to the bit, however the batch
//! renumbers the units.
//!
//! **Dictionary maintenance.** Appends extend the label dictionary at the
//! tail in first-seen order, matching a rebuild on base-then-delta rows.
//! Retractions may *shrink or reorder* it: a rebuild on the edited table
//! interns values and units by first occurrence, so a retraction that
//! removes a value's last row (the value leaves the dictionary) or its
//! first row (its intern position moves) makes the commit end with a
//! *rename*: `VerticalDb::rename` permutes the postings and maps the
//! `tid → unit` map, and labels, cell coordinates, store keys and the
//! units inside context entries are remapped to the ids a rebuild would
//! assign; a run table names no unit and is re-keyed unread. Nothing is
//! rebuilt, and by the invariance above the rename dirties no cell. A retraction that
//! moves no first occurrence skips it, and that is decided without a scan:
//! an item's first occurrence is its posting's first bit, and a unit's is
//! its first tid in the `tid → unit` map, read only until every retracted
//! unit has shown up. Otherwise the new first occurrences come from each
//! posting's first surviving bit and one pass over that map. The within-row
//! tie-break is attribute-major, then prior id, which matches a rebuild's
//! interning whenever a row lists each attribute's values in dictionary
//! order: always for single-valued attributes, and for multi-valued ones as
//! `final_table_relation` writes them (the datagen final tables have two).
//! Values of one multi-valued attribute listed out of that order and
//! re-first-seen together in one row may tie-break differently than their
//! cell order.

use std::sync::Arc;

use scube_bitmap::kernels::{and_popcount_words, for_each_set_bit, popcount_words};
use scube_bitmap::EwahBitmap;
use scube_common::mmap::{ByteRegion, Store};
use scube_common::{FxHashMap, FxHashSet, Result, ScubeError};
use scube_data::{ItemId, Relation, UnitId, UnitScratch, VerticalDb, MULTI_VALUE_SEPARATOR};
use scube_fpm::itemset::is_sorted_subset;
use scube_segindex::{ContextTotals, IndexValues, Run};

use crate::builder::Materialize;
use crate::coords::CellCoords;
use crate::cube::{CubeLabels, SegregationCube};
use crate::histogram;

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

/// A batch encoded against the cube's labels: dictionary-encoded rows plus
/// the new labels they introduced, in first-seen (intern) order.
struct EncodedBatch {
    rows: Vec<(Vec<ItemId>, UnitId)>,
    new_items: Vec<(String, String, bool)>,
    new_units: Vec<String>,
}

/// The id of a name the cube's labels do not hold (yet).
const ABSENT: u32 = u32::MAX;

/// Every distinct `(attribute, value)` pair and unit name the batch
/// names, appended or retracted, mapped to its id: a base id, a batch-new
/// id once [`encode_batch`] has interned it, else [`ABSENT`]. Batch-sized:
/// the cube's labels are only read, never mapped.
struct BatchLabels<'b> {
    items: FxHashMap<(&'b str, &'b str), ItemId>,
    units: FxHashMap<&'b str, UnitId>,
}

impl<'b> BatchLabels<'b> {
    /// Resolve the batch's names in one pass over the cube's item labels
    /// and one over its unit names, each ending once every name is found;
    /// nothing is allocated per label.
    fn resolve(batch: &'b UpdateBatch, labels: &'b CubeLabels) -> Self {
        let mut ids = BatchLabels { items: FxHashMap::default(), units: FxHashMap::default() };
        for (pairs, unit) in batch.rows.iter().chain(&batch.remove_rows) {
            for (attr, value) in pairs.iter().filter(|(_, value)| !value.is_empty()) {
                ids.items.insert((attr.as_str(), value.as_str()), ABSENT);
            }
            ids.units.insert(unit.as_str(), ABSENT);
        }
        let items = labels.items.iter().map(|(attr, value, _)| (attr.as_str(), value.as_str()));
        fill_ids(&mut ids.items, items);
        fill_ids(&mut ids.units, labels.unit_names.iter().map(String::as_str));
        ids
    }
}

/// Give each key of `ids` its position in `labels` (distinct keys), ending
/// the pass once every key has one.
fn fill_ids<K: std::hash::Hash + Eq>(ids: &mut FxHashMap<K, u32>, labels: impl Iterator<Item = K>) {
    let mut missing = ids.len();
    for (id, label) in labels.enumerate() {
        if missing == 0 {
            break;
        }
        if let Some(slot) = ids.get_mut(&label) {
            *slot = id as u32;
            missing -= 1;
        }
    }
}

/// Encode the appended rows against the resolved names, interning new
/// values and units in first-seen order — per row, SA attributes before CA
/// attributes, mirroring the schema order of every final-table build.
fn encode_batch<'b>(
    batch: &'b UpdateBatch,
    labels: &CubeLabels,
    ids: &mut BatchLabels<'b>,
) -> Result<EncodedBatch> {
    let is_sa: FxHashMap<&str, bool> = labels
        .sa_attrs
        .iter()
        .map(|a| (a.as_str(), true))
        .chain(labels.ca_attrs.iter().map(|a| (a.as_str(), false)))
        .collect();

    let mut out = EncodedBatch { rows: Vec::new(), new_items: Vec::new(), new_units: Vec::new() };
    let n_base_items = labels.num_items();
    let n_base_units = labels.unit_names.len() as UnitId;
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
                let id = ids.items.get_mut(&(a.as_str(), value.as_str())).expect("resolved");
                if *id == ABSENT {
                    *id = (n_base_items + out.new_items.len()) as ItemId;
                    out.new_items.push((a.clone(), value.clone(), is_sa[attr.as_str()]));
                }
                items.push(*id);
            }
        }
        items.sort_unstable();
        items.dedup();
        let unit_id = ids.units.get_mut(unit.as_str()).expect("resolved");
        if *unit_id == ABSENT {
            *unit_id = n_base_units + out.new_units.len() as UnitId;
            out.new_units.push(unit.clone());
        }
        out.rows.push((items, *unit_id));
    }
    Ok(out)
}

/// The cube's *sufficient statistics*: the integer counts every cell value
/// is computed from, kept inside the cube so updates never have to
/// re-derive them from the full postings. There is one derivation: the
/// builder's fold emits each entry from the counts it evaluates the cell
/// with; a snapshot carries the store and never reconstructs it.
///
/// Per distinct context `B`, the ascending `(unit, t)` pairs of
/// `tidset(B)`; per materialized cell with a non-`⋆` minority side, its
/// **minority run table**: the distinct `(t, m)` pairs with `m ≥ 1` of
/// `tidset(A ∪ B)`'s units, each with its unit count `k` (`A = ⋆` cells
/// mirror the context totals and store nothing). Every index is a function
/// of that table and the context's runs — the `m = 0` units are whatever
/// the minority runs leave of each context run — so a cell stores no unit
/// id and folds in O(runs). Counts are exact integers, so
/// `hist(base ⧺ delta) = hist(base) + hist(delta)` **exactly**, and
/// retractions subtract as losslessly as appends add: a context entry
/// advances by its per-unit delta, and a cell's runs by one run unit per
/// unit the batch moved in its context (the module docs), which turns
/// dirty-cell re-evaluation into `O(Σ |delta tidset| + dirty contexts'
/// units + dirty cells × (runs + batch units))`. A disagreement between
/// store and delta — a run the batch cannot find, a subtraction past zero
/// — is a hard error before mutation.
///
/// An entry has **one form — its canonical bytes** ([`crate::histogram`]:
/// about 2 B per context pair or minority run): the same entry is what
/// the builder emits, what the snapshot file stores (canonical order:
/// contexts by item list, cells by coordinates), what a mapped snapshot
/// serves in place ([`Store::Mapped`]) and what the heap holds
/// ([`Store::Owned`]). Pairs and runs exist only transiently: an update
/// decodes — and thereby validates — exactly the entries its delta
/// dirties, and keeps every entry whose bytes did not change; everything
/// else stays bytes, and a mapped entry no update has re-encoded is never
/// copied at all.
#[derive(Debug, Clone, Default)]
pub(crate) struct MaintenanceStore {
    /// Distinct cell contexts → entry of the `(unit, total)` pairs.
    pub(crate) contexts: FxHashMap<Vec<ItemId>, Store<u8>>,
    /// Cells with a non-`⋆` SA side → entry of the minority run table,
    /// against the context's distinct totals.
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
    /// totals, every non-`⋆`-SA cell has a run table, and nothing else is
    /// stored. What the entries *hold* is [`Self::validate_entries`]'
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

    /// Decode every entry once and drop it: each context's pairs —
    /// range-checking its units against `n_units` — into its run table,
    /// and each cell's runs against that table's distinct totals, which
    /// is where a `t` index past the context, `m > t` or more units of a
    /// `t` than the context holds is refused. Heap loads run this up
    /// front, so a crafted store errors at load instead of mid-update. The
    /// store must [`Self::covers`] its cube.
    pub(crate) fn validate_entries(&self, n_units: u32) -> Result<()> {
        let mut cells_of: FxHashMap<&[ItemId], Vec<&Store<u8>>> = FxHashMap::default();
        for (coords, minority) in &self.minorities {
            cells_of.entry(&coords.ca).or_default().push(minority);
        }
        let mut runs = Vec::new();
        for (ca, totals) in &self.contexts {
            let totals = ContextTotals::new(histogram::decode(totals, n_units)?)?;
            for entry in cells_of.get(ca.as_slice()).into_iter().flatten() {
                histogram::decode_runs_into(entry, totals.runs(), &mut runs)?;
            }
        }
        Ok(())
    }

    /// Decode every context entry once, range-checking its units against
    /// `n_units`. A renaming update runs this before it stages anything:
    /// its commit rewrites every context entry under new unit ids, while a
    /// run table names no unit and is only re-keyed.
    fn validate_contexts(&self, n_units: u32) -> Result<()> {
        self.contexts.values().try_for_each(|entry| histogram::decode(entry, n_units).map(drop))
    }
}

/// A context's histogram in the one form the store keeps it in.
pub(crate) fn encode_entry(pairs: &[(u32, u64)]) -> Store<u8> {
    Store::Owned(histogram::encode(pairs))
}

/// What a delta does to a histogram, per unit: `(unit, appended,
/// retracted)`, ascending by unit, one entry per unit the delta's rows
/// belong to — so never longer than the batch.
type UnitDelta = Vec<(u32, u64, u64)>;

/// One unit's count moved by a delta: `count + appended − retracted`,
/// exact integers, which is what keeps updated histograms identical to
/// recomputed ones. Retracting more than the base and the append hold means
/// the maintenance store and the delta disagree: a hard error, raised
/// **before** anything is mutated, so the snapshot stays untouched. A
/// hostile count cannot overflow: the sum saturates, and such a count
/// fails the row-space check first.
fn moved_count(unit: u32, count: u64, appended: u64, retracted: u64) -> Result<u64> {
    let held = count.saturating_add(appended);
    held.checked_sub(retracted).ok_or_else(|| {
        ScubeError::Inconsistent(if held == 0 {
            format!("update: histogram subtraction references unit {unit} absent from the base")
        } else {
            format!("update: histogram subtraction underflow at unit {unit} ({held} − {retracted})")
        })
    })
}

/// Move ascending `(unit, count)` pairs by an ascending delta
/// ([`moved_count`] per unit, a unit only the delta holds counting from
/// 0); units that reach 0 leave.
fn advance_pairs(base: &[(u32, u64)], delta: &[(u32, u64, u64)]) -> Result<Vec<(u32, u64)>> {
    let mut out = Vec::with_capacity(base.len() + delta.len());
    let mut base = base.iter().copied().peekable();
    for &(unit, added, retracted) in delta {
        while let Some(pair) = base.next_if(|&(u, _)| u < unit) {
            out.push(pair);
        }
        let count = base.next_if(|&(u, _)| u == unit).map_or(0, |(_, count)| count);
        match moved_count(unit, count, added, retracted)? {
            0 => {}
            count => out.push((unit, count)),
        }
    }
    out.extend(base);
    Ok(out)
}

/// A unit an edit moves within one context: its slot among the batch's
/// units ([`EditView`]), its delta and its total before and after.
struct Moved {
    unit: u32,
    slot: u32,
    t_base: u64,
    t_now: u64,
}

/// One run unit out of the `(t, m)` run of an ascending run table (`k`
/// may reach 0, and such runs are dropped after the moves): a table that
/// lacks it disagrees with the postings.
fn take_run(runs: &mut [Run], t: u64, m: u64) -> Result<()> {
    match runs.binary_search_by_key(&(t, m), |r| (r.total, r.minority)) {
        Ok(i) if runs[i].units > 0 => {
            runs[i].units -= 1;
            Ok(())
        }
        _ => Err(ScubeError::Inconsistent(format!(
            "update: a stored run table lacks the run ({m} of {t}) of a unit the batch moves"
        ))),
    }
}

/// One run unit into the `(t, m)` run of an ascending run table.
fn put_run(runs: &mut Vec<Run>, t: u64, m: u64) {
    match runs.binary_search_by_key(&(t, m), |r| (r.total, r.minority)) {
        Ok(i) => runs[i].units += 1,
        Err(i) => runs.insert(i, Run { minority: m, total: t, units: 1 }),
    }
}

/// Validate and resolve the batch's retractions against the current
/// snapshot into sorted, distinct tids: tids must be in range and distinct,
/// and row-match retractions must reference only values and units present
/// in the dictionary and must each claim a distinct matching row — any
/// miss is an error, never a silent no-op. A row match's candidates are the
/// tids its items' postings share; the first one in ascending order that
/// lies in its unit, is unclaimed and holds no other item wins, each
/// candidate's row rebuilt from the postings.
fn resolve_removals(
    batch: &UpdateBatch,
    ids: &BatchLabels,
    vertical: &VerticalDb,
) -> Result<Vec<u32>> {
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
    let (n_items, n_units) = (vertical.num_items() as ItemId, vertical.num_units());
    let mut row = Vec::new();
    for (pairs, unit) in &batch.remove_rows {
        let mut items: Vec<ItemId> = Vec::with_capacity(pairs.len());
        for (attr, value) in pairs {
            if value.is_empty() {
                continue;
            }
            let id = ids.items[&(attr.as_str(), value.as_str())];
            if id >= n_items {
                return Err(ScubeError::InvalidParameter(format!(
                    "update: retraction references {attr}={value}, which is absent from the \
                     snapshot's dictionary"
                )));
            }
            items.push(id);
        }
        items.sort_unstable();
        items.dedup();
        let uid = ids.units[unit.as_str()];
        if uid >= n_units {
            return Err(ScubeError::InvalidParameter(format!(
                "update: retraction references unknown unit '{unit}'"
            )));
        }
        let found = vertical.tidset(&items).iter().find(|&t| {
            vertical.unit_of(t) == uid && !claimed.contains(&t) && {
                vertical.row_into(t, &mut row);
                row == items
            }
        });
        let Some(t) = found else {
            return Err(ScubeError::InvalidParameter(format!(
                "update: retraction ({pairs:?}, {unit}) matches no remaining row"
            )));
        };
        claimed.insert(t);
    }
    let mut tids: Vec<u32> = claimed.into_iter().collect();
    tids.sort_unstable();
    Ok(tids)
}

/// The appended and the retracted transactions holding an itemset: the two
/// delta-sized tidsets an edit moves it by, as dense words in batch-local
/// numbering.
#[derive(Clone)]
struct Delta {
    /// Bit `i`: the batch's appended row `i`.
    add: Vec<u64>,
    /// Bit `i`: the retracted tid `removed[i]`.
    rem: Vec<u64>,
}

impl Delta {
    fn added(&self) -> u64 {
        popcount_words(&self.add)
    }

    fn retracted(&self) -> u64 {
        popcount_words(&self.rem)
    }
}

/// One dense set of batch positions per item, ⌈positions/64⌉ words each,
/// back to back: item `it`'s set is `words[it·stride..][..stride]`.
struct ItemSets {
    words: Vec<u64>,
    stride: usize,
}

impl ItemSets {
    /// `n_items` empty sets over `positions` batch positions.
    fn new(n_items: usize, positions: usize) -> Self {
        let stride = positions.div_ceil(64);
        ItemSets { words: vec![0; n_items * stride], stride }
    }

    fn of(&self, it: ItemId) -> &[u64] {
        &self.words[it as usize * self.stride..][..self.stride]
    }

    fn of_mut(&mut self, it: ItemId) -> &mut [u64] {
        &mut self.words[it as usize * self.stride..][..self.stride]
    }
}

/// The first `n` positions, set.
fn first_positions(n: usize) -> Vec<u64> {
    let mut words = vec![0; n.div_ceil(64)];
    (0..n).for_each(|i| words[i / 64] |= 1 << (i % 64));
    words
}

/// The edited table `(base ∖ retracted) ⧺ appended`, read through the
/// unmodified base postings plus per-item dense sets of the two deltas,
/// numbered by position in the batch. The sides are only ever intersected
/// within themselves, so their different numberings never meet. Every
/// support, histogram and closedness test an update stages comes from here:
/// `|edited(X)| = |base(X)| − |rem(X)| + |add(X)|`.
struct EditView<'a> {
    vertical: &'a VerticalDb,
    /// The batch's rows, encoded; row `i` becomes tid `new_base + i`.
    encoded: EncodedBatch,
    /// Sorted, distinct retracted tids, pre-update numbering.
    removed: Vec<u32>,
    /// Per item, the appended rows holding it.
    add: ItemSets,
    /// Per item, the retracted tids holding it, gathered from its posting.
    rem: ItemSets,
    /// Every appended and every retracted tid: the `⋆` context's delta.
    all: Delta,
    /// Each unit the batch touches — an appended row's or a retracted
    /// row's — → its slot, `0..n_slots` in first-seen order; [`ABSENT`]
    /// for every other unit.
    slot_of: Vec<u32>,
    n_slots: usize,
    /// `S`, the base rows of the batch's units (ascending): each one's
    /// unit slot.
    s_slot: Vec<u32>,
    /// Per item, the rows of `S` holding it, gathered from its posting.
    base_s: ItemSets,
    new_base: u32,
    n_units_after: u32,
}

impl<'a> EditView<'a> {
    fn new(vertical: &'a VerticalDb, encoded: EncodedBatch, removed: Vec<u32>) -> Result<Self> {
        let new_base = vertical.num_transactions() - removed.len() as u32;
        u32::try_from(new_base as usize + encoded.rows.len()).map_err(|_| {
            ScubeError::InvalidParameter("update: the edited table exceeds u32 rows".into())
        })?;
        let n_items_after = vertical.num_items() + encoded.new_items.len();
        let mut add = ItemSets::new(n_items_after, encoded.rows.len());
        for (i, (items, _)) in encoded.rows.iter().enumerate() {
            for &it in items {
                add.of_mut(it)[i / 64] |= 1 << (i % 64);
            }
        }
        let mut rem = ItemSets::new(n_items_after, removed.len());
        if !removed.is_empty() {
            for (it, posting) in vertical.postings().iter().enumerate() {
                posting.gather_words_into(&removed, rem.of_mut(it as ItemId));
            }
        }
        let all =
            Delta { add: first_positions(encoded.rows.len()), rem: first_positions(removed.len()) };
        let n_units_after = vertical.num_units() + encoded.new_units.len() as u32;
        let mut slot_of = vec![ABSENT; n_units_after as usize];
        let mut n_slots = 0;
        let retracted_units = removed.iter().map(|&t| vertical.unit_of(t));
        for unit in encoded.rows.iter().map(|&(_, unit)| unit).chain(retracted_units) {
            if slot_of[unit as usize] == ABSENT {
                slot_of[unit as usize] = n_slots;
                n_slots += 1;
            }
        }
        // `S`: one pass over the `tid → unit` map, then each posting
        // gathered at `S` once.
        let (mut s_tids, mut s_slot) = (Vec::new(), Vec::new());
        if n_slots > 0 {
            for (t, &unit) in vertical.units().iter().enumerate() {
                let slot = slot_of[unit as usize];
                if slot != ABSENT {
                    s_tids.push(t as u32);
                    s_slot.push(slot);
                }
            }
        }
        let mut base_s = ItemSets::new(n_items_after, s_tids.len());
        if !s_tids.is_empty() {
            for (it, posting) in vertical.postings().iter().enumerate() {
                posting.gather_words_into(&s_tids, base_s.of_mut(it as ItemId));
            }
        }
        Ok(EditView {
            vertical,
            encoded,
            removed,
            add,
            rem,
            all,
            slot_of,
            n_slots: n_slots as usize,
            s_slot,
            base_s,
            new_base,
            n_units_after,
        })
    }

    /// What an edit does to `X` (`items`, delta `delta`) per unit the
    /// batch touches, into `counts` by unit slot: `[|base(X) ∩ rows(u)|,
    /// |add(X) ∩ rows(u)|, |rem(X) ∩ rows(u)|]`. The first count comes from
    /// `X`'s items' sets over `S`, ANDed into `words`; the other two from
    /// the delta, which lies inside the batch's units.
    fn unit_moves(
        &self,
        items: &[ItemId],
        delta: &Delta,
        words: &mut Vec<u64>,
        counts: &mut Vec<[u64; 3]>,
    ) {
        counts.clear();
        counts.resize(self.n_slots, [0; 3]);
        match items.split_first() {
            None => self.s_slot.iter().for_each(|&slot| counts[slot as usize][0] += 1),
            Some((&first, rest)) => {
                words.clear();
                words.extend_from_slice(self.base_s.of(first));
                for &it in rest {
                    words.iter_mut().zip(self.base_s.of(it)).for_each(|(w, x)| *w &= x);
                }
                for_each_set_bit(words, 0, |p| counts[self.s_slot[p as usize] as usize][0] += 1);
            }
        }
        let slot = |unit: UnitId| self.slot_of[unit as usize] as usize;
        for_each_set_bit(&delta.add, 0, |i| counts[slot(self.encoded.rows[i as usize].1)][1] += 1);
        for_each_set_bit(&delta.rem, 0, |i| {
            counts[slot(self.vertical.unit_of(self.removed[i as usize]))][2] += 1;
        });
    }

    /// `add(X)` and `rem(X)`; for `X = ⋆`, every appended and retracted tid.
    fn delta(&self, items: &[ItemId]) -> Delta {
        let Some((&first, rest)) = items.split_first() else {
            return self.all.clone();
        };
        let side = |sets: &ItemSets| {
            let mut words = sets.of(first).to_vec();
            for &it in rest {
                words.iter_mut().zip(sets.of(it)).for_each(|(w, x)| *w &= x);
            }
            words
        };
        Delta { add: side(&self.add), rem: side(&self.rem) }
    }

    /// Whether no item of `items` is batch-new: a new item has no base
    /// transactions.
    fn in_base(&self, items: &[ItemId]) -> bool {
        items.iter().all(|&it| (it as usize) < self.vertical.num_items())
    }

    /// `|edited(X)|`, from `base(X)`'s words (written into `words`).
    fn support(&self, items: &[ItemId], words: &mut Vec<u64>) -> u64 {
        let base = self.base_words(items, words);
        let d = self.delta(items);
        base - d.retracted() + d.added()
    }

    /// Per-unit counts of a delta into `out`: appended tids histogram
    /// through the batch rows' units, retracted ones through the base
    /// `tid → unit` map.
    fn unit_delta(&self, delta: &Delta, out: &mut UnitDelta) {
        out.clear();
        for_each_set_bit(&delta.add, 0, |i| out.push((self.encoded.rows[i as usize].1, 1, 0)));
        for_each_set_bit(&delta.rem, 0, |i| {
            out.push((self.vertical.unit_of(self.removed[i as usize]), 0, 1));
        });
        out.sort_unstable_by_key(|&(u, ..)| u);
        out.dedup_by(|next, run| {
            let same = next.0 == run.0;
            if same {
                run.1 += next.1;
                run.2 += next.2;
            }
            same
        });
    }

    /// A context's staged totals from its base totals, with the units the
    /// edit moves in it and the distinct totals its cells' run tables were
    /// stored against.
    fn stage_context(&self, base: &[(u32, u64)], delta: Delta) -> Result<StagedCtx> {
        let mut deltas = UnitDelta::new();
        self.unit_delta(&delta, &mut deltas);
        let staged = advance_pairs(base, &deltas)?;
        let t_of = |pairs: &[(u32, u64)], unit: u32| {
            pairs.binary_search_by_key(&unit, |&(u, _)| u).map_or(0, |i| pairs[i].1)
        };
        let moved: Vec<Moved> = deltas
            .iter()
            .map(|&(unit, ..)| Moved {
                unit,
                slot: self.slot_of[unit as usize],
                t_base: t_of(base, unit),
                t_now: t_of(&staged, unit),
            })
            .collect();
        let totals = ContextTotals::new(staged)?;
        let base_runs = base_runs(totals.runs(), &moved);
        Ok(StagedCtx { totals, base_runs, delta, moved })
    }

    /// `base(X)`, the base transactions holding `items`, as dense words
    /// over the base rows (bit `b` of `words[i]` is tid `64·i + b`), no
    /// words when an item is new in the batch. Returns `|base(X)|`.
    fn base_words(&self, items: &[ItemId], words: &mut Vec<u64>) -> u64 {
        if !self.in_base(items) {
            words.clear();
            return 0;
        }
        self.vertical.tidset_words_into(items, words)
    }

    /// `|edited({it})|`, from cardinalities alone.
    fn item_support(&self, it: ItemId) -> u64 {
        let base = self.vertical.postings().get(it as usize).map_or(0, EwahBitmap::cardinality);
        base - popcount_words(self.rem.of(it)) + popcount_words(self.add.of(it))
    }

    /// The first tid of `base(X)`'s words that was not retracted.
    fn first_kept(&self, base: &[u64]) -> Option<u32> {
        let removed = &self.removed;
        let mut r = 0;
        for (i, &word) in base.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let t = 64 * i as u32 + word.trailing_zeros();
                while removed.get(r).is_some_and(|&gone| gone < t) {
                    r += 1;
                }
                if removed.get(r) != Some(&t) {
                    return Some(t);
                }
                word &= word - 1;
            }
        }
        None
    }

    /// The first appended row holding `items`.
    fn appended_holding(&self, items: &[ItemId]) -> &[ItemId] {
        self.encoded
            .rows
            .iter()
            .map(|(row, _)| row.as_slice())
            .find(|row| is_sorted_subset(items, row))
            // Support > 0 guarantees a row; treat the impossible as closed
            // so the rebuild-identity tests would expose it.
            .unwrap_or(&[])
    }

    /// Exact closedness of `items` (edited support `support`, `base(X)`'s
    /// words `base`, delta `delta`) in the edited table. An extender `j`
    /// must occur in **every** edited transaction holding `items`, in
    /// particular in `witness`, one of them — so only the witness's other
    /// items are tried, each by `|base(X)∩Pⱼ| − |rem(X)∩remPⱼ| +
    /// |add(X)∩addPⱼ|`: the first term counts `Pⱼ` against the words, the
    /// other two are delta-sized. A demotion passes its surviving row, a
    /// promotion its generating appended row.
    fn closed_after_edit(
        &self,
        items: &[ItemId],
        delta: &Delta,
        support: u64,
        witness: &[ItemId],
        base: &[u64],
    ) -> bool {
        let postings = self.vertical.postings();
        !witness.iter().filter(|j| items.binary_search(j).is_err()).any(|&j| {
            let kept = postings.get(j as usize).map_or(0, |p| p.and_words_cardinality(base));
            kept - and_popcount_words(&delta.rem, self.rem.of(j))
                + and_popcount_words(&delta.add, self.add.of(j))
                == support
        })
    }
}

/// A context's totals, staged.
struct StagedCtx {
    /// The totals after the edit, as the run table its cells fold from and
    /// their run tables are re-encoded against.
    totals: ContextTotals,
    /// The distinct totals `(t, k)` of `base(B)`: what the context's
    /// stored run tables are decoded against.
    base_runs: Vec<(u64, u64)>,
    delta: Delta,
    /// The units the edit moves in the context, ascending: at most one per
    /// unit of the batch.
    moved: Vec<Moved>,
}

/// A context's distinct totals `(t, k)` before an edit, from those after
/// it: each moved unit goes back from `t_now` to `t_base` (a total of 0 is
/// no unit).
fn base_runs(staged: &[(u64, u64)], moved: &[Moved]) -> Vec<(u64, u64)> {
    let mut runs = staged.to_vec();
    for m in moved {
        if m.t_now > 0 {
            let i = runs.binary_search_by_key(&m.t_now, |&(t, _)| t);
            runs[i.expect("a staged unit's total is a staged run")].1 -= 1;
        }
        if m.t_base > 0 {
            match runs.binary_search_by_key(&m.t_base, |&(t, _)| t) {
                Ok(i) => runs[i].1 += 1,
                Err(i) => runs.insert(i, (m.t_base, 1)),
            }
        }
    }
    runs.retain(|&(_, k)| k > 0);
    runs
}

/// A cell that survives staging: the entry of its minority run table when
/// the edit changed its bytes (`None` for `⋆`-SA cells, which store none,
/// and for stored cells whose entry came out the same, which keep theirs)
/// and its values.
type StagedCell = (Option<Store<u8>>, IndexValues);

/// Where a cell to stage comes from, which decides where its base minority
/// and its closedness witness are read.
#[derive(Clone, Copy)]
enum Origin {
    /// A cell of the cube: its base minority is its stored run table, its
    /// witness the first of its base rows the edit keeps.
    Stored,
    /// A promotion candidate generated by the appended row at this index:
    /// its base histogram is counted from `base(X)`'s words, and the row is
    /// its witness.
    Promoted(usize),
}

/// A cell-staging worker's scratch.
#[derive(Default)]
struct CellScratch {
    /// Per batch-unit slot, what the edit does to the cell there
    /// ([`EditView::unit_moves`]), and the dense `base(X) ∩ S` behind it.
    moves: Vec<[u64; 3]>,
    s_words: Vec<u64>,
    /// The cell's minority run table, and its entry.
    runs: Vec<Run>,
    entry: Vec<u8>,
    /// A promotion's own delta, per unit.
    own: UnitDelta,
    /// `base(B)` of the job's context `B`, for stored cells that may lose
    /// closedness, and `base(X)` of the cell being staged.
    context: Vec<u64>,
    base: Vec<u64>,
    /// A promotion's base histogram, allocated by the first promotion.
    units: Option<UnitScratch>,
    /// The row of base tid `witness_tid`, rebuilt from the postings: the
    /// last closedness witness, reused while its tid repeats.
    witness: Vec<ItemId>,
    witness_tid: Option<u32>,
}

/// The read-only state the cell phases share.
struct Stager<'a> {
    view: EditView<'a>,
    cube: &'a SegregationCube,
    /// Staged totals of every context the edit touches.
    contexts: FxHashMap<Vec<ItemId>, StagedCtx>,
}

impl Stager<'_> {
    /// Whether the cube keeps only closed itemsets.
    fn closed_only(&self) -> bool {
        self.cube.materialize() == Materialize::ClosedOnly
    }

    /// Stage the cells of one context — one job, all of one origin.
    fn stage_job(
        &self,
        cells: &[(&CellCoords, Origin)],
        s: &mut CellScratch,
    ) -> Result<Vec<(CellCoords, Option<StagedCell>)>> {
        let (ca, origin) = (&cells[0].0.ca, cells[0].1);
        let ctx = &self.contexts[ca];
        if matches!(origin, Origin::Stored) && self.closed_only() && ctx.delta.retracted() > 0 {
            self.view.base_words(ca, &mut s.context);
        }
        cells
            .iter()
            .map(|&(coords, origin)| Ok((coords.clone(), self.stage_cell(coords, ctx, origin, s)?)))
            .collect()
    }

    /// Stage one cell in the edited table: its support, closedness and
    /// values, its minority run table advanced by the edit and folded
    /// against the staged context (the builder's fold, so the floats are a
    /// rebuild's). `None` = not a cell after the edit.
    fn stage_cell(
        &self,
        coords: &CellCoords,
        ctx: &StagedCtx,
        origin: Origin,
        s: &mut CellScratch,
    ) -> Result<Option<StagedCell>> {
        let (view, items) = (&self.view, coords.union());
        let own_delta;
        let delta = if coords.sa.is_empty() {
            &ctx.delta
        } else {
            own_delta = view.delta(&items);
            &own_delta
        };
        let mut stored = None;
        let support = match origin {
            // `A = ⋆` ⇒ minority ≡ population (the builder's apex path).
            Origin::Stored if coords.sa.is_empty() => ctx.totals.total(),
            Origin::Stored => {
                let entry = self.cube.store.minorities.get(coords).ok_or_else(|| {
                    ScubeError::Inconsistent("update: cell missing from maintenance store".into())
                })?;
                stored = Some(entry);
                histogram::decode_runs_into(entry, &ctx.base_runs, &mut s.runs)?;
                self.advance_runs(&items, delta, ctx, s)?;
                s.runs.iter().fold(0u64, |sum, r| sum.saturating_add(r.units * r.minority))
            }
            Origin::Promoted(_) => {
                let base = view.base_words(&items, &mut s.base);
                base - delta.retracted() + delta.added()
            }
        };
        if !items.is_empty() && !self.keeps(coords, &items, delta, support, origin, s) {
            return Ok(None);
        }
        let (b, measures) = (self.cube.atkinson_b(), self.cube.measures());
        if coords.sa.is_empty() {
            return Ok(Some((None, ctx.totals.fold_whole(b, measures))));
        }
        if let Origin::Promoted(_) = origin {
            let units = s.units.get_or_insert_with(|| UnitScratch::new(view.vertical.num_units()));
            view.vertical.unit_histogram_words_into(&s.base, units);
            view.unit_delta(delta, &mut s.own);
            let pairs = advance_pairs(&units.sorted_pairs(), &s.own)?;
            s.runs = ctx.totals.minority_runs(&pairs)?;
        }
        let values = ctx.totals.fold_runs(&s.runs, b, measures)?;
        s.entry.clear();
        histogram::encode_runs_into(&s.runs, ctx.totals.runs(), &mut s.entry);
        let unchanged = stored.is_some_and(|entry| **entry == *s.entry);
        Ok(Some(((!unchanged).then(|| Store::Owned(s.entry.clone())), values)))
    }

    /// Move a stored cell's base run table `s.runs` by the edit: each unit
    /// the edit moves in the context moves one run unit from `(t_base,
    /// m_old)` to `(t_now, m_new)`, `m_old` counted from `base(X) ∩ S` and
    /// `m_new` adding the cell's own delta there (`m = 0` is no run). Every
    /// unit leaves its old run before any enters a new one, so a run the
    /// base table lacks is an error whatever the order.
    fn advance_runs(
        &self,
        items: &[ItemId],
        delta: &Delta,
        ctx: &StagedCtx,
        s: &mut CellScratch,
    ) -> Result<()> {
        let CellScratch { moves, s_words, runs, .. } = s;
        self.view.unit_moves(items, delta, s_words, moves);
        for m in &ctx.moved {
            let m_old = moves[m.slot as usize][0];
            if m_old > 0 {
                take_run(runs, m.t_base, m_old)?;
            }
        }
        for m in &ctx.moved {
            let [m_old, added, retracted] = moves[m.slot as usize];
            let m_new = moved_count(m.unit, m_old, added, retracted)?;
            if m_new > 0 {
                put_run(runs, m.t_now, m_new);
            }
        }
        runs.retain(|r| r.units > 0);
        Ok(())
    }

    /// Whether a non-empty itemset with edited support `support` is a cell
    /// after the edit: frequent and, under [`Materialize::ClosedOnly`],
    /// closed. A stored cell can lose closedness only by losing rows; its
    /// witness is its first surviving row, found in `base(X)` — the job's
    /// `base(B)` narrowed by the cell's SA items — and rebuilt from the
    /// postings into `s.witness`, else an appended row. A promotion candidate's
    /// witness is its generating row, and `s.base` already holds
    /// `base(X)`.
    fn keeps(
        &self,
        coords: &CellCoords,
        items: &[ItemId],
        delta: &Delta,
        support: u64,
        origin: Origin,
        s: &mut CellScratch,
    ) -> bool {
        if support < self.cube.min_support() {
            return false;
        }
        if !self.closed_only() {
            return true;
        }
        let view = &self.view;
        let witness = match origin {
            Origin::Stored if delta.retracted() == 0 => return true,
            Origin::Stored => {
                // `base(A ∪ B)` from `base(B)`: an item new in the batch
                // holds no base row.
                view.vertical.narrow_words_into(&s.context, &coords.sa, &mut s.base);
                match view.first_kept(&s.base) {
                    Some(t) => {
                        if s.witness_tid != Some(t) {
                            view.vertical.row_into(t, &mut s.witness);
                            s.witness_tid = Some(t);
                        }
                        &s.witness
                    }
                    None => view.appended_holding(items),
                }
            }
            Origin::Promoted(row) => &view.encoded.rows[row].0,
        };
        view.closed_after_edit(items, delta, support, witness, &s.base)
    }
}

/// Phase: stage every context whose tidset the edit touches. Delta-clean
/// contexts are skipped *before* their entries are looked into, so on a
/// mapped snapshot they stay slices of the file.
fn stage_contexts(
    view: &EditView,
    store: &MaintenanceStore,
) -> Result<FxHashMap<Vec<ItemId>, StagedCtx>> {
    let mut staged = FxHashMap::default();
    for (ca, entry) in &store.contexts {
        let delta = view.delta(ca);
        if delta.added() == 0 && delta.retracted() == 0 {
            continue;
        }
        let base = histogram::decode(entry, view.vertical.num_units())?;
        staged.insert(ca.clone(), view.stage_context(&base, delta)?);
    }
    Ok(staged)
}

/// Stage `cells` (`None` = not a cell after the edit), one job per
/// context: the cells are sorted by context, so each job fills its
/// worker's `t` scratch once.
fn stage_cells(
    stager: &Stager,
    mut cells: Vec<(&CellCoords, Origin)>,
    threads: usize,
) -> Result<Vec<(CellCoords, Option<StagedCell>)>> {
    cells.sort_unstable_by(|(x, _), (y, _)| (&x.ca, &x.sa).cmp(&(&y.ca, &y.sa)));
    let jobs: Vec<&[(&CellCoords, Origin)]> = cells.chunk_by(|x, y| x.0.ca == y.0.ca).collect();
    let staged = scube_common::par::map(jobs, threads, CellScratch::default, |scratch, cells| {
        stager.stage_job(cells, scratch)
    })?;
    Ok(staged.into_iter().flatten().collect())
}

/// Phase: stage every cell of a touched context (`None` = demoted).
fn stage_dirty_cells(
    stager: &Stager,
    threads: usize,
) -> Result<Vec<(CellCoords, Option<StagedCell>)>> {
    let dirty = stager
        .cube
        .cells()
        .filter(|(coords, _)| stager.contexts.contains_key(&coords.ca))
        .map(|(coords, _)| (coords, Origin::Stored))
        .collect();
    stage_cells(stager, dirty, threads)
}

/// Phase: stage the promotions. Each candidate's context is staged first —
/// counted from `base(B)`'s words when no cell had it — and the candidates
/// are then staged like dirty cells, from `base(X)`'s words.
fn stage_promotions(
    stager: &mut Stager,
    dirty: &[(CellCoords, Option<StagedCell>)],
    threads: usize,
) -> Result<Vec<(CellCoords, StagedCell)>> {
    let demoted: FxHashSet<&CellCoords> =
        dirty.iter().filter(|(_, staged)| staged.is_none()).map(|(coords, _)| coords).collect();
    let candidates = promotion_candidates(&stager.view, stager.cube, &demoted);
    let view = &stager.view;
    let (mut units, mut words) = (UnitScratch::new(view.vertical.num_units()), Vec::new());
    for (coords, _) in &candidates {
        if !stager.contexts.contains_key(&coords.ca) {
            view.base_words(&coords.ca, &mut words);
            view.vertical.unit_histogram_words_into(&words, &mut units);
            let ctx = view.stage_context(&units.sorted_pairs(), view.delta(&coords.ca))?;
            stager.contexts.insert(coords.ca.clone(), ctx);
        }
    }
    let cells = candidates.iter().map(|(coords, row)| (coords, Origin::Promoted(*row))).collect();
    let staged = stage_cells(stager, cells, threads)?;
    Ok(staged.into_iter().filter_map(|(coords, staged)| Some((coords, staged?))).collect())
}

/// The promotion candidates: itemsets frequent in the edited table that are
/// not cells yet, each paired with an appended row holding it. A newly
/// frequent (or newly closed) itemset gained rows, so it lies inside one
/// appended row — mixed batches included, since a net gain needs an
/// appended occurrence. Each distinct frequent-item projection of a row is
/// walked level-wise (Apriori: a `k + 1`-set is counted only when all its
/// `k`-subsets are frequent), so the walk costs the row's frequent subsets
/// and their border, whatever the row's width. A kept cell is frequent by
/// construction and costs no count, and an item's support is three stored
/// cardinalities. Levels are flat runs of `k` ids and every itemset met is
/// interned once into an [`ItemsetMemo`]; coordinates are split into one
/// scratch, cloned only for a candidate.
fn promotion_candidates(
    view: &EditView,
    cube: &SegregationCube,
    demoted: &FxHashSet<&CellCoords>,
) -> Vec<(CellCoords, usize)> {
    let min_support = cube.min_support();
    let n_base_items = view.vertical.num_items();
    let is_sa = |it: ItemId| match (it as usize).checked_sub(n_base_items) {
        None => cube.labels().is_sa_item(it),
        Some(new) => view.encoded.new_items[new].2,
    };
    let mut coords = CellCoords::default();
    // `base(X)`'s words for each support the walk asks for.
    let mut words = Vec::new();
    let mut memo = ItemsetMemo::default();
    let mut seen_projections: FxHashSet<Vec<ItemId>> = FxHashSet::default();
    let (mut level, mut next) = (Vec::new(), Vec::new());
    let mut candidates = Vec::new();
    for (r, (row, _)) in view.encoded.rows.iter().enumerate() {
        level.clear();
        level.extend(row.iter().copied().filter(|&it| view.item_support(it) >= min_support));
        // Categorical deltas repeat row shapes heavily: one walk per
        // distinct projection bounds the work by shape count.
        if level.is_empty() || !seen_projections.insert(level.clone()) {
            continue;
        }
        let mut k = 1;
        while !level.is_empty() {
            for items in level.chunks_exact(k) {
                // Every set of a level is frequent: a singleton by the
                // projection, a larger one by the join that kept it.
                let entry = memo.entry(items, || true);
                if !std::mem::replace(&mut entry.emitted, true) {
                    coords.split_sorted_into(items, is_sa);
                    if cube.get(&coords).is_none() {
                        candidates.push((coords.clone(), r));
                    }
                }
            }
            next_level(&level, k, &mut next, |z| {
                let known = || {
                    coords.split_sorted_into(z, is_sa);
                    (cube.get(&coords).is_some() && !demoted.contains(&coords))
                        || view.support(z, &mut words) >= min_support
                };
                memo.entry(z, known).frequent
            });
            std::mem::swap(&mut level, &mut next);
            k += 1;
        }
    }
    candidates
}

/// The itemsets a promotion walk has met, each interned once: its ids
/// copied into one flat buffer, found again through its hash, with no
/// allocation per itemset.
#[derive(Default)]
struct ItemsetMemo {
    /// Every interned itemset's ids, back to back.
    items: Vec<ItemId>,
    entries: Vec<MemoEntry>,
    /// An itemset's hash → the last entry interned with that hash.
    heads: FxHashMap<u64, u32>,
}

struct MemoEntry {
    /// The itemset's span in [`ItemsetMemo::items`].
    span: std::ops::Range<u32>,
    /// The previous entry with the same hash ([`ABSENT`] = none).
    next: u32,
    /// Whether the itemset is frequent in the edited table.
    frequent: bool,
    /// Whether the walk has emitted it (as a candidate, when no cell).
    emitted: bool,
}

impl ItemsetMemo {
    /// The entry of `items`, interned on first sight with `frequent()`.
    fn entry(&mut self, items: &[ItemId], frequent: impl FnOnce() -> bool) -> &mut MemoEntry {
        use std::hash::{Hash, Hasher};
        let mut h = scube_common::hash::FxHasher::default();
        items.hash(&mut h);
        let hash = h.finish();
        let mut at = self.heads.get(&hash).copied().unwrap_or(ABSENT);
        while at != ABSENT {
            let entry = &self.entries[at as usize];
            if self.items[entry.span.start as usize..entry.span.end as usize] == *items {
                return &mut self.entries[at as usize];
            }
            at = entry.next;
        }
        let start = self.items.len() as u32;
        self.items.extend_from_slice(items);
        let next = self.heads.insert(hash, self.entries.len() as u32).unwrap_or(ABSENT);
        let span = start..self.items.len() as u32;
        self.entries.push(MemoEntry { span, next, frequent: frequent(), emitted: false });
        self.entries.last_mut().expect("just pushed")
    }
}

/// The Apriori join of one level of `k`-sets, flat in `level` (sorted
/// lexicographically, each set ascending): into `next`, the `k + 1`-sets
/// whose `k`-subsets all lie in `level`, kept when `frequent`, sorted the
/// same way.
fn next_level(
    level: &[ItemId],
    k: usize,
    next: &mut Vec<ItemId>,
    mut frequent: impl FnMut(&[ItemId]) -> bool,
) {
    next.clear();
    let sets: Vec<&[ItemId]> = level.chunks_exact(k).collect();
    let (mut z, mut sub) = (Vec::with_capacity(k + 1), Vec::with_capacity(k));
    for (i, x) in sets.iter().enumerate() {
        let prefix = &x[..k - 1];
        for y in sets[i + 1..].iter().take_while(|y| y.starts_with(prefix)) {
            z.clear();
            z.extend_from_slice(x);
            z.push(y[k - 1]);
            // Dropping either of the last two items leaves `y` or `x`.
            let subsets_frequent = (0..k - 1).all(|drop| {
                sub.clear();
                sub.extend_from_slice(&z[..drop]);
                sub.extend_from_slice(&z[drop + 1..]);
                sets.binary_search(&sub.as_slice()).is_ok()
            });
            if subsets_frequent && frequent(&z) {
                next.extend_from_slice(&z);
            }
        }
    }
}

/// The item/unit renaming a retraction induces: a rebuild on the edited
/// table interns dictionary entries in first-occurrence order (attribute-
/// major within a row), so items and units whose first occurrence moved —
/// or disappeared — get new ids.
struct Relabel {
    /// Old item id → new id (`None` = the value left the dictionary).
    item_map: Vec<Option<ItemId>>,
    /// Old unit id → new id (`None` = the unit lost its last row).
    unit_map: Vec<Option<UnitId>>,
}

/// Phase: the relabel plan, or `None` when every id keeps its meaning (pure
/// appends, and retractions that move no first occurrence and empty
/// nothing). Ids never reach a cell *value* — the index fold reads a
/// histogram as a multiset of `(m, t)` pairs and orders them itself — so
/// the plan only renames at commit; no float is recomputed because of it.
/// When no retracted row is the first occurrence of one of its items or of
/// its unit ([`moves_a_first_occurrence`]), every surviving id keeps its
/// rank and there is no plan. Otherwise first occurrences come from each
/// posting's first surviving bit and one pass over the `tid → unit` map.
/// Ties inside one row order attribute-major (SA attributes in label
/// order, then CA attributes — the schema order every final-table spec
/// declares) and by old id within an attribute, which matches a rebuild's
/// interning for single-valued-per-row attributes (the shape of every
/// final table in this workspace).
fn relabel_plan(view: &EditView, labels: &CubeLabels) -> Option<Relabel> {
    let removed = &view.removed;
    if removed.is_empty() || !moves_a_first_occurrence(view) {
        return None;
    }
    // First occurrence (edited tid) of every item and unit, old id space;
    // `u32::MAX` = never occurs. A survivor's edited tid is its base tid
    // less the retracted tids before it.
    let n_base_items = labels.num_items();
    let mut first_item = vec![u32::MAX; n_base_items + view.encoded.new_items.len()];
    for (first, posting) in first_item.iter_mut().zip(view.vertical.postings()) {
        let mut r = 0;
        *first = posting
            .iter()
            .find(|&t| {
                while removed.get(r).is_some_and(|&gone| gone < t) {
                    r += 1;
                }
                removed.get(r) != Some(&t)
            })
            .map_or(u32::MAX, |t| t - r as u32);
    }
    let mut first_unit = vec![u32::MAX; view.n_units_after as usize];
    let mut r = 0;
    for (t, &unit) in view.vertical.units().iter().enumerate() {
        if removed.get(r) == Some(&(t as u32)) {
            r += 1;
        } else if first_unit[unit as usize] == u32::MAX {
            first_unit[unit as usize] = (t - r) as u32;
        }
    }
    for (i, (row, unit)) in view.encoded.rows.iter().enumerate() {
        let t = view.new_base + i as u32;
        for &it in row {
            first_item[it as usize] = first_item[it as usize].min(t);
        }
        first_unit[*unit as usize] = first_unit[*unit as usize].min(t);
    }
    let attr_pos: FxHashMap<&str, usize> = labels
        .sa_attrs
        .iter()
        .chain(&labels.ca_attrs)
        .enumerate()
        .map(|(i, a)| (a.as_str(), i))
        .collect();
    let item_attr_pos = |it: usize| match it.checked_sub(n_base_items) {
        None => attr_pos[labels.attr_of(it as ItemId)],
        Some(new) => attr_pos[view.encoded.new_items[new].0.as_str()],
    };
    let item_map = first_seen_ids(&first_item, item_attr_pos);
    // A row has one unit, so no two units first occur together.
    let unit_map = first_seen_ids(&first_unit, |_| 0);
    let identity = |map: &[Option<u32>]| map.iter().enumerate().all(|(i, m)| *m == Some(i as u32));
    (!identity(&item_map) || !identity(&unit_map)).then_some(Relabel { item_map, unit_map })
}

/// Whether a retracted row is the first occurrence of one of its items or
/// of its unit. An item's first occurrence is its posting's first bit,
/// compared with the first of its retracted tids, the retracted tid at
/// its retracted set's first position. A unit's is its first
/// tid in the `tid → unit` map, read from the start only until every
/// retracted unit has shown up before its first retracted row.
fn moves_a_first_occurrence(view: &EditView) -> bool {
    let first_retracted = |it: usize| {
        let words = view.rem.of(it as ItemId);
        let k = words.iter().position(|&w| w != 0)?;
        Some(view.removed[64 * k + words[k].trailing_zeros() as usize])
    };
    let item_moves = |(it, posting): (usize, &EwahBitmap)| {
        first_retracted(it).is_some_and(|t| posting.iter().next() == Some(t))
    };
    if view.vertical.postings().iter().enumerate().any(item_moves) {
        return true;
    }
    // Per unit, its first retracted tid (`u32::MAX` = none).
    let mut first_removed = vec![u32::MAX; view.vertical.num_units() as usize];
    let mut pending = 0;
    for &t in view.removed.iter().rev() {
        let first = &mut first_removed[view.vertical.unit_of(t) as usize];
        pending += usize::from(*first == u32::MAX);
        *first = t;
    }
    for (t, &unit) in view.vertical.units().iter().enumerate() {
        match first_removed[unit as usize] {
            u32::MAX => {}
            first if first == t as u32 => return true,
            _ => {
                first_removed[unit as usize] = u32::MAX;
                pending -= 1;
                if pending == 0 {
                    return false;
                }
            }
        }
    }
    false
}

/// New ids in first-occurrence order, ties by `rank` then old id; `None`
/// for what never occurs (`first` is `u32::MAX`).
fn first_seen_ids(first: &[u32], rank: impl Fn(usize) -> usize) -> Vec<Option<u32>> {
    let mut order: Vec<usize> = (0..first.len()).filter(|&i| first[i] != u32::MAX).collect();
    order.sort_unstable_by_key(|&i| (first[i], rank(i), i));
    let mut map = vec![None; first.len()];
    for (new, &old) in order.iter().enumerate() {
        map[old] = Some(new as u32);
    }
    map
}

/// A batch staged against a cube: everything the update changes, computed
/// from shared references alone. [`Self::commit`] applies it and cannot
/// fail; dropping it instead leaves the cube as it was.
pub(crate) struct StagedUpdate {
    /// Retracted tids, pre-update numbering.
    removed: Vec<u32>,
    /// The appended rows and the labels they introduce (pre-relabel ids).
    encoded: EncodedBatch,
    /// The entry of every context the edit touches or a promotion creates.
    contexts: Vec<(Vec<ItemId>, Store<u8>)>,
    /// Every cell of a touched context (`None` = demoted).
    dirty: Vec<(CellCoords, Option<StagedCell>)>,
    /// Newly materialized cells.
    promoted: Vec<(CellCoords, StagedCell)>,
    /// The renaming the retractions induce, when ids move.
    relabel: Option<Relabel>,
}

/// Stage `batch` against the cube, its postings and its store through shared
/// references only, along the update's phases: encode → resolve removals →
/// relabel plan → stage contexts → stage dirty cells (re-evaluate or
/// demote) → stage promotions. Every fallible step of an update is here,
/// so an `Err` leaves the snapshot byte for byte as it was. Cells re-fold
/// and promotions are checked under the parameters the cube was built
/// with. Dirty cells and promotions fan out over up to `threads` workers
/// through [`scube_common::par`].
pub(crate) fn stage(
    cube: &SegregationCube,
    vertical: &VerticalDb,
    batch: &UpdateBatch,
    threads: usize,
) -> Result<StagedUpdate> {
    let store = &cube.store;
    if !store.covers(cube) {
        return Err(ScubeError::Inconsistent(
            "update: maintenance store does not cover the cube".into(),
        ));
    }
    let mut ids = BatchLabels::resolve(batch, cube.labels());
    let encoded = encode_batch(batch, cube.labels(), &mut ids)?;
    let removed = resolve_removals(batch, &ids, vertical)?;
    let view = EditView::new(vertical, encoded, removed)?;
    let relabel = relabel_plan(&view, cube.labels());
    // A renaming commit re-encodes every context entry under new unit ids:
    // validate them all now, while a corrupt mapped entry can still error.
    // Run tables name no unit; the commit only re-keys them.
    if relabel.is_some() {
        store.validate_contexts(vertical.num_units())?;
    }
    let contexts = stage_contexts(&view, store)?;
    let mut stager = Stager { view, cube, contexts };
    let dirty = stage_dirty_cells(&stager, threads)?;
    let promoted = stage_promotions(&mut stager, &dirty, threads)?;
    let Stager { view, contexts, .. } = stager;
    Ok(StagedUpdate {
        removed: view.removed,
        encoded: view.encoded,
        contexts: contexts
            .into_iter()
            .map(|(ca, ctx)| (ca, encode_entry(ctx.totals.units())))
            .collect(),
        dirty,
        promoted,
        relabel,
    })
}

impl StagedUpdate {
    /// Apply the staged update — the one `&mut` step, with no error path.
    /// Retracted rows leave the postings and appended rows join them; the
    /// new labels, cells and store entries are pushed and contexts no cell
    /// uses leave the store, exactly as a rebuild's store would have it;
    /// then, only when the retractions moved ids, everything is renamed to
    /// the ids a rebuild would intern.
    pub(crate) fn commit(
        self,
        cube: &mut SegregationCube,
        vertical: &mut VerticalDb,
    ) -> UpdateStats {
        let StagedUpdate { removed, encoded, contexts, dirty, promoted, relabel } = self;
        let mut stats = UpdateStats {
            rows_added: encoded.rows.len(),
            rows_removed: removed.len(),
            new_items: encoded.new_items.len(),
            new_units: encoded.new_units.len(),
            promoted_cells: promoted.len(),
            ..UpdateStats::default()
        };
        let n_items = vertical.num_items() + encoded.new_items.len();
        let n_units = vertical.num_units() + encoded.new_units.len() as u32;
        vertical.remove_rows(&removed).expect("staged retractions are sorted, distinct, in range");
        vertical.append_rows(&encoded.rows, n_items, n_units).expect("staged rows fit the spaces");
        let (labels, cells, store) = cube.update_parts();
        // Labels are shared with the clones they came from, and copied
        // only when the batch adds to them.
        if !encoded.new_items.is_empty() || !encoded.new_units.is_empty() {
            let labels = Arc::make_mut(labels);
            labels.items.extend(encoded.new_items);
            labels.unit_names.extend(encoded.new_units);
        }
        store.contexts.extend(contexts);
        let mut kept = promoted;
        for (coords, staged) in dirty {
            match staged {
                Some(cell) => kept.push((coords, cell)),
                None => {
                    cells.remove(&coords);
                    store.minorities.remove(&coords);
                    stats.demoted_cells += 1;
                }
            }
        }
        stats.dirty_cells = kept.len() - stats.promoted_cells;
        for (coords, (minority, values)) in kept {
            if let Some(minority) = minority {
                store.minorities.insert(coords.clone(), minority);
            }
            cells.insert(coords, values);
        }
        let live: FxHashSet<&[ItemId]> = cells.keys().map(|c| c.ca.as_slice()).collect();
        store.contexts.retain(|ca, _| live.contains(ca.as_slice()));
        if let Some(plan) = relabel {
            stats.dropped_items = plan.item_map.iter().filter(|m| m.is_none()).count();
            stats.dropped_units = plan.unit_map.iter().filter(|m| m.is_none()).count();
            vertical.rename(&plan.item_map, &plan.unit_map);
            rename_cube(cube, &plan);
        }
        stats.clean_cells = cube.len() - stats.dirty_cells - stats.promoted_cells;
        stats
    }
}

/// Rename a committed cube under `plan`: labels, cell coordinates and store
/// keys by the item map, the units inside every context entry by the unit
/// map; a run table holds no unit id, so a minority entry moves to its new
/// key as it stands. Every context entry was validated at staging, so its
/// decode cannot fail.
fn rename_cube(cube: &mut SegregationCube, plan: &Relabel) {
    let n_old_units = cube.num_units();
    let (labels, cells, store) = cube.update_parts();
    let labels = Arc::make_mut(labels);
    labels.items = permute(std::mem::take(&mut labels.items), &plan.item_map);
    labels.unit_names = permute(std::mem::take(&mut labels.unit_names), &plan.unit_map);
    let items = |ids: &[ItemId]| remap_items(ids, &plan.item_map);
    let coords = |c: &CellCoords| CellCoords { sa: items(&c.sa), ca: items(&c.ca) };
    let entry = |entry: Store<u8>| {
        let mut pairs = histogram::decode(&entry, n_old_units)
            .expect("context entries were validated at staging");
        for p in pairs.iter_mut() {
            p.0 = plan.unit_map[p.0 as usize].expect("populated unit survives");
        }
        pairs.sort_unstable_by_key(|&(u, _)| u);
        encode_entry(&pairs)
    };
    *cells = std::mem::take(cells).into_iter().map(|(c, v)| (coords(&c), v)).collect();
    store.contexts = std::mem::take(&mut store.contexts)
        .into_iter()
        .map(|(ca, e)| (items(&ca), entry(e)))
        .collect();
    store.minorities =
        std::mem::take(&mut store.minorities).into_iter().map(|(c, e)| (coords(&c), e)).collect();
}

/// Reorder `entries` by `map` (old index → new index, `None` = dropped);
/// the kept indices map onto `0..n`.
fn permute<T>(entries: Vec<T>, map: &[Option<u32>]) -> Vec<T> {
    let mut out: Vec<Option<T>> =
        std::iter::repeat_with(|| None).take(map.iter().flatten().count()).collect();
    for (entry, new) in entries.into_iter().zip(map) {
        if let Some(new) = new {
            out[*new as usize] = Some(entry);
        }
    }
    out.into_iter().map(|e| e.expect("the kept ids map onto 0..n")).collect()
}

/// Remap sorted item ids through a renaming (re-sorting: the renaming need
/// not be monotone).
fn remap_items(ids: &[ItemId], item_map: &[Option<ItemId>]) -> Vec<ItemId> {
    let mut out: Vec<ItemId> =
        ids.iter().map(|&it| item_map[it as usize].expect("cell item survives")).collect();
    out.sort_unstable();
    out
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
        check_churn_on(BASE, remove, delta, materialize, min_support);
    }

    /// [`check_churn`] on the snapshot of `base`.
    fn check_churn_on(
        base: &[Row],
        remove: &[u32],
        delta: &[Row],
        materialize: Materialize,
        min_support: u64,
    ) {
        let builder = CubeBuilder::new().min_support(min_support).materialize(materialize);
        let mut updated = CubeSnapshot::from_db(&db(base), &builder).unwrap();
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
        let edited: Vec<Row> = base
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
    fn closedness_witness_skips_a_retracted_first_row() {
        // Rows 2 (M, old, north) and 7 (M, young, north) hold (M | north).
        // With row 2 gone, row 7 is the witness: its `young` extends the
        // cell, which the retracted row's `old` would not show.
        check_churn_all(&[2], &[]);
        check_churn_all(&[2], DELTA);
    }

    #[test]
    fn closedness_witness_falls_back_to_an_appended_row() {
        // Both base rows of (M | north) go while an appended row holds it:
        // that row is the witness, and its `young` extends the cell.
        check_churn_all(&[2, 7], &[("M", "young", "north", "u1")]);
        check_churn_all(
            &[0, 1, 2, 7],
            &[("M", "young", "north", "u0"), ("F", "old", "north", "u1")],
        );
    }

    #[test]
    fn dense_base_ending_in_a_partial_word_matches_rebuild() {
        // 70 rows: every `base(X)` spans one full word and six bits of a
        // second. Retracting the whole first word puts every witness in the
        // partial one.
        let base: Vec<Row> = BASE.iter().cycle().take(70).copied().collect();
        let first_word: Vec<u32> = (0..64).collect();
        let tail = [64, 69];
        for (remove, delta) in [(&first_word[..], &[][..]), (&first_word, DELTA), (&tail, DELTA)] {
            for min_support in [1, 3, 20] {
                for materialize in [Materialize::AllFrequent, Materialize::ClosedOnly] {
                    check_churn_on(&base, remove, delta, materialize, min_support);
                }
            }
        }
        // Nothing frequent before, the `⋆` context promoted by the append:
        // its totals are counted from the universe's words.
        for materialize in [Materialize::AllFrequent, Materialize::ClosedOnly] {
            check_churn_on(&base, &[], DELTA, materialize, 72);
        }
    }

    #[test]
    fn a_run_the_batch_cannot_find_is_refused_whatever_ran_before() {
        // u0 lives only in the north, u1 only in the south; the `⋆` context,
        // whose job runs first, holds both.
        let rows: &[Row] = &[
            ("F", "young", "north", "u0"),
            ("M", "old", "north", "u0"),
            ("F", "old", "south", "u1"),
            ("M", "young", "south", "u1"),
        ];
        let builder = CubeBuilder::new().min_support(1).materialize(Materialize::AllFrequent);
        let mut snap = CubeSnapshot::from_db(&db(rows), &builder).unwrap();
        let coords = snap.cube().coords_by_names(&[("sex", "F")], &[("region", "north")]).unwrap();
        // (sex=F | north) is one woman of u0, whose northern total is 2: the
        // run (m 1, t 2). Planted instead: (m 2, t 2), a well-formed table
        // of the north (one unit of total 2) that the postings contradict.
        let north = [(2, 1)];
        let stored = histogram::decode_runs(&snap.cube.store.minorities[&coords], &north).unwrap();
        assert_eq!(stored, [Run { minority: 1, total: 2, units: 1 }]);
        let planted = [Run { minority: 2, total: 2, units: 1 }];
        let store = std::sync::Arc::make_mut(&mut snap.cube.store);
        store.minorities.insert(coords, Store::Owned(histogram::encode_runs(&planted, &north)));
        let bytes = snap.to_bytes();
        // A man's northern row leaves the cell's own minority alone and a
        // woman's moves it; both move u0's total, so u0's run (m 1, t 2)
        // must leave the table, which lacks it.
        for row in [("M", "old", "north", "u0"), ("F", "old", "north", "u0")] {
            for threads in [1, 2] {
                let mut s = snap.clone();
                let err = s.apply_update_threads(&batch(&[row]), threads).unwrap_err().to_string();
                assert!(
                    err.contains("lacks the run (1 of 2)"),
                    "{row:?}, {threads} threads: {err}"
                );
                assert_eq!(s.to_bytes(), bytes, "{row:?}: a refused batch mutates nothing");
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
    /// cells dirty (`⋆` and north contexts), enough that every worker of
    /// `threads > 1` gets some.
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
                assert!(stats.dirty_cells >= 64, "{materialize:?}: every worker stages: {stats:?}");
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
            let parallel = serial.clone();
            let mut b = batch(delta);
            for &t in &remove {
                b.remove_tid(t);
            }
            let s1 = serial.apply_update_threads(&b, 1).unwrap();
            // A hostile count is clamped to the host, not spawned.
            for threads in [8, usize::MAX] {
                let mut parallel = parallel.clone();
                let s2 = parallel.apply_update_threads(&b, threads).unwrap();
                assert_eq!(s1, s2, "{threads} threads: stats must agree");
                assert_eq!(serial.to_bytes(), parallel.to_bytes(), "{threads}: bytes must agree");
            }
        }
    }

    #[test]
    fn promotion_from_a_row_wider_than_sixteen_frequent_items() {
        // Eighteen values of one multi-valued attribute, each frequent at
        // min_support 2; only `v00` and `v01` ever co-occur, once. A row
        // holding every value promotes {v00, v01} and leaves every other
        // pair at support 1, so the walk must go past the row's width.
        let values: Vec<String> = (0..18).map(|i| format!("v{i:02}")).collect();
        let schema =
            Schema::new(vec![Attribute::sa("lang").multi(), Attribute::ca("region")]).unwrap();
        let mut base: Vec<(Vec<&str>, &str)> = Vec::new();
        for (i, v) in values.iter().enumerate() {
            base.push((vec![v.as_str()], if i % 2 == 0 { "u0" } else { "u1" }));
            base.push((vec![v.as_str()], "u1"));
        }
        base.push((vec!["v00", "v01"], "u0"));
        let wide: Vec<&str> = values.iter().map(String::as_str).collect();
        let db = |rows: &[(Vec<&str>, &str)]| {
            let mut b = TransactionDbBuilder::new(schema.clone());
            for (langs, unit) in rows {
                b.add_row(&[langs.clone(), vec!["north"]], unit).unwrap();
            }
            b.finish()
        };
        let mut batch = UpdateBatch::new();
        let pairs: Vec<(&str, &str)> =
            wide.iter().map(|&v| ("lang", v)).chain([("region", "north")]).collect();
        batch.add_row(&pairs, "u0");
        let mut edited = base.clone();
        edited.push((wide.clone(), "u0"));
        for materialize in [Materialize::AllFrequent, Materialize::ClosedOnly] {
            let builder = CubeBuilder::new().min_support(2).materialize(materialize);
            let mut snap = CubeSnapshot::from_db(&db(&base), &builder).unwrap();
            let stats = snap.apply_update(&batch).unwrap();
            assert!(stats.promoted_cells > 0, "{materialize:?}: {stats:?}");
            let pair = |a: &str, b: &str| {
                let sa = [("lang", a), ("lang", b)];
                let cube = snap.cube();
                cube.get_by_names(&sa, &[]).is_some()
                    || cube.get_by_names(&sa, &[("region", "north")]).is_some()
            };
            assert!(pair("v00", "v01"), "{materialize:?}: the pair is promoted");
            assert!(!pair("v02", "v03"), "{materialize:?}: other pairs stay infrequent");
            let rebuilt = CubeSnapshot::from_db(&db(&edited), &builder).unwrap();
            assert_eq!(snap.to_bytes(), rebuilt.to_bytes(), "{materialize:?}: bytes diverge");
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
    fn a_row_match_claims_only_an_equal_row() {
        // Rows 0 and 1 share a unit, and row 0's items strictly contain
        // row 1's (row 1 has no age). Row 0 comes first and holds every
        // item row 1 does, so only the exact-row check keeps it unclaimed.
        let rows: &[(&str, Option<&str>, &str, &str)] = &[
            ("F", Some("young"), "north", "u0"),
            ("F", None, "north", "u0"),
            ("M", Some("old"), "south", "u1"),
            ("F", None, "south", "u1"),
        ];
        let db = |keep: &dyn Fn(usize) -> bool| {
            let mut b = TransactionDbBuilder::new(
                Schema::new(vec![
                    Attribute::sa("sex"),
                    Attribute::sa("age"),
                    Attribute::ca("region"),
                ])
                .unwrap(),
            );
            for (_, (sex, age, region, unit)) in rows.iter().enumerate().filter(|(t, _)| keep(*t)) {
                b.add_row(&[vec![*sex], age.iter().copied().collect(), vec![*region]], unit)
                    .unwrap();
            }
            b.finish()
        };
        let narrow = [("sex", "F"), ("region", "north")];
        let wide = [("sex", "F"), ("age", "young"), ("region", "north")];
        let blank = [("sex", "F"), ("age", ""), ("region", "north")];
        for materialize in [Materialize::AllFrequent, Materialize::ClosedOnly] {
            let builder = CubeBuilder::new().min_support(1).materialize(materialize);
            let base = CubeSnapshot::from_db(&db(&|_| true), &builder).unwrap();
            for (pairs, unit, claimed) in
                [(&narrow[..], "u0", 1), (&wide[..], "u0", 0), (&blank[..], "u0", 1)]
            {
                let mut b = UpdateBatch::new();
                b.remove_row(pairs, unit);
                let mut edited = base.clone();
                edited.apply_update(&b).unwrap();
                let rebuilt = CubeSnapshot::from_db(&db(&|t| t != claimed), &builder).unwrap();
                assert_eq!(
                    edited.to_bytes(),
                    rebuilt.to_bytes(),
                    "{materialize:?}: {pairs:?} must claim row {claimed}"
                );
            }
            // Unit u1 holds (F, south) but no (F, north) row.
            let mut b = UpdateBatch::new();
            b.remove_row(&narrow, "u1");
            let mut refused = base.clone();
            let err = refused.apply_update(&b).unwrap_err().to_string();
            assert!(err.contains("matches no remaining row"), "{err}");
            assert_eq!(refused.to_bytes(), base.to_bytes());
        }
    }

    #[test]
    fn interior_retraction_of_no_first_occurrence_matches_rebuild() {
        // BASE first-occurs every item and unit in rows 0, 2 and 3: rows 1,
        // 4, 5 and 6 are nobody's first occurrence, so nothing is renamed.
        check_churn_all(&[1, 5], &[]);
        check_churn_all(&[4, 6], &[]);
        check_churn_all(&[1, 4, 5, 6], DELTA);
    }

    #[test]
    fn retracting_a_units_first_row_moves_ids_past_another_unit() {
        // Row 1 is u1's first row, but every item in it first occurs in
        // row 0. u1's next row comes after u2's first, so retracting row 1
        // swaps the ids of u1 and u2: only the units' first occurrences
        // show it.
        let base: &[Row] = &[
            ("F", "young", "north", "u0"),
            ("F", "young", "north", "u1"),
            ("M", "old", "south", "u2"),
            ("M", "old", "south", "u1"),
        ];
        for min_support in [1, 2] {
            for materialize in [Materialize::AllFrequent, Materialize::ClosedOnly] {
                check_churn_on(base, &[1], &[], materialize, min_support);
                check_churn_on(
                    base,
                    &[1],
                    &[("F", "old", "north", "u2")],
                    materialize,
                    min_support,
                );
            }
        }
        let mut snap = CubeSnapshot::from_db(&db(base), &CubeBuilder::new()).unwrap();
        let mut b = UpdateBatch::new();
        b.remove_tid(1);
        snap.apply_update(&b).unwrap();
        assert_eq!(snap.cube().labels().unit_names, ["u0", "u2", "u1"]);
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
        let base = vec![(0u32, 2u64), (2, 1)];
        assert!(advance_pairs(&base, &[(0, 0, 3)]).is_err(), "underflow");
        assert!(advance_pairs(&base, &[(1, 0, 1)]).is_err(), "unit absent from base");
        assert!(advance_pairs(&base, &[(0, 1, 4)]).is_err(), "underflow past an append");
        assert_eq!(advance_pairs(&base, &[(0, 0, 2)]).unwrap(), [(2, 1)], "zero pairs leave");
        assert_eq!(
            advance_pairs(&base, &[(0, 1, 1), (1, 2, 1), (3, 1, 0)]).unwrap(),
            [(0, 2), (1, 1), (2, 1), (3, 1)],
            "appends add units, a unit appended and retracted in one batch nets out"
        );
        assert_eq!(advance_pairs(&base, &[(1, 1, 1)]).unwrap(), base, "a net-zero new unit");
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
