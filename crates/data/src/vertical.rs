//! Vertical (item → tidset) representation of a transaction database.
//!
//! The cube builder and the Eclat miner work on *postings*: for each item,
//! the set of transaction ids containing it, stored as one [`EwahBitmap`]
//! (the paper's JavaEWAH tidsets).

use std::sync::Arc;

use scube_bitmap::kernels::for_each_set_bit;
use scube_bitmap::EwahBitmap;

use crate::dictionary::ItemId;
use crate::transactions::{checked_u32, TransactionDb, UnitId};

/// Item-indexed postings plus the `tid → unit` map.
///
/// The postings sit behind one `Arc`, copied on the first write: a clone
/// shares them (a snapshot paired with a finished build, an update staged
/// off a served engine) and copies only the `tid → unit` map, and the
/// mutators below copy the postings only when another clone still holds
/// them.
#[derive(Debug, Clone)]
pub struct VerticalDb {
    postings: Arc<Vec<EwahBitmap>>,
    n_transactions: u32,
    unit_of: Vec<UnitId>,
    n_units: u32,
}

impl VerticalDb {
    /// An empty database — no items, no transactions, no units. The
    /// starting point of chunked construction: every chunk of rows then
    /// arrives through [`Self::append_rows`], which only ever extends
    /// posting tails, so the grown database is byte-identical to a
    /// one-shot [`Self::build`] on the same rows.
    pub fn empty() -> Self {
        VerticalDb { postings: Arc::default(), n_transactions: 0, unit_of: Vec::new(), n_units: 0 }
    }

    /// Build from a horizontal database.
    pub fn build(db: &TransactionDb) -> Self {
        // Collect tids per item, then freeze each list into a posting.
        let mut tids: Vec<Vec<u32>> = vec![Vec::new(); db.dictionary().len()];
        for t in 0..db.len() {
            for &item in db.transaction(t) {
                tids[item as usize].push(t as u32);
            }
        }
        let postings = tids.iter().map(|ids| EwahBitmap::from_sorted(ids)).collect();
        VerticalDb {
            postings: Arc::new(postings),
            n_transactions: db.len() as u32,
            unit_of: db.units().to_vec(),
            n_units: db.num_units() as u32,
        }
    }

    /// Reassemble a vertical database from its parts (snapshot loading).
    ///
    /// Returns `None` when the parts are inconsistent: the unit map must
    /// have one entry per transaction, every unit id must be `< n_units`,
    /// and no posting may contain a tid `>= n_transactions`.
    pub fn from_parts(
        postings: Vec<EwahBitmap>,
        n_transactions: u32,
        unit_of: Vec<UnitId>,
        n_units: u32,
    ) -> Option<Self> {
        if unit_of.len() != n_transactions as usize || unit_of.iter().any(|&u| u >= n_units) {
            return None;
        }
        // The highest set *bit*, not the highest iterated tid: a decoded
        // slot can hold bits at or past 2³², which iteration would alias
        // onto small tids and let through.
        let universe = u64::from(n_transactions);
        if postings.iter().any(|p| p.max_id().is_some_and(|m| m >= universe)) {
            return None;
        }
        Some(VerticalDb { postings: Arc::new(postings), n_transactions, unit_of, n_units })
    }

    /// As [`Self::from_parts`], but trusting that every posting's tids are
    /// already known to be `< n_transactions` — skipping the full posting
    /// scan, which is O(total data) and would defeat a milliseconds-cold
    /// mmap open. The unit map is still checked (it is O(rows), owned, and
    /// cheap). Callers must have bounded the postings themselves: the
    /// snapshot mmap path does so via `EwahBitmap::map_slot`'s universe check.
    pub fn from_validated_parts(
        postings: Vec<EwahBitmap>,
        n_transactions: u32,
        unit_of: Vec<UnitId>,
        n_units: u32,
    ) -> Option<Self> {
        if unit_of.len() != n_transactions as usize || unit_of.iter().any(|&u| u >= n_units) {
            return None;
        }
        Some(VerticalDb { postings: Arc::new(postings), n_transactions, unit_of, n_units })
    }

    /// Fold a batch of appended transactions into the database in place —
    /// the delta-ingest primitive behind incremental cube maintenance.
    ///
    /// Each row holds sorted, deduplicated item ids and a unit id; rows are
    /// assigned the next transaction ids in order, so every existing
    /// posting is extended at its tail ([`EwahBitmap::append_sorted`]) rather
    /// than rebuilt. `n_items_after` / `n_units_after` widen the item and
    /// unit spaces for ids first seen in the batch (empty postings are
    /// created for new items that happen not to appear — callers pass the
    /// post-interning dictionary sizes).
    ///
    /// Errors (leaving `self` untouched) when a row references an item
    /// `>= n_items_after` or a unit `>= n_units_after`, when either
    /// space would shrink, or when the batch would push the transaction
    /// count past `u32`.
    pub fn append_rows(
        &mut self,
        rows: &[(Vec<ItemId>, UnitId)],
        n_items_after: usize,
        n_units_after: u32,
    ) -> std::result::Result<(), String> {
        if n_items_after < self.postings.len() {
            return Err(format!(
                "item space cannot shrink ({} -> {n_items_after})",
                self.postings.len()
            ));
        }
        if n_units_after < self.n_units {
            return Err(format!("unit space cannot shrink ({} -> {n_units_after})", self.n_units));
        }
        let n_after = checked_u32(self.n_transactions as usize, rows.len(), "transactions")?;
        let mut new_tids: Vec<Vec<u32>> = vec![Vec::new(); n_items_after];
        for (i, (items, unit)) in rows.iter().enumerate() {
            if *unit >= n_units_after {
                return Err(format!("row {i} references unknown unit {unit}"));
            }
            // In range: `i < rows.len()` and `n_after` fits.
            let tid = self.n_transactions + i as u32;
            let mut prev: Option<ItemId> = None;
            for &item in items {
                if item as usize >= n_items_after {
                    return Err(format!("row {i} references unknown item {item}"));
                }
                if prev.is_some_and(|p| item <= p) {
                    return Err(format!("row {i} items are not strictly increasing"));
                }
                prev = Some(item);
                new_tids[item as usize].push(tid);
            }
        }
        if n_items_after > self.postings.len() || !rows.is_empty() {
            let postings = Arc::make_mut(&mut self.postings);
            postings.resize_with(n_items_after, || EwahBitmap::from_sorted(&[]));
            for (item, tids) in new_tids.iter().enumerate() {
                if !tids.is_empty() {
                    postings[item].append_sorted(tids);
                }
            }
        }
        self.unit_of.extend(rows.iter().map(|&(_, u)| u));
        self.n_transactions = n_after;
        self.n_units = n_units_after;
        Ok(())
    }

    /// Remove a sorted, deduplicated set of transactions in place — the
    /// retraction primitive behind incremental cube maintenance.
    ///
    /// Surviving transactions are renumbered downwards (`tid' = tid −
    /// |removed ≤ tid|`), exactly the ids a from-scratch build on the
    /// edited data would assign, so snapshot byte-identity survives
    /// retraction. Postings whose ids all precede the first removed tid are
    /// left alone. When the removed set is a suffix of the tid space the
    /// renumbering is the identity and every other posting shrinks in
    /// place via [`EwahBitmap::remove_sorted`]; otherwise they are rebuilt
    /// from their surviving ids in one pass. Items are never dropped
    /// here even when their posting empties — dictionary garbage collection
    /// is [`Self::rename`]'s.
    ///
    /// Errors (leaving `self` untouched) when `tids` is unsorted, contains
    /// duplicates, or references a transaction `>= n_transactions`.
    pub fn remove_rows(&mut self, tids: &[u32]) -> std::result::Result<(), String> {
        for w in tids.windows(2) {
            if w[0] >= w[1] {
                return Err("removed tids must be strictly increasing".into());
            }
        }
        if tids.last().is_some_and(|&t| t >= self.n_transactions) {
            return Err(format!(
                "removed tid {} out of range (have {} transactions)",
                tids.last().unwrap(),
                self.n_transactions
            ));
        }
        if tids.is_empty() {
            return Ok(());
        }
        // A posting whose ids all precede the first retracted tid neither
        // loses an id nor renumbers one: it is skipped, marker hops only.
        let touched =
            |posting: &EwahBitmap| posting.max_id().is_some_and(|m| m >= u64::from(tids[0]));
        let is_suffix = tids[0] as usize == self.n_transactions as usize - tids.len();
        if is_suffix {
            // Tail retraction: survivors keep their ids; clear the removed
            // tail bits of each posting that reaches into the tail.
            let mut scratch = Vec::new();
            for posting in Arc::make_mut(&mut self.postings).iter_mut().filter(|p| touched(p)) {
                scratch.clear();
                posting.for_each(|tid| {
                    if tid >= tids[0] {
                        scratch.push(tid);
                    }
                });
                posting.remove_sorted(&scratch);
            }
        } else {
            // Interior retraction: renumber by rebuilding each posting from
            // the surviving ids in one merge pass over the removal set.
            let mut keep = Vec::new();
            for posting in Arc::make_mut(&mut self.postings).iter_mut().filter(|p| touched(p)) {
                keep.clear();
                let mut r = 0usize;
                posting.for_each(|tid| {
                    while r < tids.len() && tids[r] < tid {
                        r += 1;
                    }
                    if r < tids.len() && tids[r] == tid {
                        return;
                    }
                    keep.push(tid - r as u32);
                });
                *posting = EwahBitmap::from_sorted(&keep);
            }
        }
        let mut r = 0usize;
        let mut write = 0usize;
        for tid in 0..self.n_transactions as usize {
            if r < tids.len() && tids[r] as usize == tid {
                r += 1;
                continue;
            }
            self.unit_of[write] = self.unit_of[tid];
            write += 1;
        }
        self.unit_of.truncate(write);
        self.n_transactions -= tids.len() as u32;
        Ok(())
    }

    /// Rename items and units in place — the dictionary half of a
    /// retraction that shrank or reordered it. `item_map[old]` and
    /// `unit_map[old]` give the new ids, `None` for an item or unit that
    /// left the dictionary; the kept ids must map onto `0..n`. Postings
    /// move and `unit_of` is mapped; no posting is re-encoded and no tid
    /// changes, so the result equals [`Self::build`] on the renamed rows.
    ///
    /// # Panics
    ///
    /// When a map has the wrong length or is not onto `0..n`, when a
    /// dropped item still has transactions, or when a transaction belongs
    /// to a dropped unit.
    pub fn rename(&mut self, item_map: &[Option<ItemId>], unit_map: &[Option<UnitId>]) {
        assert_eq!(item_map.len(), self.postings.len(), "one item_map entry per item");
        assert_eq!(unit_map.len(), self.n_units as usize, "one unit_map entry per unit");
        let mut postings: Vec<Option<EwahBitmap>> =
            std::iter::repeat_with(|| None).take(item_map.iter().flatten().count()).collect();
        let old = Arc::unwrap_or_clone(std::mem::take(&mut self.postings));
        for (posting, new) in old.into_iter().zip(item_map) {
            match new {
                Some(new) => postings[*new as usize] = Some(posting),
                None => assert!(posting.is_empty(), "a dropped item has no transactions"),
            }
        }
        self.postings =
            Arc::new(postings.into_iter().map(|p| p.expect("item_map is onto 0..n")).collect());
        for unit in &mut self.unit_of {
            *unit = unit_map[*unit as usize].expect("a unit with transactions is kept");
        }
        self.n_units = unit_map.iter().flatten().count() as u32;
    }

    /// The row of one transaction: the ascending ids of the items whose
    /// postings hold `tid`, into `row` (cleared first). One membership test
    /// per item, so a row costs the dictionary, not the table; an update
    /// rebuilds the rows it matches and its closedness witnesses this way.
    pub fn row_into(&self, tid: u32, row: &mut Vec<ItemId>) {
        row.clear();
        let items = 0..self.postings.len() as ItemId;
        row.extend(items.filter(|&it| self.postings[it as usize].contains(tid)));
    }

    /// Posting of one item.
    pub fn posting(&self, item: ItemId) -> &EwahBitmap {
        &self.postings[item as usize]
    }

    /// All item postings, indexed by item id.
    pub fn postings(&self) -> &[EwahBitmap] {
        &self.postings
    }

    /// Number of items with postings.
    pub fn num_items(&self) -> usize {
        self.postings.len()
    }

    /// Number of transactions.
    pub fn num_transactions(&self) -> u32 {
        self.n_transactions
    }

    /// Number of organizational units.
    pub fn num_units(&self) -> u32 {
        self.n_units
    }

    /// Unit of a transaction.
    pub fn unit_of(&self, tid: u32) -> UnitId {
        self.unit_of[tid as usize]
    }

    /// The full `tid → unit` map.
    pub fn units(&self) -> &[UnitId] {
        &self.unit_of
    }

    /// Tidset of an itemset (intersection of item postings), or the
    /// universe when the itemset is empty.
    ///
    /// Routed through the batched k-way AND ([`EwahBitmap::intersect_many`]):
    /// smallest posting first, empty short-circuit, and no per-step posting
    /// allocation however many items the set has.
    pub fn tidset(&self, itemset: &[ItemId]) -> EwahBitmap {
        match itemset {
            [] => EwahBitmap::full(self.n_transactions),
            [single] => self.postings[*single as usize].clone(),
            _ => {
                let refs: Vec<&EwahBitmap> =
                    itemset.iter().map(|&it| &self.postings[it as usize]).collect();
                EwahBitmap::intersect_many(&refs).expect("non-empty itemset")
            }
        }
    }

    /// Support of an itemset: the batched AND over all but the largest
    /// posting, then one streaming `and_cardinality` — the final (and
    /// biggest) intersection is never materialized.
    pub fn support(&self, itemset: &[ItemId]) -> u64 {
        match itemset {
            [] => u64::from(self.n_transactions),
            [single] => self.postings[*single as usize].cardinality(),
            [a, b] => self.postings[*a as usize].and_cardinality(&self.postings[*b as usize]),
            _ => {
                let mut refs: Vec<&EwahBitmap> =
                    itemset.iter().map(|&it| &self.postings[it as usize]).collect();
                refs.sort_by_cached_key(|p| p.cardinality());
                let (largest, init) = refs.split_last().expect("len >= 3");
                match EwahBitmap::intersect_many(init) {
                    Some(acc) if !acc.is_empty() => acc.and_cardinality(largest),
                    _ => 0,
                }
            }
        }
    }

    /// Per-unit head-counts of a tidset into a reusable [`UnitScratch`]:
    /// after the call, `scratch.count_of(u)` = transactions of the tidset
    /// belonging to unit `u`. This is the histogram primitive behind every
    /// cube cell. No allocation, and the subsequent reset costs
    /// O(|touched units|) instead of O(n_units), which is what makes cube
    /// cell evaluation O(Σ|tidset|) overall rather than O(cells × n_units).
    pub fn unit_histogram_into(&self, tids: &EwahBitmap, scratch: &mut UnitScratch) {
        self.reset_scratch(scratch);
        tids.for_each(|tid| scratch.bump(self.unit_of[tid as usize]));
    }

    /// [`Self::unit_histogram_into`] over a dense tidset, bit `b` of
    /// `words[i]` being tid `64·i + b`: the Eclat walk's form, which the
    /// cube builder histograms without encoding it.
    pub fn unit_histogram_words_into(&self, words: &[u64], scratch: &mut UnitScratch) {
        self.reset_scratch(scratch);
        for_each_set_bit(words, 0, |tid| scratch.bump(self.unit_of[tid as usize]));
    }

    fn reset_scratch(&self, scratch: &mut UnitScratch) {
        assert_eq!(
            scratch.counts.len(),
            self.n_units as usize,
            "scratch sized for a different unit count"
        );
        scratch.clear();
    }
}

/// Reusable scratch space for per-unit histograms: a dense count array plus
/// the list of units actually touched by the last fill.
///
/// One scratch per worker thread lets the cube builder evaluate millions of
/// cells without a single histogram allocation.
#[derive(Debug, Clone)]
pub struct UnitScratch {
    counts: Vec<u64>,
    touched: Vec<UnitId>,
}

impl UnitScratch {
    /// Scratch for databases with `n_units` organizational units.
    pub fn new(n_units: u32) -> Self {
        UnitScratch { counts: vec![0; n_units as usize], touched: Vec::new() }
    }

    /// The dense count array (zero for untouched units).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Count of one unit.
    #[inline]
    pub fn count_of(&self, unit: UnitId) -> u64 {
        self.counts[unit as usize]
    }

    /// Units with nonzero counts, in fill order (unsorted).
    pub fn touched(&self) -> &[UnitId] {
        &self.touched
    }

    /// Add one observation of `unit` — the per-tid body of both histogram
    /// fills above, and the manual fill used for delta histograms whose
    /// transactions are not (or no longer) in any database, e.g. batch rows
    /// before they are appended and retracted rows after they are resolved.
    #[inline]
    pub fn bump(&mut self, unit: UnitId) {
        let slot = &mut self.counts[unit as usize];
        if *slot == 0 {
            self.touched.push(unit);
        }
        *slot += 1;
    }

    /// `(unit, count)` pairs of the touched units, ascending by unit.
    pub fn sorted_pairs(&mut self) -> Vec<(UnitId, u64)> {
        let mut pairs = Vec::with_capacity(self.touched.len());
        self.sorted_pairs_into(&mut pairs);
        pairs
    }

    /// [`Self::sorted_pairs`] into a reused buffer, replacing its contents.
    pub fn sorted_pairs_into(&mut self, pairs: &mut Vec<(UnitId, u64)>) {
        self.touched.sort_unstable();
        pairs.clear();
        pairs.extend(self.touched.iter().map(|&u| (u, self.counts[u as usize])));
    }

    /// Zero the touched entries (cheaper than clearing the whole array).
    pub fn clear(&mut self) {
        for &u in &self.touched {
            self.counts[u as usize] = 0;
        }
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Schema};
    use crate::transactions::TransactionDbBuilder;

    fn small_db() -> TransactionDb {
        let schema = Schema::new(vec![Attribute::sa("g"), Attribute::ca("r")]).unwrap();
        let mut b = TransactionDbBuilder::new(schema);
        b.add_row(&[vec!["F"], vec!["n"]], "u0").unwrap();
        b.add_row(&[vec!["M"], vec!["n"]], "u0").unwrap();
        b.add_row(&[vec!["F"], vec!["s"]], "u1").unwrap();
        b.add_row(&[vec!["F"], vec!["n"]], "u1").unwrap();
        b.finish()
    }

    fn item(db: &TransactionDb, attr: u16, v: &str) -> ItemId {
        db.dictionary().get(attr, v).unwrap()
    }

    #[test]
    fn postings_match_horizontal() {
        let db = small_db();
        let v = VerticalDb::build(&db);
        let f = item(&db, 0, "F");
        let n = item(&db, 1, "n");
        assert_eq!(v.posting(f).to_vec(), vec![0, 2, 3]);
        assert_eq!(v.posting(n).to_vec(), vec![0, 1, 3]);
    }

    #[test]
    fn tidset_and_support() {
        let db = small_db();
        let v = VerticalDb::build(&db);
        let f = item(&db, 0, "F");
        let n = item(&db, 1, "n");
        assert_eq!(v.tidset(&[f, n]).to_vec(), vec![0, 3]);
        assert_eq!(v.support(&[f, n]), 2);
        assert_eq!(v.support(&[]), 4);
        assert_eq!(v.support(&[f]), 3);
        assert_eq!(v.tidset(&[]).cardinality(), 4);
    }

    /// Per-unit head-counts of `tids`, counted densely off the tid → unit
    /// map: the reference the scratch fill is compared against.
    fn dense_histogram(v: &VerticalDb, tids: &EwahBitmap) -> Vec<u64> {
        let mut counts = vec![0u64; v.num_units() as usize];
        tids.for_each(|tid| counts[v.unit_of(tid) as usize] += 1);
        counts
    }

    #[test]
    fn unit_histogram() {
        let db = small_db();
        let v = VerticalDb::build(&db);
        let f = item(&db, 0, "F");
        let mut scratch = UnitScratch::new(v.num_units());
        v.unit_histogram_into(v.posting(f), &mut scratch);
        assert_eq!(scratch.counts(), &[1, 2]); // F in u0 once, in u1 twice
        assert_eq!(dense_histogram(&v, v.posting(f)), vec![1, 2]);
    }

    #[test]
    fn scratch_histogram_matches_dense() {
        let db = small_db();
        let v = VerticalDb::build(&db);
        let f = item(&db, 0, "F");
        let n = item(&db, 1, "n");
        let mut scratch = UnitScratch::new(v.num_units());
        for items in [vec![f], vec![n], vec![f, n], vec![]] {
            let tids = v.tidset(&items);
            let dense = dense_histogram(&v, &tids);
            v.unit_histogram_into(&tids, &mut scratch);
            assert_eq!(scratch.counts(), &dense[..], "{items:?}");
            let mut words = vec![u64::MAX; 2]; // stale contents must vanish
            tids.decode_words_into(&mut words);
            v.unit_histogram_words_into(&words, &mut scratch);
            assert_eq!(scratch.counts(), &dense[..], "{items:?} as words");
            let pairs = scratch.sorted_pairs();
            let expected: Vec<(u32, u64)> = dense
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(u, &c)| (u as u32, c))
                .collect();
            assert_eq!(pairs, expected, "{items:?}");
        }
        // A second fill after clear() starts from zero.
        v.unit_histogram_into(&v.tidset(&[f]), &mut scratch);
        assert_eq!(scratch.counts(), &[1, 2]);
        assert_eq!(scratch.count_of(1), 2);
    }

    #[test]
    fn from_parts_roundtrip_and_validation() {
        let db = small_db();
        let v = VerticalDb::build(&db);
        let rebuilt = VerticalDb::from_parts(
            v.postings().to_vec(),
            v.num_transactions(),
            v.units().to_vec(),
            v.num_units(),
        )
        .expect("parts of a built db are consistent");
        assert_eq!(rebuilt.num_transactions(), v.num_transactions());
        assert_eq!(rebuilt.units(), v.units());
        for it in 0..v.num_items() {
            assert_eq!(rebuilt.posting(it as ItemId).to_vec(), v.posting(it as ItemId).to_vec());
        }
        // Unit map length mismatch.
        assert!(VerticalDb::from_parts(v.postings().to_vec(), 3, v.units().to_vec(), 2).is_none());
        // Unit id out of range.
        assert!(VerticalDb::from_parts(v.postings().to_vec(), 4, vec![0, 0, 2, 1], 2).is_none());
        // Posting tid out of range.
        let bad = vec![EwahBitmap::from_sorted(&[9])];
        assert!(VerticalDb::from_parts(bad, 4, v.units().to_vec(), 2).is_none());
    }

    /// Slots whose set bits lie at or past 2³²: `read_slot` accepts them
    /// (the card matches) and iteration truncates the positions to `u32`,
    /// so they read back as small, in-range tids.
    #[test]
    fn from_parts_rejects_postings_aliasing_past_the_universe() {
        let slot = |words: &[u64]| words.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>();
        let marker = |run: u64, lit: u64| (run << 1) | (lit << 33);
        // Bit 2³² alone: 2²⁶ zero words, then one literal with bit 0.
        let wrapped = EwahBitmap::read_slot(&slot(&[marker(1 << 26, 1), 1]), 1).unwrap();
        assert_eq!(wrapped.to_vec(), vec![0], "the alias the bound check must see through");
        assert!(VerticalDb::from_parts(vec![wrapped], 1, vec![0], 1).is_none());
        // Bit 2³² + 5 beside the real tid 3.
        let words = [marker(0, 1), 1 << 3, marker((1 << 26) - 1, 1), 1 << 5];
        let beside = EwahBitmap::read_slot(&slot(&words), 2).unwrap();
        assert_eq!(beside.to_vec(), vec![3, 5]);
        assert!(VerticalDb::from_parts(vec![beside], 6, vec![0; 6], 1).is_none());
    }

    #[test]
    fn append_rows_matches_from_scratch_build() {
        let db = small_db();
        let mut v = VerticalDb::build(&db);
        // Two appended rows: one over existing items, one introducing
        // item 4 ("M","s" exist; pretend a new value got id 4) and
        // unit 2.
        let rows = vec![(vec![0, 2], 0u32), (vec![1, 3, 4], 2u32)];
        v.append_rows(&rows, 5, 3).unwrap();
        assert_eq!(v.num_transactions(), 6);
        assert_eq!(v.num_units(), 3);
        assert_eq!(v.num_items(), 5);
        assert_eq!(v.units(), &[0, 0, 1, 1, 0, 2]);
        // Compare against rebuilding the concatenated data directly.
        let base = VerticalDb::build(&db);
        let mut tids: Vec<Vec<u32>> =
            (0..base.num_items()).map(|it| base.posting(it as ItemId).to_vec()).collect();
        tids.resize(5, Vec::new());
        for (i, (items, _)) in rows.iter().enumerate() {
            for &it in items {
                tids[it as usize].push(4 + i as u32);
            }
        }
        for (it, expected) in tids.iter().enumerate() {
            assert_eq!(&v.posting(it as ItemId).to_vec(), expected, "item {it}");
        }
    }

    #[test]
    fn append_rows_rejects_bad_batches_untouched() {
        let db = small_db();
        let mut v = VerticalDb::build(&db);
        let before_units = v.units().to_vec();
        // Unknown item, unknown unit, unsorted items, shrinking spaces.
        assert!(v.append_rows(&[(vec![9], 0)], 4, 2).is_err());
        assert!(v.append_rows(&[(vec![0], 7)], 4, 2).is_err());
        assert!(v.append_rows(&[(vec![2, 1], 0)], 4, 2).is_err());
        assert!(v.append_rows(&[], 1, 2).is_err());
        assert!(v.append_rows(&[], 4, 1).is_err());
        assert_eq!(v.num_transactions(), 4, "failed appends must not mutate");
        assert_eq!(v.units(), &before_units[..]);
    }

    #[test]
    fn remove_rows_matches_from_scratch_build() {
        // Remove an interior row (renumbering) and a suffix row (tail
        // surgery); both must equal a rebuild on the surviving rows.
        for removed in [vec![1u32], vec![3u32], vec![0u32, 2], vec![2u32, 3], vec![]] {
            let db = small_db();
            let mut v = VerticalDb::build(&db);
            v.remove_rows(&removed).unwrap();
            let survivors: Vec<usize> =
                (0..4).filter(|&t| !removed.contains(&(t as u32))).collect();
            assert_eq!(v.num_transactions(), survivors.len() as u32, "{removed:?}");
            let expected_units: Vec<u32> = survivors.iter().map(|&t| db.units()[t]).collect();
            assert_eq!(v.units(), &expected_units[..], "{removed:?}");
            for it in 0..v.num_items() {
                let base = VerticalDb::build(&db);
                let expected: Vec<u32> = base
                    .posting(it as ItemId)
                    .to_vec()
                    .into_iter()
                    .filter_map(|t| survivors.iter().position(|&s| s as u32 == t))
                    .map(|t| t as u32)
                    .collect();
                assert_eq!(v.posting(it as ItemId).to_vec(), expected, "{removed:?} item {it}");
            }
        }
        // Rename after an interior removal. Rows 0 and 1 leave: the M value
        // and unit u0 are dropped, and a rebuild on the survivors
        // `(F s u1), (F n u1)` interns F = 0, s = 1, n = 2 and u1 = 0.
        let mut v = VerticalDb::build(&small_db());
        v.remove_rows(&[0, 1]).unwrap();
        v.rename(&[Some(0), Some(2), None, Some(1)], &[None, Some(0)]);
        let schema = Schema::new(vec![Attribute::sa("g"), Attribute::ca("r")]).unwrap();
        let mut b = TransactionDbBuilder::new(schema);
        b.add_row(&[vec!["F"], vec!["s"]], "u1").unwrap();
        b.add_row(&[vec!["F"], vec!["n"]], "u1").unwrap();
        let rebuilt = VerticalDb::build(&b.finish());
        let bytes = |v: &VerticalDb| {
            let mut out = Vec::new();
            for posting in v.postings() {
                posting.write_slot(&mut out);
            }
            (out, v.units().to_vec(), v.num_transactions(), v.num_units(), v.num_items())
        };
        assert_eq!(bytes(&v), bytes(&rebuilt), "rename after an interior removal");
    }

    #[test]
    fn remove_rows_rejects_bad_input_untouched() {
        let db = small_db();
        let mut v = VerticalDb::build(&db);
        assert!(v.remove_rows(&[4]).is_err(), "out of range");
        assert!(v.remove_rows(&[1, 1]).is_err(), "duplicate");
        assert!(v.remove_rows(&[2, 1]).is_err(), "unsorted");
        assert_eq!(v.num_transactions(), 4, "failed removals must not mutate");
    }

    #[test]
    fn transactions_reconstruct_rows() {
        let db = small_db();
        let v = VerticalDb::build(&db);
        let mut row = vec![99];
        for t in 0..4 {
            v.row_into(t, &mut row);
            assert_eq!(row.as_slice(), db.transaction(t as usize), "row {t}");
        }
    }
}
