//! What the query engine ([`crate::serve::ConcurrentCubeEngine`]) is built
//! from and reports through: the tier counters ([`QueryStats`] /
//! [`AtomicQueryStats`]), name-to-coordinate resolution, top-k ranking, and
//! the bounded LRU its cache shards are made of. The three answer tiers —
//! materialized, cached, explored — are described in [`crate::serve`].

use std::sync::atomic::{AtomicU64, Ordering};

use scube_common::{FxHashMap, Result, ScubeError};
use scube_segindex::IndexValues;

use crate::coords::CellCoords;
use crate::cube::CubeLabels;

/// Default cell-cache capacity: generous for interactive sessions, small
/// next to any real cube.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Cells ranked by one index, descending: `(coords, values, index value)`.
pub type RankedCells = Vec<(CellCoords, IndexValues, f64)>;

/// Cumulative counters of which tier answered each query.
///
/// `materialized + cached + explored` counts point queries;
/// `breakdown_computed + breakdown_cached` counts unit-breakdown
/// drill-downs. This is the plain snapshot form; live engines accumulate
/// into an [`AtomicQueryStats`] so concurrent workers never lose updates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Answered from the materialized cell store.
    pub materialized: u64,
    /// Answered from the LRU cell cache.
    pub cached: u64,
    /// Recomputed from postings by the explorer.
    pub explored: u64,
    /// Unit breakdowns recomputed from postings.
    pub breakdown_computed: u64,
    /// Unit breakdowns served from already-stored per-unit data.
    pub breakdown_cached: u64,
}

impl QueryStats {
    /// Total point queries served.
    pub fn total(&self) -> u64 {
        self.materialized + self.cached + self.explored
    }

    /// Total unit-breakdown drill-downs served.
    pub fn breakdowns(&self) -> u64 {
        self.breakdown_computed + self.breakdown_cached
    }
}

/// [`QueryStats`] as relaxed atomic counters: shared by reference across
/// any number of serving threads; [`Self::load`] takes a plain snapshot.
#[derive(Debug, Default)]
pub struct AtomicQueryStats {
    materialized: AtomicU64,
    cached: AtomicU64,
    explored: AtomicU64,
    breakdown_computed: AtomicU64,
    breakdown_cached: AtomicU64,
}

impl AtomicQueryStats {
    /// Count a materialized-store hit.
    pub fn record_materialized(&self) {
        self.materialized.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a cell-cache hit.
    pub fn record_cached(&self) {
        self.cached.fetch_add(1, Ordering::Relaxed);
    }

    /// Count an explorer recomputation.
    pub fn record_explored(&self) {
        self.explored.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a recomputed unit breakdown.
    pub fn record_breakdown_computed(&self) {
        self.breakdown_computed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a breakdown served from stored per-unit data.
    pub fn record_breakdown_cached(&self) {
        self.breakdown_cached.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub fn load(&self) -> QueryStats {
        QueryStats {
            materialized: self.materialized.load(Ordering::Relaxed),
            cached: self.cached.load(Ordering::Relaxed),
            explored: self.explored.load(Ordering::Relaxed),
            breakdown_computed: self.breakdown_computed.load(Ordering::Relaxed),
            breakdown_cached: self.breakdown_cached.load(Ordering::Relaxed),
        }
    }
}

/// Resolve attribute/value names against cube labels, enforcing attribute
/// roles: a context attribute on the minority side (or vice versa) would
/// silently address a cell outside the cube's coordinate space, so it is an
/// error rather than a plausible-looking answer.
pub(crate) fn resolve_coords(
    labels: &CubeLabels,
    sa: &[(&str, &str)],
    ca: &[(&str, &str)],
) -> Result<CellCoords> {
    let lookup = |pairs: &[(&str, &str)], want_sa: bool| -> Result<Vec<_>> {
        pairs
            .iter()
            .map(|&(a, v)| {
                let item = labels.find_item(a, v).ok_or_else(|| {
                    ScubeError::InvalidParameter(format!("unknown coordinate {a}={v}"))
                })?;
                if labels.is_sa_item(item) != want_sa {
                    let (is, should) = if want_sa {
                        ("a context attribute", "--ca")
                    } else {
                        ("a segregation attribute", "--sa")
                    };
                    return Err(ScubeError::InvalidParameter(format!(
                        "{a} is {is}; move {a}={v} to the {should} side"
                    )));
                }
                Ok(item)
            })
            .collect()
    };
    Ok(CellCoords::new(lookup(sa, true)?, lookup(ca, false)?))
}

/// Total per-unit triples a breakdown cache may retain. Breakdown values
/// are `Vec`s up to `n_units` long — orders of magnitude bigger than the
/// cell cache's fixed-size [`IndexValues`] — so the cache is budgeted by
/// retained triples (~24 MiB worst case), not by entry count. Since the
/// PR-4 audit the budget is enforced by **exact** per-entry weights (each
/// entry weighs its own triple count, tracked by [`LruCache`]'s
/// `used_weight` counter) rather than by dividing the budget by the
/// worst-case breakdown length — short breakdowns no longer waste
/// capacity, and the counter is decremented for every eviction and
/// replacement (budget-exactness regression tests pin this).
pub(crate) const BREAKDOWN_TRIPLE_BUDGET: usize = 1 << 20;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct LruEntry<K, V> {
    key: K,
    value: V,
    weight: usize,
    prev: usize,
    next: usize,
}

/// A bounded least-recently-used cache over a slab + intrusive list,
/// bounded two ways: by entry count (`capacity`) and by total entry
/// *weight* (`weight_budget`; unlimited unless configured, weight 1 per
/// entry unless given). The breakdown caches weigh entries by their
/// retained triples, so the byte budget is enforced **exactly**: the
/// running `used_weight` counter is decremented for every evicted entry
/// and every in-place replacement — any drift would permanently shrink (or
/// overrun) the effective capacity, which the budget-exactness tests pin
/// down.
///
/// `get` and `insert` are O(1) amortized; evicted slots recycle through a
/// free list, so once warm the cache never allocates. Capacity 0 disables
/// it entirely. Each cache shard of [`crate::serve::ConcurrentCubeEngine`]
/// owns one behind its own lock.
#[derive(Debug)]
pub(crate) struct LruCache<K, V> {
    map: FxHashMap<K, usize>,
    entries: Vec<Option<LruEntry<K, V>>>,
    free: Vec<usize>,
    capacity: usize,
    weight_budget: usize,
    used_weight: usize,
    head: usize,
    tail: usize,
}

impl<K: std::hash::Hash + Eq + Clone, V> LruCache<K, V> {
    pub(crate) fn new(capacity: usize) -> Self {
        Self::with_budget(capacity, usize::MAX)
    }

    /// A cache bounded by `capacity` entries *and* `weight_budget` total
    /// weight (whichever bites first).
    pub(crate) fn with_budget(capacity: usize, weight_budget: usize) -> Self {
        LruCache {
            map: scube_common::hash::fx_map_with_capacity(capacity.min(1 << 20)),
            entries: Vec::new(),
            free: Vec::new(),
            capacity,
            weight_budget,
            used_weight: 0,
            head: NIL,
            tail: NIL,
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len()
    }

    /// Total weight of the live entries, as tracked incrementally.
    #[cfg(test)]
    pub(crate) fn used_weight(&self) -> usize {
        self.used_weight
    }

    /// Recompute the live weight from scratch and compare with the
    /// tracked counter — the budget-exactness invariant.
    #[cfg(test)]
    pub(crate) fn weight_invariant_holds(&self) -> bool {
        let live: usize = self.entries.iter().flatten().map(|e| e.weight).sum();
        let linked = self.entries.iter().flatten().count();
        live == self.used_weight && linked == self.map.len()
    }

    fn entry(&self, i: usize) -> &LruEntry<K, V> {
        self.entries[i].as_ref().expect("linked slot is occupied")
    }

    fn entry_mut(&mut self, i: usize) -> &mut LruEntry<K, V> {
        self.entries[i].as_mut().expect("linked slot is occupied")
    }

    /// Unlink `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.entry(i).prev, self.entry(i).next);
        match prev {
            NIL => self.head = next,
            p => self.entry_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.entry_mut(n).prev = prev,
        }
    }

    /// Link `i` at the head (most recent).
    fn link_front(&mut self, i: usize) {
        self.entry_mut(i).prev = NIL;
        self.entry_mut(i).next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.entry_mut(h).prev = i,
        }
        self.head = i;
    }

    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
    }

    /// Evict the least-recently-used entry, returning its slot to the free
    /// list and its weight to the budget.
    fn evict_tail(&mut self) {
        let i = self.tail;
        debug_assert_ne!(i, NIL, "evict_tail on an empty cache");
        self.unlink(i);
        let e = self.entries[i].take().expect("tail slot is occupied");
        self.map.remove(&e.key);
        self.used_weight -= e.weight;
        self.free.push(i);
    }

    /// Evict from the tail until the weight budget is respected. The entry
    /// just inserted or refreshed sits at the head, so it goes last — and
    /// even it is evicted when it alone exceeds the budget.
    fn enforce_budget(&mut self) {
        while self.used_weight > self.weight_budget && self.tail != NIL {
            self.evict_tail();
        }
    }

    pub(crate) fn get(&mut self, key: &K) -> Option<&V> {
        let i = *self.map.get(key)?;
        self.touch(i);
        Some(&self.entry(i).value)
    }

    pub(crate) fn insert(&mut self, key: K, value: V) {
        self.insert_weighted(key, value, 1);
    }

    /// Insert `key → value` carrying `weight` units of the budget,
    /// evicting least-recently-used entries until both bounds hold.
    pub(crate) fn insert_weighted(&mut self, key: K, value: V, weight: usize) {
        if self.capacity == 0 || self.weight_budget == 0 {
            return;
        }
        if let Some(&i) = self.map.get(&key) {
            let e = self.entry_mut(i);
            let old = e.weight;
            e.value = value;
            e.weight = weight;
            self.used_weight = self.used_weight - old + weight;
            self.touch(i);
            self.enforce_budget();
            return;
        }
        if self.map.len() == self.capacity {
            self.evict_tail();
        }
        let entry = LruEntry { key: key.clone(), value, weight, prev: NIL, next: NIL };
        let i = match self.free.pop() {
            Some(i) => {
                self.entries[i] = Some(entry);
                i
            }
            None => {
                self.entries.push(Some(entry));
                self.entries.len() - 1
            }
        };
        self.map.insert(key, i);
        self.link_front(i);
        self.used_weight += weight;
        self.enforce_budget();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(&10)); // 1 now most recent
        c.insert(3, 30); // evicts 2
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(&10));
        assert_eq!(c.get(&3), Some(&30));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_update_in_place() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(1, 11);
        assert_eq!(c.get(&1), Some(&11));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_capacity_zero_disabled() {
        let mut c: LruCache<u32, u32> = LruCache::new(0);
        c.insert(1, 10);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn lru_single_slot() {
        let mut c: LruCache<u32, u32> = LruCache::new(1);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&2), Some(&20));
        c.insert(3, 30);
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&3), Some(&30));
    }

    #[test]
    fn lru_eviction_order_under_churn() {
        let mut c: LruCache<u32, u32> = LruCache::new(3);
        for k in 0..10 {
            c.insert(k, k * 10);
        }
        // Only the last three survive.
        for k in 0..7 {
            assert_eq!(c.get(&k), None, "{k}");
        }
        for k in 7..10 {
            assert_eq!(c.get(&k), Some(&(k * 10)), "{k}");
        }
    }

    #[test]
    fn weighted_budget_evicts_exactly() {
        let mut c: LruCache<u32, u32> = LruCache::with_budget(100, 10);
        c.insert_weighted(1, 10, 4);
        c.insert_weighted(2, 20, 4);
        assert_eq!(c.used_weight(), 8);
        // 4 + 4 + 5 > 10: the least-recent entry (1) must go.
        c.insert_weighted(3, 30, 5);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.used_weight(), 9);
        assert!(c.weight_invariant_holds());
        // Replacing in place swaps the weight, not accumulates it.
        c.insert_weighted(3, 31, 2);
        assert_eq!(c.used_weight(), 6);
        assert_eq!(c.get(&3), Some(&31));
        assert!(c.weight_invariant_holds());
        // An entry heavier than the whole budget cannot reside at all.
        c.insert_weighted(4, 40, 11);
        assert_eq!(c.get(&4), None);
        assert!(c.weight_invariant_holds());
        assert_eq!(c.used_weight(), 0, "oversized insert evicts everything, counts nothing");
        // Zero budget disables the cache entirely.
        let mut d: LruCache<u32, u32> = LruCache::with_budget(100, 0);
        d.insert_weighted(1, 10, 1);
        assert_eq!(d.get(&1), None);
    }

    #[test]
    fn budget_accounting_is_exact_under_churn() {
        // The audit scenario: the tracked used_weight must equal the sum
        // of live entry weights after arbitrary interleavings of inserts,
        // replacements, capacity evictions and budget evictions — any
        // drift would permanently shrink (or overrun) the effective cache
        // capacity.
        let mut c: LruCache<u32, u32> = LruCache::with_budget(8, 64);
        for round in 0..400u32 {
            let k = round % 13;
            c.insert_weighted(k, round, 1 + (round as usize * 7) % 23);
            assert!(c.weight_invariant_holds(), "round {round}: insert drifted");
            assert!(c.used_weight() <= 64, "round {round}: budget overrun");
            if round % 5 == 0 {
                c.get(&(round % 7));
            }
        }
    }

    #[test]
    fn atomic_stats_roundtrip() {
        let stats = AtomicQueryStats::default();
        stats.record_materialized();
        stats.record_materialized();
        stats.record_cached();
        stats.record_explored();
        stats.record_breakdown_computed();
        stats.record_breakdown_cached();
        let snap = stats.load();
        assert_eq!(
            snap,
            QueryStats {
                materialized: 2,
                cached: 1,
                explored: 1,
                breakdown_computed: 1,
                breakdown_cached: 1,
            }
        );
        assert_eq!(snap.total(), 4);
        assert_eq!(snap.breakdowns(), 2);
    }
}
