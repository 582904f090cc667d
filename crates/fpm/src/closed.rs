//! Closed-itemset filtering.
//!
//! An itemset is *closed* when no strict superset has the same support.
//! SCube materializes only closed itemsets in the cube (the tidset — and
//! therefore every index value — of a non-closed itemset equals that of its
//! closure), which compresses the cube losslessly.

use scube_common::FxHashMap;

use crate::itemset::FrequentItemset;

/// Keep only the closed itemsets of a mining result.
///
/// Supports are grouped first: a superset with *different* support can
/// never witness non-closedness, so each itemset is only checked against
/// the (few) longer itemsets in its own support bucket.
pub fn filter_closed(sets: &[FrequentItemset]) -> Vec<FrequentItemset> {
    let kept = closed_positions(sets.len(), |i| (&sets[i].items, sets[i].support));
    let mut out: Vec<FrequentItemset> = kept.into_iter().map(|i| sets[i].clone()).collect();
    crate::itemset::sort_canonical(&mut out);
    out
}

/// Indices of the closed entries among `n` itemsets described by `get`
/// (which returns `(sorted items, support)` for an index).
///
/// Generic over storage so callers that keep itemsets in their own shape
/// (e.g. the cube builder's per-subtree lists of emitted nodes) can filter
/// without cloning.
pub fn closed_positions<'a>(
    n: usize,
    get: impl Fn(usize) -> (&'a [scube_data::ItemId], u64),
) -> Vec<usize> {
    let mut by_support: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
    for i in 0..n {
        by_support.entry(get(i).1).or_default().push(i);
    }
    let mut kept = Vec::new();
    for bucket in by_support.values() {
        for &i in bucket {
            let (items, _) = get(i);
            let closed = !bucket.iter().any(|&j| {
                let (other, _) = get(j);
                other.len() > items.len() && crate::itemset::is_sorted_subset(items, other)
            });
            if closed {
                kept.push(i);
            }
        }
    }
    kept.sort_unstable();
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::db_from_sets;
    use crate::{naive, Miner};

    #[test]
    fn matches_definition_on_example() {
        let db = db_from_sets(&[&[0, 1, 2], &[0, 1], &[0, 2], &[0]]);
        let all = naive::mine(&db, 2).unwrap();
        let got = filter_closed(&all);
        let expected = naive::mine_closed(&db, 2).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn all_distinct_supports_means_all_closed() {
        let sets = vec![
            FrequentItemset::new(vec![0], 5),
            FrequentItemset::new(vec![1], 4),
            FrequentItemset::new(vec![0, 1], 3),
        ];
        assert_eq!(filter_closed(&sets).len(), 3);
    }

    #[test]
    fn equal_support_superset_subsumes() {
        let sets = vec![
            FrequentItemset::new(vec![0], 3),
            FrequentItemset::new(vec![0, 1], 3),
            FrequentItemset::new(vec![0, 1, 2], 3),
        ];
        let closed = filter_closed(&sets);
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].items, vec![0, 1, 2]);
    }

    #[test]
    fn closed_preserves_maximal_per_tidset() {
        // Via the trait on a richer database.
        let db = db_from_sets(&[&[0, 1, 2, 3], &[0, 1, 2], &[0, 1], &[2, 3], &[0, 3]]);
        let got = crate::FpGrowth.mine_closed(&db, 1).unwrap();
        let expected = naive::mine_closed(&db, 1).unwrap();
        assert_eq!(got, expected);
    }
}
