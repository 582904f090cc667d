//! Canonical frequent-itemset records.

use scube_data::ItemId;

/// An itemset with its absolute support.
///
/// Items are stored sorted ascending by id, which makes itemsets directly
/// comparable and hashable, the miner's against the oracle's.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FrequentItemset {
    /// Sorted item ids.
    pub items: Vec<ItemId>,
    /// Number of transactions containing all the items.
    pub support: u64,
}

impl FrequentItemset {
    /// Create from already-sorted items.
    pub fn new(items: Vec<ItemId>, support: u64) -> Self {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "items must be sorted unique");
        FrequentItemset { items, support }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True for the empty itemset.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Is `self` a (non-strict) subset of `other`? Both sides sorted.
    pub fn is_subset_of(&self, other: &FrequentItemset) -> bool {
        is_sorted_subset(&self.items, &other.items)
    }
}

/// Subset test on sorted unique slices.
pub fn is_sorted_subset(small: &[ItemId], big: &[ItemId]) -> bool {
    let mut j = 0;
    for &x in small {
        loop {
            if j == big.len() {
                return false;
            }
            match big[j].cmp(&x) {
                std::cmp::Ordering::Less => j += 1,
                std::cmp::Ordering::Equal => {
                    j += 1;
                    break;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
    }
    true
}

/// Sort a result set into the canonical order used for equality checks:
/// by length, then lexicographically by items.
pub fn sort_canonical(sets: &mut [FrequentItemset]) {
    sets.sort_by(|a, b| a.items.len().cmp(&b.items.len()).then_with(|| a.items.cmp(&b.items)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_tests() {
        assert!(is_sorted_subset(&[], &[1, 2]));
        assert!(is_sorted_subset(&[2], &[1, 2, 3]));
        assert!(is_sorted_subset(&[1, 3], &[1, 2, 3]));
        assert!(!is_sorted_subset(&[1, 4], &[1, 2, 3]));
        assert!(!is_sorted_subset(&[0], &[1]));
        assert!(!is_sorted_subset(&[1, 2], &[2]));
    }

    #[test]
    fn canonical_sorting() {
        let mut v = vec![
            FrequentItemset::new(vec![2], 5),
            FrequentItemset::new(vec![1, 2], 3),
            FrequentItemset::new(vec![1], 6),
        ];
        sort_canonical(&mut v);
        assert_eq!(v[0].items, vec![1]);
        assert_eq!(v[1].items, vec![2]);
        assert_eq!(v[2].items, vec![1, 2]);
    }

    #[test]
    fn itemset_basics() {
        let s = FrequentItemset::new(vec![1, 5, 9], 4);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(FrequentItemset::new(vec![], 10).is_empty());
        assert!(FrequentItemset::new(vec![5], 4).is_subset_of(&s));
    }
}
