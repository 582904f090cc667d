//! Cube cell coordinates: the `(A, B)` itemset pair.

use scube_data::{ItemId, TransactionDb};

/// Coordinates of one cube cell.
///
/// `sa` is the minority definition (items over segregation attributes),
/// `ca` the context definition (items over context attributes); both are
/// sorted ascending. An empty side means "all ⋆" (fully rolled up on that
/// family of dimensions).
///
/// The derived `Ord` (lexicographic `sa`, then `ca`) is the **canonical
/// cell order**: snapshot serialization sorts by it, so byte-identical
/// snapshots depend on it staying field-ordered `sa` before `ca`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CellCoords {
    /// Sorted SA item ids (the minority subgroup `A`).
    pub sa: Vec<ItemId>,
    /// Sorted CA item ids (the context `B`).
    pub ca: Vec<ItemId>,
}

impl CellCoords {
    /// The apex cell `(⋆, ⋆)`.
    pub fn apex() -> Self {
        CellCoords::default()
    }

    /// Build from explicit (unsorted) parts.
    pub fn new(mut sa: Vec<ItemId>, mut ca: Vec<ItemId>) -> Self {
        sa.sort_unstable();
        ca.sort_unstable();
        CellCoords { sa, ca }
    }

    /// Split a sorted itemset into SA and CA parts using the database's
    /// attribute roles.
    pub fn from_itemset(items: &[ItemId], db: &TransactionDb) -> Self {
        Self::split_sorted(items, |item| db.is_sa_item(item))
    }

    /// Split a sorted itemset by an arbitrary SA predicate — the shared
    /// core of [`Self::from_itemset`] and the label-based splits used by
    /// builds that never materialize a [`TransactionDb`].
    pub fn split_sorted(items: &[ItemId], is_sa: impl Fn(ItemId) -> bool) -> Self {
        let mut coords = CellCoords::default();
        coords.split_sorted_into(items, is_sa);
        coords
    }

    /// [`Self::split_sorted`] into `self`, reusing its two buffers.
    pub(crate) fn split_sorted_into(&mut self, items: &[ItemId], is_sa: impl Fn(ItemId) -> bool) {
        self.sa.clear();
        self.ca.clear();
        for &item in items {
            if is_sa(item) {
                self.sa.push(item);
            } else {
                self.ca.push(item);
            }
        }
    }

    /// The union itemset `A ∪ B`, sorted.
    pub fn union(&self) -> Vec<ItemId> {
        let mut all: Vec<ItemId> = self.sa.iter().chain(self.ca.iter()).copied().collect();
        all.sort_unstable();
        all
    }

    /// Total number of fixed coordinates.
    pub fn len(&self) -> usize {
        self.sa.len() + self.ca.len()
    }

    /// True for the apex cell.
    pub fn is_empty(&self) -> bool {
        self.sa.is_empty() && self.ca.is_empty()
    }

    /// True when the minority side is `⋆` (no subgroup fixed).
    pub fn is_sa_star(&self) -> bool {
        self.sa.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scube_data::{Attribute, Schema, TransactionDbBuilder};

    #[test]
    fn splits_by_role() {
        let schema = Schema::new(vec![Attribute::sa("g"), Attribute::ca("r")]).unwrap();
        let mut b = TransactionDbBuilder::new(schema);
        b.add_row(&[vec!["F"], vec!["north"]], "u").unwrap();
        let db = b.finish();
        let items: Vec<ItemId> = db.transaction(0).to_vec();
        let c = CellCoords::from_itemset(&items, &db);
        assert_eq!(c.sa.len(), 1);
        assert_eq!(c.ca.len(), 1);
        assert_eq!(c.union(), items);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert!(!c.is_sa_star());
    }

    #[test]
    fn apex() {
        let a = CellCoords::apex();
        assert!(a.is_empty());
        assert!(a.is_sa_star());
        assert_eq!(a.union(), Vec::<ItemId>::new());
    }

    #[test]
    fn new_sorts() {
        let c = CellCoords::new(vec![5, 1], vec![9, 2]);
        assert_eq!(c.sa, vec![1, 5]);
        assert_eq!(c.ca, vec![2, 9]);
    }
}
