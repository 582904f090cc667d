//! Eclat: depth-first vertical mining over tidset intersections.
//!
//! One DFS serves every caller: [`walk`] visits the prefix subtree of one
//! frequent root and hands each node to a callback once its extensions are
//! joined. The node's tidset is *moved* into the callback (the DFS is done
//! intersecting it), so a caller that folds and drops each tidset holds at
//! most one root-to-leaf path of extension lists at a time. Collecting into
//! a `Vec` ([`mine_vertical_with_tidsets`], [`Eclat::mine`]) is one such
//! callback. A parallel caller fans the root indices out itself (the cube
//! builder does, through [`scube_common::par`]): subtrees share nothing but
//! the read-only roots.
//!
//! Root order is the caller's: any order of [`frequent_roots`] visits the
//! same itemsets with the same tidsets, only along different paths. Each
//! itemset is reached once, with its items in root order, so every prefix of
//! it in that order is an ancestor node.

use std::borrow::{Borrow, Cow};

use scube_bitmap::EwahBitmap;
use scube_common::Result;
use scube_data::{ItemId, TransactionDb, VerticalDb};

use crate::itemset::{sort_canonical, FrequentItemset};
use crate::{validate_min_support, Miner};

/// The Eclat miner.
#[derive(Debug, Clone, Copy, Default)]
pub struct Eclat;

impl Miner for Eclat {
    fn name(&self) -> &'static str {
        "eclat"
    }

    fn mine(&self, db: &TransactionDb, min_support: u64) -> Result<Vec<FrequentItemset>> {
        let vertical = VerticalDb::build(db);
        let roots = frequent_roots(&vertical, min_support)?;
        let mut out = Vec::new();
        walk_all(&roots, min_support, |node| {
            let mut items = node.items.to_vec();
            items.sort_unstable();
            out.push(FrequentItemset { items, support: node.tids.cardinality() });
            Ok(())
        })?;
        sort_canonical(&mut out);
        Ok(out)
    }
}

/// One node of the DFS, as handed to the callback of [`walk`].
#[derive(Debug)]
pub struct Node<'a> {
    /// The itemset in root order: the path of items from its root.
    pub items: &'a [ItemId],
    /// Its tidset. The DFS is done intersecting it, so the callback may keep
    /// or drop it; a root's is borrowed, since it is the item's posting.
    pub tids: Cow<'a, EwahBitmap>,
    /// Its frequent one-item extensions `items ∪ {e}` (every `e` later in
    /// root order) with their tidsets: the node's children, visited next.
    pub extensions: &'a [(ItemId, EwahBitmap)],
}

/// Frequent single items with their postings, ascending support (smaller
/// tidsets first keeps intermediate intersections small). A caller may
/// reorder them before [`walk`]ing: the itemsets visited stay the same.
pub fn frequent_roots(
    vertical: &VerticalDb,
    min_support: u64,
) -> Result<Vec<(ItemId, &EwahBitmap)>> {
    validate_min_support(min_support)?;
    let mut roots: Vec<(ItemId, &EwahBitmap)> = (0..vertical.num_items() as ItemId)
        .map(|it| (it, vertical.posting(it)))
        .filter(|(_, posting)| posting.cardinality() >= min_support)
        .collect();
    roots.sort_by_key(|(it, p)| (p.cardinality(), *it));
    Ok(roots)
}

/// Visit the prefix subtree of `roots[root]` depth-first, emitting each node
/// before its children. `roots` must come from [`frequent_roots`] at the same
/// `min_support` (in any order); `scratch` is a reusable join buffer. The
/// first error the callback returns stops the walk and is returned.
pub fn walk(
    roots: &[(ItemId, &EwahBitmap)],
    root: usize,
    min_support: u64,
    scratch: &mut EwahBitmap,
    emit: &mut impl FnMut(Node<'_>) -> Result<()>,
) -> Result<()> {
    let (item, tids) = roots[root];
    let extensions = join_extensions(tids, &roots[root + 1..], min_support, scratch);
    let mut prefix = vec![item];
    emit(Node { items: &prefix, tids: Cow::Borrowed(tids), extensions: &extensions })?;
    descend(extensions, min_support, &mut prefix, scratch, emit)
}

/// [`walk`] every root in order, serially.
fn walk_all(
    roots: &[(ItemId, &EwahBitmap)],
    min_support: u64,
    mut emit: impl FnMut(Node<'_>) -> Result<()>,
) -> Result<()> {
    let mut scratch = EwahBitmap::default();
    (0..roots.len()).try_for_each(|root| walk(roots, root, min_support, &mut scratch, &mut emit))
}

/// The node body: join `tids` against each later candidate, keeping the
/// frequent results. Every intersection lands in the caller-owned `scratch`
/// buffer via the `and_into` kernel, so infrequent candidates — the
/// overwhelming majority deep in the search — cost no allocation at all;
/// only survivors are cloned out. Reserves the worst case up front (no
/// regrowth in the hot loop) but gives sparsely-filled vectors back before
/// they are held across a whole subtree recursion.
fn join_extensions(
    tids: &EwahBitmap,
    rest: &[(ItemId, impl Borrow<EwahBitmap>)],
    min_support: u64,
    scratch: &mut EwahBitmap,
) -> Vec<(ItemId, EwahBitmap)> {
    let mut extensions: Vec<(ItemId, EwahBitmap)> = Vec::with_capacity(rest.len());
    for (jt, jtids) in rest {
        tids.and_into(jtids.borrow(), scratch);
        if scratch.cardinality() >= min_support {
            extensions.push((*jt, scratch.clone()));
        }
    }
    if extensions.len() * 4 <= extensions.capacity() {
        extensions.shrink_to_fit();
    }
    extensions
}

/// Visit each candidate of one extension list and its subtree in turn. A
/// candidate's tidset is moved into the callback once its own extensions are
/// joined, so of this list only the later siblings' tidsets stay live.
fn descend(
    mut candidates: Vec<(ItemId, EwahBitmap)>,
    min_support: u64,
    prefix: &mut Vec<ItemId>,
    scratch: &mut EwahBitmap,
    emit: &mut impl FnMut(Node<'_>) -> Result<()>,
) -> Result<()> {
    for i in 0..candidates.len() {
        let extensions =
            join_extensions(&candidates[i].1, &candidates[i + 1..], min_support, scratch);
        let tids = std::mem::take(&mut candidates[i].1);
        prefix.push(candidates[i].0);
        emit(Node { items: prefix, tids: Cow::Owned(tids), extensions: &extensions })?;
        descend(extensions, min_support, prefix, scratch, emit)?;
        prefix.pop();
    }
    Ok(())
}

/// Eclat that also returns each itemset's tidset.
pub fn mine_with_tidsets(
    db: &TransactionDb,
    min_support: u64,
) -> Result<Vec<(FrequentItemset, EwahBitmap)>> {
    validate_min_support(min_support)?;
    let vertical = VerticalDb::build(db);
    mine_vertical_with_tidsets(&vertical, min_support)
}

/// As [`mine_with_tidsets`], over a pre-built vertical database: every node
/// of the DFS collected, in canonical form (items ascending within each set,
/// sets sorted by length, then items).
pub fn mine_vertical_with_tidsets(
    vertical: &VerticalDb,
    min_support: u64,
) -> Result<Vec<(FrequentItemset, EwahBitmap)>> {
    let roots = frequent_roots(vertical, min_support)?;
    let mut out = Vec::new();
    walk_all(&roots, min_support, |node| {
        let mut items = node.items.to_vec();
        items.sort_unstable();
        out.push((
            FrequentItemset { items, support: node.tids.cardinality() },
            node.tids.into_owned(),
        ));
        Ok(())
    })?;
    out.sort_by(|a, b| {
        a.0.items.len().cmp(&b.0.items.len()).then_with(|| a.0.items.cmp(&b.0.items))
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::db_from_sets;
    use scube_data::{Attribute, Schema, TransactionDbBuilder};

    #[test]
    fn matches_naive() {
        let db = db_from_sets(&[&[0, 1, 2], &[0, 1], &[0, 2], &[0], &[1, 2, 3]]);
        for minsup in 1..=3 {
            let got = Eclat.mine(&db, minsup).unwrap();
            let expected = crate::naive::mine(&db, minsup).unwrap();
            assert_eq!(got, expected, "minsup {minsup}");
        }
    }

    #[test]
    fn tidsets_are_correct() {
        let db = db_from_sets(&[&[0, 1], &[0], &[0, 1], &[1]]);
        let result = mine_with_tidsets(&db, 1).unwrap();
        for (set, tids) in &result {
            assert_eq!(set.support, tids.cardinality());
            // Verify against a direct scan.
            let mut expected = Vec::new();
            for (t, (items, _)) in db.iter().enumerate() {
                if crate::itemset::is_sorted_subset(&set.items, items) {
                    expected.push(t as u32);
                }
            }
            assert_eq!(tids.to_vec(), expected, "itemset {:?}", set.items);
        }
    }

    #[test]
    fn rejects_zero_min_support() {
        let db = db_from_sets(&[&[0]]);
        assert!(Eclat.mine(&db, 0).is_err());
        assert!(mine_with_tidsets(&db, 0).is_err());
        assert!(frequent_roots(&VerticalDb::build(&db), 0).is_err());
    }

    /// 60 rows over two SA and two CA attributes (one multi-valued), from a
    /// fixed LCG: enough shared structure for deep, uneven subtrees.
    fn roles_db() -> TransactionDb {
        let schema = Schema::new(vec![
            Attribute::sa("sex"),
            Attribute::ca("region"),
            Attribute::sa("age"),
            Attribute::ca("sector").multi(),
        ])
        .unwrap();
        let mut b = TransactionDbBuilder::new(schema);
        let mut state = 0x9e37_79b9_u64;
        let mut next = |n: u64| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((state >> 33) % n) as usize
        };
        for _ in 0..60 {
            let mut sector = vec![["agri", "edu", "retail"][next(3)]];
            if next(2) == 0 {
                sector.push("energy");
            }
            let row = [
                vec![["F", "M"][next(2)]],
                vec![["north", "south"][next(2)]],
                vec![["young", "old"][next(2)]],
                sector,
            ];
            b.add_row(&row, "u").unwrap();
        }
        b.finish()
    }

    #[test]
    fn walk_visits_the_collected_itemsets_under_both_root_orders() {
        let db = roles_db();
        let vertical = VerticalDb::build(&db);
        for minsup in [1, 3, 8, 20] {
            let collected: Vec<(Vec<ItemId>, Vec<u32>)> =
                mine_vertical_with_tidsets(&vertical, minsup)
                    .unwrap()
                    .into_iter()
                    .map(|(set, tids)| (set.items, tids.to_vec()))
                    .collect();
            let by_support = frequent_roots(&vertical, minsup).unwrap();
            // The cube builder's order: CA items first, ascending support
            // within each role (a stable sort keeps the support order).
            let mut ca_first = by_support.clone();
            ca_first.sort_by_key(|(it, _)| db.is_sa_item(*it));
            assert!(ca_first.iter().map(|r| r.0).ne(by_support.iter().map(|r| r.0)));
            for (order, roots) in [("support", &by_support), ("ca-first", &ca_first)] {
                let rank = |it: ItemId| roots.iter().position(|r| r.0 == it).unwrap();
                let mut visited = Vec::new();
                let mut scratch = EwahBitmap::default();
                for root in 0..roots.len() {
                    walk(roots, root, minsup, &mut scratch, &mut |node| {
                        // Items arrive in root order, and the extensions are
                        // exactly the later items whose join is frequent.
                        assert!(node.items.windows(2).all(|w| rank(w[0]) < rank(w[1])));
                        let last = rank(*node.items.last().unwrap());
                        let want: Vec<(ItemId, Vec<u32>)> = roots[last + 1..]
                            .iter()
                            .map(|&(e, posting)| (e, node.tids.and(posting).to_vec()))
                            .filter(|(_, tids)| tids.len() as u64 >= minsup)
                            .collect();
                        let got: Vec<(ItemId, Vec<u32>)> =
                            node.extensions.iter().map(|(e, t)| (*e, t.to_vec())).collect();
                        assert_eq!(got, want, "{order} minsup {minsup}: {:?}", node.items);
                        let mut items = node.items.to_vec();
                        items.sort_unstable();
                        visited.push((items, node.tids.to_vec()));
                        Ok(())
                    })
                    .unwrap();
                }
                visited.sort_by(|a, b| a.0.len().cmp(&b.0.len()).then_with(|| a.0.cmp(&b.0)));
                assert_eq!(visited, collected, "{order} minsup {minsup}");
            }
        }
    }

    #[test]
    fn walk_stops_at_the_first_error() {
        let db = roles_db();
        let vertical = VerticalDb::build(&db);
        let roots = frequent_roots(&vertical, 3).unwrap();
        let mut visits = 0;
        let err = walk_all(&roots, 3, |_| {
            visits += 1;
            if visits == 2 {
                return Err(scube_common::ScubeError::Inconsistent("stop".into()));
            }
            Ok(())
        });
        assert!(err.is_err());
        assert_eq!(visits, 2);
    }
}
