//! Eclat: depth-first vertical mining over tidset intersections.
//!
//! One DFS serves every caller: [`walk`] visits the prefix subtree of one
//! frequent root and hands each node to a callback once its extensions are
//! joined. The callback borrows the node's tidset, and the DFS drops it as
//! soon as the callback returns (its children hold their own), so a walk
//! holds at most one root-to-leaf path of extension lists at a time.
//! Collecting into a `Vec` ([`mine_vertical_with_tidsets`]) is one such
//! callback. A parallel caller fans the root indices out itself
//! (the cube builder does, through [`scube_common::par`]): subtrees share
//! nothing but the read-only roots.
//!
//! The walk's tidsets are dense words, not [`EwahBitmap`]s. A mined tidset
//! is a random set of middling density with no runs to compress, so EWAH
//! would store a marker every one or two words and pay for it in every
//! join; plain `u64` words intersect and popcount in one unrolled loop. The
//! root's posting is decoded once per walk, and every later tidset is a
//! subset of it, so each node holds as many words as the root's highest id
//! needs. The root's joins AND a copy of its words with each later root's
//! posting in place ([`EwahBitmap::and_words_into`]). Below the root, a
//! candidate is counted first ([`and_popcount_words`]) and only a frequent
//! join is materialised, into an exact-length `Vec`; no join keeps a
//! scratch buffer.
//!
//! Root order is the caller's: any order of [`frequent_roots`] visits the
//! same itemsets with the same tidsets, only along different paths. Each
//! itemset is reached once, with its items in root order, so every prefix of
//! it in that order is an ancestor node.

use scube_bitmap::kernels::and_popcount_words;
use scube_bitmap::EwahBitmap;
use scube_common::Result;
use scube_data::{ItemId, TransactionDb, VerticalDb};

use crate::itemset::FrequentItemset;
use crate::validate_min_support;

/// A tidset of the walk: dense words (bit `b` of word `i` is tid
/// `64·i + b`) and its cached cardinality.
#[derive(Debug, Default)]
pub struct Tids {
    /// The bit vector, one word per 64 tids.
    pub words: Vec<u64>,
    /// Number of set bits in `words`.
    pub card: u64,
}

/// One node of the DFS, as handed to the callback of [`walk`].
#[derive(Debug)]
pub struct Node<'a> {
    /// The itemset in root order: the path of items from its root.
    pub items: &'a [ItemId],
    /// Its tidset as dense words (see [`Tids`]).
    pub tids: &'a [u64],
    /// Its support: the number of set bits in `tids`.
    pub support: u64,
    /// Its frequent one-item extensions `items ∪ {e}` (every `e` later in
    /// root order) with their tidsets: the node's children, visited next.
    pub extensions: &'a [(ItemId, Tids)],
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
/// `min_support` (in any order). The first error the callback returns stops
/// the walk and is returned.
pub fn walk(
    roots: &[(ItemId, &EwahBitmap)],
    root: usize,
    min_support: u64,
    emit: &mut impl FnMut(Node<'_>) -> Result<()>,
) -> Result<()> {
    let (item, posting) = roots[root];
    let span = posting.max_id().map_or(0, |max| max / 64 + 1) as usize;
    let mut words = vec![0; span];
    posting.decode_words_into(&mut words);
    // The later roots are still postings: each join ANDs a copy of the
    // root's words with one in place, and keeps it when frequent.
    let extensions: Vec<(ItemId, Tids)> = roots[root + 1..]
        .iter()
        .filter_map(|&(jt, jposting)| {
            let mut joined = words.clone();
            let card = jposting.and_words_into(&mut joined);
            (card >= min_support).then_some((jt, Tids { words: joined, card }))
        })
        .collect();
    let mut prefix = vec![item];
    let support = posting.cardinality();
    emit(Node { items: &prefix, tids: &words, support, extensions: &extensions })?;
    drop(words);
    descend(extensions, min_support, &mut prefix, emit)
}

/// [`walk`] every root in order, serially.
fn walk_all(
    roots: &[(ItemId, &EwahBitmap)],
    min_support: u64,
    mut emit: impl FnMut(Node<'_>) -> Result<()>,
) -> Result<()> {
    (0..roots.len()).try_for_each(|root| walk(roots, root, min_support, &mut emit))
}

/// The node body: join `tids` against each later candidate, keeping the
/// frequent results. Each candidate is counted first by the fused
/// AND-popcount, with no output, so an infrequent one — the overwhelming
/// majority deep in the search — costs no allocation; only a survivor is
/// intersected again, into an exact-length vector.
fn join_extensions(tids: &[u64], rest: &[(ItemId, Tids)], min_support: u64) -> Vec<(ItemId, Tids)> {
    rest.iter()
        .filter_map(|(jt, other)| {
            let card = and_popcount_words(tids, &other.words);
            (card >= min_support).then(|| {
                let words = tids.iter().zip(&other.words).map(|(x, y)| x & y).collect();
                (*jt, Tids { words, card })
            })
        })
        .collect()
}

/// Visit each candidate of one extension list and its subtree in turn. A
/// candidate's tidset is dropped once it is emitted, its extensions being
/// joined already, so of this list only the later siblings' tidsets stay
/// live below it.
fn descend(
    mut candidates: Vec<(ItemId, Tids)>,
    min_support: u64,
    prefix: &mut Vec<ItemId>,
    emit: &mut impl FnMut(Node<'_>) -> Result<()>,
) -> Result<()> {
    for i in 0..candidates.len() {
        let extensions = join_extensions(&candidates[i].1.words, &candidates[i + 1..], min_support);
        let Tids { words, card } = std::mem::take(&mut candidates[i].1);
        prefix.push(candidates[i].0);
        emit(Node { items: prefix, tids: &words, support: card, extensions: &extensions })?;
        drop(words);
        descend(extensions, min_support, prefix, emit)?;
        prefix.pop();
    }
    Ok(())
}

/// Every frequent itemset of `db` with its tidset: the collecting miner,
/// [`mine_vertical_with_tidsets`] over `db`'s vertical database.
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
/// sets sorted by length, then items), each tidset encoded back to its
/// canonical [`EwahBitmap`].
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
            FrequentItemset { items, support: node.support },
            EwahBitmap::from_words(node.tids),
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
    use crate::testutil::{collect, db_from_sets};
    use scube_data::{Attribute, Schema, TransactionDbBuilder};

    #[test]
    fn matches_naive() {
        let db = db_from_sets(&[&[0, 1, 2], &[0, 1], &[0, 2], &[0], &[1, 2, 3]]);
        for minsup in 1..=3 {
            let expected = crate::naive::mine(&db, minsup).unwrap();
            assert_eq!(collect(&db, minsup), expected, "minsup {minsup}");
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

    /// The ids of a dense tidset, ascending.
    fn ids(words: &[u64]) -> Vec<u32> {
        let mut ids = Vec::new();
        scube_bitmap::kernels::for_each_set_bit(words, 0, |id| ids.push(id));
        ids
    }

    #[test]
    fn walk_visits_the_collected_itemsets_under_both_root_orders() {
        let db = roles_db();
        let vertical = VerticalDb::build(&db);
        for minsup in [1, 3, 8, 20] {
            let mined = mine_vertical_with_tidsets(&vertical, minsup).unwrap();
            // Each collected tidset is the canonical encoding of its set:
            // the bytes a from-scratch build would store.
            for (set, tids) in &mined {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                tids.write_slot(&mut got);
                EwahBitmap::from_sorted(&tids.to_vec()).write_slot(&mut want);
                assert_eq!(got, want, "minsup {minsup}: {:?}", set.items);
            }
            let collected: Vec<(Vec<ItemId>, Vec<u32>)> =
                mined.into_iter().map(|(set, tids)| (set.items, tids.to_vec())).collect();
            let by_support = frequent_roots(&vertical, minsup).unwrap();
            // The cube builder's order: CA items first, ascending support
            // within each role (a stable sort keeps the support order).
            let mut ca_first = by_support.clone();
            ca_first.sort_by_key(|(it, _)| db.is_sa_item(*it));
            assert!(ca_first.iter().map(|r| r.0).ne(by_support.iter().map(|r| r.0)));
            for (order, roots) in [("support", &by_support), ("ca-first", &ca_first)] {
                let rank = |it: ItemId| roots.iter().position(|r| r.0 == it).unwrap();
                let mut visited = Vec::new();
                for root in 0..roots.len() {
                    walk(roots, root, minsup, &mut |node| {
                        // Items arrive in root order, the support is the
                        // tidset's size, and the extensions are exactly the
                        // later items whose join is frequent.
                        assert!(node.items.windows(2).all(|w| rank(w[0]) < rank(w[1])));
                        let tids = ids(node.tids);
                        assert_eq!(node.support, tids.len() as u64, "{order}: {:?}", node.items);
                        let last = rank(*node.items.last().unwrap());
                        let want: Vec<(ItemId, Vec<u32>)> = roots[last + 1..]
                            .iter()
                            .map(|&(e, posting)| {
                                (
                                    e,
                                    scube_bitmap::reference::intersect_sorted(
                                        &tids,
                                        &posting.to_vec(),
                                    ),
                                )
                            })
                            .filter(|(_, tids)| tids.len() as u64 >= minsup)
                            .collect();
                        let got: Vec<(ItemId, Vec<u32>)> =
                            node.extensions.iter().map(|(e, t)| (*e, ids(&t.words))).collect();
                        assert_eq!(got, want, "{order} minsup {minsup}: {:?}", node.items);
                        for (e, t) in node.extensions {
                            assert_eq!(t.card, ids(&t.words).len() as u64, "{order}: {e}");
                        }
                        let mut items = node.items.to_vec();
                        items.sort_unstable();
                        visited.push((items, tids));
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
