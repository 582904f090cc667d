//! Eclat: depth-first vertical mining over tidset intersections.
//!
//! The DFS owns its candidate lists, so a node's tidset is *moved* into the
//! output once its extensions are computed (no per-node clone), and the
//! tidset-carrying entry point has a parallel twin that fans the first-level
//! equivalence classes (one frequent item's prefix subtree each) out through
//! [`scube_common::par`]. Workers claim subtrees dynamically and the
//! per-subtree outputs are merged back in root order, so the parallel miner
//! is bit-identical to the serial one.

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
        validate_min_support(min_support)?;
        let vertical = VerticalDb::build(db);
        let roots = frequent_roots(&vertical, min_support);
        let mut out = Vec::new();
        let mut prefix: Vec<ItemId> = Vec::new();
        let mut scratch = EwahBitmap::from_sorted(&[]);
        dfs(&roots, min_support, &mut prefix, &mut out, &mut scratch);
        for set in &mut out {
            set.items.sort_unstable();
        }
        sort_canonical(&mut out);
        Ok(out)
    }
}

/// Frequent single items with their postings, ascending support (smaller
/// tidsets first keeps intermediate intersections small).
fn frequent_roots(vertical: &VerticalDb, min_support: u64) -> Vec<(ItemId, EwahBitmap)> {
    let mut roots: Vec<(ItemId, EwahBitmap)> = (0..vertical.num_items() as ItemId)
        .filter_map(|it| {
            let posting = vertical.posting(it);
            (posting.cardinality() >= min_support).then(|| (it, posting.clone()))
        })
        .collect();
    roots.sort_by_key(|(it, p)| (p.cardinality(), *it));
    roots
}

/// The node body every DFS variant shares: join `tids` against each later
/// candidate, keeping the frequent results. Every intersection lands in the
/// caller-owned `scratch` buffer via the `and_into` kernel, so infrequent
/// candidates — the overwhelming majority deep in the search — cost no
/// allocation at all; only survivors are cloned out. Reserves the worst
/// case up front (no regrowth in the hot loop) but gives sparsely-filled
/// vectors back before they are held across a whole subtree recursion.
fn join_extensions(
    tids: &EwahBitmap,
    rest: &[(ItemId, EwahBitmap)],
    min_support: u64,
    scratch: &mut EwahBitmap,
) -> Vec<(ItemId, EwahBitmap)> {
    let mut extensions: Vec<(ItemId, EwahBitmap)> = Vec::with_capacity(rest.len());
    for (jt, jtids) in rest {
        tids.and_into(jtids, scratch);
        if scratch.cardinality() >= min_support {
            extensions.push((*jt, scratch.clone()));
        }
    }
    if extensions.len() * 4 <= extensions.capacity() {
        extensions.shrink_to_fit();
    }
    extensions
}

fn dfs(
    candidates: &[(ItemId, EwahBitmap)],
    min_support: u64,
    prefix: &mut Vec<ItemId>,
    out: &mut Vec<FrequentItemset>,
    scratch: &mut EwahBitmap,
) {
    for (i, (item, tids)) in candidates.iter().enumerate() {
        prefix.push(*item);
        out.push(FrequentItemset { items: prefix.clone(), support: tids.cardinality() });
        let extensions = join_extensions(tids, &candidates[i + 1..], min_support, scratch);
        if !extensions.is_empty() {
            dfs(&extensions, min_support, prefix, out, scratch);
        }
        prefix.pop();
    }
}

/// Eclat that also returns each itemset's tidset — the entry point the cube
/// builder uses, since it needs to partition every tidset by unit.
pub fn mine_with_tidsets(
    db: &TransactionDb,
    min_support: u64,
) -> Result<Vec<(FrequentItemset, EwahBitmap)>> {
    validate_min_support(min_support)?;
    let vertical = VerticalDb::build(db);
    mine_vertical_with_tidsets(&vertical, min_support)
}

/// As [`mine_with_tidsets`], over a pre-built vertical database.
pub fn mine_vertical_with_tidsets(
    vertical: &VerticalDb,
    min_support: u64,
) -> Result<Vec<(FrequentItemset, EwahBitmap)>> {
    validate_min_support(min_support)?;
    let roots = frequent_roots(vertical, min_support);
    let mut out = Vec::new();
    let mut prefix = Vec::new();
    let mut scratch = EwahBitmap::from_sorted(&[]);
    dfs_tids(roots, min_support, &mut prefix, &mut out, &mut scratch);
    canonicalize_tids(&mut out);
    Ok(out)
}

/// As [`mine_vertical_with_tidsets`], with the first-level equivalence
/// classes (one frequent item's prefix subtree each) fanned out over up to
/// `n_threads` workers through [`scube_common::par`].
///
/// Workers claim prefix subtrees dynamically (ascending-support root order
/// gives the small subtrees first, so late claims stay balanced) and the
/// per-subtree outputs are concatenated in root order before the canonical
/// sort — the result is bit-identical to the serial miner.
pub fn mine_vertical_with_tidsets_parallel(
    vertical: &VerticalDb,
    min_support: u64,
    n_threads: usize,
) -> Result<Vec<(FrequentItemset, EwahBitmap)>> {
    validate_min_support(min_support)?;
    let roots = frequent_roots(vertical, min_support);
    let roots = &roots;
    // One join buffer per worker, reused across all its claimed subtrees.
    let subtrees = scube_common::par::map(
        0..roots.len(),
        n_threads,
        || EwahBitmap::from_sorted(&[]),
        |scratch, i| {
            let (item, tids) = &roots[i];
            let mut out = Vec::new();
            let mut prefix = vec![*item];
            out.push((
                FrequentItemset { items: prefix.clone(), support: tids.cardinality() },
                tids.clone(),
            ));
            let extensions = join_extensions(tids, &roots[i + 1..], min_support, scratch);
            if !extensions.is_empty() {
                dfs_tids(extensions, min_support, &mut prefix, &mut out, scratch);
            }
            Ok(out)
        },
    )?;
    let mut out: Vec<(FrequentItemset, EwahBitmap)> = subtrees.into_iter().flatten().collect();
    canonicalize_tids(&mut out);
    Ok(out)
}

/// Canonical output form shared by the serial and parallel miners: items
/// ascending within each set, sets sorted by (length, items).
fn canonicalize_tids(out: &mut [(FrequentItemset, EwahBitmap)]) {
    for (set, _) in out.iter_mut() {
        set.items.sort_unstable();
    }
    out.sort_by(|a, b| {
        a.0.items.len().cmp(&b.0.items.len()).then_with(|| a.0.items.cmp(&b.0.items))
    });
}

fn dfs_tids(
    mut candidates: Vec<(ItemId, EwahBitmap)>,
    min_support: u64,
    prefix: &mut Vec<ItemId>,
    out: &mut Vec<(FrequentItemset, EwahBitmap)>,
    scratch: &mut EwahBitmap,
) {
    for i in 0..candidates.len() {
        let extensions = {
            let (item, tids) = &candidates[i];
            prefix.push(*item);
            join_extensions(tids, &candidates[i + 1..], min_support, scratch)
        };
        // The node's tidset is done intersecting: move it into the output
        // instead of cloning it, leaving a cheap empty hole behind.
        let tids = std::mem::replace(&mut candidates[i].1, EwahBitmap::full(0));
        out.push((FrequentItemset { items: prefix.clone(), support: tids.cardinality() }, tids));
        if !extensions.is_empty() {
            dfs_tids(extensions, min_support, prefix, out, scratch);
        }
        prefix.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::db_from_sets;

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
        let v = VerticalDb::build(&db);
        assert!(mine_vertical_with_tidsets_parallel(&v, 0, 4).is_err());
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let db = db_from_sets(&[
            &[0, 1, 2, 3],
            &[0, 1],
            &[1, 2],
            &[0, 3],
            &[2, 3],
            &[0, 1, 2],
            &[3],
            &[0, 2, 3],
        ]);
        let v = VerticalDb::build(&db);
        for minsup in 1..=4 {
            let serial = mine_vertical_with_tidsets(&v, minsup).unwrap();
            for threads in [1, 2, 3, 8, 64] {
                let parallel = mine_vertical_with_tidsets_parallel(&v, minsup, threads).unwrap();
                assert_eq!(serial.len(), parallel.len(), "minsup {minsup} x{threads}");
                for ((s_set, s_tids), (p_set, p_tids)) in serial.iter().zip(&parallel) {
                    assert_eq!(s_set, p_set, "minsup {minsup} x{threads}");
                    assert_eq!(s_tids.to_vec(), p_tids.to_vec(), "minsup {minsup} x{threads}");
                }
            }
        }
    }
}
