//! Differential tests pinning every optimized `EwahBitmap` kernel
//! bit-identical to the scalar reference (`scube_bitmap::reference`, plain
//! sorted-vector merges).
//!
//! Covered kernels: the batched k-way AND (`intersect_many`), the
//! buffer-reusing `and_into` and `and_assign`, and the word-unrolled
//! compressed-stream merges (exercised through `and` / `or` / `andnot` /
//! `and_cardinality`). Every result is checked both for answer equality and
//! for canonical-encoding stability against a from-scratch build, by its
//! snapshot slot bytes — *bit*-identical, not just set-equal.
//!
//! Deterministic edge grids cover empty / full / single-word /
//! word-boundary shapes; proptest generators cover skew-varying random
//! data.

use std::collections::BTreeSet;

use proptest::prelude::*;
use scube_bitmap::reference;
use scube_bitmap::EwahBitmap;

/// The encoding is what a snapshot stores: the slot bytes (`==` is semantic
/// and would accept a non-canonical stream) — the bit-identity gate that
/// makes a kernel rewrite risk-free for snapshots.
fn same_slot(a: &EwahBitmap, b: &EwahBitmap) -> bool {
    let (mut x, mut y) = (Vec::new(), Vec::new());
    a.write_slot(&mut x);
    b.write_slot(&mut y);
    x == y
}

/// Every optimized entry point vs the scalar reference, plus canonical
/// encoding of every result vs a from-scratch build of the reference
/// answer.
fn check_against_reference(lists: &[Vec<u32>]) {
    let encodes_like_scratch = |got: &EwahBitmap, expect_ids: &[u32], what: &str| {
        let scratch = EwahBitmap::from_sorted(expect_ids);
        assert!(same_slot(got, &scratch), "{what}: encoding differs from from-scratch build");
        assert_eq!(got.cardinality(), scratch.cardinality(), "{what}: cardinality");
    };
    let postings: Vec<EwahBitmap> = lists.iter().map(|ids| EwahBitmap::from_sorted(ids)).collect();
    let refs: Vec<&EwahBitmap> = postings.iter().collect();
    let slices: Vec<&[u32]> = lists.iter().map(|v| v.as_slice()).collect();

    // Batched k-way AND vs scalar pairwise fold.
    let expect = reference::intersect_all_sorted(&slices);
    let got = EwahBitmap::intersect_many(&refs);
    match (&expect, &got) {
        (None, None) => {}
        (Some(e), Some(g)) => {
            assert_eq!(g.to_vec(), *e, "intersect_many answer");
            encodes_like_scratch(g, e, "intersect_many");
        }
        _ => panic!("intersect_many Some/None mismatch"),
    }

    // Pairwise kernels over every adjacent pair.
    for w in lists.windows(2) {
        let (xs, ys) = (&w[0], &w[1]);
        let px = EwahBitmap::from_sorted(xs);
        let py = EwahBitmap::from_sorted(ys);
        let and = reference::intersect_sorted(xs, ys);

        assert_eq!(px.and(&py).to_vec(), and, "and");
        assert_eq!(px.and_cardinality(&py), and.len() as u64, "and_cardinality");
        assert_eq!(
            px.and_cardinality(&py),
            reference::intersect_cardinality_sorted(xs, ys),
            "and_cardinality vs scalar count"
        );

        let mut out = EwahBitmap::from_sorted(&[9, 100, 110]); // stale state must vanish
        px.and_into(&py, &mut out);
        assert_eq!(out.to_vec(), and, "and_into");
        encodes_like_scratch(&out, &and, "and_into");

        let mut assigned = px.clone();
        assigned.and_assign(&py);
        assert_eq!(assigned.to_vec(), and, "and_assign");
        encodes_like_scratch(&assigned, &and, "and_assign");

        // or / andnot via the BTreeSet model (the unrolled word paths
        // serve all four ops).
        let sx: BTreeSet<u32> = xs.iter().copied().collect();
        let sy: BTreeSet<u32> = ys.iter().copied().collect();
        let or: Vec<u32> = sx.union(&sy).copied().collect();
        let diff: Vec<u32> = sx.difference(&sy).copied().collect();
        assert_eq!(px.or(&py).to_vec(), or, "or");
        assert_eq!(px.andnot(&py).to_vec(), diff, "andnot");
        encodes_like_scratch(&px.or(&py), &or, "or");
        encodes_like_scratch(&px.andnot(&py), &diff, "andnot");
    }
}

#[test]
fn edge_case_grid() {
    let full_word: Vec<u32> = (0..64).collect();
    let three_words: Vec<u32> = (0..192).collect();
    let boundary = vec![62u32, 63, 64, 65, 127, 128, 129];
    let single = vec![64u32];
    let empty: Vec<u32> = vec![];
    let sparse_tail = vec![0u32, 1_000_000, 33_554_431];
    let shapes: &[Vec<u32>] =
        &[empty.clone(), single, full_word, boundary, three_words, sparse_tail];
    // Every ordered pair of shapes, plus a triple including empties.
    for a in shapes {
        for b in shapes {
            check_against_reference(&[a.clone(), b.clone()]);
        }
    }
    check_against_reference(&[]);
    check_against_reference(&[empty.clone(), empty.clone(), empty]);
}

#[test]
fn kway_wide_fanout() {
    // k = 9 postings with controlled overlap: id multiples of 2..=10.
    let lists: Vec<Vec<u32>> =
        (2u32..=10).map(|step| (0..50_000).step_by(step as usize).collect()).collect();
    check_against_reference(&lists);
}

fn sorted_ids(max: u32, max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::btree_set(0..max, 0..max_len)
        .prop_map(|s| s.into_iter().collect::<Vec<u32>>())
}

/// Pairs with wildly different densities: drives the clean-run × literal
/// block paths.
fn skewed_pair() -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    (sorted_ids(500_000, 20), sorted_ids(500_000, 4_000))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_pairs_match_reference(xs in sorted_ids(100_000, 600), ys in sorted_ids(100_000, 600)) {
        check_against_reference(&[xs, ys]);
    }

    #[test]
    fn skewed_pairs_match_reference((xs, ys) in skewed_pair()) {
        check_against_reference(&[xs.clone(), ys.clone()]);
        check_against_reference(&[ys, xs]);
    }

    #[test]
    fn random_kway_matches_reference(lists in proptest::collection::vec(sorted_ids(20_000, 400), 0..6)) {
        check_against_reference(&lists);
    }
}
