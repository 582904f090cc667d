//! Model-based property tests: `EwahBitmap` must agree with `BTreeSet<u32>`
//! on all operations, and its snapshot slot codec must be a byte fixed
//! point.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use scube_bitmap::EwahBitmap;
use scube_common::mmap::{ByteRegion, MmapFile};

fn sorted_ids(max: u32, max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::btree_set(0..max, 0..max_len)
        .prop_map(|s| s.into_iter().collect::<Vec<u32>>())
}

/// Mixed-density strategy: some dense clusters, some sparse outliers —
/// exercises both run-length and literal EWAH paths.
fn clustered_ids() -> impl Strategy<Value = Vec<u32>> {
    (
        proptest::collection::btree_set(0..500u32, 0..200),
        proptest::collection::btree_set(10_000..11_000u32, 0..50),
        proptest::collection::btree_set(0..2_000_000u32, 0..20),
    )
        .prop_map(|(a, b, c)| {
            let mut s: BTreeSet<u32> = a;
            s.extend(b);
            s.extend(c);
            s.into_iter().collect()
        })
}

fn check_all_ops(xs: &[u32], ys: &[u32]) {
    let sx: BTreeSet<u32> = xs.iter().copied().collect();
    let sy: BTreeSet<u32> = ys.iter().copied().collect();
    let px = EwahBitmap::from_sorted(xs);
    let py = EwahBitmap::from_sorted(ys);

    assert_eq!(px.cardinality(), sx.len() as u64, "cardinality");
    assert_eq!(px.to_vec(), xs, "roundtrip");

    let and: Vec<u32> = sx.intersection(&sy).copied().collect();
    let or: Vec<u32> = sx.union(&sy).copied().collect();
    let diff: Vec<u32> = sx.difference(&sy).copied().collect();

    assert_eq!(px.and(&py).to_vec(), and, "and");
    assert_eq!(px.or(&py).to_vec(), or, "or");
    assert_eq!(px.andnot(&py).to_vec(), diff, "andnot");
    assert_eq!(px.and_cardinality(&py), and.len() as u64, "and_cardinality");

    // Algebraic laws.
    assert_eq!(px.and(&py).to_vec(), py.and(&px).to_vec(), "and commutes");
    assert_eq!(px.or(&py).to_vec(), py.or(&px).to_vec(), "or commutes");
    assert_eq!(px.andnot(&py).or(&px.and(&py)).to_vec(), xs, "partition law: (x\\y) ∪ (x∩y) = x");

    // Kernel entry points must agree with the materializing `and`.
    let mut out = EwahBitmap::from_sorted(&[]);
    px.and_into(&py, &mut out);
    assert_eq!(out.to_vec(), and, "and_into");
    let mut assigned = px.clone();
    assigned.and_assign(&py);
    assert_eq!(assigned.to_vec(), and, "and_assign");
    let kway = EwahBitmap::intersect_many(&[&px, &py, &px]).expect("non-empty input");
    assert_eq!(kway.to_vec(), and, "intersect_many");

    // In-place edits equal a from-scratch build of the edited set: growing
    // `xs` from any prefix, and shrinking it by the ids it shares with `ys`.
    let (base, tail) = xs.split_at(xs.len() / 2);
    let mut grown = EwahBitmap::from_sorted(base);
    grown.append_sorted(tail);
    assert_eq!(grown, px, "append_sorted");
    assert_eq!(grown.to_vec(), xs, "append_sorted ids");
    let mut shrunk = px.clone();
    shrunk.remove_sorted(&and);
    assert_eq!(shrunk, EwahBitmap::from_sorted(&diff), "remove_sorted");
    assert_eq!(shrunk.to_vec(), diff, "remove_sorted ids");

    // The universe: `full(n)` is `{0, …, n-1}` and an identity for AND.
    let n = (xs.len() + ys.len()) as u32;
    let full = EwahBitmap::full(n);
    assert_eq!(full.cardinality(), u64::from(n), "full({n}) cardinality");
    assert_eq!(full.to_vec(), (0..n).collect::<Vec<u32>>(), "full({n})");
    let universe = xs.last().map_or(0, |&m| m + 1);
    assert_eq!(EwahBitmap::full(universe).and(&px), px, "full(max + 1) is an AND identity");

    // Membership.
    for &id in xs.iter().take(20) {
        assert!(px.contains(id), "contains({id})");
    }
    for probe in [0u32, 1, 63, 64, 65, 1_000_003] {
        assert_eq!(px.contains(probe), sx.contains(&probe), "contains probe {probe}");
    }
}

fn slot_of(p: &EwahBitmap) -> Vec<u8> {
    let mut bytes = Vec::new();
    p.write_slot(&mut bytes);
    bytes
}

/// The snapshot slot codec: write → `read_slot` → `map_slot` → re-write is a
/// byte fixed point that agrees with the model, whichever way the bitmap
/// was built, and both decoders refuse what they are documented to refuse.
fn check_ewah_slot(xs: &[u32], ys: &[u32]) {
    let sx: BTreeSet<u32> = xs.iter().copied().collect();
    let sy: BTreeSet<u32> = ys.iter().copied().collect();
    let p = EwahBitmap::from_sorted(xs);
    let slot = slot_of(&p);
    let card = xs.len() as u64;
    assert_eq!(slot.len() % 8, 0, "slots are whole words");

    // The encoding is a function of the set, not of the build path
    // (`EwahBitmap`'s `==` is semantic, so compare the bytes).
    let (base, tail) = xs.split_at(xs.len() / 2);
    let mut grown = EwahBitmap::from_sorted(base);
    grown.append_sorted(tail);
    assert_eq!(slot_of(&grown), slot, "append_sorted is canonical");
    let union: Vec<u32> = sx.union(&sy).copied().collect();
    let extra: Vec<u32> = sy.difference(&sx).copied().collect();
    let mut shrunk = EwahBitmap::from_sorted(&union);
    shrunk.remove_sorted(&extra);
    assert_eq!(slot_of(&shrunk), slot, "remove_sorted is canonical");
    let q = EwahBitmap::from_sorted(ys);
    assert_eq!(slot_of(&p.andnot(&q).or(&p.and(&q))), slot, "op results are canonical");

    // Heap decode.
    let heap = EwahBitmap::read_slot(&slot, card).expect("own slot decodes");
    assert_eq!(heap.to_vec(), xs, "read_slot agrees with the model");
    assert_eq!(heap.cardinality(), card);
    assert_eq!(slot_of(&heap), slot, "read_slot re-encodes to the same bytes");
    assert!(EwahBitmap::read_slot(&slot, card + 1).is_none(), "wrong card (+1)");
    if card > 0 {
        assert!(EwahBitmap::read_slot(&slot, card - 1).is_none(), "wrong card (-1)");
        assert!(EwahBitmap::read_slot(&slot[..slot.len() - 8], card).is_none(), "truncated");
    }
    assert!(EwahBitmap::read_slot(&slot[..slot.len() - 3], card).is_none(), "ragged length");

    // Mapped decode (little-endian hosts only, like `open_mmap`).
    if cfg!(target_endian = "big") {
        return;
    }
    let path = std::env::temp_dir().join(format!(
        "scube_model_slot_{}_{:?}.bin",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, &slot).unwrap();
    let file = Arc::new(MmapFile::open(&path).unwrap());
    std::fs::remove_file(&path).ok();
    let universe = xs.last().map_or(0, |&m| m + 1);
    let mapped = EwahBitmap::map_slot(ByteRegion::whole(Arc::clone(&file)), card, universe)
        .expect("own slot maps");
    assert_eq!(mapped.to_vec(), xs, "map_slot agrees with the model");
    assert_eq!(mapped.cardinality(), card);
    assert_eq!(slot_of(&mapped), slot, "map_slot re-encodes to the same bytes");
    // Mutating a mapped bitmap copies it out and stays canonical.
    let mut edited = mapped.clone();
    edited.append_sorted(&[universe + 70]);
    edited.remove_sorted(&[universe + 70]);
    assert_eq!(slot_of(&edited), slot, "edit round trip over a mapped bitmap");
    // A universe at or below the largest id is refused: this is the check
    // that keeps `unit_of[tid]` in bounds when serving a mapped snapshot.
    if let Some(&max) = xs.last() {
        let region = || ByteRegion::whole(Arc::clone(&file));
        assert!(EwahBitmap::map_slot(region(), card, max).is_none(), "universe = max id");
        assert!(EwahBitmap::map_slot(region(), card, max / 2).is_none(), "universe too small");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ewah_matches_model(xs in sorted_ids(5_000, 400), ys in sorted_ids(5_000, 400)) {
        check_all_ops(&xs, &ys);
    }

    #[test]
    fn ewah_matches_model_clustered(xs in clustered_ids(), ys in clustered_ids()) {
        check_all_ops(&xs, &ys);
    }

    #[test]
    fn ewah_slot_roundtrip_is_a_byte_fixed_point(xs in sorted_ids(5_000, 400), ys in sorted_ids(5_000, 400)) {
        check_ewah_slot(&xs, &ys);
    }

    #[test]
    fn ewah_slot_roundtrip_is_a_byte_fixed_point_clustered(xs in clustered_ids(), ys in clustered_ids()) {
        check_ewah_slot(&xs, &ys);
    }

    #[test]
    fn ewah_matches_model_skewed(xs in sorted_ids(200_000, 12), ys in sorted_ids(200_000, 3_000)) {
        // Heavy cardinality skew: a handful of literal words against long
        // clean-run × literal stretches, in both argument orders.
        check_all_ops(&xs, &ys);
        check_all_ops(&ys, &xs);
    }

    #[test]
    fn ewah_not_upto_model(xs in sorted_ids(2_000, 300), n in 0u64..2_500) {
        let s: BTreeSet<u32> = xs.iter().copied().collect();
        let expected: Vec<u32> = (0..n as u32).filter(|i| !s.contains(i)).collect();
        let got = EwahBitmap::from_sorted(&xs).not_upto(n);
        prop_assert_eq!(got.to_vec(), expected);
    }

    #[test]
    fn ewah_semantic_eq_reflexive(xs in clustered_ids(), ys in clustered_ids()) {
        let a = EwahBitmap::from_sorted(&xs);
        let b = EwahBitmap::from_sorted(&ys);
        prop_assert_eq!(xs == ys, a == b);
        // Bitmaps built through different op paths still compare equal.
        let via_ops = a.andnot(&b).or(&a.and(&b));
        prop_assert_eq!(via_ops, a.clone());
    }

    #[test]
    fn ewah_associativity(
        xs in sorted_ids(3_000, 200),
        ys in sorted_ids(3_000, 200),
        zs in sorted_ids(3_000, 200),
    ) {
        let (a, b, c) = (
            EwahBitmap::from_sorted(&xs),
            EwahBitmap::from_sorted(&ys),
            EwahBitmap::from_sorted(&zs),
        );
        prop_assert_eq!(a.and(&b).and(&c), a.and(&b.and(&c)));
        prop_assert_eq!(a.or(&b).or(&c), a.or(&b.or(&c)));
        // Distributivity: a ∩ (b ∪ c) = (a∩b) ∪ (a∩c)
        prop_assert_eq!(a.and(&b.or(&c)), a.and(&b).or(&a.and(&c)));
    }

    #[test]
    fn ewah_xor_model(xs in sorted_ids(3_000, 200), ys in sorted_ids(3_000, 200)) {
        let sx: BTreeSet<u32> = xs.iter().copied().collect();
        let sy: BTreeSet<u32> = ys.iter().copied().collect();
        let expected: Vec<u32> = sx.symmetric_difference(&sy).copied().collect();
        let got = EwahBitmap::from_sorted(&xs).xor(&EwahBitmap::from_sorted(&ys));
        prop_assert_eq!(got.to_vec(), expected);
    }
}
