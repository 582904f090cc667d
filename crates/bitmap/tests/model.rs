//! Model-based property tests: `EwahBitmap` and its dense set algebra must
//! agree with `BTreeSet<u32>` on all operations, and its snapshot slot codec
//! must be a byte fixed point.

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

/// Dense words covering ids below `64 * span`, bit `b` of word `i` being
/// id `64·i + b`.
fn dense(p: &EwahBitmap, span: usize) -> Vec<u64> {
    let mut words = vec![u64::MAX; span]; // stale contents must vanish
    p.decode_words_into(&mut words);
    words
}

/// The words spanning every id of `sets`.
fn span_of(sets: &[&[u32]]) -> usize {
    sets.iter().filter_map(|v| v.last()).max().map_or(0, |&m| m as usize / 64 + 1)
}

/// The ids of dense words, ascending.
fn ids_of(words: &[u64]) -> Vec<u32> {
    EwahBitmap::from_words(words).to_vec()
}

fn check_all_ops(xs: &[u32], ys: &[u32]) {
    let sx: BTreeSet<u32> = xs.iter().copied().collect();
    let sy: BTreeSet<u32> = ys.iter().copied().collect();
    let px = EwahBitmap::from_sorted(xs);
    let py = EwahBitmap::from_sorted(ys);

    assert_eq!(px.cardinality(), sx.len() as u64, "cardinality");
    assert_eq!(px.to_vec(), xs, "roundtrip");

    let and: Vec<u32> = sx.intersection(&sy).copied().collect();
    let span = span_of(&[xs, ys]);

    // The dense intersection, in both orders, and its write-free count.
    let mut x_words = dense(&px, span);
    assert_eq!(ids_of(&x_words), xs, "decode_words_into");
    assert_eq!(py.and_words_cardinality(&x_words), and.len() as u64, "and_words_cardinality");
    assert_eq!(py.and_words_into(&mut x_words), and.len() as u64, "and_words_into count");
    let mut y_words = dense(&py, span);
    px.and_words_into(&mut y_words);
    assert_eq!(x_words, y_words, "the dense AND commutes");
    assert_eq!(ids_of(&x_words), and, "and_words_into");

    // The gather: bit `i` is `ys[i] ∈ x`, numbered by position in `ys`.
    let mut gathered = vec![u64::MAX; ys.len().div_ceil(64)];
    let count = px.gather_words_into(ys, &mut gathered);
    let expect: Vec<u32> = (0..ys.len() as u32).filter(|&i| sx.contains(&ys[i as usize])).collect();
    assert_eq!(ids_of(&gathered), expect, "gather_words_into");
    assert_eq!(count, and.len() as u64, "gather_words_into count");

    // In-place growth equals a from-scratch build of the grown set.
    let (base, tail) = xs.split_at(xs.len() / 2);
    let mut grown = EwahBitmap::from_sorted(base);
    grown.append_sorted(tail);
    assert_eq!(grown, px, "append_sorted");
    assert_eq!(grown.to_vec(), xs, "append_sorted ids");

    // The universe `{0, …, n-1}`, a ones-run, is an identity for AND.
    let n = (xs.len() + ys.len()) as u32;
    let full = EwahBitmap::from_sorted(&(0..n).collect::<Vec<u32>>());
    assert_eq!(full.cardinality(), u64::from(n), "universe {n} cardinality");
    assert_eq!(full.to_vec(), (0..n).collect::<Vec<u32>>(), "universe {n}");
    let mut gathered = vec![0u64; ys.len().div_ceil(64)];
    full.gather_words_into(ys, &mut gathered);
    let below: Vec<u32> = (0..ys.len() as u32).filter(|&i| ys[i as usize] < n).collect();
    assert_eq!(ids_of(&gathered), below, "gather over the ones-run of universe {n}");
    let universe = xs.last().map_or(0, |&m| m + 1);
    let mut words = dense(&px, span);
    EwahBitmap::from_sorted(&(0..universe).collect::<Vec<u32>>()).and_words_into(&mut words);
    assert_eq!(ids_of(&words), xs, "the universe to max + 1 is an AND identity");

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
    // A dense result encodes canonically: the union narrowed back to `xs`.
    let union: Vec<u32> = sx.union(&sy).copied().collect();
    let mut words = vec![0u64; union.last().map_or(0, |&m| m as usize / 64 + 1)];
    EwahBitmap::from_sorted(&union).decode_words_into(&mut words);
    p.and_words_into(&mut words);
    assert_eq!(slot_of(&EwahBitmap::from_words(&words)), slot, "from_words is canonical");

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
    // Mutating a mapped bitmap copies it out and stays canonical: an
    // append, then the tail cut off again through dense words.
    let mut edited = mapped.clone();
    edited.append_sorted(&[universe + 70]);
    assert_eq!(edited.max_id(), Some(u64::from(universe + 70)), "append over a mapped bitmap");
    let mut words = vec![0u64; (universe as usize).div_ceil(64)];
    edited.decode_words_into(&mut words);
    assert_eq!(
        slot_of(&EwahBitmap::from_words(&words)),
        slot,
        "edit round trip over a mapped bitmap"
    );
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
    fn ewah_semantic_eq_reflexive(xs in clustered_ids(), ys in clustered_ids()) {
        let a = EwahBitmap::from_sorted(&xs);
        let b = EwahBitmap::from_sorted(&ys);
        prop_assert_eq!(xs == ys, a == b);
        // Bitmaps built through different paths still compare equal.
        prop_assert_eq!(EwahBitmap::from_words(&dense(&a, span_of(&[&xs, &ys]))), a.clone());
        let mut grown = EwahBitmap::from_sorted(&xs[..xs.len() / 2]);
        grown.append_sorted(&xs[xs.len() / 2..]);
        prop_assert_eq!(grown, a.clone());
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
        // The dense k-way AND gives one answer whichever posting is
        // decoded first and in whichever order the others are ANDed in.
        let span = span_of(&[&xs, &ys, &zs]);
        let kway = |first: &EwahBitmap, rest: [&EwahBitmap; 2]| {
            let mut words = dense(first, span);
            for p in rest {
                p.and_words_into(&mut words);
            }
            words
        };
        let abc = kway(&a, [&b, &c]);
        prop_assert_eq!(&abc, &kway(&c, [&b, &a]));
        prop_assert_eq!(&abc, &kway(&b, [&c, &a]));
        let model: Vec<u32> =
            xs.iter().copied().filter(|id| ys.contains(id) && zs.contains(id)).collect();
        prop_assert_eq!(ids_of(&abc), model);
    }

}
