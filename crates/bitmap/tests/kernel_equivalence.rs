//! Differential tests pinning the dense set algebra of `EwahBitmap` to the
//! scalar reference (`scube_bitmap::reference`, plain sorted-vector
//! merges), on heap and mapped slots.
//!
//! Covered: the k-way intersection every caller runs (the smallest posting
//! decoded, the others ANDed in with `and_words_into`) against
//! `reference::intersect_all_sorted`; the segment walkers
//! `decode_words_into`, `and_words_into` and its write-free count
//! `and_words_cardinality` at spans shorter and longer than the set; the
//! positional gather `gather_words_into` against membership in the ids;
//! `from_words` back to the canonical bytes (*bit*-identical to a
//! from-scratch build, not just set-equal); the fused
//! `kernels::and_assign_popcount_words` and `and_popcount_words`; and the
//! segment-walking `for_each` (≡ `iter()` ≡ the ids). Hostile streams that
//! reach past the dense span are clamped, and a malformed one is refused at
//! decode, never a panic.
//!
//! Deterministic edge grids cover empty / full / single-word /
//! word-boundary / ones-run shapes; proptest generators cover skew-varying
//! random data.

use proptest::prelude::*;
use scube_bitmap::kernels::{and_assign_popcount_words, and_popcount_words, for_each_set_bit};
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

/// Every dense entry point vs the scalar reference, plus canonical encoding
/// of the k-way result vs a from-scratch build of the reference answer.
fn check_against_reference(lists: &[Vec<u32>]) {
    let postings: Vec<EwahBitmap> = lists.iter().map(|ids| EwahBitmap::from_sorted(ids)).collect();
    let slices: Vec<&[u32]> = lists.iter().map(|v| v.as_slice()).collect();

    // k-way: decode the smallest posting over its span, AND the rest in.
    if let Some(expect) = reference::intersect_all_sorted(&slices) {
        let smallest = postings.iter().min_by_key(|p| p.cardinality()).expect("non-empty");
        let mut words = vec![u64::MAX; smallest.max_id().map_or(0, |m| m as usize / 64 + 1)];
        smallest.decode_words_into(&mut words);
        let mut count = smallest.cardinality();
        for p in &postings {
            count = p.and_words_into(&mut words);
        }
        assert_eq!(dense_ids(&words), expect, "k-way answer");
        assert_eq!(count, expect.len() as u64, "k-way count");
        let encoded = EwahBitmap::from_words(&words);
        assert!(same_slot(&encoded, &EwahBitmap::from_sorted(&expect)), "k-way encoding");
        assert_eq!(encoded.cardinality(), expect.len() as u64, "k-way cardinality");
    }

    for (ids, posting) in lists.iter().zip(&postings) {
        check_dense_decode(ids, posting);
    }

    // Pairwise kernels over every adjacent pair.
    for w in lists.windows(2) {
        let (xs, ys) = (&w[0], &w[1]);
        let (px, py) = (EwahBitmap::from_sorted(xs), EwahBitmap::from_sorted(ys));
        let and = reference::intersect_sorted(xs, ys);
        check_dense_join(xs, ys, &px, &py, &and);
        check_gather(xs, &px, ys);
        check_gather(ys, &py, xs);
    }
}

/// `posting.gather_words_into(probe)` sets bit `i` exactly when `probe[i]`
/// is one of `ids`, over stale contents, and counts those bits.
fn check_gather(ids: &[u32], posting: &EwahBitmap, probe: &[u32]) {
    let expect: Vec<u32> = (0..probe.len() as u32)
        .filter(|&i| ids.binary_search(&probe[i as usize]).is_ok())
        .collect();
    let mut out = vec![u64::MAX; probe.len().div_ceil(64)];
    let count = posting.gather_words_into(probe, &mut out);
    assert_eq!((dense_ids(&out), count), (expect.clone(), expect.len() as u64), "gather");
}

/// The ids of dense words, ascending.
fn dense_ids(words: &[u64]) -> Vec<u32> {
    let mut ids = Vec::new();
    for_each_set_bit(words, 0, |id| ids.push(id));
    ids
}

/// Dense words of sorted ids, `span` words long (ids past it dropped).
fn dense_of(ids: &[u32], span: usize) -> Vec<u64> {
    let mut words = vec![0u64; span];
    for &id in ids.iter().filter(|&&id| (id as usize) < span * 64) {
        words[id as usize / 64] |= 1 << (id % 64);
    }
    words
}

/// Dense spans that cut a set short, match it, and run past it.
fn spans(ids: &[u32]) -> [usize; 4] {
    let exact = ids.last().map_or(0, |&max| max as usize / 64 + 1);
    [0, exact / 2, exact, exact + 3]
}

/// `for_each` ≡ `iter()` ≡ the ids, and `decode_words_into` at every span
/// ≡ the ids below the span, zero-filled over stale contents.
fn check_dense_decode(ids: &[u32], posting: &EwahBitmap) {
    let mut visited = Vec::new();
    posting.for_each(|id| visited.push(id));
    assert_eq!(visited, ids, "for_each");
    assert_eq!(posting.iter().collect::<Vec<u32>>(), ids, "iter");
    for span in spans(ids) {
        let mut words = vec![u64::MAX; span]; // stale contents must vanish
        posting.decode_words_into(&mut words);
        assert_eq!(words, dense_of(ids, span), "decode_words_into at span {span}");
    }
    // Encoding the dense words back gives the canonical slot bytes.
    let span = spans(ids)[3];
    let mut words = vec![0u64; span];
    posting.decode_words_into(&mut words);
    assert!(
        same_slot(&EwahBitmap::from_words(&words), &EwahBitmap::from_sorted(ids)),
        "from_words"
    );
}

/// The dense joins of one pair against the reference intersection: the
/// fused kernels on two dense sides, and `and_words_into` on a dense side
/// against a compressed one (and its count, `and_words_cardinality`), at
/// spans shorter and longer than either set.
fn check_dense_join(xs: &[u32], ys: &[u32], px: &EwahBitmap, py: &EwahBitmap, and: &[u32]) {
    for span in spans(xs).into_iter().chain(spans(ys)) {
        let below: Vec<u32> = and.iter().copied().filter(|&id| (id as usize) < span * 64).collect();
        let (dx, dy) = (dense_of(xs, span), dense_of(ys, span));
        assert_eq!(and_popcount_words(&dx, &dy), below.len() as u64, "and_popcount at {span}");
        let mut fused = dx.clone();
        let count = and_assign_popcount_words(&mut fused, &dy);
        assert_eq!((dense_ids(&fused), count), (below.clone(), below.len() as u64), "fused");
        assert_eq!(py.and_words_cardinality(&dx), below.len() as u64, "count of y in x");
        assert_eq!(px.and_words_cardinality(&dy), below.len() as u64, "count of x in y");
        let mut joined = dx;
        let count = py.and_words_into(&mut joined);
        assert_eq!((dense_ids(&joined), count), (below.clone(), below.len() as u64), "y into x");
        let mut joined = dy;
        let count = px.and_words_into(&mut joined);
        assert_eq!((dense_ids(&joined), count), (below.clone(), below.len() as u64), "x into y");
    }
}

/// One marker word: a clean run of `run` words (of ones when `ones`), then
/// `lit` literal words.
fn marker(ones: bool, run: u64, lit: u64) -> u64 {
    u64::from(ones) | (run << 1) | (lit << 33)
}

fn slot_bytes(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

#[test]
fn hostile_streams_are_clamped_at_the_span() {
    // A ones-run of 2³² − 1 words — 2³⁸ bits, far past any `u32` id — then
    // one literal: a stream `read_slot` (the `from_parts` path) accepts.
    let run = (1u64 << 32) - 1;
    let words = [marker(true, run, 1), 0b101];
    let card = 64 * run + 2;
    let hostile = EwahBitmap::read_slot(&slot_bytes(&words), card).expect("structurally valid");
    for span in [0usize, 1, 5, 64] {
        let mut dense = vec![0u64; span];
        hostile.decode_words_into(&mut dense);
        assert_eq!(dense, vec![u64::MAX; span], "decode at span {span}");
        let mut dense: Vec<u64> = (0..span as u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let before = dense.clone();
        assert_eq!(hostile.and_words_cardinality(&before), and_popcount_words(&before, &before));
        let count = hostile.and_words_into(&mut dense);
        assert_eq!(dense, before, "a ones-run is the identity of the AND");
        assert_eq!(count, and_popcount_words(&before, &before), "span {span}");
    }
    // The gather clamps at the last id's word: every `u32` id lies in the
    // run, the top one included.
    let ids = [0u32, 1, 64 * 5, u32::MAX - 1, u32::MAX];
    let mut gathered = [0u64];
    assert_eq!(hostile.gather_words_into(&ids, &mut gathered), 5);
    assert_eq!(gathered, [0b11111]);
    // A zero run past the span, the literal never reached.
    let far = EwahBitmap::read_slot(&slot_bytes(&[marker(false, run, 1), 7]), 3).unwrap();
    assert_eq!(far.gather_words_into(&ids, &mut gathered), 0);
    assert_eq!(gathered, [0]);
    let mut dense = vec![u64::MAX; 3];
    assert_eq!(far.and_words_cardinality(&dense), 0);
    assert_eq!(far.and_words_into(&mut dense), 0);
    assert_eq!(dense, [0, 0, 0]);
    far.decode_words_into(&mut dense);
    assert_eq!(dense, [0, 0, 0]);
    // A marker claiming more literals than the slot holds is refused.
    assert!(EwahBitmap::read_slot(&slot_bytes(&[marker(false, 0, 5), 7]), 3).is_none());
}

#[test]
fn dense_walkers_match_on_mapped_slots() {
    if cfg!(target_endian = "big") {
        return; // mapped views are little-endian-host only
    }
    use scube_common::mmap::{ByteRegion, MmapFile};
    use std::sync::Arc;
    let shapes: [Vec<u32>; 4] = [
        (0..64 * 5).collect(),                 // one ones-run
        (3..1000).chain(1030..1100).collect(), // runs and literals
        (0..200_000).step_by(7).chain(200_000..200_640).collect(),
        vec![63, 64, 127, 128 * 64],
    ];
    for (case, ids) in shapes.iter().enumerate() {
        let p = EwahBitmap::from_sorted(ids);
        let mut slot = Vec::new();
        p.write_slot(&mut slot);
        let path =
            std::env::temp_dir().join(format!("scube_kernel_eq_{}_{case}.bin", std::process::id()));
        std::fs::write(&path, &slot).unwrap();
        let file = Arc::new(MmapFile::open(&path).unwrap());
        let universe = ids.last().map_or(0, |&m| m + 1);
        let mapped = EwahBitmap::map_slot(ByteRegion::whole(file), p.cardinality(), universe)
            .expect("mapped slot decodes");
        check_dense_decode(ids, &mapped);
        check_dense_join(ids, ids, &mapped, &mapped, ids);
        let probe: Vec<u32> = (0..ids.last().map_or(0, |&m| m + 100)).step_by(3).collect();
        check_gather(ids, &mapped, &probe);
        check_gather(ids, &mapped, ids);
        std::fs::remove_file(&path).ok();
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
    let run_then_literals: Vec<u32> = (0..640).chain((700..900).step_by(3)).collect();
    let shapes: &[Vec<u32>] =
        &[empty.clone(), single, full_word, boundary, three_words, sparse_tail, run_then_literals];
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
