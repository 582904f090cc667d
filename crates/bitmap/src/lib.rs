#![warn(missing_docs)]
//! Compressed bitmaps for SCube (JavaEWAH substitute).
//!
//! The original SCube tool stores transaction-id sets ("tidsets") as
//! compressed bitmaps using the JavaEWAH library. This crate reimplements
//! that substrate from scratch as one type:
//!
//! * [`EwahBitmap`] — a 64-bit word-aligned hybrid (EWAH) compressed bitmap:
//!   runs of identical words are run-length encoded, other words are stored
//!   verbatim. This is **the** stored tidset of every layer above this
//!   crate — vertical database, cube, snapshot, query engine, update path —
//!   with its snapshot slot codec ([`EwahBitmap::write_slot`] /
//!   [`EwahBitmap::read_slot`] / [`EwahBitmap::map_slot`]).
//!
//! For *stored postings*, dense words, sorted id vectors and a per-posting
//! adaptive switch were measured against EWAH and lost (decision record:
//! `docs/ARCHITECTURE.md`, "The posting kernel layer"), so postings stay
//! EWAH. The set algebra does not: every intersection runs on plain `u64`
//! words (bit `b` of word `i` is id `64·i + b`), which is what the Eclat
//! walk, the explorer and the update path hold their working tidsets in.
//! A posting crosses into that form in one walk over its segments —
//! [`EwahBitmap::decode_words_into`], [`EwahBitmap::and_words_into`],
//! [`EwahBitmap::and_words_cardinality`] and the positional gather
//! [`EwahBitmap::gather_words_into`] — clamped at the dense span on any
//! stream the slot decoders accept, and [`EwahBitmap::from_words`] encodes
//! back. Two conventions hold:
//!
//! * ids are `u32`, and a bitmap reads as an infinite zero-extended bit
//!   vector: absent ids are 0 however many words are stored;
//! * every constructor produces the *canonical* word stream of its set — a
//!   pure function of the set, never of the build path — which is what
//!   keeps updated snapshots byte-identical to rebuilt ones.
//!   [`EwahBitmap::append_sorted`] is a tail-append that resumes the
//!   canonical stream at its end, so it panics on an id at or below the
//!   current maximum, in release builds too.
//!
//! Beside the type sit [`mod@kernels`] (the unrolled word loops the dense
//! algebra runs on) and [`mod@reference`] (the scalar sorted-vector oracle
//! the differential tests compare against).

pub mod ewah;
pub mod kernels;
pub mod reference;

pub use ewah::EwahBitmap;

#[cfg(test)]
mod tests {
    use super::*;
    use scube_common::mmap::ByteRegion;

    /// What a snapshot stores for a posting: its slot bytes and the
    /// directory cardinality.
    fn slot(p: &EwahBitmap) -> (Vec<u8>, u64) {
        let mut bytes = Vec::new();
        p.write_slot(&mut bytes);
        (bytes, p.cardinality())
    }

    /// The k-way intersection on dense words, as its callers run it: the
    /// smallest posting decoded over its own span, every posting ANDed in.
    fn intersect_all(postings: &[&EwahBitmap]) -> Vec<u32> {
        let smallest = postings.iter().min_by_key(|p| p.cardinality()).expect("non-empty");
        let mut words = vec![0; smallest.max_id().map_or(0, |m| m as usize / 64 + 1)];
        smallest.decode_words_into(&mut words);
        for p in postings {
            p.and_words_into(&mut words);
        }
        EwahBitmap::from_words(&words).to_vec()
    }

    #[test]
    fn intersect_all_empty_input() {
        let a = EwahBitmap::from_sorted(&[1, 64, 700]);
        assert!(intersect_all(&[&a, &EwahBitmap::new()]).is_empty());
        assert!(intersect_all(&[&EwahBitmap::new()]).is_empty());
    }

    #[test]
    fn intersect_all_three_ways() {
        let a = EwahBitmap::from_sorted(&[1, 2, 3, 4, 5]);
        let b = EwahBitmap::from_sorted(&[2, 4, 6]);
        let c = EwahBitmap::from_sorted(&[4, 5, 6]);
        assert_eq!(intersect_all(&[&a, &b, &c]), vec![4]);
    }

    #[test]
    fn intersect_all_single() {
        let a = EwahBitmap::from_sorted(&[7, 9]);
        assert_eq!(intersect_all(&[&a]), vec![7, 9]);
    }

    /// The universe `{0, …, n-1}` as dense words, the way
    /// `VerticalDb::tidset_words_into` builds it for `⋆`.
    fn universe_words(n: u32) -> Vec<u64> {
        let mut words = vec![u64::MAX; (n as usize).div_ceil(64)];
        if !n.is_multiple_of(64) {
            *words.last_mut().expect("n > 0") = (1u64 << (n % 64)) - 1;
        }
        words
    }

    #[test]
    fn full_matches_from_sorted() {
        for n in [0u32, 1, 63, 64, 65, 128, 1000] {
            let expected: Vec<u32> = (0..n).collect();
            let f = EwahBitmap::from_words(&universe_words(n));
            assert_eq!(f, EwahBitmap::from_sorted(&expected), "universe {n}");
            assert_eq!(f.to_vec(), expected, "universe {n}");
            assert_eq!(f.cardinality(), u64::from(n), "cardinality of universe {n}");
            // A run of set words and at most one literal, not a word per 64 ids.
            assert!(f.stored_words() <= 3, "universe {n}: {} words", f.stored_words());
        }
    }

    #[test]
    fn full_intersects_like_identity() {
        let a = EwahBitmap::from_sorted(&[3, 64, 1000]);
        let mut words = vec![0u64; 2000usize.div_ceil(64)];
        a.decode_words_into(&mut words);
        let before = words.clone();
        let full = EwahBitmap::from_words(&universe_words(2000));
        assert_eq!(full.and_words_into(&mut words), 3);
        assert_eq!(words, before);
        assert_eq!(intersect_all(&[&full, &a]), vec![3, 64, 1000]);
    }

    #[test]
    fn intersect_all_matches_pairwise_fold() {
        let a = EwahBitmap::from_sorted(&(0..400).step_by(2).collect::<Vec<u32>>());
        let b = EwahBitmap::from_sorted(&(0..400).step_by(3).collect::<Vec<u32>>());
        let c = EwahBitmap::from_sorted(&(0..400).step_by(5).collect::<Vec<u32>>());
        let expect: Vec<u32> = (0..400).step_by(30).collect();
        assert_eq!(intersect_all(&[&a, &b, &c]), expect);
        assert_eq!(intersect_all(&[&c, &a, &b]), expect, "order does not matter");
        // A posting past every other's span leaves nothing.
        let d = EwahBitmap::from_sorted(&[401]);
        assert!(intersect_all(&[&a, &d, &b]).is_empty());
    }

    #[test]
    fn append_sorted_matches_from_scratch_build() {
        for (base, delta) in [
            (vec![], vec![0u32, 3]),
            (vec![0u32, 1, 5], vec![]),
            (vec![0u32, 1, 5], vec![6]),
            (vec![3u32, 63], vec![64, 65, 200]),
            (vec![0u32, 64, 1000], vec![1001, 1002, 5000]),
            ((0..300).collect::<Vec<u32>>(), (300..420).collect::<Vec<u32>>()),
            (vec![7u32], vec![1_000_000]),
            // The first new id shares the last stored literal word, and
            // filling that word turns it into a ones-run.
            (vec![0u32, 1], vec![2, 5, 64]),
            ((0..63).collect::<Vec<u32>>(), vec![63]),
            ((0..63).collect::<Vec<u32>>(), (63..200).collect::<Vec<u32>>()),
            // A ones-run ends the stream; then a zero gap before the append.
            ((0..128).collect::<Vec<u32>>(), vec![128, 129]),
            ((0..128).collect::<Vec<u32>>(), vec![70_000]),
        ] {
            let mut appended = EwahBitmap::from_sorted(&base);
            appended.append_sorted(&delta);
            let all: Vec<u32> = base.iter().chain(delta.iter()).copied().collect();
            let scratch = EwahBitmap::from_sorted(&all);
            assert_eq!(appended, scratch, "{base:?} + {delta:?}");
            // Canonical encoding must not depend on the build path (`==` is
            // semantic, so compare what a snapshot would store): snapshot
            // byte-identity after an update relies on this.
            assert_eq!(slot(&appended), slot(&scratch), "{base:?} + {delta:?}");
        }
    }

    #[test]
    #[should_panic(expected = "appended ids must follow every id present")]
    fn append_sorted_refuses_an_id_inside_the_last_word() {
        EwahBitmap::from_sorted(&[3, 9]).append_sorted(&[5, 70]);
    }

    #[test]
    #[should_panic(expected = "appended ids must follow every id present")]
    fn append_sorted_refuses_an_id_below_the_last_word() {
        EwahBitmap::from_sorted(&[3, 200]).append_sorted(&[64]);
    }

    const SLOT_CASES: [&[u32]; 6] = [
        &[],
        &[0],
        &[0, 1, 5, 63, 64, 65, 1000],
        &[3, 64, 1000, 1001, 5000],
        &[7, 1_000_000, 50_000_000],
        &[63],
    ];

    #[test]
    fn slot_roundtrip_all_shapes() {
        for ids in SLOT_CASES {
            let mut all: Vec<Vec<u32>> = vec![ids.to_vec()];
            all.push((0..500).collect()); // dense-ish shape too
            for ids in all {
                let p = EwahBitmap::from_sorted(&ids);
                let (slot, card) = slot(&p);
                let q = EwahBitmap::read_slot(&slot, card).expect("slot decodes");
                assert_eq!(q, p, "{ids:?}");
                // Stable round-trip: re-encoding reproduces the bytes.
                let mut again = Vec::new();
                q.write_slot(&mut again);
                assert_eq!(again, slot, "{ids:?}: slot encoding not stable");
                // A cardinality that disagrees with the slot is rejected.
                assert!(EwahBitmap::read_slot(&slot, card + 1).is_none(), "{ids:?}");
            }
        }
    }

    #[test]
    fn map_slot_matches_heap_decode() {
        if cfg!(target_endian = "big") {
            return; // mapped views are little-endian-host only
        }
        use scube_common::mmap::MmapFile;
        use std::sync::Arc;
        for (case, ids) in SLOT_CASES.iter().enumerate() {
            let p = EwahBitmap::from_sorted(ids);
            let (slot, card) = slot(&p);
            let path = std::env::temp_dir().join(format!("scube_slot_ewah_{case}.bin"));
            std::fs::write(&path, &slot).unwrap();
            let file = Arc::new(MmapFile::open(&path).unwrap());
            let universe = ids.last().map_or(0, |&m| m + 1);
            let q = EwahBitmap::map_slot(ByteRegion::whole(Arc::clone(&file)), card, universe)
                .expect("mapped slot decodes");
            assert_eq!(q.to_vec(), *ids, "case {case}");
            // A universe bound at or below the max id must be rejected:
            // that is the check that keeps `unit_of[tid]` lookups in
            // bounds when serving a mapped snapshot.
            if let Some(&max) = ids.last() {
                assert!(
                    EwahBitmap::map_slot(ByteRegion::whole(Arc::clone(&file)), card, max).is_none(),
                    "case {case}: universe bound not enforced"
                );
            }
            std::fs::remove_file(&path).ok();
        }
    }

    /// `append_sorted` resumes a stream at the span its markers cover, so a
    /// tail that covers words past the last set bit — a zero literal, a
    /// zero run, an empty marker — would misplace the append. Both loaders
    /// refuse such a slot; the tails `finish` leaves pass.
    #[test]
    fn slot_loaders_refuse_a_tail_finish_never_leaves() {
        use scube_common::mmap::MmapFile;
        use std::sync::Arc;
        let marker = |ones: bool, run: u64, lit: u64| u64::from(ones) | run << 1 | lit << 33;
        let bytes = |words: &[u64]| words.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>();
        let refused: [(&str, Vec<u64>, u64); 5] = [
            ("trailing zero literals", vec![marker(false, 0, 3), 1, 0, 0], 1),
            (
                "a zero run, then an empty marker",
                vec![marker(false, 0, 1), 5, marker(false, 1, 0), 0],
                2,
            ),
            ("a trailing zero run", vec![marker(false, 0, 1), 5, marker(false, 4, 0)], 2),
            ("an empty marker after a ones-run", vec![marker(true, 1, 0), marker(true, 0, 0)], 64),
            ("a lone empty ones marker", vec![marker(true, 0, 0)], 0),
        ];
        let accepted: [(&str, Vec<u64>, u64); 4] = [
            ("no words", vec![], 0),
            ("the empty marker", vec![0], 0),
            ("a ones-run", vec![marker(false, 0, 1), 5, marker(true, 2, 0)], 130),
            ("a non-zero literal", vec![marker(false, 3, 1), 1 << 63], 1),
        ];
        let path = std::env::temp_dir().join(format!("scube_slot_tail_{}.bin", std::process::id()));
        for (what, words, card) in refused.iter().chain(&accepted) {
            let ok = accepted.iter().any(|(name, ..)| name == what);
            let slot = bytes(words);
            assert_eq!(EwahBitmap::read_slot(&slot, *card).is_some(), ok, "{what}: heap");
            if cfg!(target_endian = "big") {
                continue; // mapped views are little-endian-host only
            }
            std::fs::write(&path, &slot).unwrap();
            let file = Arc::new(MmapFile::open(&path).unwrap());
            let mapped = EwahBitmap::map_slot(ByteRegion::whole(file), *card, 1 << 20);
            assert_eq!(mapped.is_some(), ok, "{what}: mapped");
            // What a loader accepts takes an append at the next free id.
            if let Some(mut posting) = mapped {
                let next = posting.max_id().map_or(0, |m| m as u32 + 1);
                let mut ids = posting.to_vec();
                posting.append_sorted(&[next, next + 70]);
                ids.extend([next, next + 70]);
                assert_eq!(posting, EwahBitmap::from_sorted(&ids), "{what}: append");
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
