#![warn(missing_docs)]
//! Compressed bitmaps for SCube (JavaEWAH substitute).
//!
//! The original SCube tool stores transaction-id sets ("tidsets") as
//! compressed bitmaps using the JavaEWAH library. This crate reimplements
//! that substrate from scratch:
//!
//! * [`EwahBitmap`] — a 64-bit word-aligned hybrid (EWAH) compressed bitmap:
//!   runs of identical words are run-length encoded, other words are stored
//!   verbatim. Fast `AND`/`OR`/`ANDNOT`/`XOR` by merging compressed streams.
//!   This is **the** tidset of every layer above this crate — vertical
//!   database, miner, cube, snapshot, query engine — and the only
//!   representation with a snapshot slot codec
//!   ([`EwahBitmap::write_slot`] / [`EwahBitmap::read_slot`] /
//!   [`EwahBitmap::map_slot`]).
//!
//! The crate also owns the *representation study* that justifies that
//! choice: three more implementations of the [`Posting`] trait, compared
//! against EWAH by this crate's model and kernel-equivalence tests and by
//! the kernel grid (`benches/bitmap.rs`, `exp bitmap-kernels`), and used
//! nowhere else:
//!
//! * [`DenseBitmap`] — an uncompressed `Vec<u64>` bitset;
//! * [`TidVec`] — a sorted vector of ids, the classical Eclat
//!   representation;
//! * [`AdaptivePosting`] — re-picks the cheapest of the three per posting.

pub mod adaptive;
pub mod dense;
pub mod ewah;
pub mod kernels;
pub mod reference;
pub mod tidvec;

pub use adaptive::AdaptivePosting;
pub use dense::DenseBitmap;
pub use ewah::EwahBitmap;
pub use tidvec::TidVec;

/// The [`Posting`] implementations by value, for the kernel grids that
/// enumerate representations at run time.
///
/// The first three name the fixed representations;
/// [`Representation::Adaptive`] names [`AdaptivePosting`], which re-picks
/// the cheapest of the three per posting from its density and cardinality
/// at build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Representation {
    /// [`EwahBitmap`] — compressed, what the pipeline runs on.
    Ewah,
    /// [`DenseBitmap`] — uncompressed `u64` words.
    Dense,
    /// [`TidVec`] — sorted id vector.
    TidVec,
    /// [`AdaptivePosting`] — per-posting choice among the other three.
    Adaptive,
}

impl Representation {
    /// All representations, in benchmark-grid order.
    pub const ALL: [Representation; 4] = [
        Representation::Ewah,
        Representation::Dense,
        Representation::TidVec,
        Representation::Adaptive,
    ];

    /// Stable lowercase name (used in benchmark JSON).
    pub fn name(self) -> &'static str {
        match self {
            Representation::Ewah => "ewah",
            Representation::Dense => "dense",
            Representation::TidVec => "tidvec",
            Representation::Adaptive => "adaptive",
        }
    }
}

/// A set of `u32` ids (transaction ids / node ids) supporting the boolean
/// algebra the SCube pipeline needs.
///
/// Implementations must behave like an *infinite, zero-extended* bit vector:
/// ids absent from the set read as 0 regardless of representation length.
pub trait Posting: Sized + Clone {
    /// Build from strictly increasing ids.
    ///
    /// # Panics
    /// Implementations may panic if `ids` is not strictly increasing.
    fn from_sorted(ids: &[u32]) -> Self;

    /// The full universe `{0, 1, …, n-1}`.
    ///
    /// The default materializes an id vector; compressed representations
    /// override it with O(1)-ish construction (a run of set words), which
    /// matters because the cube layers request the universe for every
    /// empty-context lookup.
    fn full(n: u32) -> Self {
        Self::from_sorted(&(0..n).collect::<Vec<u32>>())
    }

    /// Extend the set in place with strictly increasing ids, all larger
    /// than every id already present — the shape of a delta-ingest append,
    /// where new transaction ids always follow the existing ones.
    ///
    /// The default re-encodes through [`Posting::from_sorted`];
    /// representations override it with a cheaper tail extension
    /// ([`TidVec`] pushes, [`DenseBitmap`] grows its word vector,
    /// [`EwahBitmap`] merges the compressed streams without decompressing).
    ///
    /// # Panics
    /// Implementations may panic if `ids` is not strictly increasing or not
    /// strictly above the current maximum id.
    fn append_sorted(&mut self, ids: &[u32]) {
        if ids.is_empty() {
            return;
        }
        let mut all = self.to_vec();
        all.extend_from_slice(ids);
        *self = Self::from_sorted(&all);
    }

    /// Remove strictly increasing ids from the set, all of which must be
    /// present — the shape of a delta-retract, where the caller already
    /// intersected the removal set with this posting.
    ///
    /// The default re-encodes through [`Posting::from_sorted`];
    /// representations override it with cheaper surgery ([`TidVec`] drains
    /// the matching slots, [`DenseBitmap`] clears words in place,
    /// [`EwahBitmap`] stream-differences the compressed streams). Every
    /// override must leave the set in its canonical encoding: removing ids
    /// and rebuilding from scratch must give the same representation, word
    /// for word (`remove_sorted_matches_from_scratch_build` below), which is
    /// what keeps retracted snapshots byte-identical to rebuilt ones.
    ///
    /// # Panics
    /// Implementations may panic if `ids` is not strictly increasing or
    /// contains an id not present in the set.
    fn remove_sorted(&mut self, ids: &[u32]) {
        if ids.is_empty() {
            return;
        }
        let mut keep = Vec::with_capacity((self.cardinality() as usize).saturating_sub(ids.len()));
        let mut i = 0;
        self.for_each(|id| {
            if i < ids.len() && ids[i] == id {
                if i > 0 {
                    assert!(ids[i - 1] < ids[i], "ids must be strictly increasing");
                }
                i += 1;
            } else {
                keep.push(id);
            }
        });
        assert_eq!(i, ids.len(), "removed ids must all be present");
        *self = Self::from_sorted(&keep);
    }

    /// Set intersection.
    #[must_use]
    fn and(&self, other: &Self) -> Self;

    /// Set union.
    #[must_use]
    fn or(&self, other: &Self) -> Self;

    /// Set difference (`self \ other`).
    #[must_use]
    fn andnot(&self, other: &Self) -> Self;

    /// Number of ids in the set.
    fn cardinality(&self) -> u64;

    /// Visit every id in increasing order.
    fn for_each(&self, f: impl FnMut(u32));

    /// Cardinality of the intersection, without materializing it.
    ///
    /// The default materializes; representations override with streaming
    /// counting where profitable (this is the hot operation of support
    /// counting in Eclat and of per-unit histograms in the cube builder).
    fn and_cardinality(&self, other: &Self) -> u64 {
        self.and(other).cardinality()
    }

    /// Intersection into a caller-owned accumulator, reusing its storage.
    ///
    /// This is the allocation-free building block of the batched k-way AND:
    /// a loop that ping-pongs two accumulators through `and_into` performs
    /// any number of intersection steps with at most the first step's
    /// allocation. The default assigns a fresh intersection (correct for
    /// any implementation); every built-in representation overrides it to
    /// write into `out`'s existing buffer.
    fn and_into(&self, other: &Self, out: &mut Self) {
        *out = self.and(other);
    }

    /// In-place intersection (`*self &= other`).
    ///
    /// The default materializes; [`TidVec`] and [`DenseBitmap`] override
    /// with true in-place kernels (the intersection is a subsequence of
    /// `self`, so it can be written over `self`'s own storage).
    fn and_assign(&mut self, other: &Self) {
        *self = self.and(other);
    }

    /// Batched k-way intersection: smallest-cardinality first, empty
    /// short-circuit, and **no per-step posting allocation** — the default
    /// ping-pongs two accumulators through [`Posting::and_into`], so k
    /// steps cost at most two buffers regardless of k.
    ///
    /// [`TidVec`] overrides this with a single-pass galloping k-way merge
    /// that writes the result once. `None` when `postings` is empty
    /// (an empty *intersection* of zero sets would be the full universe,
    /// which a posting cannot represent without knowing `n`).
    fn intersect_many(postings: &[&Self]) -> Option<Self> {
        match postings {
            [] => None,
            [one] => Some((*one).clone()),
            _ => {
                // Cache the cardinalities: `sort_by_key` re-evaluates its
                // key per comparison, and `cardinality` is a full popcount
                // for the word-based representations.
                let cards: Vec<u64> = postings.iter().map(|p| p.cardinality()).collect();
                let mut order: Vec<usize> = (0..postings.len()).collect();
                order.sort_by_key(|&i| cards[i]);
                let mut acc = postings[order[0]].clone();
                let mut spare = Self::from_sorted(&[]);
                for &i in &order[1..] {
                    if acc.is_empty() {
                        break;
                    }
                    acc.and_into(postings[i], &mut spare);
                    std::mem::swap(&mut acc, &mut spare);
                }
                Some(acc)
            }
        }
    }

    /// Collect the ids into a vector (ascending).
    fn to_vec(&self) -> Vec<u32> {
        let mut v = Vec::with_capacity(self.cardinality() as usize);
        self.for_each(|id| v.push(id));
        v
    }

    /// True when the set is empty.
    fn is_empty(&self) -> bool {
        self.cardinality() == 0
    }

    /// Membership test. Default is O(n); representations override.
    fn contains(&self, id: u32) -> bool {
        let mut found = false;
        self.for_each(|x| {
            if x == id {
                found = true;
            }
        });
        found
    }
}

/// Intersect many postings, smallest-cardinality first (standard Eclat
/// optimization: the running intersection can only shrink).
///
/// Delegates to [`Posting::intersect_many`], the batched one-pass kernel:
/// no per-step posting allocation, representation-specific fast paths.
pub fn intersect_all<P: Posting>(postings: &[&P]) -> Option<P> {
    P::intersect_many(postings)
}

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

    /// "Same encoding, not just same set", per arm: `EwahBitmap`'s `==` is
    /// semantic, so it compares slot bytes; the plain vectors compare
    /// structurally; adaptive must also have picked the same inner arm.
    fn same_ewah(a: &EwahBitmap, b: &EwahBitmap) -> bool {
        slot(a) == slot(b)
    }
    fn same_adaptive(a: &AdaptivePosting, b: &AdaptivePosting) -> bool {
        a == b && a.current_name() == b.current_name()
    }

    #[test]
    fn intersect_all_empty_input() {
        assert!(intersect_all::<EwahBitmap>(&[]).is_none());
    }

    #[test]
    fn intersect_all_three_ways() {
        let a = EwahBitmap::from_sorted(&[1, 2, 3, 4, 5]);
        let b = EwahBitmap::from_sorted(&[2, 4, 6]);
        let c = EwahBitmap::from_sorted(&[4, 5, 6]);
        let r = intersect_all(&[&a, &b, &c]).unwrap();
        assert_eq!(r.to_vec(), vec![4]);
    }

    #[test]
    fn intersect_all_single() {
        let a = TidVec::from_sorted(&[7, 9]);
        let r = intersect_all(&[&a]).unwrap();
        assert_eq!(r.to_vec(), vec![7, 9]);
    }

    #[test]
    fn full_matches_from_sorted() {
        fn check<P: Posting>() {
            for n in [0u32, 1, 63, 64, 65, 128, 1000] {
                let expected: Vec<u32> = (0..n).collect();
                let f = P::full(n);
                assert_eq!(f.to_vec(), expected, "full({n})");
                assert_eq!(f.cardinality(), u64::from(n), "cardinality of full({n})");
            }
        }
        check::<EwahBitmap>();
        check::<DenseBitmap>();
        check::<TidVec>();
        check::<AdaptivePosting>();
    }

    #[test]
    fn full_intersects_like_identity() {
        let a = EwahBitmap::from_sorted(&[3, 64, 1000]);
        assert_eq!(EwahBitmap::full(2000).and(&a).to_vec(), vec![3, 64, 1000]);
    }

    #[test]
    fn intersect_all_matches_pairwise_fold() {
        fn check<P: Posting + PartialEq + std::fmt::Debug>() {
            let a = P::from_sorted(&(0..400).step_by(2).collect::<Vec<u32>>());
            let b = P::from_sorted(&(0..400).step_by(3).collect::<Vec<u32>>());
            let c = P::from_sorted(&(0..400).step_by(5).collect::<Vec<u32>>());
            let batched = intersect_all(&[&a, &b, &c]).unwrap();
            let folded = a.and(&b).and(&c);
            assert_eq!(batched, folded);
            assert_eq!(batched.to_vec(), (0..400).step_by(30).collect::<Vec<u32>>());
            // Disjoint input short-circuits to empty.
            let d = P::from_sorted(&[401]);
            assert!(intersect_all(&[&a, &d, &b]).unwrap().is_empty());
        }
        check::<EwahBitmap>();
        check::<DenseBitmap>();
        check::<TidVec>();
        check::<AdaptivePosting>();
    }

    #[test]
    fn and_into_and_assign_match_and() {
        fn check<P: Posting + PartialEq + std::fmt::Debug>() {
            let a = P::from_sorted(&[1, 3, 5, 64, 65, 900]);
            let b = P::from_sorted(&[3, 64, 900, 1000]);
            let expect = a.and(&b);
            let mut out = P::from_sorted(&[7, 8]); // stale contents must be overwritten
            a.and_into(&b, &mut out);
            assert_eq!(out, expect);
            let mut c = a.clone();
            c.and_assign(&b);
            assert_eq!(c, expect);
        }
        check::<EwahBitmap>();
        check::<DenseBitmap>();
        check::<TidVec>();
        check::<AdaptivePosting>();
    }

    #[test]
    fn append_sorted_matches_from_scratch_build() {
        fn check<P: Posting + PartialEq + std::fmt::Debug>(same_encoding: fn(&P, &P) -> bool) {
            for (base, delta) in [
                (vec![], vec![0u32, 3]),
                (vec![0u32, 1, 5], vec![]),
                (vec![0u32, 1, 5], vec![6]),
                (vec![3u32, 63], vec![64, 65, 200]),
                (vec![0u32, 64, 1000], vec![1001, 1002, 5000]),
                ((0..300).collect::<Vec<u32>>(), (300..420).collect::<Vec<u32>>()),
                (vec![7u32], vec![1_000_000]),
            ] {
                let mut appended = P::from_sorted(&base);
                appended.append_sorted(&delta);
                let all: Vec<u32> = base.iter().chain(delta.iter()).copied().collect();
                let scratch = P::from_sorted(&all);
                assert_eq!(appended, scratch, "{base:?} + {delta:?}");
                // Canonical encoding must not depend on the build path:
                // snapshot byte-identity after an update relies on this.
                assert!(same_encoding(&appended, &scratch), "{base:?} + {delta:?}");
            }
        }
        check::<EwahBitmap>(same_ewah);
        check::<DenseBitmap>(|a, b| a == b);
        check::<TidVec>(|a, b| a == b);
        check::<AdaptivePosting>(same_adaptive);
    }

    #[test]
    fn remove_sorted_matches_from_scratch_build() {
        fn check<P: Posting + PartialEq + std::fmt::Debug>(same_encoding: fn(&P, &P) -> bool) {
            for (base, removed) in [
                (vec![0u32, 3], vec![0u32, 3]),
                (vec![0u32, 1, 5], vec![]),
                (vec![0u32, 1, 5], vec![1]),
                (vec![3u32, 63, 64, 65, 200], vec![63, 64]),
                (vec![0u32, 64, 1000, 1001, 5000], vec![1000, 5000]),
                ((0..420).collect::<Vec<u32>>(), (0..420).step_by(3).collect::<Vec<u32>>()),
                ((0..300).collect::<Vec<u32>>(), (100..300).collect::<Vec<u32>>()),
                (vec![7u32, 1_000_000], vec![1_000_000]),
            ] {
                let mut shrunk = P::from_sorted(&base);
                shrunk.remove_sorted(&removed);
                let survivors: Vec<u32> =
                    base.iter().copied().filter(|id| !removed.contains(id)).collect();
                let scratch = P::from_sorted(&survivors);
                assert_eq!(shrunk, scratch, "{base:?} - {removed:?}");
                assert_eq!(shrunk.to_vec(), survivors, "{base:?} - {removed:?}");
                // Canonical encoding must not depend on the build path:
                // snapshot byte-identity after a retraction relies on this.
                assert!(same_encoding(&shrunk, &scratch), "{base:?} - {removed:?}");
            }
        }
        check::<EwahBitmap>(same_ewah);
        check::<DenseBitmap>(|a, b| a == b);
        check::<TidVec>(|a, b| a == b);
        check::<AdaptivePosting>(same_adaptive);
    }

    #[test]
    fn remove_sorted_rejects_absent_ids() {
        fn check<P: Posting + std::fmt::Debug>() {
            let result = std::panic::catch_unwind(|| {
                let mut p = P::from_sorted(&[1, 5, 9]);
                p.remove_sorted(&[5, 6]);
            });
            assert!(result.is_err(), "removing an absent id must panic");
        }
        check::<EwahBitmap>();
        check::<DenseBitmap>();
        check::<TidVec>();
        check::<AdaptivePosting>();
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
    fn slot_roundtrip_all_representations() {
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
}
