//! Per-posting adaptive representation choice.
//!
//! A vertical database holds one posting per item, and item frequencies are
//! wildly skewed: a handful of items cover most transactions (dense), the
//! long tail covers almost none (sparse), and attribute-value postings sit
//! in between (clustered). No single representation wins everywhere —
//! [`TidVec`] is smallest and fastest for sparse sets, [`DenseBitmap`] for
//! near-full ones, [`EwahBitmap`] for the clustered middle. [`AdaptivePosting`]
//! re-picks the winner **per posting** from two numbers the set already
//! knows: its cardinality and its span (`max_id + 1`).
//!
//! The decision rule (`choose`, integer arithmetic only, so it is exactly
//! reproducible on every host):
//!
//! * empty, tiny (≤ 64 ids), or density < 1/128 → [`TidVec`]
//! * density ≥ 1/4 → [`DenseBitmap`]
//! * otherwise → [`EwahBitmap`]
//!
//! Every operation re-canonicalizes its result through the same rule, so
//! the representation is a pure function of the *set content*, never of
//! the construction path (pinned by `tests/kernel_equivalence.rs`).
//!
//! This is a subject of the crate's representation study — the kernel grid
//! (`exp bitmap-kernels`) measures it against the three fixed arms — not a
//! production type: every layer above `scube-bitmap` stores [`EwahBitmap`].

use crate::{kernels, DenseBitmap, EwahBitmap, Posting, TidVec};

/// Sets at or below this cardinality always stay id vectors: at ≤ 64 ids a
/// linear scan beats any decompression setup cost.
const TINY_CARD: u64 = 64;

/// Sparse cutoff: density below `1/SPARSE_DIVISOR` → [`TidVec`] (4 bytes
/// per id beats one bit per universe slot once fewer than 1 in 128 bits
/// are set, with galloping intersection as the kicker).
const SPARSE_DIVISOR: u64 = 128;

/// Dense cutoff: density at or above `1/DENSE_DIVISOR` → [`DenseBitmap`]
/// (EWAH markers stop paying once every fourth bit is set; plain words
/// feed the unrolled kernels directly).
const DENSE_DIVISOR: u64 = 4;

/// Which of the three fixed representations a set should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Ewah,
    Dense,
    Tids,
}

/// The representation the heuristic picks for a set with `card` ids whose
/// largest id is `max_id` (`None` when empty).
fn choose(card: u64, max_id: Option<u32>) -> Kind {
    let Some(max) = max_id else { return Kind::Tids };
    let span = u64::from(max) + 1;
    if card <= TINY_CARD || card.saturating_mul(SPARSE_DIVISOR) < span {
        Kind::Tids
    } else if card.saturating_mul(DENSE_DIVISOR) >= span {
        Kind::Dense
    } else {
        Kind::Ewah
    }
}

/// A posting that stores itself as whichever of [`EwahBitmap`],
/// [`DenseBitmap`] or [`TidVec`] is cheapest for its own density (see the
/// module docs for the rule). Mixed-representation operations use
/// streaming bridge kernels (id filtering against compressed segments,
/// bulk EWAH↔dense word conversion) rather than falling back to per-bit
/// loops.
#[derive(Debug, Clone)]
pub enum AdaptivePosting {
    /// Clustered middle ground: compressed runs + literals.
    Ewah(EwahBitmap),
    /// Near-full sets: plain words, unrolled kernels.
    Dense(DenseBitmap),
    /// Sparse tail: sorted ids, galloping intersection.
    Tids(TidVec),
}

use AdaptivePosting as A;

impl AdaptivePosting {
    fn kind(&self) -> Kind {
        match self {
            A::Ewah(_) => Kind::Ewah,
            A::Dense(_) => Kind::Dense,
            A::Tids(_) => Kind::Tids,
        }
    }

    fn max_id(&self) -> Option<u32> {
        match self {
            A::Ewah(e) => e.max_id(),
            A::Dense(d) => {
                let words = d.words();
                words
                    .iter()
                    .rposition(|&w| w != 0)
                    .map(|i| (i as u32) * 64 + 63 - words[i].leading_zeros())
            }
            A::Tids(t) => t.as_slice().last().copied(),
        }
    }

    /// Re-pick the representation for the current content and convert if
    /// the heuristic disagrees with the current variant. Conversions go
    /// through canonical constructors, so the result is exactly what a
    /// from-scratch build of the same set would be.
    fn canon(self) -> Self {
        let target = choose(self.cardinality(), self.max_id());
        if self.kind() == target {
            return self;
        }
        match target {
            Kind::Tids => A::Tids(TidVec::from_sorted(&self.to_vec())),
            Kind::Dense => match self {
                A::Ewah(e) => A::Dense(DenseBitmap::from_words(e.to_dense_words())),
                A::Tids(t) => A::Dense(DenseBitmap::from_sorted(t.as_slice())),
                A::Dense(_) => unreachable!("kind matched above"),
            },
            Kind::Ewah => match self {
                A::Dense(d) => A::Ewah(d.to_ewah()),
                A::Tids(t) => A::Ewah(EwahBitmap::from_sorted(t.as_slice())),
                A::Ewah(_) => unreachable!("kind matched above"),
            },
        }
    }

    /// The heuristic's choice for a hypothetical set, exposed for tests
    /// and benchmark labeling.
    pub fn chosen_name(card: u64, max_id: Option<u32>) -> &'static str {
        match choose(card, max_id) {
            Kind::Ewah => "ewah",
            Kind::Dense => "dense",
            Kind::Tids => "tidvec",
        }
    }

    /// Name of the representation currently in use.
    pub fn current_name(&self) -> &'static str {
        match self {
            A::Ewah(_) => "ewah",
            A::Dense(_) => "dense",
            A::Tids(_) => "tidvec",
        }
    }
}

impl Posting for AdaptivePosting {
    fn from_sorted(ids: &[u32]) -> Self {
        // The inner constructor validates strict monotonicity; `choose`
        // only peeks at the last element, which for valid input is the max.
        match choose(ids.len() as u64, ids.last().copied()) {
            Kind::Tids => A::Tids(TidVec::from_sorted(ids)),
            Kind::Dense => A::Dense(DenseBitmap::from_sorted(ids)),
            Kind::Ewah => A::Ewah(EwahBitmap::from_sorted(ids)),
        }
    }

    fn full(n: u32) -> Self {
        match choose(u64::from(n), n.checked_sub(1)) {
            Kind::Tids => A::Tids(TidVec::full(n)),
            Kind::Dense => A::Dense(DenseBitmap::full(n)),
            Kind::Ewah => A::Ewah(EwahBitmap::full(n)),
        }
    }

    fn append_sorted(&mut self, ids: &[u32]) {
        if ids.is_empty() {
            return;
        }
        // Append natively (each inner append is canonical and validating),
        // then re-pick the representation for the grown set.
        let mut cur = std::mem::replace(self, A::Tids(TidVec::new()));
        match &mut cur {
            A::Ewah(e) => e.append_sorted(ids),
            A::Dense(d) => d.append_sorted(ids),
            A::Tids(t) => t.append_sorted(ids),
        }
        *self = cur.canon();
    }

    fn remove_sorted(&mut self, ids: &[u32]) {
        if ids.is_empty() {
            return;
        }
        let mut cur = std::mem::replace(self, A::Tids(TidVec::new()));
        match &mut cur {
            A::Ewah(e) => e.remove_sorted(ids),
            A::Dense(d) => d.remove_sorted(ids),
            A::Tids(t) => t.remove_sorted(ids),
        }
        *self = cur.canon();
    }

    fn and(&self, other: &Self) -> Self {
        let raw = match (self, other) {
            (A::Ewah(a), A::Ewah(b)) => A::Ewah(a.and(b)),
            (A::Dense(a), A::Dense(b)) => A::Dense(a.and(b)),
            (A::Tids(a), A::Tids(b)) => A::Tids(a.and(b)),
            (A::Tids(t), A::Ewah(e)) | (A::Ewah(e), A::Tids(t)) => {
                A::Tids(TidVec::from_sorted(&e.filter_sorted_ids(t.as_slice(), true)))
            }
            (A::Tids(t), A::Dense(d)) | (A::Dense(d), A::Tids(t)) => {
                let kept: Vec<u32> =
                    t.as_slice().iter().copied().filter(|&id| d.contains(id)).collect();
                A::Tids(TidVec::from_sorted(&kept))
            }
            (A::Dense(d), A::Ewah(e)) | (A::Ewah(e), A::Dense(d)) => {
                let mut words = e.to_dense_words();
                words.truncate(d.words().len());
                kernels::map2_in_place(&mut words, d.words(), |x, y| x & y);
                A::Dense(DenseBitmap::from_words(words))
            }
        };
        raw.canon()
    }

    fn or(&self, other: &Self) -> Self {
        let raw = match (self, other) {
            (A::Ewah(a), A::Ewah(b)) => A::Ewah(a.or(b)),
            (A::Dense(a), A::Dense(b)) => A::Dense(a.or(b)),
            (A::Tids(a), A::Tids(b)) => A::Tids(a.or(b)),
            (A::Tids(t), A::Ewah(e)) | (A::Ewah(e), A::Tids(t)) => {
                A::Ewah(e.or(&EwahBitmap::from_sorted(t.as_slice())))
            }
            (A::Tids(t), A::Dense(d)) | (A::Dense(d), A::Tids(t)) => {
                let mut grown = d.clone();
                for &id in t.as_slice() {
                    grown.insert(id);
                }
                A::Dense(grown)
            }
            (A::Dense(d), A::Ewah(e)) | (A::Ewah(e), A::Dense(d)) => {
                let mut words = e.to_dense_words();
                if words.len() < d.words().len() {
                    words.resize(d.words().len(), 0);
                }
                kernels::map2_in_place(&mut words, d.words(), |x, y| x | y);
                A::Dense(DenseBitmap::from_words(words))
            }
        };
        raw.canon()
    }

    fn andnot(&self, other: &Self) -> Self {
        let raw = match (self, other) {
            (A::Ewah(a), A::Ewah(b)) => A::Ewah(a.andnot(b)),
            (A::Dense(a), A::Dense(b)) => A::Dense(a.andnot(b)),
            (A::Tids(a), A::Tids(b)) => A::Tids(a.andnot(b)),
            (A::Tids(t), A::Ewah(e)) => {
                A::Tids(TidVec::from_sorted(&e.filter_sorted_ids(t.as_slice(), false)))
            }
            (A::Ewah(e), A::Tids(t)) => A::Ewah(e.andnot(&EwahBitmap::from_sorted(t.as_slice()))),
            (A::Tids(t), A::Dense(d)) => {
                let kept: Vec<u32> =
                    t.as_slice().iter().copied().filter(|&id| !d.contains(id)).collect();
                A::Tids(TidVec::from_sorted(&kept))
            }
            (A::Dense(d), A::Tids(t)) => {
                A::Dense(d.andnot(&DenseBitmap::from_sorted(t.as_slice())))
            }
            (A::Dense(d), A::Ewah(e)) => {
                let ewords = e.to_dense_words();
                let mut words = d.words().to_vec();
                kernels::map2_in_place(&mut words, &ewords, |x, y| x & !y);
                A::Dense(DenseBitmap::from_words(words))
            }
            (A::Ewah(e), A::Dense(d)) => A::Ewah(e.andnot(&d.to_ewah())),
        };
        raw.canon()
    }

    fn cardinality(&self) -> u64 {
        match self {
            A::Ewah(e) => e.cardinality(),
            A::Dense(d) => d.cardinality(),
            A::Tids(t) => t.cardinality(),
        }
    }

    fn for_each(&self, f: impl FnMut(u32)) {
        match self {
            A::Ewah(e) => e.for_each(f),
            A::Dense(d) => d.for_each(f),
            A::Tids(t) => t.for_each(f),
        }
    }

    fn and_cardinality(&self, other: &Self) -> u64 {
        match (self, other) {
            (A::Ewah(a), A::Ewah(b)) => a.and_cardinality(b),
            (A::Dense(a), A::Dense(b)) => a.and_cardinality(b),
            (A::Tids(a), A::Tids(b)) => a.and_cardinality(b),
            (A::Tids(t), A::Ewah(e)) | (A::Ewah(e), A::Tids(t)) => {
                e.filter_sorted_ids(t.as_slice(), true).len() as u64
            }
            (A::Tids(t), A::Dense(d)) | (A::Dense(d), A::Tids(t)) => {
                t.as_slice().iter().filter(|&&id| d.contains(id)).count() as u64
            }
            (A::Dense(d), A::Ewah(e)) | (A::Ewah(e), A::Dense(d)) => {
                e.and_cardinality_words(d.words())
            }
        }
    }

    fn to_vec(&self) -> Vec<u32> {
        match self {
            A::Ewah(e) => e.to_vec(),
            A::Dense(d) => d.to_vec(),
            A::Tids(t) => t.to_vec(),
        }
    }

    fn contains(&self, id: u32) -> bool {
        match self {
            A::Ewah(e) => e.contains(id),
            A::Dense(d) => d.contains(id),
            A::Tids(t) => t.contains(id),
        }
    }

    fn is_empty(&self) -> bool {
        self.cardinality() == 0
    }
}

impl PartialEq for AdaptivePosting {
    /// Semantic set equality. Canonically built values of equal sets always
    /// share a variant (the heuristic is a pure function of content), so
    /// the cross-variant fallback only triggers for hand-decoded input.
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (A::Ewah(a), A::Ewah(b)) => a == b,
            (A::Dense(a), A::Dense(b)) => a == b,
            (A::Tids(a), A::Tids(b)) => a == b,
            _ => self.cardinality() == other.cardinality() && self.to_vec() == other.to_vec(),
        }
    }
}

impl Eq for AdaptivePosting {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristic_picks_by_density() {
        // Empty and tiny → tidvec.
        assert!(matches!(AdaptivePosting::from_sorted(&[]), A::Tids(_)));
        assert!(matches!(AdaptivePosting::from_sorted(&[5, 9]), A::Tids(_)));
        // 65 ids spread over 1M → density ~2^-14 → tidvec.
        let sparse: Vec<u32> = (0..65u32).map(|i| i * 15_000).collect();
        assert!(matches!(AdaptivePosting::from_sorted(&sparse), A::Tids(_)));
        // Every other id over 10k → density 1/2 → dense.
        let dense: Vec<u32> = (0..10_000).step_by(2).collect();
        assert!(matches!(AdaptivePosting::from_sorted(&dense), A::Dense(_)));
        // Every 16th id over 100k → density 1/16 → ewah.
        let mid: Vec<u32> = (0..100_000).step_by(16).collect();
        assert!(matches!(AdaptivePosting::from_sorted(&mid), A::Ewah(_)));
    }

    #[test]
    fn ops_recanonicalize() {
        // dense ∩ sparse → tiny result must come back as Tids, encoded
        // exactly like a from-scratch build.
        let dense: Vec<u32> = (0..10_000).collect();
        let sparse: Vec<u32> = vec![3, 5_000, 50_000];
        let d = AdaptivePosting::from_sorted(&dense);
        let s = AdaptivePosting::from_sorted(&sparse);
        let both = d.and(&s);
        assert!(matches!(both, A::Tids(_)));
        let expect = AdaptivePosting::from_sorted(&[3, 5_000]);
        assert_eq!(both, expect);
        assert_eq!(both.current_name(), expect.current_name());
    }

    #[test]
    fn mixed_ops_match_fixed_representation() {
        let xs: Vec<u32> = (0..50_000).step_by(3).collect(); // ewah-range density
        let ys: Vec<u32> = (0..50_000).step_by(2).collect(); // dense
        let zs: Vec<u32> = vec![0, 3, 6, 30_000, 49_998, 60_000]; // tids
        for (a_ids, b_ids) in [(&xs, &ys), (&xs, &zs), (&ys, &zs), (&zs, &xs), (&ys, &xs)] {
            let a = AdaptivePosting::from_sorted(a_ids);
            let b = AdaptivePosting::from_sorted(b_ids);
            let ea = EwahBitmap::from_sorted(a_ids);
            let eb = EwahBitmap::from_sorted(b_ids);
            assert_eq!(a.and(&b).to_vec(), ea.and(&eb).to_vec());
            assert_eq!(a.or(&b).to_vec(), ea.or(&eb).to_vec());
            assert_eq!(a.andnot(&b).to_vec(), ea.andnot(&eb).to_vec());
            assert_eq!(a.and_cardinality(&b), ea.and_cardinality(&eb));
        }
    }
}
