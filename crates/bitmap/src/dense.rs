//! Uncompressed bitset over `Vec<u64>`.
//!
//! The dense contender of this crate's representation study (model tests,
//! kernel grid) and one arm of [`crate::AdaptivePosting`]; nothing above
//! `scube-bitmap` stores one. All boolean algebra runs through the unrolled word loops in
//! [`crate::kernels`], including true in-place `and_assign` (the
//! intersection never outgrows `self`'s words) and a non-materializing
//! `and_cardinality`.

use crate::{kernels, EwahBitmap, Posting};

/// A plain, zero-extended bitset.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DenseBitmap {
    words: Vec<u64>,
}

impl DenseBitmap {
    /// Empty bitset.
    pub fn new() -> Self {
        DenseBitmap::default()
    }

    /// Empty bitset with room for ids `< nbits` without reallocating.
    pub fn with_capacity(nbits: usize) -> Self {
        DenseBitmap { words: Vec::with_capacity(nbits.div_ceil(64)) }
    }

    /// Set bit `id` (grows as needed).
    pub fn insert(&mut self, id: u32) {
        let w = id as usize / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (id % 64);
    }

    /// Clear bit `id` (no-op when out of range).
    pub fn remove(&mut self, id: u32) {
        let w = id as usize / 64;
        if w < self.words.len() {
            self.words[w] &= !(1 << (id % 64));
        }
    }

    /// Reset all bits, keeping capacity (workhorse-collection pattern).
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Heap bytes used.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8
    }

    /// Convert to the compressed representation (bulk block classification,
    /// same canonical stream the word-at-a-time loop produced).
    pub fn to_ewah(&self) -> EwahBitmap {
        let mut a = crate::ewah::Appender::new();
        a.push_words(&self.words);
        a.finish()
    }

    /// Build from a compressed bitmap (bulk word decompression, not
    /// per-bit inserts).
    pub fn from_ewah(e: &EwahBitmap) -> Self {
        DenseBitmap { words: e.to_dense_words() }
    }

    /// Wrap raw words, trimming trailing zeros to the canonical form.
    pub(crate) fn from_words(mut words: Vec<u64>) -> Self {
        while words.last() == Some(&0) {
            words.pop();
        }
        DenseBitmap { words }
    }

    /// The raw zero-extended words.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    fn trim(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }
}

impl Posting for DenseBitmap {
    fn full(n: u32) -> Self {
        let nbits = n as usize;
        let mut words = vec![u64::MAX; nbits / 64];
        if !nbits.is_multiple_of(64) {
            words.push((1u64 << (nbits % 64)) - 1);
        }
        DenseBitmap { words }
    }

    fn from_sorted(ids: &[u32]) -> Self {
        let mut d = match ids.last() {
            Some(&max) => DenseBitmap::with_capacity(max as usize + 1),
            None => return DenseBitmap::new(),
        };
        let mut prev: Option<u32> = None;
        for &id in ids {
            assert!(prev.is_none_or(|p| id > p), "ids must be strictly increasing");
            prev = Some(id);
            d.insert(id);
        }
        d
    }

    fn append_sorted(&mut self, ids: &[u32]) {
        let mut prev: Option<u32> = None;
        for &id in ids {
            assert!(prev.is_none_or(|p| id > p), "ids must be strictly increasing");
            debug_assert!(!self.contains(id), "appended ids must be new");
            prev = Some(id);
            self.insert(id);
        }
    }

    fn remove_sorted(&mut self, ids: &[u32]) {
        let mut prev: Option<u32> = None;
        for &id in ids {
            assert!(prev.is_none_or(|p| id > p), "ids must be strictly increasing");
            assert!(self.contains(id), "removed ids must all be present");
            prev = Some(id);
            self.remove(id);
        }
        // Word-clears may strand all-zero trailing words; trim them so the
        // encoding matches a from-scratch build of the surviving ids.
        self.trim();
    }

    fn and(&self, other: &Self) -> Self {
        let mut out = DenseBitmap::new();
        self.and_into(other, &mut out);
        out
    }

    fn or(&self, other: &Self) -> Self {
        // No trailing-zero trim needed beyond the inputs': the longer
        // input's tail is copied verbatim, but inputs may carry stranded
        // zero words (via `remove`), so trim like `op` always did.
        let n = self.words.len().max(other.words.len());
        let mut words = vec![0u64; n];
        kernels::map2_into(&self.words, &other.words, &mut words, |a, b| a | b);
        let shared = self.words.len().min(other.words.len());
        let tail = if self.words.len() > shared { &self.words } else { &other.words };
        words[shared..].copy_from_slice(&tail[shared..]);
        DenseBitmap::from_words(words)
    }

    fn andnot(&self, other: &Self) -> Self {
        let mut words = vec![0u64; self.words.len()];
        kernels::map2_into(&self.words, &other.words, &mut words, |a, b| a & !b);
        let shared = self.words.len().min(other.words.len());
        words[shared..].copy_from_slice(&self.words[shared..]);
        DenseBitmap::from_words(words)
    }

    fn and_into(&self, other: &Self, out: &mut Self) {
        let n = self.words.len().min(other.words.len());
        out.words.clear();
        out.words.resize(n, 0);
        kernels::map2_into(&self.words, &other.words, &mut out.words, |a, b| a & b);
        out.trim();
    }

    fn and_assign(&mut self, other: &Self) {
        self.words.truncate(other.words.len());
        kernels::map2_in_place(&mut self.words, &other.words, |a, b| a & b);
        self.trim();
    }

    fn intersect_many(postings: &[&Self]) -> Option<Self> {
        match postings {
            [] => None,
            [one] => Some((*one).clone()),
            _ => {
                // A dense AND costs min(word spans) regardless of how many
                // bits are set, so order by span — computing cardinalities
                // (full popcounts) just to sort would cost as much as the
                // intersections themselves.
                let mut order: Vec<usize> = (0..postings.len()).collect();
                order.sort_by_key(|&i| postings[i].words.len());
                let mut acc = postings[order[0]].clone();
                let mut spare = DenseBitmap::new();
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

    fn cardinality(&self) -> u64 {
        kernels::popcount_words(&self.words)
    }

    fn for_each(&self, mut f: impl FnMut(u32)) {
        for (i, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let tz = w.trailing_zeros();
                f((i * 64) as u32 + tz);
                w &= w - 1;
            }
        }
    }

    fn and_cardinality(&self, other: &Self) -> u64 {
        kernels::and_popcount_words(&self.words, &other.words)
    }

    fn contains(&self, id: u32) -> bool {
        self.words.get(id as usize / 64).is_some_and(|w| w & (1 << (id % 64)) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut d = DenseBitmap::new();
        d.insert(0);
        d.insert(63);
        d.insert(64);
        assert!(d.contains(0) && d.contains(63) && d.contains(64));
        assert!(!d.contains(1) && !d.contains(65) && !d.contains(10_000));
        assert_eq!(d.cardinality(), 3);
    }

    #[test]
    fn remove_bit() {
        let mut d = DenseBitmap::from_sorted(&[1, 2, 3]);
        d.remove(2);
        assert_eq!(d.to_vec(), vec![1, 3]);
        d.remove(100); // out of range: no-op
        assert_eq!(d.cardinality(), 2);
    }

    #[test]
    fn ops_match_sets() {
        let a = DenseBitmap::from_sorted(&[1, 2, 3, 200]);
        let b = DenseBitmap::from_sorted(&[2, 200, 300]);
        assert_eq!(a.and(&b).to_vec(), vec![2, 200]);
        assert_eq!(a.or(&b).to_vec(), vec![1, 2, 3, 200, 300]);
        assert_eq!(a.andnot(&b).to_vec(), vec![1, 3]);
        assert_eq!(a.and_cardinality(&b), 2);
    }

    #[test]
    fn trailing_zero_words_trimmed_by_ops() {
        let a = DenseBitmap::from_sorted(&[1, 1000]);
        let b = DenseBitmap::from_sorted(&[1]);
        let r = a.and(&b);
        assert_eq!(r.to_vec(), vec![1]);
        assert!(r.words.len() <= 1);
    }

    #[test]
    fn ewah_roundtrip() {
        let ids = vec![0u32, 5, 64, 1000, 100_000];
        let d = DenseBitmap::from_sorted(&ids);
        let e = d.to_ewah();
        assert_eq!(e.to_vec(), ids);
        assert_eq!(DenseBitmap::from_ewah(&e), d);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut d = DenseBitmap::from_sorted(&[100_000]);
        let cap = d.heap_bytes();
        d.clear();
        assert_eq!(d.cardinality(), 0);
        assert_eq!(d.heap_bytes(), cap);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_panics() {
        DenseBitmap::from_sorted(&[2, 1]);
    }
}
