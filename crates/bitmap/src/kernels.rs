//! Word-level kernels of the dense set algebra.
//!
//! Every routine here works on plain `&[u64]` slices and is written as a
//! straight-line loop over fixed-width chunks (`chunks_exact`), the shape
//! LLVM's autovectorizer reliably turns into SIMD on both x86-64 and
//! aarch64 — `std::simd` is nightly-only, so this is the portable way to
//! get vector code on stable. The kernels are *pure word transforms*: they
//! never trim trailing zeros or track cardinality; the caller owns the
//! encoding invariants.
//!
//! [`EwahBitmap`](crate::EwahBitmap) runs its literal stretches through
//! them when it crosses into dense words. The Eclat walk and the update
//! path run their joins straight on them: they count a candidate with
//! [`and_popcount_words`] and histogram a node with [`for_each_set_bit`].

/// Width of the unrolled inner loops, in 64-bit words (a 512-bit stripe).
const LANES: usize = 8;

/// Number of set bits across `words`.
#[inline]
pub fn popcount_words(words: &[u64]) -> u64 {
    let mut chunks = words.chunks_exact(LANES);
    let mut acc = [0u64; LANES];
    for c in &mut chunks {
        for (a, w) in acc.iter_mut().zip(c) {
            *a += u64::from(w.count_ones());
        }
    }
    let tail: u64 = chunks.remainder().iter().map(|w| u64::from(w.count_ones())).sum();
    acc.iter().sum::<u64>() + tail
}

/// Number of set bits in `a & b`, over the overlapping prefix, without
/// materializing the intersection.
#[inline]
pub fn and_popcount_words(a: &[u64], b: &[u64]) -> u64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    let mut acc = [0u64; LANES];
    for (xs, ys) in (&mut ca).zip(&mut cb) {
        for ((s, x), y) in acc.iter_mut().zip(xs).zip(ys) {
            *s += u64::from((x & y).count_ones());
        }
    }
    let tail: u64 = ca
        .remainder()
        .iter()
        .zip(cb.remainder())
        .map(|(x, y)| u64::from((x & y).count_ones()))
        .sum();
    acc.iter().sum::<u64>() + tail
}

/// `dst[i] &= src[i]` over the overlapping prefix, returning the number of
/// set bits left in that prefix: the AND and its popcount in one pass, with
/// no second read of `dst`.
#[inline]
pub fn and_assign_popcount_words(dst: &mut [u64], src: &[u64]) -> u64 {
    let n = dst.len().min(src.len());
    let (dst, src) = (&mut dst[..n], &src[..n]);
    let mut cd = dst.chunks_exact_mut(LANES);
    let mut cs = src.chunks_exact(LANES);
    let mut acc = [0u64; LANES];
    for (ds, ss) in (&mut cd).zip(&mut cs) {
        for ((s, d), x) in acc.iter_mut().zip(ds).zip(ss) {
            *d &= x;
            *s += u64::from(d.count_ones());
        }
    }
    let mut tail = 0u64;
    for (d, x) in cd.into_remainder().iter_mut().zip(cs.remainder()) {
        *d &= x;
        tail += u64::from(d.count_ones());
    }
    acc.iter().sum::<u64>() + tail
}

/// Call `f` with the id of every set bit of `words`, ascending, where bit
/// `b` of `words[i]` is id `first + 64·i + b` (narrowed to `u32`, as
/// [`EwahBitmap::iter`](crate::EwahBitmap::iter) narrows).
#[inline]
pub fn for_each_set_bit(words: &[u64], first: u64, mut f: impl FnMut(u32)) {
    for (i, &w) in words.iter().enumerate() {
        let base = first + 64 * i as u64;
        let mut w = w;
        while w != 0 {
            f((base + u64::from(w.trailing_zeros())) as u32);
            w &= w - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn popcount_matches_naive() {
        for n in [0usize, 1, 7, 8, 9, 16, 63, 64, 65, 200] {
            let words: Vec<u64> =
                (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
            let naive: u64 = words.iter().map(|w| u64::from(w.count_ones())).sum();
            assert_eq!(popcount_words(&words), naive, "n={n}");
        }
    }

    #[test]
    fn and_popcount_matches_naive() {
        let a: Vec<u64> = (0..37u64).map(|i| i.wrapping_mul(0x1234_5678_9ABC_DEF1)).collect();
        let b: Vec<u64> = (0..41u64).map(|i| !i.wrapping_mul(0x0FED_CBA9_8765_4321)).collect();
        let naive: u64 = a.iter().zip(&b).map(|(x, y)| u64::from((x & y).count_ones())).sum();
        assert_eq!(and_popcount_words(&a, &b), naive);
    }

    #[test]
    fn and_assign_popcount_matches_naive() {
        for (na, nb) in [(0usize, 5usize), (7, 7), (37, 41), (64, 20)] {
            let a: Vec<u64> =
                (0..na as u64).map(|i| i.wrapping_mul(0x1234_5678_9ABC_DEF1)).collect();
            let b: Vec<u64> =
                (0..nb as u64).map(|i| !i.wrapping_mul(0x0FED_CBA9_8765_4321)).collect();
            let mut got = a.clone();
            let count = and_assign_popcount_words(&mut got, &b);
            let n = na.min(nb);
            let want: Vec<u64> =
                a.iter().enumerate().map(|(i, &x)| if i < n { x & b[i] } else { x }).collect();
            assert_eq!(got, want, "{na}x{nb}");
            assert_eq!(count, and_popcount_words(&a, &b), "{na}x{nb}");
        }
    }

    #[test]
    fn set_bits_ascend_from_the_offset() {
        let mut ids = Vec::new();
        for_each_set_bit(&[0b1010, 0, 1 << 63], 128, |id| ids.push(id));
        assert_eq!(ids, vec![129, 131, 128 + 128 + 63]);
    }
}
