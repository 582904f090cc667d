//! Sorted-vector posting list (classical Eclat tidset).
//!
//! The simplest representation: a strictly increasing `Vec<u32>`. Balanced
//! operations are linear merges; when cardinalities are skewed by more than
//! `GALLOP_RATIO` (16×), intersection switches to a **galloping**
//! (exponential-search) scan that walks the small side and probes the large
//! side in `O(|small| · log(gap))` — the classic sort-merge-join trick, and
//! the reason a 100-element tidset can intersect a 100 000-element one
//! without reading all 100 000 ids. Kept as the sparse contender of this
//! crate's representation study (model tests, kernel grid) and one arm of
//! [`crate::AdaptivePosting`]; nothing above `scube-bitmap` stores one.
//! EWAH wins on dense/clustered data, `TidVec` on very sparse data, and the
//! kernel grid shows the crossover.

use crate::Posting;

/// Length ratio above which intersection gallops instead of merging
/// linearly. Galloping costs ~2·log₂(gap) probes per small-side id, so it
/// only pays once the large side is comfortably bigger than
/// `|small| · log |large|`; 16 is past the crossover on every measured
/// shape and keeps the balanced case on the branch-predictable merge.
const GALLOP_RATIO: usize = 16;

/// First index `>= from` with `hay[idx] >= needle`, or `hay.len()`.
/// Exponential search from `from` followed by a binary search of the
/// bracketed window — cost grows with the *distance advanced*, not the
/// haystack length, so a full k-way pass stays linear in the haystack even
/// when called once per small-side id.
#[inline]
fn gallop_to(hay: &[u32], from: usize, needle: u32) -> usize {
    if from >= hay.len() || hay[from] >= needle {
        return from;
    }
    // Invariant: hay[lo] < needle.
    let mut lo = from;
    let mut step = 1usize;
    while lo + step < hay.len() && hay[lo + step] < needle {
        lo += step;
        step <<= 1;
    }
    let end = (lo + step + 1).min(hay.len());
    lo + 1 + hay[lo + 1..end].partition_point(|&v| v < needle)
}

/// Intersection of two sorted slices into `out` (cleared first): galloping
/// when skewed, linear merge when balanced.
fn intersect_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.len().saturating_mul(GALLOP_RATIO) < large.len() {
        out.reserve(small.len());
        let mut j = 0;
        for &x in small {
            j = gallop_to(large, j, x);
            if j == large.len() {
                break;
            }
            if large[j] == x {
                out.push(x);
                j += 1;
            }
        }
    } else {
        out.reserve(small.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

/// Sorted vector of ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TidVec {
    ids: Vec<u32>,
}

impl TidVec {
    /// Empty posting list.
    pub fn new() -> Self {
        TidVec::default()
    }

    /// Borrow the underlying sorted ids.
    pub fn as_slice(&self) -> &[u32] {
        &self.ids
    }

    /// Heap bytes used.
    pub fn heap_bytes(&self) -> usize {
        self.ids.capacity() * 4
    }
}

impl Posting for TidVec {
    fn full(n: u32) -> Self {
        TidVec { ids: (0..n).collect() }
    }

    fn from_sorted(ids: &[u32]) -> Self {
        for w in ids.windows(2) {
            assert!(w[0] < w[1], "ids must be strictly increasing");
        }
        TidVec { ids: ids.to_vec() }
    }

    fn append_sorted(&mut self, ids: &[u32]) {
        for w in ids.windows(2) {
            assert!(w[0] < w[1], "ids must be strictly increasing");
        }
        if let (Some(&last), Some(&first)) = (self.ids.last(), ids.first()) {
            assert!(first > last, "appended ids must be strictly above the current maximum");
        }
        self.ids.extend_from_slice(ids);
    }

    fn remove_sorted(&mut self, ids: &[u32]) {
        for w in ids.windows(2) {
            assert!(w[0] < w[1], "ids must be strictly increasing");
        }
        if ids.is_empty() {
            return;
        }
        // One in-place drain pass over the sorted vector: survivors shift
        // left past the removed slots.
        let mut j = 0;
        let before = self.ids.len();
        self.ids.retain(|&id| {
            if j < ids.len() && ids[j] == id {
                j += 1;
                false
            } else {
                true
            }
        });
        assert_eq!(before - self.ids.len(), ids.len(), "removed ids must all be present");
    }

    fn and(&self, other: &Self) -> Self {
        let mut out = Vec::new();
        intersect_into(&self.ids, &other.ids, &mut out);
        TidVec { ids: out }
    }

    fn and_into(&self, other: &Self, out: &mut Self) {
        intersect_into(&self.ids, &other.ids, &mut out.ids);
    }

    fn and_assign(&mut self, other: &Self) {
        // The intersection is a subsequence of `self`, so the write cursor
        // never overtakes the read cursor: safe to compact in place.
        let ids = &mut self.ids;
        if other.ids.len().saturating_mul(GALLOP_RATIO) < ids.len() {
            // `self` is the large side: probe it for each id of `other` and
            // compact the hits to the front.
            let mut w = 0;
            let mut j = 0;
            for k in 0..other.ids.len() {
                let x = other.ids[k];
                j = gallop_to(ids, j, x);
                if j == ids.len() {
                    break;
                }
                if ids[j] == x {
                    ids[w] = x;
                    w += 1;
                    j += 1;
                }
            }
            ids.truncate(w);
        } else {
            let mut w = 0;
            let mut j = 0;
            let gallop = ids.len().saturating_mul(GALLOP_RATIO) < other.ids.len();
            for i in 0..ids.len() {
                let x = ids[i];
                if gallop {
                    j = gallop_to(&other.ids, j, x);
                } else {
                    while j < other.ids.len() && other.ids[j] < x {
                        j += 1;
                    }
                }
                if j == other.ids.len() {
                    break;
                }
                if other.ids[j] == x {
                    ids[w] = x;
                    w += 1;
                    j += 1;
                }
            }
            ids.truncate(w);
        }
    }

    fn intersect_many(postings: &[&Self]) -> Option<Self> {
        match postings {
            [] => None,
            [one] => Some((*one).clone()),
            _ => {
                // Single-pass k-way: walk the smallest list once and gallop
                // a cursor through each other list. One output allocation,
                // no intermediate postings at all.
                let mut order: Vec<&Self> = postings.to_vec();
                order.sort_by_key(|p| p.ids.len());
                let (smallest, rest) = order.split_first().expect("len >= 2");
                let mut out = Vec::with_capacity(smallest.ids.len());
                let mut cursors = vec![0usize; rest.len()];
                'outer: for &x in smallest.ids.iter() {
                    for (cur, list) in cursors.iter_mut().zip(rest) {
                        *cur = gallop_to(&list.ids, *cur, x);
                        if *cur == list.ids.len() {
                            // Every later id of the smallest list is larger
                            // still, so nothing more can match anywhere.
                            break 'outer;
                        }
                        if list.ids[*cur] != x {
                            continue 'outer;
                        }
                    }
                    out.push(x);
                }
                Some(TidVec { ids: out })
            }
        }
    }

    fn or(&self, other: &Self) -> Self {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::with_capacity(self.ids.len() + other.ids.len());
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.ids[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.ids[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.ids[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.ids[i..]);
        out.extend_from_slice(&other.ids[j..]);
        TidVec { ids: out }
    }

    fn andnot(&self, other: &Self) -> Self {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::with_capacity(self.ids.len());
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.ids[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.ids[i..]);
        TidVec { ids: out }
    }

    fn cardinality(&self) -> u64 {
        self.ids.len() as u64
    }

    fn for_each(&self, mut f: impl FnMut(u32)) {
        for &id in self.ids.iter() {
            f(id);
        }
    }

    fn and_cardinality(&self, other: &Self) -> u64 {
        // Galloping, non-materializing count when skewed; linear otherwise.
        let (small, large) = if self.ids.len() <= other.ids.len() {
            (&self.ids, &other.ids)
        } else {
            (&other.ids, &self.ids)
        };
        let mut n = 0u64;
        if small.len().saturating_mul(GALLOP_RATIO) < large.len() {
            let mut j = 0;
            for &x in small.iter() {
                j = gallop_to(large, j, x);
                if j == large.len() {
                    break;
                }
                if large[j] == x {
                    n += 1;
                    j += 1;
                }
            }
        } else {
            let (mut i, mut j) = (0, 0);
            while i < small.len() && j < large.len() {
                match small[i].cmp(&large[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        n += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        n
    }

    fn to_vec(&self) -> Vec<u32> {
        self.ids.clone()
    }

    fn contains(&self, id: u32) -> bool {
        self.ids.binary_search(&id).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let a = TidVec::from_sorted(&[1, 3, 5, 7]);
        let b = TidVec::from_sorted(&[3, 4, 5]);
        assert_eq!(a.and(&b).to_vec(), vec![3, 5]);
        assert_eq!(a.or(&b).to_vec(), vec![1, 3, 4, 5, 7]);
        assert_eq!(a.andnot(&b).to_vec(), vec![1, 7]);
        assert_eq!(a.and_cardinality(&b), 2);
        assert!(a.contains(7));
        assert!(!a.contains(4));
    }

    #[test]
    fn empty_interactions() {
        let a = TidVec::from_sorted(&[1, 2]);
        let e = TidVec::new();
        assert_eq!(a.and(&e).cardinality(), 0);
        assert_eq!(a.or(&e).to_vec(), vec![1, 2]);
        assert_eq!(e.andnot(&a).cardinality(), 0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_duplicates() {
        TidVec::from_sorted(&[1, 1]);
    }

    #[test]
    fn gallop_to_brackets_correctly() {
        let hay: Vec<u32> = (0..1000).map(|i| i * 3).collect();
        for from in [0usize, 1, 500, 999, 1000] {
            for needle in [0u32, 1, 2, 3, 1499, 1500, 2997, 2998, 5000] {
                let expect = from + hay[from.min(hay.len())..].partition_point(|&v| v < needle);
                assert_eq!(gallop_to(&hay, from, needle), expect, "from={from} needle={needle}");
            }
        }
    }

    #[test]
    fn skewed_intersections_match_linear() {
        // 40 ids vs 40_000: forces the galloping path in every kernel.
        let small: Vec<u32> = (0..40u32).map(|i| i * 997).collect();
        let large: Vec<u32> = (0..40_000u32).collect();
        let s = TidVec::from_sorted(&small);
        let l = TidVec::from_sorted(&large);
        let expect: Vec<u32> = small.iter().copied().filter(|&x| x < 40_000).collect();
        assert_eq!(s.and(&l).to_vec(), expect);
        assert_eq!(l.and(&s).to_vec(), expect);
        assert_eq!(s.and_cardinality(&l), expect.len() as u64);
        assert_eq!(l.and_cardinality(&s), expect.len() as u64);
        let mut a = s.clone();
        a.and_assign(&l);
        assert_eq!(a.to_vec(), expect);
        let mut b = l.clone();
        b.and_assign(&s);
        assert_eq!(b.to_vec(), expect);
        let kway = TidVec::intersect_many(&[&l, &s, &l]).unwrap();
        assert_eq!(kway.to_vec(), expect);
    }
}
