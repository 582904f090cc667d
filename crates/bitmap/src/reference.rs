//! Scalar reference implementations over sorted id vectors.
//!
//! The dense set algebra of this crate — the segment walkers, the unrolled
//! word loops, the k-way intersection its callers run on them — is pinned
//! against these deliberately boring linear merges by the differential
//! property tests (`tests/kernel_equivalence.rs`): one element at a time,
//! one fresh vector per step, nothing to get wrong.

/// Linear-merge intersection of two strictly increasing id slices.
pub fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
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
    out
}

/// Pairwise-fold k-way intersection: each step materializes a fresh vector.
pub fn intersect_all_sorted(lists: &[&[u32]]) -> Option<Vec<u32>> {
    let (first, rest) = lists.split_first()?;
    let mut acc = first.to_vec();
    for l in rest {
        if acc.is_empty() {
            break;
        }
        acc = intersect_sorted(&acc, l);
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_ops() {
        let a = [1u32, 3, 5, 7, 9];
        let b = [3u32, 4, 5, 9, 10];
        assert_eq!(intersect_sorted(&a, &b), vec![3, 5, 9]);
        assert_eq!(intersect_all_sorted(&[&a, &b, &[5u32, 9]]).unwrap(), vec![5, 9]);
        assert!(intersect_all_sorted(&[]).is_none());
    }
}
