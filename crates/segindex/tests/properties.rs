//! Property tests for the segregation indexes: range bounds, invariances,
//! the social-science axioms the literature states for them, and the
//! contracts of the one fold kernel — bit-level invariance under any
//! reordering or renumbering of the units, agreement with the textbook
//! per-unit formulas ([`reference`], the oracle), and bit-level agreement of
//! its two run producers (the per-unit [`UnitCounts`] histogram and a
//! context's [`ContextTotals`] run table plus a cell's minority units).

use proptest::prelude::*;
use scube_segindex::{atkinson, ContextTotals, IndexValues, MeasureSet, Run, SegIndex, UnitCounts};

/// The textbook per-unit formulas (Massey & Denton), one pass per index in
/// unit-visit order with Gini sorting `(p_i, t_i)` as floats — what the
/// crate computed before the pair-multiset kernel, kept as its oracle.
mod reference {
    use scube_segindex::{SegIndex, UnitCounts};

    fn entropy(p: f64) -> f64 {
        let mut e = 0.0;
        if p > 0.0 {
            e -= p * p.ln();
        }
        if p < 1.0 {
            e -= (1.0 - p) * (1.0 - p).ln();
        }
        e
    }

    pub fn compute(index: SegIndex, c: &UnitCounts, atkinson_b: f64) -> Option<f64> {
        let (m_total, t_total) = (c.minority() as f64, c.total() as f64);
        let evenness_defined = c.minority() != 0 && c.minority() != c.total();
        let p = m_total / t_total;
        let units = || c.cells().iter().map(|u| (u.minority as f64, u.total as f64));
        let value = match index {
            SegIndex::Isolation | SegIndex::Interaction if c.minority() == 0 => return None,
            SegIndex::Isolation => units().map(|(m, t)| (m / m_total) * (m / t)).sum(),
            SegIndex::Interaction => units().map(|(m, t)| (m / m_total) * ((t - m) / t)).sum(),
            _ if !evenness_defined => return None,
            SegIndex::Dissimilarity => {
                let maj_total = t_total - m_total;
                units().map(|(m, t)| (m / m_total - (t - m) / maj_total).abs()).sum::<f64>() / 2.0
            }
            SegIndex::Gini => {
                let mut sorted: Vec<(f64, f64)> = units().map(|(m, t)| (m / t, t)).collect();
                sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
                let (mut num, mut weight_prefix, mut weighted_p_prefix) = (0.0, 0.0, 0.0);
                for (p_j, t_j) in sorted {
                    num += t_j * (p_j * weight_prefix - weighted_p_prefix);
                    weight_prefix += t_j;
                    weighted_p_prefix += t_j * p_j;
                }
                num / (t_total * t_total * p * (1.0 - p))
            }
            SegIndex::Information => {
                let e = entropy(p);
                units().map(|(m, t)| t * (e - entropy(m / t))).sum::<f64>() / (t_total * e)
            }
            SegIndex::Atkinson => {
                let b = atkinson_b;
                let sum: f64 =
                    units().map(|(m, t)| (1.0 - m / t).powf(1.0 - b) * (m / t).powf(b) * t).sum();
                1.0 - (p / (1.0 - p)) * (sum / (p * t_total)).powf(1.0 / (1.0 - b))
            }
        };
        Some(value.clamp(0.0, 1.0))
    }
}

/// Random histogram with at least one mixed unit so indexes are defined.
fn histogram() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..50, 1u64..100), 1..30).prop_map(|v| {
        v.into_iter()
            .map(|(m, extra)| (m, m + extra)) // total > minority ⇒ M < T
            .collect()
    })
}

fn counts(pairs: &[(u64, u64)]) -> UnitCounts {
    UnitCounts::from_pairs(pairs.iter().copied()).unwrap()
}

/// `(raw, t)` draws to valid `(m, t)` pairs with `m` uniform in `0..=t`.
fn to_pairs(draws: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    draws.into_iter().map(|(raw, t)| (raw % (t + 1), t)).collect()
}

/// Board-like: up to `max_units` units of 1–12 people — ≤ 90 distinct
/// pairs, so nearly every unit collides with another.
fn board_like(max_units: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((any::<u64>(), 1u64..=12), 1..max_units).prop_map(to_pairs)
}

/// Sector-like: a few dozen units of up to a million people.
fn sector_like() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((any::<u64>(), 1u64..=1_000_000), 1..30).prop_map(to_pairs)
}

/// Every pair different: unit `i` has `1000 + i` people.
fn all_distinct() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec(any::<u64>(), 1..2_000).prop_map(|raw| {
        to_pairs(raw.into_iter().enumerate().map(|(i, r)| (r, 1_000 + i as u64)).collect())
    })
}

/// Cheap deterministic Fisher–Yates.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut s = seed;
    for i in (1..items.len()).rev() {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        items.swap(i, (s >> 33) as usize % (i + 1));
    }
}

/// The kernel against the oracle on one histogram: same definedness, and
/// defined values within 1e-12 (the two sum in different orders, so the
/// last bits may differ; nothing more may).
fn assert_agrees_with_reference(c: &UnitCounts, atkinson_b: f64) {
    let folded = IndexValues::compute_with(c, atkinson_b);
    for idx in SegIndex::ALL {
        match (folded.get(idx), reference::compute(idx, c, atkinson_b)) {
            (Some(got), Some(want)) => {
                assert!((got - want).abs() <= 1e-12, "{idx}: kernel {got} vs reference {want}")
            }
            (got, want) => assert_eq!(got, want, "{idx}: definedness differs"),
        }
    }
}

/// `(m, t)` pairs as a cube cell sees them: a context of units `3i + 1`
/// (gaps between the ids, so a cursor cannot get lucky) held as a run
/// table, and the cell's ascending `m > 0` units.
fn split_cell(pairs: &[(u64, u64)]) -> (ContextTotals, Vec<(u32, u64)>) {
    let unit = |i: usize| 3 * i as u32 + 1;
    let context = pairs.iter().enumerate().map(|(i, &(_, t))| (unit(i), t)).collect();
    let minority = pairs
        .iter()
        .enumerate()
        .filter(|(_, p)| p.0 > 0)
        .map(|(i, &(m, _))| (unit(i), m))
        .collect();
    (ContextTotals::new(context).expect("valid context"), minority)
}

/// The run-table entries against the per-unit fold on one histogram: every
/// one of the 63 measure subsets, to the bit, for the cell — through the
/// unit lookup of `fold` and through `fold_runs` on the run table counted
/// here from the pairs, apart from `minority_runs` — and for the context's
/// own `A = ⋆` cell (every unit at `m = t`).
fn assert_run_table_matches_per_unit(pairs: &[(u64, u64)], b: f64) {
    let (context, minority) = split_cell(pairs);
    let mut counted = std::collections::BTreeMap::new();
    for &(m, t) in pairs.iter().filter(|p| p.0 > 0) {
        *counted.entry((t, m)).or_insert(0u64) += 1;
    }
    let runs: Vec<Run> = counted
        .into_iter()
        .map(|((total, minority), units)| Run { minority, total, units })
        .collect();
    assert_eq!(context.minority_runs(&minority).unwrap(), runs, "the run table");
    let per_unit = counts(pairs);
    let whole = counts(&pairs.iter().map(|&(_, t)| (t, t)).collect::<Vec<_>>());
    let bits = |v: &IndexValues| {
        (SegIndex::ALL.map(|idx| v.get(idx).map(f64::to_bits)), v.minority, v.total, v.num_units)
    };
    for bitset in 1u8..=63 {
        let set = MeasureSet::from_bits(bitset).unwrap();
        let cell = context.fold(&minority, b, set).expect("a valid cell folds");
        assert_eq!(bits(&cell), bits(&IndexValues::compute_masked(&per_unit, b, set)), "{set}");
        let folded = context.fold_runs(&runs, b, set).expect("a valid run table folds");
        assert_eq!(bits(&folded), bits(&cell), "run table {set}");
        let star = context.fold_whole(b, set);
        assert_eq!(bits(&star), bits(&IndexValues::compute_masked(&whole, b, set)), "⋆ {set}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn all_indexes_within_unit_interval(pairs in histogram()) {
        let c = counts(&pairs);
        let v = IndexValues::compute(&c);
        for idx in SegIndex::ALL {
            if let Some(x) = v.get(idx) {
                prop_assert!((0.0..=1.0).contains(&x), "{idx} = {x} out of range");
                prop_assert!(x.is_finite());
            }
        }
    }

    #[test]
    fn exposure_indexes_are_complementary(pairs in histogram()) {
        let c = counts(&pairs);
        if let (Some(xpx), Some(xpy)) =
            (SegIndex::Isolation.compute(&c), SegIndex::Interaction.compute(&c))
        {
            prop_assert!((xpx + xpy - 1.0).abs() < 1e-9, "xPx+xPy = {}", xpx + xpy);
        }
    }

    #[test]
    fn isolation_at_least_overall_proportion(pairs in histogram()) {
        let c = counts(&pairs);
        if let (Some(xpx), Some(p)) =
            (SegIndex::Isolation.compute(&c), c.minority_proportion())
        {
            prop_assert!(xpx >= p - 1e-9, "xPx {xpx} below P {p}");
        }
    }

    #[test]
    fn scale_invariance(pairs in histogram(), k in 2u64..8) {
        // Multiplying every head-count by k leaves all indexes unchanged
        // (indexes depend on proportions, not absolute counts).
        let c1 = counts(&pairs);
        let scaled: Vec<(u64, u64)> = pairs.iter().map(|&(m, t)| (m * k, t * k)).collect();
        let c2 = counts(&scaled);
        for idx in SegIndex::ALL {
            match (idx.compute(&c1), idx.compute(&c2)) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9, "{idx}: {a} vs {b}"),
                (a, b) => prop_assert_eq!(a.is_some(), b.is_some()),
            }
        }
    }

    #[test]
    fn organizational_equivalence(pairs in histogram()) {
        // Splitting a unit into two parts with identical minority share
        // leaves every index unchanged (the "organizational equivalence"
        // axiom of segregation measurement).
        let c1 = counts(&pairs);
        let mut split: Vec<(u64, u64)> = Vec::new();
        for &(m, t) in &pairs {
            // Duplicate each unit: (2m, 2t) split into two (m, t) halves has
            // the same shares as one (2m, 2t) unit.
            split.push((m, t));
            split.push((m, t));
        }
        let doubled: Vec<(u64, u64)> = pairs.iter().map(|&(m, t)| (2 * m, 2 * t)).collect();
        let c2 = counts(&split);
        let c3 = counts(&doubled);
        for idx in SegIndex::ALL {
            let a = idx.compute(&c2);
            let b = idx.compute(&c3);
            match (a, b) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9, "{idx}: {a} vs {b}"),
                (a, b) => prop_assert_eq!(a.is_some(), b.is_some()),
            }
        }
        let _ = c1;
    }

    #[test]
    fn empty_units_do_not_matter(pairs in histogram()) {
        let c1 = counts(&pairs);
        let mut with_empty = pairs.clone();
        with_empty.push((0, 0)); // dropped by construction
        // from_pairs drops zero-total units, so this must be identical.
        let c2 = UnitCounts::from_pairs(with_empty).unwrap();
        for idx in SegIndex::ALL {
            prop_assert_eq!(idx.compute(&c1), idx.compute(&c2));
        }
    }

    #[test]
    fn unit_order_does_not_matter(
        spread in histogram(),
        colliding in board_like(200),
        seed in any::<u64>(),
        b in 0.05f64..0.95,
    ) {
        // Shuffling the units, or giving them other ids, leaves every
        // value of every measure subset identical **to the bit**: the fold
        // sees a multiset of pairs, never a unit id or a visit order.
        let pairs: Vec<(u64, u64)> = spread.into_iter().chain(colliding).collect();
        let n = pairs.len() as u32;
        let mut shuffled = pairs.clone();
        shuffle(&mut shuffled, seed);
        let base = counts(&pairs);
        let variants = [
            counts(&shuffled),
            UnitCounts::from_triples(
                pairs.iter().enumerate().map(|(i, &(m, t))| ((n - i as u32) * 3, m, t)),
            )
            .unwrap(),
        ];
        let bits = |v: &IndexValues| SegIndex::ALL.map(|idx| v.get(idx).map(f64::to_bits));
        for bitset in 1u8..=63 {
            let set = MeasureSet::from_bits(bitset).unwrap();
            let want = bits(&IndexValues::compute_masked(&base, b, set));
            for variant in &variants {
                prop_assert_eq!(bits(&IndexValues::compute_masked(variant, b, set)), want);
            }
        }
        for idx in SegIndex::ALL {
            let want = idx.compute(&base).map(f64::to_bits);
            for variant in &variants {
                prop_assert_eq!(idx.compute(variant).map(f64::to_bits), want, "{}", idx);
            }
        }
    }

    #[test]
    fn kernel_agrees_with_reference(
        board in board_like(5_000),
        sector in sector_like(),
        distinct in all_distinct(),
        b in 0.2f64..0.8,
    ) {
        for pairs in [board, sector, distinct] {
            assert_agrees_with_reference(&counts(&pairs), b);
        }
    }

    #[test]
    fn atkinson_defined_across_shapes(pairs in histogram(), b in 0.05f64..0.95) {
        let c = counts(&pairs);
        if let Some(a) = atkinson(&c, b) {
            prop_assert!((0.0..=1.0).contains(&a));
        }
    }

    #[test]
    fn transfer_toward_evenness_never_increases_dissimilarity(
        pairs in proptest::collection::vec((0u64..50, 1u64..100), 2..20),
    ) {
        // Moving one minority member from an over-represented unit to an
        // under-represented one (keeping totals fixed) must not increase D.
        // The Pigou–Dalton argument holds exactly when neither unit crosses
        // the overall share P during the transfer, so require donor and
        // receiver to stay on their side of P afterwards.
        let pairs: Vec<(u64, u64)> = pairs.into_iter().map(|(m, e)| (m, m + e)).collect();
        let c = counts(&pairs);
        let (Some(d0), Some(p)) = (SegIndex::Dissimilarity.compute(&c), c.minority_proportion())
        else {
            return Ok(());
        };
        // Donor stays ≥ P after giving one; receiver stays ≤ P after receiving.
        let donor = pairs
            .iter()
            .position(|&(m, t)| m > 0 && (m as f64 - 1.0) / t as f64 >= p);
        let receiver = pairs
            .iter()
            .position(|&(m, t)| m < t && (m as f64 + 1.0) / t as f64 <= p);
        if let (Some(i), Some(j)) = (donor, receiver) {
            if i != j {
                let mut moved = pairs.clone();
                moved[i].0 -= 1;
                moved[j].0 += 1;
                let c2 = counts(&moved);
                if let Some(d1) = SegIndex::Dissimilarity.compute(&c2) {
                    prop_assert!(d1 <= d0 + 1e-9, "transfer increased D: {d0} -> {d1}");
                }
            }
        }
    }
}

#[test]
fn kernel_agrees_with_reference_on_degenerate_histograms() {
    let cases: [&[(u64, u64)]; 8] = [
        &[],                               // no population
        &[(0, 10), (0, 20), (0, 10)],      // M = 0
        &[(10, 10), (20, 20), (10, 10)],   // M = T: every m_i = t_i
        &[(3, 10)],                        // one unit
        &[(0, 7)],                         // one unit, no minority
        &[(7, 7)],                         // one unit, all minority
        &[(4, 4), (0, 9), (4, 4), (0, 9)], // complete segregation, repeated pairs
        &[(1, 2), (2, 4), (3, 6), (1, 2)], // equal shares at different sizes
    ];
    for pairs in cases {
        for b in [0.3, 0.5] {
            assert_agrees_with_reference(&counts(pairs), b);
        }
    }
    // Zero-population units are dropped before the fold sees them.
    let with_empty = counts(&[(0, 0), (2, 5), (0, 0), (1, 5), (0, 0)]);
    assert_eq!(with_empty.num_units(), 2);
    assert_agrees_with_reference(&with_empty, 0.5);
    assert_eq!(IndexValues::compute(&with_empty), IndexValues::compute(&counts(&[(2, 5), (1, 5)])));
}

proptest! {
    // Each case folds three histograms of up to 5 000 units 252 ways.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn run_table_fold_matches_per_unit_fold_to_the_bit(
        board in board_like(5_000),
        sector in sector_like(),
        distinct in all_distinct(),
        b in 0.05f64..0.95,
    ) {
        for pairs in [board, sector, distinct] {
            assert_run_table_matches_per_unit(&pairs, b);
        }
    }
}

#[test]
fn run_table_fold_matches_per_unit_fold_on_degenerate_histograms() {
    let cases: [&[(u64, u64)]; 7] = [
        &[(0, 10), (0, 20), (0, 10)],              // M = 0
        &[(10, 10), (20, 20), (10, 10)],           // M = T
        &[(3, 10)],                                // one unit
        &[(0, 7)],                                 // one unit, no minority
        &[(7, 7)],                                 // one unit, all minority
        &[(4, 4), (0, 9), (4, 4), (0, 4), (9, 9)], // every minority unit at m = t
        &[(1, 2), (2, 4), (0, 4), (3, 6), (1, 2)], // equal shares, a drained run
    ];
    for pairs in cases {
        for b in [0.3, 0.5] {
            assert_run_table_matches_per_unit(pairs, b);
        }
    }
    // An empty context: no population, nothing defined, no panic.
    let empty = ContextTotals::new(Vec::new()).unwrap();
    assert_eq!(empty.fold(&[], 0.5, MeasureSet::FULL).unwrap(), IndexValues::default());
    assert_eq!(empty.fold_whole(0.5, MeasureSet::FULL), IndexValues::default());
}

#[test]
fn run_table_rejects_what_is_not_a_cell_of_its_context() {
    let context = ContextTotals::new(vec![(1, 5), (3, 5), (5, 8)]).unwrap();
    let fold = |minority: &[(u32, u64)]| context.fold(minority, 0.5, MeasureSet::FULL);
    assert!(fold(&[(1, 2), (5, 8)]).is_ok());
    for (case, minority) in [
        ("absent unit", &[(2, 1)][..]),
        ("absent unit between present ones", &[(1, 2), (2, 1), (3, 1)]),
        ("absent unit past the last", &[(1, 2), (7, 1)]),
        ("m > t", &[(3, 6)]),
        ("m = 0", &[(1, 0)]),
        ("descending", &[(3, 1), (1, 1)]),
        ("repeated unit", &[(1, 1), (1, 1)]),
    ] {
        assert!(fold(minority).is_err(), "{case}");
    }
    // The run table: the context has two units of `t = 5`, one of `t = 8`.
    let fold_runs = |runs: &[(u64, u64, u64)]| {
        let runs: Vec<Run> =
            runs.iter().map(|&(m, t, k)| Run { minority: m, total: t, units: k }).collect();
        context.fold_runs(&runs, 0.5, MeasureSet::FULL)
    };
    assert_eq!(fold_runs(&[(2, 5, 1), (8, 8, 1)]).unwrap(), fold(&[(1, 2), (5, 8)]).unwrap());
    for (case, runs) in [
        ("m = 0", &[(0, 5, 1)][..]),
        ("m > t", &[(6, 5, 1)]),
        ("k = 0", &[(2, 5, 0)]),
        ("a t the context lacks", &[(1, 6, 1)]),
        ("a t past the context's largest", &[(1, 9, 1)]),
        ("more units of a t than the context has", &[(1, 5, 2), (2, 5, 1)]),
        ("one run over its t's units", &[(1, 5, 3)]),
        ("descending", &[(8, 8, 1), (2, 5, 1)]),
        ("repeated run", &[(2, 5, 1), (2, 5, 1)]),
    ] {
        assert!(fold_runs(runs).is_err(), "run table: {case}");
    }
    for (case, units) in [
        ("t = 0", vec![(1, 5), (2, 0)]),
        ("unsorted units", vec![(3, 5), (1, 5)]),
        ("repeated unit", vec![(1, 5), (1, 5)]),
        ("T past the u32 row space", vec![(1, u64::from(u32::MAX)), (2, 1)]),
        ("t past u64", vec![(1, u64::MAX), (2, u64::MAX)]),
    ] {
        assert!(ContextTotals::new(units).is_err(), "{case}");
    }
}
