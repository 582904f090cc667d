//! E5 support: cost of the six segregation indexes vs unit count.
//!
//! The fold is **not** negligible at scale: with one unit per company
//! (`build-table`, 90 000 units) the per-unit formulation cost more than
//! mining. The kernel therefore sorts a cell's `(m, t)` pairs and folds
//! the *distinct* ones, so its cost depends on how often pairs collide as
//! much as on the unit count. Three shapes cover that axis:
//!
//! * `board`: `t ∈ 1..=12` — board sizes, ≤ 90 distinct pairs whatever the
//!   unit count (many collisions; the shape of `build-table`);
//! * `uniform`: `t < 200` — ≈ 20 000 possible pairs (few collisions at
//!   1 000 units, many at 100 000);
//! * `distinct`: every pair different — no collisions, the sort is pure
//!   overhead over a per-unit pass. Units this large mean rows ≫ units,
//!   where the histogram kernel and not the fold is the cost.
//!
//! `context-runs-board` folds the `board` histogram the way a cube cell
//! is folded: its `(unit, t)` list held once as a [`ContextTotals`] run
//! table, and only the `m > 0` units passed per fold.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scube_segindex::{ContextTotals, IndexValues, MeasureSet, SegIndex, UnitCounts};
use std::hint::black_box;

/// `n_units` units whose size is drawn by `size(rng, unit)`, minority
/// uniform in `0..=size`.
fn histogram(n_units: usize, seed: u64, size: impl Fn(&mut SmallRng, u64) -> u64) -> UnitCounts {
    let mut rng = SmallRng::seed_from_u64(seed);
    UnitCounts::from_pairs((0..n_units as u64).map(|unit| {
        let t = size(&mut rng, unit);
        let m = rng.random_range(0..=t);
        (m, t)
    }))
    .expect("valid histogram")
}

fn bench_indexes(c: &mut Criterion) {
    let mut group = c.benchmark_group("segindex");
    group.sample_size(30);
    for &n in &[10usize, 1_000, 100_000] {
        let counts = histogram(n, 42, |rng, _| rng.random_range(1..200u64));
        for idx in SegIndex::ALL {
            group.bench_with_input(BenchmarkId::new(idx.name(), n), &counts, |b, counts| {
                b.iter(|| black_box(idx.compute(counts)))
            });
        }
        group.bench_with_input(BenchmarkId::new("all-six", n), &counts, |b, counts| {
            b.iter(|| black_box(IndexValues::compute(counts)))
        });
        let board = histogram(n, 42, |rng, _| rng.random_range(1..=12u64));
        group.bench_with_input(BenchmarkId::new("all-six-board", n), &board, |b, counts| {
            b.iter(|| black_box(IndexValues::compute(counts)))
        });
        let totals = ContextTotals::new(board.cells().iter().map(|u| (u.unit, u.total)).collect())
            .expect("valid context");
        let minority: Vec<(u32, u64)> =
            board.cells().iter().filter(|u| u.minority > 0).map(|u| (u.unit, u.minority)).collect();
        group.bench_with_input(BenchmarkId::new("context-runs-board", n), &minority, |b, pairs| {
            b.iter(|| black_box(totals.fold(pairs, 0.5, MeasureSet::FULL)))
        });
        // Distinct sizes make distinct pairs.
        let distinct = histogram(n, 42, |_, unit| 1_000 + unit);
        group.bench_with_input(BenchmarkId::new("all-six-distinct", n), &distinct, |b, counts| {
            b.iter(|| black_box(IndexValues::compute(counts)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_indexes);
criterion_main!(benches);
