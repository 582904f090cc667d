//! E11: frequent-itemset miner comparison on the scenario-1 final table.
//!
//! FP-Growth vs Eclat vs Apriori, across min-support levels — the "who
//! wins" shape expected from the literature: Apriori trails by an order of
//! magnitude at low support, FP-Growth and Eclat stay close.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scube_bench::italy_final_table;
use scube_fpm::{Apriori, Eclat, FpGrowth, Miner};
use std::hint::black_box;

fn bench_miners(c: &mut Criterion) {
    let db = italy_final_table(1500);
    let mut group = c.benchmark_group("mining");
    group.sample_size(10);
    for rel_minsup in [0.02f64, 0.005] {
        let minsup = ((db.len() as f64 * rel_minsup) as u64).max(1);
        group.bench_with_input(BenchmarkId::new("fpgrowth", minsup), &minsup, |b, &m| {
            b.iter(|| black_box(FpGrowth.mine(&db, m).unwrap().len()))
        });
        group.bench_with_input(BenchmarkId::new("eclat", minsup), &minsup, |b, &m| {
            b.iter(|| black_box(Eclat.mine(&db, m).unwrap().len()))
        });
        group.bench_with_input(BenchmarkId::new("apriori", minsup), &minsup, |b, &m| {
            b.iter(|| black_box(Apriori.mine(&db, m).unwrap().len()))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("mining_closed");
    group.sample_size(10);
    let minsup = (db.len() as u64 / 100).max(1);
    group.bench_function("fpgrowth-closed", |b| {
        b.iter(|| black_box(FpGrowth.mine_closed(&db, minsup).unwrap().len()))
    });
    group.bench_function("fpgrowth-all", |b| {
        b.iter(|| black_box(FpGrowth.mine(&db, minsup).unwrap().len()))
    });
    group.finish();
}

criterion_group!(benches, bench_miners);
criterion_main!(benches);
