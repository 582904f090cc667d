//! E1/E11: SegregationDataCubeBuilder cost — materialization strategy,
//! parallelism, and min-support ablations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scube_bench::italy_final_table;
use scube_cube::{CubeBuilder, Materialize};
use std::hint::black_box;

fn bench_cube(c: &mut Criterion) {
    let db = italy_final_table(1500);
    let minsup = (db.len() as u64 / 200).max(1);

    let mut group = c.benchmark_group("cube_build");
    group.sample_size(10);
    group.bench_function("all-frequent", |b| {
        b.iter(|| {
            let cube = CubeBuilder::new()
                .min_support(minsup)
                .materialize(Materialize::AllFrequent)
                .build(&db)
                .unwrap();
            black_box(cube.len())
        })
    });
    group.bench_function("closed-only", |b| {
        b.iter(|| {
            let cube = CubeBuilder::new()
                .min_support(minsup)
                .materialize(Materialize::ClosedOnly)
                .build(&db)
                .unwrap();
            black_box(cube.len())
        })
    });
    group.bench_function("all-frequent-parallel", |b| {
        b.iter(|| {
            let cube = CubeBuilder::new()
                .min_support(minsup)
                .materialize(Materialize::AllFrequent)
                .parallel(true)
                .build(&db)
                .unwrap();
            black_box(cube.len())
        })
    });
    group.finish();

    let mut group = c.benchmark_group("cube_build_minsup");
    group.sample_size(10);
    for divisor in [50u64, 200, 1000] {
        let minsup = (db.len() as u64 / divisor).max(1);
        group.bench_with_input(BenchmarkId::new("all-frequent", minsup), &minsup, |b, &m| {
            b.iter(|| black_box(CubeBuilder::new().min_support(m).build(&db).unwrap().len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cube);
criterion_main!(benches);
