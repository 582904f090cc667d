//! Property test for the concurrent serving layer: N threads querying the
//! full cell universe through a shared `ConcurrentCubeEngine` (`&self`)
//! must produce results bit-identical to the `AllFrequent` full build of
//! the same data, on datagen registries of varying planted skew, and under
//! eviction pressure (shard capacity far below the fallback set, so shards
//! churn mid-workload).

use proptest::prelude::*;
use scube::prelude::*;
use scube_cube::ConcurrentCubeEngine;
use scube_data::TransactionDb;
use scube_datagen::BoardsConfig;

const THREADS: usize = 4;

fn final_table(sector_bias: f64, seed: u64, n_companies: usize) -> TransactionDb {
    let boards = scube_datagen::generate(
        BoardsConfig::italy(n_companies).sector_bias(sector_bias).seed(seed),
    );
    let dataset = boards.to_dataset(vec![]).expect("generator output is valid");
    scube::build_final_table(&dataset, &UnitStrategy::GroupAttribute("sector".into()), 1)
        .expect("pipeline succeeds")
        .db
}

/// Full build vs closed-store engine: same universe, bit-identical answers
/// through `query_batch`, interleaved shared-`&self` stripes, and a shard
/// cache under eviction pressure.
fn check_serving(db: &TransactionDb, minsup: u64) {
    let full = CubeBuilder::new()
        .min_support(minsup)
        .materialize(Materialize::AllFrequent)
        .build(db)
        .expect("full cube builds");
    let closed = CubeBuilder::new().min_support(minsup).materialize(Materialize::ClosedOnly);
    let snap = CubeSnapshot::from_db(db, &closed).expect("snapshot builds");

    let mut universe: Vec<CellCoords> = full.cells().map(|(c, _)| c.clone()).collect();
    universe.sort();
    let fallback = universe.iter().filter(|c| snap.cube().get(c).is_none()).count();

    // The materialized full cube is the reference.
    let expected: Vec<IndexValues> =
        universe.iter().map(|c| *full.get(c).expect("universe cell is in the full cube")).collect();

    // 1. Batched fan-out over scoped threads, default shard config.
    let engine = ConcurrentCubeEngine::new(snap.clone());
    let batch = engine.query_batch(&universe, THREADS).expect("batch succeeds");
    assert_eq!(batch, expected, "query_batch vs full build");
    assert_eq!(engine.stats().total(), universe.len() as u64, "lost stats updates");

    // 2. Raw shared-`&self` access: interleaved stripes so every thread
    //    touches every shard, cold and warm rounds.
    let engine = ConcurrentCubeEngine::new(snap.clone());
    for round in 0..2 {
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (engine, universe, expected) = (&engine, &universe, &expected);
                scope.spawn(move || {
                    for (c, v) in universe.iter().zip(expected).skip(t).step_by(THREADS) {
                        assert_eq!(
                            engine.query(c).expect("query succeeds"),
                            *v,
                            "round {round}, {c:?}"
                        );
                    }
                });
            }
        });
    }
    assert_eq!(engine.stats().total(), 2 * universe.len() as u64, "stats after stripes");

    // 3. Eviction pressure: total capacity a quarter of the fallback set
    //    (split over 8 shards), so cells are evicted and recomputed
    //    mid-workload — answers must not change.
    let tiny = ConcurrentCubeEngine::with_config(snap.clone(), 8, (fallback / 4).max(8));
    for _ in 0..2 {
        let batch = tiny.query_batch(&universe, THREADS).expect("tiny-cache batch succeeds");
        assert_eq!(batch, expected, "eviction pressure changed answers");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn concurrent_serving_is_bit_identical_on_random_tables(
        bias_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        // Planted skew from none (0.0) to the full per-sector propensities
        // (1.0): changes itemset correlation, the closed-cell compression,
        // and therefore how much of the universe is served by fallback.
        let bias = [0.0, 0.5, 1.0][bias_idx];
        let db = final_table(bias, seed, 250);
        let minsup = (db.len() as u64 / 50).max(1);
        check_serving(&db, minsup);
    }
}
