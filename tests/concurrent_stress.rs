//! Stress test for the concurrent serving layer: 8 threads hammer one
//! `ConcurrentCubeEngine` with repeated mixed point / breakdown / top-k
//! queries through a deliberately tiny cache (2 entries per shard), so
//! every shard churns through evictions the whole run. Afterwards the
//! atomic `QueryStats` counters must sum *exactly* to the number of issued
//! queries — a lost update anywhere would break the equality — and every
//! query must have completed (the shard locks are std `Mutex`es taken
//! through `scube_common::lock`, which takes over a lock poisoned by a
//! panicking holder, so no thread can inherit a dead shard).

use scube::prelude::*;
use scube_cube::ConcurrentCubeEngine;
use scube_data::TransactionDb;

const THREADS: usize = 8;
const ROUNDS: usize = 4;
const SHARDS: usize = 8;
/// Total capacity 16 over 8 shards = 2 entries per shard.
const CAPACITY: usize = 16;

fn final_table() -> TransactionDb {
    let dataset = scube_datagen::italy(300).to_dataset(vec![]).unwrap();
    scube::build_final_table(&dataset, &UnitStrategy::GroupAttribute("sector".into()), 1)
        .unwrap()
        .db
}

#[test]
fn stress_counters_are_exact_and_no_query_is_lost() {
    let db = final_table();
    let minsup = (db.len() as u64 / 50).max(1);
    let full = CubeBuilder::new()
        .min_support(minsup)
        .materialize(Materialize::AllFrequent)
        .build(&db)
        .unwrap();
    let closed = CubeBuilder::new().min_support(minsup).materialize(Materialize::ClosedOnly);
    let snap: CubeSnapshot = CubeSnapshot::from_db(&db, &closed).unwrap();

    let mut universe: Vec<CellCoords> = full.cells().map(|(c, _)| c.clone()).collect();
    universe.sort();
    let fallback = universe.iter().filter(|c| snap.cube().get(c).is_none()).count();
    assert!(
        fallback > CAPACITY,
        "workload must overflow the cache for the stress to mean anything \
         ({fallback} fallback cells vs capacity {CAPACITY})"
    );

    let engine = ConcurrentCubeEngine::with_config(snap, SHARDS, CAPACITY);
    assert_eq!(engine.shard_count(), SHARDS);

    // Every thread walks the universe `ROUNDS` times from its own offset
    // (so threads permanently disagree about which cells are hot), issuing
    // a breakdown every 7th cell and a top-k every 100th, and returns its
    // own issue counts for the exactness check.
    let per_thread: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (engine, universe, full) = (&engine, &universe, &full);
                scope.spawn(move || {
                    let mut points = 0u64;
                    let mut breakdowns = 0u64;
                    for round in 0..ROUNDS {
                        for i in 0..universe.len() {
                            let c = &universe[(i + t * universe.len() / THREADS) % universe.len()];
                            let v = engine.query(c).expect("point query succeeds");
                            points += 1;
                            assert_eq!(
                                Some(&v),
                                full.get(c),
                                "thread {t} round {round} diverged at {c:?}"
                            );
                            if i % 7 == 0 {
                                let b = engine.unit_breakdown(c).unwrap();
                                breakdowns += 1;
                                let m: u64 = b.iter().map(|&(_, m, _)| m).sum();
                                let tt: u64 = b.iter().map(|&(_, _, t)| t).sum();
                                assert_eq!((m, tt), (v.minority, v.total), "breakdown sums");
                            }
                            if i % 100 == 0 {
                                let top = engine.top_k(SegIndex::Dissimilarity, 5, minsup);
                                assert!(top.len() <= 5);
                            }
                        }
                    }
                    (points, breakdowns)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no thread may die")).collect()
    });

    let issued_points: u64 = per_thread.iter().map(|&(p, _)| p).sum();
    let issued_breakdowns: u64 = per_thread.iter().map(|&(_, b)| b).sum();
    assert_eq!(issued_points, (THREADS * ROUNDS * universe.len()) as u64);

    // The exactness check: every issued query is counted in exactly one
    // tier — any lost atomic update breaks these equalities.
    let stats = engine.stats();
    assert_eq!(stats.total(), issued_points, "point counters must sum to issued queries");
    assert_eq!(
        stats.breakdowns(),
        issued_breakdowns,
        "breakdown counters must sum to issued breakdowns"
    );
    assert!(stats.explored > 0, "the tiny cache must force recomputation");
    assert!(stats.materialized > 0);

    // And the engine is still healthy after the storm: a fresh query on
    // every shard answers correctly (no shard was left locked or corrupt).
    for c in universe.iter().take(SHARDS * 4) {
        assert_eq!(Some(&engine.query(c).unwrap()), full.get(c));
    }
}
