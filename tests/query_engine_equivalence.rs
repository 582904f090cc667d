//! The query engine's three tiers (materialized store, LRU cache, explorer
//! fallback) must return identical values for arbitrary ⋆-combinations —
//! including empty SA and CA sides — and a cache hit must equal the cold
//! computation it replaced, even under eviction pressure.

use scube::prelude::*;
use scube_data::TransactionDb;

fn final_table() -> TransactionDb {
    let dataset = scube_datagen::italy(400).to_dataset(vec![]).unwrap();
    scube::build_final_table(&dataset, &UnitStrategy::GroupAttribute("sector".into()), 1)
        .unwrap()
        .db
}

/// A closed-only engine answering the full frequent universe: cells missing
/// from the store exercise the fallback, and every answer must equal the
/// full cube's materialized value.
#[test]
fn engine_over_closed_store_matches_full_cube() {
    let db = final_table();
    let minsup = (db.len() as u64 / 50).max(1);
    let full = CubeBuilder::new()
        .min_support(minsup)
        .materialize(Materialize::AllFrequent)
        .build(&db)
        .unwrap();
    let engine: ConcurrentCubeEngine = ConcurrentCubeEngine::from_db(
        &db,
        &CubeBuilder::new().min_support(minsup).materialize(Materialize::ClosedOnly),
    )
    .unwrap();
    assert!(engine.cube().len() < full.len(), "closed store should compress");
    let mut saw_empty_sa = false;
    let mut saw_empty_ca = false;
    for (coords, v) in full.cells() {
        saw_empty_sa |= coords.sa.is_empty();
        saw_empty_ca |= coords.ca.is_empty();
        assert_eq!(&engine.query(coords).unwrap(), v, "cold: {coords:?}");
    }
    assert!(saw_empty_sa && saw_empty_ca, "workload must cover empty ⋆ sides");
    let cold = engine.stats();
    assert!(cold.explored > 0, "some cells must fall back");

    // Warm pass: every previous fallback is now a cache hit with the exact
    // same value.
    for (coords, v) in full.cells() {
        assert_eq!(&engine.query(coords).unwrap(), v, "warm: {coords:?}");
    }
    let warm = engine.stats();
    assert_eq!(warm.explored, cold.explored, "warm pass must not recompute");
    assert_eq!(warm.cached, cold.explored, "every fallback must hit the cache");
}

/// Non-frequent ⋆-combinations (below min-support, so in *neither* cube)
/// still answer exactly — compared against a fresh explorer over the
/// original database.
#[test]
fn engine_matches_explorer_on_non_materialized_combinations() {
    let db = final_table();
    let minsup = (db.len() as u64 / 10).max(1); // aggressive: few materialized cells
    let engine: ConcurrentCubeEngine =
        ConcurrentCubeEngine::from_db(&db, &CubeBuilder::new().min_support(minsup)).unwrap();
    let mut reference: CubeExplorer = CubeExplorer::new(&db);

    // Probe the coordinates of sampled transactions plus their ⋆
    // projections (SA-only, CA-only, apex) — frequent or not.
    let mut probes = vec![CellCoords::apex()];
    for t in (0..db.len()).step_by(37) {
        let items = db.transaction(t).to_vec();
        let coords = CellCoords::from_itemset(&items, &db);
        probes.push(CellCoords::new(coords.sa.clone(), vec![]));
        probes.push(CellCoords::new(vec![], coords.ca.clone()));
        probes.push(coords);
    }
    for coords in &probes {
        let expected = reference.values_at(coords).unwrap();
        assert_eq!(engine.query(coords).unwrap(), expected, "{coords:?}");
        // And the cached re-ask is identical.
        assert_eq!(engine.query(coords).unwrap(), expected, "cached {coords:?}");
        assert_eq!(engine.unit_breakdown(coords).unwrap(), reference.unit_breakdown(coords));
    }
}

/// A tiny cache forces evictions mid-workload; evicted cells recompute to
/// the same values, so capacity is purely a latency knob.
#[test]
fn eviction_pressure_does_not_change_answers() {
    let db = final_table();
    let minsup = (db.len() as u64 / 50).max(1);
    let full = CubeBuilder::new()
        .min_support(minsup)
        .materialize(Materialize::AllFrequent)
        .build(&db)
        .unwrap();
    let closed = CubeBuilder::new().min_support(minsup).materialize(Materialize::ClosedOnly);
    let snap: CubeSnapshot = CubeSnapshot::from_db(&db, &closed).unwrap();
    // One shard, so "capacity 3" means three cells and not three per shard.
    let tiny = ConcurrentCubeEngine::with_config(snap.clone(), 1, 3);
    let disabled = ConcurrentCubeEngine::with_config(snap, 1, 0);
    for round in 0..2 {
        for (coords, v) in full.cells() {
            assert_eq!(&tiny.query(coords).unwrap(), v, "tiny cache, round {round}");
            assert_eq!(&disabled.query(coords).unwrap(), v, "no cache, round {round}");
        }
    }
    // With capacity 0 every fallback recomputes; with capacity 3 at least
    // the most recent cells can hit.
    assert_eq!(disabled.stats().cached, 0);
    assert!(tiny.stats().explored >= disabled.stats().explored / 2);
}

/// Snapshot persistence composes with the engine: load → query equals the
/// in-memory build on every tier.
#[test]
fn loaded_snapshot_serves_identically() {
    let db = final_table();
    let minsup = (db.len() as u64 / 50).max(1);
    let closed = CubeBuilder::new().min_support(minsup).materialize(Materialize::ClosedOnly);
    let snap: CubeSnapshot = CubeSnapshot::from_db(&db, &closed).unwrap();
    let full = CubeBuilder::new()
        .min_support(minsup)
        .materialize(Materialize::AllFrequent)
        .build(&db)
        .unwrap();
    let loaded: CubeSnapshot = CubeSnapshot::from_bytes(&snap.to_bytes()).unwrap();
    let from_memory = ConcurrentCubeEngine::new(snap);
    let from_disk = ConcurrentCubeEngine::new(loaded);
    for (coords, v) in full.cells() {
        assert_eq!(&from_memory.query(coords).unwrap(), v);
        assert_eq!(&from_disk.query(coords).unwrap(), v);
    }
    assert_eq!(from_memory.stats(), from_disk.stats());
}
