//! Differential gate for the pluggable measure layer: every index a cube
//! cell carries — whatever [`MeasureSet`] the build selected — must be
//! **f64-bit-exact** against computing that index directly from the cell's
//! [`UnitCounts`], reassembled here from the raw transactions (an
//! independent reference path that never touches the cube's fold code).
//! Property-tested across materializations × skew-varying datagen
//! registries, plus a renumbering case: after a retraction relabels the
//! unit space, every index of every cell — re-folded by the update or left
//! untouched by it — must still equal the reference computed under the
//! *post-relabel* numbering. The fold is a function of the multiset of
//! `(m, t)` pairs, so this holds by construction; the test is what would
//! notice a fold that let unit ids or visit order back in.

use proptest::prelude::*;
use scube::prelude::*;
use scube_cube::ConcurrentCubeEngine;
use scube_data::TransactionDb;
use scube_datagen::BoardsConfig;

fn final_table(sector_bias: f64, seed: u64, n_companies: usize) -> TransactionDb {
    let boards = scube_datagen::generate(
        BoardsConfig::italy(n_companies).sector_bias(sector_bias).seed(seed),
    );
    let dataset = boards.to_dataset(vec![]).expect("generator output is valid");
    scube::build_final_table(&dataset, &UnitStrategy::GroupAttribute("sector".into()), 1)
        .expect("pipeline succeeds")
        .db
}

/// Reassemble one cell's per-unit histogram straight from the raw
/// transactions: a transaction is in the context iff it carries every CA
/// item, and in the minority iff it also carries every SA item. Units with
/// a populated context total enter in ascending unit order — the same
/// histogram the builder derives through postings and scratch counters,
/// reached without sharing any of that code.
fn reference_counts(db: &TransactionDb, coords: &CellCoords) -> UnitCounts {
    let n_units = db.num_units();
    let mut totals = vec![0u64; n_units];
    let mut minorities = vec![0u64; n_units];
    for (items, unit) in db.iter() {
        let carries = |ids: &[u32]| ids.iter().all(|id| items.contains(id));
        if carries(&coords.ca) {
            totals[unit as usize] += 1;
            if carries(&coords.sa) {
                minorities[unit as usize] += 1;
            }
        }
    }
    UnitCounts::from_triples(
        (0..n_units).filter(|&u| totals[u] > 0).map(|u| (u as u32, minorities[u], totals[u])),
    )
    .expect("raw transactions form a valid histogram")
}

/// Every cell of `cube`, checked per selected index against the reference
/// histogram: same definedness, and defined values identical to the bit.
fn check_cells_match_reference(
    cube: &SegregationCube,
    db: &TransactionDb,
    measures: MeasureSet,
    atkinson_b: f64,
    what: &str,
) {
    assert!(!cube.is_empty(), "{what}: cube built no cells");
    for (coords, values) in cube.cells() {
        let counts = reference_counts(db, coords);
        assert_eq!(values.minority, counts.minority(), "{what}: minority at {coords:?}");
        assert_eq!(values.total, counts.total(), "{what}: total at {coords:?}");
        assert_eq!(values.num_units, counts.num_units() as u32, "{what}: units at {coords:?}");
        for index in SegIndex::ALL {
            let got = values.get(index);
            if !measures.contains(index) {
                assert_eq!(got, None, "{what}: unselected {index} folded at {coords:?}");
                continue;
            }
            let want = match index {
                SegIndex::Atkinson => scube_segindex::atkinson(&counts, atkinson_b),
                _ => index.compute(&counts),
            };
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "{what}: {index} diverged at {coords:?} (got {got:?}, want {want:?})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn every_selected_index_is_bit_exact_against_raw_histograms(
        bias_idx in 0usize..3,
        seed in any::<u64>(),
        measure_bits in 1u8..=63,
    ) {
        let bias = [0.0, 0.5, 1.0][bias_idx];
        let measures = MeasureSet::from_bits(measure_bits).expect("1..=63 is a valid set");
        let db = final_table(bias, seed, 120);
        let minsup = (db.len() as u64 / 50).max(1);
        for materialize in [Materialize::AllFrequent, Materialize::ClosedOnly] {
            let builder =
                CubeBuilder::new().min_support(minsup).materialize(materialize).measures(measures);
            let snap = CubeSnapshot::from_db(&db, &builder).expect("snapshot builds");
            check_cells_match_reference(snap.cube(), &db, measures, snap.atkinson_b(), "build");
        }
    }

    #[test]
    fn explorer_fallback_matches_raw_histograms_per_measure(
        seed in any::<u64>(),
        measure_bits in 1u8..=63,
    ) {
        // The fallback tier folds the same masked measure vector as the
        // store: ask the explorer for cells the ClosedOnly store left out.
        let measures = MeasureSet::from_bits(measure_bits).expect("valid set");
        let db = final_table(0.7, seed, 100);
        let minsup = (db.len() as u64 / 50).max(1);
        let all = CubeBuilder::new().min_support(minsup).measures(measures).build(&db)
            .expect("full store builds");
        let mut explorer: CubeExplorer = CubeExplorer::new(&db).with_measures(measures);
        for (coords, _) in all.cells().take(64) {
            let folded = explorer.values_at(coords).expect("fallback fold succeeds");
            let counts = reference_counts(&db, coords);
            for index in measures.iter() {
                let want = match index {
                    SegIndex::Atkinson => {
                        scube_segindex::atkinson(&counts, scube_segindex::DEFAULT_ATKINSON_B)
                    }
                    _ => index.compute(&counts),
                };
                prop_assert_eq!(
                    folded.get(index).map(f64::to_bits),
                    want.map(f64::to_bits),
                    "explorer {} diverged at {:?}", index, coords
                );
            }
        }
    }

    #[test]
    fn relabeling_update_is_bit_exact_against_the_renumbered_reference(
        seed in any::<u64>(),
        measure_bits in 1u8..=63,
        threads in 1usize..=4,
    ) {
        // Retract every row of the first unit: survivors renumber, and
        // every selected index of every cell must equal the reference
        // folded under the *new* numbering. A fold sensitive to unit order
        // would differ in the last ULP — the bit-exact comparison catches it.
        let measures = MeasureSet::from_bits(measure_bits).expect("valid set");
        let db = final_table(0.8, seed, 100);
        let full_rel = scube::final_table_relation(&db);
        let spec = scube_data::FinalTableSpec::from_schema(db.schema(), "unitID");
        let minsup = (db.len() as u64 / 50).max(1);
        let unit_col = full_rel.column_index("unitID").expect("unit column present");
        let first_unit = full_rel.rows().first().expect("nonempty table")[unit_col].clone();

        let builder = CubeBuilder::new().min_support(minsup).measures(measures);
        let mut snap: CubeSnapshot = CubeSnapshot::from_db(&db, &builder).expect("base builds");
        let mut batch = scube_cube::UpdateBatch::new();
        let mut kept = Relation::new(full_rel.columns().to_vec()).expect("columns are valid");
        for (i, row) in full_rel.rows().iter().enumerate() {
            if row[unit_col] == first_unit {
                batch.remove_tid(i as u32);
            } else {
                kept.push_row(row.to_vec()).expect("row shapes match");
            }
        }
        let stats = snap.apply_update_threads(&batch, threads).expect("relabel applies");
        prop_assert!(stats.dropped_units >= 1, "the drained unit must leave the dictionary");

        // Reference: reassemble histograms from the *edited* table, whose
        // encoder assigns the post-relabel unit numbering.
        let edited_db = spec.encode(&kept).expect("edited rows encode");
        check_cells_match_reference(snap.cube(), &edited_db, measures, snap.atkinson_b(), "relabel");

        // And the whole snapshot still equals a rebuild, byte for byte.
        let rebuilt: CubeSnapshot =
            CubeSnapshot::from_db(&edited_db, &builder).expect("rebuild succeeds");
        prop_assert_eq!(snap.to_bytes(), rebuilt.to_bytes(), "snapshot bytes diverged");
    }
}

/// The serving engine's fallback tier folds the snapshot's own measure
/// subset: every cell a `ClosedOnly` store leaves out answers bit-equal to
/// the masked `AllFrequent` build. (A second engine once built its explorer
/// without the measure set and answered these cells with the full suite.)
#[test]
fn engine_fallback_cells_match_the_masked_full_build() {
    let db = final_table(0.7, 0x5CBE, 300);
    let minsup = (db.len() as u64 / 50).max(1);
    let gini = MeasureSet::only(SegIndex::Gini);
    for measures in [gini, gini.with(SegIndex::Isolation)] {
        let builder = CubeBuilder::new().min_support(minsup).measures(measures);
        let full = builder.materialize(Materialize::AllFrequent).build(&db).unwrap();
        let closed: CubeSnapshot =
            CubeSnapshot::from_db(&db, &builder.materialize(Materialize::ClosedOnly)).unwrap();
        let loaded: CubeSnapshot = CubeSnapshot::from_bytes(&closed.to_bytes()).unwrap();
        let engine = ConcurrentCubeEngine::new(loaded);
        let mut fallback = 0;
        for (coords, want) in full.cells().filter(|(c, _)| closed.cube().get(c).is_none()) {
            fallback += 1;
            let got = engine.query(coords).unwrap();
            assert_eq!(
                (got.minority, got.total, got.num_units),
                (want.minority, want.total, want.num_units),
                "{measures:?}: counts at {coords:?}"
            );
            for index in SegIndex::ALL {
                assert_eq!(
                    got.get(index).map(f64::to_bits),
                    want.get(index).map(f64::to_bits),
                    "{measures:?}: {index} at {coords:?}"
                );
            }
        }
        assert!(fallback > 0, "{measures:?}: the closed store must leave cells to the fallback");
        assert_eq!(engine.stats().explored, fallback);
    }
}

#[test]
fn non_default_atkinson_subset_is_bit_exact() {
    let measures = MeasureSet::only(SegIndex::Atkinson).with(SegIndex::Gini);
    let db = final_table(0.6, 0xA7C1, 80);
    let minsup = (db.len() as u64 / 50).max(1);
    let builder = CubeBuilder::new().min_support(minsup).measures(measures).atkinson_b(0.25);
    let snap: CubeSnapshot = CubeSnapshot::from_db(&db, &builder).expect("snapshot builds");
    assert_eq!(snap.atkinson_b(), 0.25);
    check_cells_match_reference(snap.cube(), &db, measures, 0.25, "atkinson 0.25");
}
