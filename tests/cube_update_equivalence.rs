//! Property tests for incremental cube maintenance: folding an
//! `UpdateBatch` of appended rows *and retractions* into a built snapshot
//! must be **bit-identical** to a full rebuild on the edited data —
//! snapshot bytes and all — for both materializations, on datagen registries of
//! varying planted skew, delta sizes, and churn shapes (append-only,
//! delete-only, mixed; suffix and scattered removals; removals that drain
//! whole contexts or re-add identical rows). A served cube is updated the
//! way `scubed` does it — apply the batch to a warm engine's `snapshot()`,
//! serve a fresh engine — and that engine must answer the post-update
//! universe identically too, from several threads.

use proptest::prelude::*;
use scube::prelude::*;
use scube_data::{FinalTableSpec, TransactionDb};
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

fn spec_of(db: &TransactionDb) -> FinalTableSpec {
    FinalTableSpec::from_schema(db.schema(), "unitID")
}

fn check_update_equals_rebuild(
    full_rel: &Relation,
    spec: &FinalTableSpec,
    base_rows: usize,
    min_support: u64,
    materialize: Materialize,
    what: &str,
) {
    let base_rel = full_rel.slice_rows(0..base_rows);
    let delta_rel = full_rel.slice_rows(base_rows..full_rel.len());
    let base_db = spec.encode(&base_rel).expect("base rows encode");
    let full_db = spec.encode(full_rel).expect("all rows encode");

    let builder = CubeBuilder::new().min_support(min_support).materialize(materialize);
    let mut updated = CubeSnapshot::from_db(&base_db, &builder).expect("base snapshot builds");
    let batch =
        scube_cube::UpdateBatch::from_relation(&delta_rel, updated.cube().labels(), "unitID")
            .expect("delta rows resolve");
    let stats = updated.apply_update(&batch).expect("update applies");
    assert_eq!(stats.rows_added, delta_rel.len(), "{what}");
    assert_eq!(
        stats.dirty_cells + stats.promoted_cells + stats.clean_cells,
        updated.cube().len(),
        "{what}: stats partition the cell store"
    );

    let rebuilt = CubeSnapshot::from_db(&full_db, &builder).expect("full snapshot builds");
    assert_eq!(updated.cube(), rebuilt.cube(), "{what}: cube diverged");
    assert_eq!(updated.to_bytes(), rebuilt.to_bytes(), "{what}: snapshot bytes diverged");
}

/// Keep only the rows of `rel` whose index passes `keep`.
fn filter_rows(rel: &Relation, keep: impl Fn(usize) -> bool) -> Relation {
    let mut out = Relation::new(rel.columns().to_vec()).expect("columns are valid");
    for (i, row) in rel.rows().iter().enumerate() {
        if keep(i) {
            out.push_row(row.to_vec()).expect("row shapes match");
        }
    }
    out
}

/// Apply `remove` (base tids) + appends to a base snapshot and require
/// byte-identity with a from-scratch snapshot on the edited table, with
/// the dirty-cell phase fanned over worker threads.
#[allow(clippy::too_many_arguments)]
fn check_churn_equals_rebuild(
    full_rel: &Relation,
    spec: &FinalTableSpec,
    base_rows: usize,
    remove: &[u32],
    min_support: u64,
    materialize: Materialize,
    threads: usize,
    what: &str,
) {
    let base_rel = full_rel.slice_rows(0..base_rows);
    let delta_rel = full_rel.slice_rows(base_rows..full_rel.len());
    let base_db = spec.encode(&base_rel).expect("base rows encode");

    let builder = CubeBuilder::new().min_support(min_support).materialize(materialize);
    let mut updated = CubeSnapshot::from_db(&base_db, &builder).expect("base snapshot builds");
    let mut batch =
        scube_cube::UpdateBatch::from_relation(&delta_rel, updated.cube().labels(), "unitID")
            .expect("delta rows resolve");
    for &t in remove {
        batch.remove_tid(t);
    }
    let serial_stats = updated.clone().apply_update(&batch).expect("serial churn applies");
    let stats = updated.apply_update_threads(&batch, threads).expect("churn applies");
    assert_eq!(stats, serial_stats, "{what}: {threads} workers must report the serial stats");
    assert_eq!(stats.rows_added, delta_rel.len(), "{what}");
    assert_eq!(stats.rows_removed, remove.len(), "{what}");
    assert_eq!(
        stats.dirty_cells + stats.promoted_cells + stats.clean_cells,
        updated.cube().len(),
        "{what}: stats partition the surviving store"
    );

    let mut edited_rel = filter_rows(&base_rel, |i| !remove.contains(&(i as u32)));
    for row in delta_rel.rows() {
        edited_rel.push_row(row.to_vec()).expect("row shapes match");
    }
    let edited_db = spec.encode(&edited_rel).expect("edited rows encode");
    let rebuilt = CubeSnapshot::from_db(&edited_db, &builder).expect("edited snapshot builds");
    assert_eq!(updated.cube(), rebuilt.cube(), "{what}: cube diverged");
    assert_eq!(updated.to_bytes(), rebuilt.to_bytes(), "{what}: snapshot bytes diverged");
}

/// As [`check_churn_equals_rebuild`], but on a build restricted to a
/// measure subset: the churned snapshot must stay byte-identical to a
/// rebuild of the same subset — measure byte, per-cell selected values
/// and all.
#[allow(clippy::too_many_arguments)]
fn check_measured_churn_equals_rebuild(
    full_rel: &Relation,
    spec: &FinalTableSpec,
    measures: MeasureSet,
    base_rows: usize,
    remove: &[u32],
    min_support: u64,
    materialize: Materialize,
    threads: usize,
    what: &str,
) {
    let base_rel = full_rel.slice_rows(0..base_rows);
    let delta_rel = full_rel.slice_rows(base_rows..full_rel.len());
    let base_db = spec.encode(&base_rel).expect("base rows encode");

    let builder =
        CubeBuilder::new().min_support(min_support).materialize(materialize).measures(measures);
    let mut updated = CubeSnapshot::from_db(&base_db, &builder).expect("base snapshot builds");
    let mut batch =
        scube_cube::UpdateBatch::from_relation(&delta_rel, updated.cube().labels(), "unitID")
            .expect("delta rows resolve");
    for &t in remove {
        batch.remove_tid(t);
    }
    updated.apply_update_threads(&batch, threads).expect("churn applies");
    assert_eq!(updated.measures(), measures, "{what}: update must not alter the measure set");

    let mut edited_rel = filter_rows(&base_rel, |i| !remove.contains(&(i as u32)));
    for row in delta_rel.rows() {
        edited_rel.push_row(row.to_vec()).expect("row shapes match");
    }
    let edited_db = spec.encode(&edited_rel).expect("edited rows encode");
    let rebuilt = CubeSnapshot::from_db(&edited_db, &builder).expect("edited snapshot builds");
    assert_eq!(updated.cube(), rebuilt.cube(), "{what}: cube diverged");
    assert_eq!(updated.to_bytes(), rebuilt.to_bytes(), "{what}: snapshot bytes diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn churn_is_bit_identical_to_rebuild(
        seed in any::<u64>(),
        remove_every in 2usize..=6,
        delta_pct in 0usize..=12,
        suffix in any::<bool>(),
        threads in 1usize..=6,
    ) {
        let db = final_table(0.6, seed, 160);
        let full_rel = scube::final_table_relation(&db);
        let spec = spec_of(&db);
        let minsup = (db.len() as u64 / 50).max(1);
        let base_rows = full_rel.len() - (full_rel.len() * delta_pct / 100).max(1);
        // Delete-only when delta_pct rounds the appended tail to one row
        // and remove_every is small, mixed otherwise; suffix retractions
        // exercise the in-place fast path, scattered ones the relabeling
        // rebuild.
        let n_remove = (base_rows / remove_every).max(1);
        let remove: Vec<u32> = if suffix {
            ((base_rows - n_remove) as u32..base_rows as u32).collect()
        } else {
            (0..base_rows as u32).step_by(remove_every).collect()
        };
        for materialize in [Materialize::AllFrequent, Materialize::ClosedOnly] {
            check_churn_equals_rebuild(
                &full_rel, &spec, base_rows, &remove, minsup, materialize, threads, "churn",
            );
        }
    }

    #[test]
    fn measured_churn_is_bit_identical_to_rebuild(
        seed in any::<u64>(),
        measure_bits in 1u8..=63,
        remove_every in 2usize..=6,
        delta_pct in 0usize..=12,
        suffix in any::<bool>(),
        threads in 1usize..=6,
    ) {
        // The multi-index layer under churn: random measure subsets (any
        // of the 63 non-empty sets, incl. the full suite) must survive
        // random append/retract/mixed splits byte-identically — whole
        // snapshot, so a proper subset round-trips its measure byte and
        // selected values.
        let measures = MeasureSet::from_bits(measure_bits).expect("1..=63 is a valid set");
        let db = final_table(0.6, seed, 140);
        let full_rel = scube::final_table_relation(&db);
        let spec = spec_of(&db);
        let minsup = (db.len() as u64 / 50).max(1);
        let base_rows = full_rel.len() - (full_rel.len() * delta_pct / 100).max(1);
        let n_remove = (base_rows / remove_every).max(1);
        let remove: Vec<u32> = if suffix {
            ((base_rows - n_remove) as u32..base_rows as u32).collect()
        } else {
            (0..base_rows as u32).step_by(remove_every).collect()
        };
        for materialize in [Materialize::AllFrequent, Materialize::ClosedOnly] {
            check_measured_churn_equals_rebuild(
                &full_rel, &spec, measures, base_rows, &remove, minsup, materialize, threads,
                "measured churn",
            );
        }
    }

    #[test]
    fn draining_a_whole_context_matches_rebuild(seed in any::<u64>()) {
        // Retract every row of one organizational unit: all of its cells
        // demote, the unit leaves the dictionary, and the survivors
        // renumber — still byte-identical to the rebuild.
        let db = final_table(0.8, seed, 120);
        let full_rel = scube::final_table_relation(&db);
        let spec = spec_of(&db);
        let minsup = (db.len() as u64 / 50).max(1);
        let unit_col = full_rel.column_index("unitID").expect("unit column present");
        let first_unit = full_rel.rows().first().expect("nonempty table")[unit_col].clone();
        let remove: Vec<u32> = full_rel
            .rows()
            .iter()
            .enumerate()
            .filter(|(_, row)| row[unit_col] == first_unit)
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert!(!remove.is_empty());
        for materialize in [Materialize::AllFrequent, Materialize::ClosedOnly] {
            check_churn_equals_rebuild(
                &full_rel, &spec, full_rel.len(), &remove, minsup, materialize, 2, "drain",
            );
        }
    }

    #[test]
    fn remove_then_readd_is_byte_identical_to_base(
        seed in any::<u64>(),
        tail_pct in 1usize..=10,
    ) {
        // Retract the table's tail, then re-append the identical rows in
        // one later batch: the snapshot must return to the base bytes.
        let db = final_table(0.5, seed, 120);
        let full_rel = scube::final_table_relation(&db);
        let spec = spec_of(&db);
        let minsup = (db.len() as u64 / 50).max(1);
        let full_db = spec.encode(&full_rel).expect("rows encode");
        let n_tail = (full_rel.len() * tail_pct / 100).max(1);
        let tail_rel = full_rel.slice_rows(full_rel.len() - n_tail..full_rel.len());
        for materialize in [Materialize::AllFrequent, Materialize::ClosedOnly] {
            let builder = CubeBuilder::new().min_support(minsup).materialize(materialize);
            let base: CubeSnapshot = CubeSnapshot::from_db(&full_db, &builder).expect("builds");
            let bytes = base.to_bytes();
            let mut snap = base;
            let mut retract = scube_cube::UpdateBatch::new();
            for t in full_rel.len() - n_tail..full_rel.len() {
                retract.remove_tid(t as u32);
            }
            snap.apply_update(&retract).expect("retraction applies");
            let readd =
                scube_cube::UpdateBatch::from_relation(&tail_rel, snap.cube().labels(), "unitID")
                    .expect("tail rows resolve");
            snap.apply_update(&readd).expect("re-append applies");
            prop_assert_eq!(
                snap.to_bytes(),
                bytes,
                "{:?}: retract + identical re-append must be a byte-level no-op",
                materialize
            );
        }
    }

    #[test]
    fn update_is_bit_identical_to_rebuild(
        bias_idx in 0usize..3,
        seed in any::<u64>(),
        delta_pct in 1usize..=30,
    ) {
        let bias = [0.0, 0.5, 1.0][bias_idx];
        let db = final_table(bias, seed, 200);
        let full_rel = scube::final_table_relation(&db);
        let spec = spec_of(&db);
        let minsup = (db.len() as u64 / 50).max(1);
        let base_rows = full_rel.len() - (full_rel.len() * delta_pct / 100).max(1);
        for materialize in [Materialize::AllFrequent, Materialize::ClosedOnly] {
            check_update_equals_rebuild(
                &full_rel, &spec, base_rows, minsup, materialize, "append",
            );
        }
    }

    #[test]
    fn concurrent_engine_update_answers_match_rebuild(
        seed in any::<u64>(),
        delta_pct in 1usize..=20,
    ) {
        let db = final_table(0.7, seed, 150);
        let full_rel = scube::final_table_relation(&db);
        let spec = spec_of(&db);
        let minsup = (db.len() as u64 / 50).max(1);
        let base_rows = full_rel.len() - (full_rel.len() * delta_pct / 100).max(1);
        let base_rel = full_rel.slice_rows(0..base_rows);
        let delta_rel = full_rel.slice_rows(base_rows..full_rel.len());
        let base_db = spec.encode(&base_rel).expect("base rows encode");
        let full_db = spec.encode(&full_rel).expect("all rows encode");

        // Serve the closed store (so fallback cells exercise the caches),
        // reference everything against AllFrequent rebuilds.
        let closed = CubeBuilder::new().min_support(minsup).materialize(Materialize::ClosedOnly);
        let base_full = CubeBuilder::new()
            .min_support(minsup)
            .materialize(Materialize::AllFrequent)
            .build(&base_db)
            .expect("base full cube");
        let after_full = CubeBuilder::new()
            .min_support(minsup)
            .materialize(Materialize::AllFrequent)
            .build(&full_db)
            .expect("post-update full cube");

        let snap: CubeSnapshot = CubeSnapshot::from_db(&base_db, &closed).expect("snapshot");
        let engine = ConcurrentCubeEngine::new(snap);
        // Warm every tier — and a few breakdowns — *before* the update:
        // nothing the old engine cached may reach the fresh one.
        for (coords, v) in base_full.cells() {
            prop_assert_eq!(&engine.query(coords).expect("pre-update query"), v);
        }
        for (coords, _) in base_full.cells().take(32) {
            engine.unit_breakdown(coords).unwrap();
        }

        let batch = scube_cube::UpdateBatch::from_relation(
            &delta_rel,
            engine.cube().labels(),
            "unitID",
        )
        .expect("delta rows resolve");
        let mut next = engine.snapshot();
        next.apply_update(&batch).expect("update applies");
        let engine = ConcurrentCubeEngine::new(next);

        // Every post-update universe cell — cached before or not — must
        // now answer with the rebuilt values, through shared references.
        let mut explorer: CubeExplorer = CubeExplorer::new(&full_db);
        std::thread::scope(|scope| {
            for t in 0..3 {
                let engine = &engine;
                let after_full = &after_full;
                scope.spawn(move || {
                    for (coords, v) in after_full.cells().skip(t) {
                        assert_eq!(
                            &engine.query(coords).expect("post-update query"),
                            v,
                            "stale answer at {coords:?}"
                        );
                    }
                });
            }
        });
        for (coords, _) in after_full.cells().take(32) {
            prop_assert_eq!(
                engine.unit_breakdown(coords).unwrap(),
                explorer.unit_breakdown(coords),
                "stale breakdown at {:?}", coords
            );
        }
    }

    #[test]
    fn concurrent_engine_demoting_update_answers_match_rebuild(
        seed in any::<u64>(),
        remove_every in 2usize..=5,
    ) {
        // A mixed churn batch — scattered retractions (demotions, possible
        // relabeling) plus a small appended tail — applied to a warm
        // engine's snapshot: every answer of the fresh engine, asked from
        // several threads, must match a rebuild on the edited table.
        let db = final_table(0.7, seed, 120);
        let full_rel = scube::final_table_relation(&db);
        let spec = spec_of(&db);
        let minsup = (db.len() as u64 / 50).max(1);
        let base_rows = full_rel.len() - (full_rel.len() / 50).max(1);
        let base_rel = full_rel.slice_rows(0..base_rows);
        let delta_rel = full_rel.slice_rows(base_rows..full_rel.len());
        let base_db = spec.encode(&base_rel).expect("base rows encode");
        let remove: Vec<u32> = (0..base_rows as u32).step_by(remove_every).collect();

        let closed = CubeBuilder::new().min_support(minsup).materialize(Materialize::ClosedOnly);
        let base_full = CubeBuilder::new()
            .min_support(minsup)
            .materialize(Materialize::AllFrequent)
            .build(&base_db)
            .expect("base full cube");
        let mut edited_rel = filter_rows(&base_rel, |i| !remove.contains(&(i as u32)));
        for row in delta_rel.rows() {
            edited_rel.push_row(row.to_vec()).expect("row shapes match");
        }
        let edited_db = spec.encode(&edited_rel).expect("edited rows encode");
        let after_full = CubeBuilder::new()
            .min_support(minsup)
            .materialize(Materialize::AllFrequent)
            .build(&edited_db)
            .expect("post-churn full cube");

        let snap: CubeSnapshot = CubeSnapshot::from_db(&base_db, &closed).expect("snapshot");
        let engine = ConcurrentCubeEngine::new(snap);
        // Warm every tier — and a few breakdowns — before the churn.
        for (coords, v) in base_full.cells() {
            prop_assert_eq!(&engine.query(coords).expect("pre-churn query"), v);
        }
        for (coords, _) in base_full.cells().take(32) {
            engine.unit_breakdown(coords).unwrap();
        }

        let mut batch = scube_cube::UpdateBatch::from_relation(
            &delta_rel,
            engine.cube().labels(),
            "unitID",
        )
        .expect("delta rows resolve");
        for &t in &remove {
            batch.remove_tid(t);
        }
        let mut next = engine.snapshot();
        let stats = next.apply_update(&batch).expect("churn applies");
        prop_assert_eq!(stats.rows_removed, remove.len());
        let engine = ConcurrentCubeEngine::new(next);

        let mut explorer: CubeExplorer = CubeExplorer::new(&edited_db);
        std::thread::scope(|scope| {
            for t in 0..3 {
                let engine = &engine;
                let after_full = &after_full;
                scope.spawn(move || {
                    for (coords, v) in after_full.cells().skip(t) {
                        assert_eq!(
                            &engine.query(coords).expect("post-churn query"),
                            v,
                            "stale answer at {coords:?}"
                        );
                    }
                });
            }
        });
        for (coords, _) in after_full.cells().take(32) {
            prop_assert_eq!(
                engine.unit_breakdown(coords).unwrap(),
                explorer.unit_breakdown(coords),
                "stale breakdown at {:?}", coords
            );
        }
    }
}
