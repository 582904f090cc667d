//! Integration: cube materialization strategies, parallelism, and the
//! explorer agree with each other on realistic pipeline output.

use scube::prelude::*;

fn final_table() -> scube_data::TransactionDb {
    let dataset = scube_datagen::italy(800).to_dataset(vec![]).unwrap();
    let ft = scube::build_final_table(&dataset, &UnitStrategy::GroupAttribute("sector".into()), 1)
        .unwrap();
    ft.db
}

#[test]
fn closed_is_restriction_of_full_on_real_data() {
    let db = final_table();
    let full = CubeBuilder::new()
        .min_support(15)
        .materialize(Materialize::AllFrequent)
        .build(&db)
        .unwrap();
    let closed =
        CubeBuilder::new().min_support(15).materialize(Materialize::ClosedOnly).build(&db).unwrap();
    assert!(closed.len() <= full.len());
    assert!(closed.len() > 1, "closed cube should not be trivial");
    for (coords, v) in closed.cells() {
        assert_eq!(full.get(coords), Some(v), "cell {}", closed.labels().describe(coords));
    }
}

#[test]
fn explorer_resolves_all_full_cells_on_real_data() {
    let db = final_table();
    let full = CubeBuilder::new()
        .min_support(40)
        .materialize(Materialize::AllFrequent)
        .build(&db)
        .unwrap();
    let mut explorer: CubeExplorer = CubeExplorer::new(&db);
    for (coords, v) in full.cells() {
        let recomputed = explorer.values_at(coords).unwrap();
        assert_eq!(recomputed.minority, v.minority);
        assert_eq!(recomputed.total, v.total);
        match (recomputed.dissimilarity, v.dissimilarity) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-12),
            (a, b) => assert_eq!(a.is_some(), b.is_some()),
        }
    }
}

#[test]
fn parallel_build_is_identical_on_real_data() {
    let db = final_table();
    let serial = CubeBuilder::new()
        .min_support(10)
        .materialize(Materialize::AllFrequent)
        .parallel(false)
        .build(&db)
        .unwrap();
    assert!(serial.len() > 256, "enough cells that every worker gets some");
    // 0 = the host's parallelism; usize::MAX must be clamped to the host,
    // not allocated or spawned per requested thread.
    for threads in [0, 2, usize::MAX] {
        let parallel = CubeBuilder::new()
            .min_support(10)
            .materialize(Materialize::AllFrequent)
            .parallel(true)
            .threads(threads)
            .build(&db)
            .unwrap();
        assert_eq!(serial.len(), parallel.len(), "threads {threads}");
        for (coords, v) in serial.cells() {
            assert_eq!(parallel.get(coords), Some(v), "threads {threads}");
        }
    }
}

#[test]
fn min_support_monotonicity_on_real_data() {
    let db = final_table();
    let strict = CubeBuilder::new().min_support(100).build(&db).unwrap();
    let loose = CubeBuilder::new().min_support(20).build(&db).unwrap();
    assert!(strict.len() < loose.len());
    // Strict cells are a subset with identical values.
    for (coords, v) in strict.cells() {
        assert_eq!(loose.get(coords), Some(v));
    }
}

#[test]
fn cube_csv_sheet_is_well_formed() {
    let db = final_table();
    let cube = CubeBuilder::new().min_support(50).build(&db).unwrap();
    let csv = scube_cube::to_csv(&cube);
    let records = scube_common::csv::parse_str(&csv).unwrap();
    assert_eq!(records.len(), cube.len() + 1);
    let width = records[0].len();
    for r in &records {
        assert_eq!(r.len(), width);
    }
    // M ≤ T on every row.
    let m_col = records[0].iter().position(|c| c == "M").unwrap();
    let t_col = records[0].iter().position(|c| c == "T").unwrap();
    for r in &records[1..] {
        let m: u64 = r[m_col].parse().unwrap();
        let t: u64 = r[t_col].parse().unwrap();
        assert!(m <= t);
    }
}
