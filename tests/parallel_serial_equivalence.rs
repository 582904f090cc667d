//! Property test for the parallel build pipeline: parallel mining plus
//! parallel cube evaluation must produce *identical* cells to the serial
//! path, on datagen registries of varying planted skew.

use proptest::prelude::*;
use scube::prelude::*;
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

fn assert_identical(a: &SegregationCube, b: &SegregationCube, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: cell count");
    for (coords, v) in a.cells() {
        assert_eq!(b.get(coords), Some(v), "{what}: cell {coords:?}");
    }
}

fn build(
    db: &TransactionDb,
    min_support: u64,
    materialize: Materialize,
    parallel: bool,
) -> SegregationCube {
    CubeBuilder::new()
        .min_support(min_support)
        .materialize(materialize)
        .parallel(parallel)
        .build(db)
        .expect("cube builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn parallel_build_is_bit_identical_on_random_tables(
        bias_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        // Planted skew from none (0.0) to the full per-sector propensities
        // (1.0): changes itemset correlation, hence tree shapes and the
        // closed-cell compression the builder sees.
        let bias = [0.0, 0.5, 1.0][bias_idx];
        let db = final_table(bias, seed, 250);
        let minsup = (db.len() as u64 / 50).max(1);
        for materialize in [Materialize::AllFrequent, Materialize::ClosedOnly] {
            let serial = build(&db, minsup, materialize, false);
            let parallel = build(&db, minsup, materialize, true);
            assert_identical(&serial, &parallel, "serial vs parallel");
        }
    }
}
