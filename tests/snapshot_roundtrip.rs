//! Property test for cube snapshot persistence: `save → load` must be
//! bit-identical on datagen registries of varying planted skew.

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

fn roundtrip(db: &TransactionDb, min_support: u64, materialize: Materialize) {
    let builder = CubeBuilder::new().min_support(min_support).materialize(materialize);
    let snap = scube_cube::CubeSnapshot::from_db(db, &builder).expect("snapshot builds");
    let bytes = snap.to_bytes();
    let loaded = scube_cube::CubeSnapshot::from_bytes(&bytes).expect("snapshot loads");

    // The cube half: cells, labels, metadata — all bit-identical.
    assert_eq!(loaded.cube(), snap.cube(), "cube halves differ");
    // The vertical half: postings and the tid → unit map.
    assert_eq!(loaded.vertical().num_transactions(), snap.vertical().num_transactions());
    assert_eq!(loaded.vertical().num_units(), snap.vertical().num_units());
    assert_eq!(loaded.vertical().units(), snap.vertical().units());
    assert_eq!(loaded.vertical().postings(), snap.vertical().postings());
    // Canonical encoding: re-saving the loaded snapshot reproduces the
    // exact bytes, so snapshots can be compared and deduplicated by hash.
    assert_eq!(loaded.to_bytes(), bytes, "encoding is not canonical");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn snapshot_roundtrip_is_bit_identical_on_random_tables(
        bias_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        // Planted skew from none (0.0) to the full per-sector propensities
        // (1.0): changes itemset correlation, hence cell counts, posting
        // shapes, and the closed-cell compression the snapshot stores.
        let bias = [0.0, 0.5, 1.0][bias_idx];
        let db = final_table(bias, seed, 250);
        let minsup = (db.len() as u64 / 50).max(1);
        for materialize in [Materialize::AllFrequent, Materialize::ClosedOnly] {
            roundtrip(&db, minsup, materialize);
        }
    }
}
