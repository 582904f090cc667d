//! Property test for the chunked bounded-memory build: for any table, the
//! snapshot produced by the streaming path (`VerticalDbBuilder` staging
//! tid-order chunks + `CubeBuilder::build_streaming`) must be
//! **byte-identical** to the resident path's (`TransactionDbBuilder` +
//! `CubeSnapshot::from_db`) — across both materializations and
//! adversarial chunk sizes: 1 (a flush per row), a prime that never
//! divides the row count evenly, and one larger than the whole table
//! (a single flush at `finish`). Whole-snapshot identity covers the cube
//! cells, the canonical posting encodings, the dictionary/unit intern
//! order, and the recorded build config in one comparison.

use proptest::prelude::*;
use scube_cube::{CubeBuilder, CubeSnapshot, Materialize};
use scube_data::{Attribute, Schema, TransactionDbBuilder, VerticalDbBuilder};

/// One individual: single-valued SA, single-valued CA, a set of
/// multi-attribute values (bitmask over 3 sectors), and a unit.
type Row = (u8, u8, u8, u8);

fn schema() -> Schema {
    Schema::new(vec![
        Attribute::sa("gender"),
        Attribute::ca("region"),
        Attribute::ca("sector").multi(),
    ])
    .expect("schema is valid")
}

/// Expand a generated row into the `add_row` shape shared by both builders.
fn values(row: &Row) -> (Vec<Vec<String>>, String) {
    let (sa, ca, multi, unit) = *row;
    let sectors: Vec<String> =
        (0..3).filter(|b| multi & (1 << b) != 0).map(|b| format!("s{b}")).collect();
    (vec![vec![format!("g{sa}")], vec![format!("r{ca}")], sectors], format!("u{unit}"))
}

fn resident_bytes(rows: &[Row], builder: &CubeBuilder) -> Vec<u8> {
    let mut b = TransactionDbBuilder::new(schema());
    for row in rows {
        let (vals, unit) = values(row);
        b.add_row(&vals, &unit).expect("row encodes");
    }
    let db = b.finish();
    CubeSnapshot::from_db(&db, builder).expect("resident snapshot builds").to_bytes()
}

fn chunked_bytes(rows: &[Row], builder: &CubeBuilder, chunk_rows: usize) -> Vec<u8> {
    let mut b = VerticalDbBuilder::new(schema(), chunk_rows);
    for row in rows {
        let (vals, unit) = values(row);
        b.add_row(&vals, &unit).expect("row encodes");
    }
    let (vertical, meta, stats) = b.finish().expect("chunked build finishes");
    assert_eq!(stats.rows, rows.len());
    assert!(stats.peak_chunk_rows <= chunk_rows.max(1));
    let cube = builder.build_streaming(&meta, &vertical).expect("streaming build");
    CubeSnapshot::new(cube, vertical).expect("snapshot assembles").to_bytes()
}

fn check(rows: &[Row], materialize: Materialize) {
    let builder = CubeBuilder::new().min_support(1).materialize(materialize);
    let want = resident_bytes(rows, &builder);
    // Chunk sizes: one flush per row, a prime that leaves a ragged final
    // chunk, and one big enough that `finish` does the only flush.
    for chunk_rows in [1, 7, rows.len() + 1] {
        let got = chunked_bytes(rows, &builder, chunk_rows);
        assert_eq!(
            got,
            want,
            "chunked snapshot diverged (chunk_rows {chunk_rows}, {materialize:?}, {} rows)",
            rows.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn chunked_build_is_byte_identical_to_resident(
        rows in proptest::collection::vec((0u8..3, 0u8..3, 0u8..8, 0u8..5), 1..40),
    ) {
        for materialize in [Materialize::AllFrequent, Materialize::ClosedOnly] {
            check(&rows, materialize);
        }
    }
}
