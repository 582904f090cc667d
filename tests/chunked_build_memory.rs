//! Bounded-memory chunked-build regression (harness = false so the
//! counting global allocator owns the whole process).
//!
//! On a ≥10⁵-row wide table, the chunked path (`run_final_table_csv_chunked`:
//! tid-order chunks tail-appended into the vertical postings, horizontal
//! table never materialized) must peak well under the resident path
//! (`FinalTableSpec::load_csv` + `CubeSnapshot::from_db`), while producing
//! a byte-identical snapshot. The resident peak necessarily covers the
//! whole horizontal `TransactionDb` *plus* the build output; the chunked
//! peak holds only the output (postings + cube) and one staged chunk, so
//! it must stay under half the resident peak here — the fixed fraction
//! this test pins.

use scube::prelude::*;
use scube_bench::alloc::{measure, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const ROWS: usize = 120_000;
const ATTRS: usize = 12;
/// Smaller than `DEFAULT_CHUNK_ROWS`: at 64 Ki rows the staged chunk
/// itself (one `Vec<ItemId>` per row) would be a sizable slice of this
/// table, muddying the output-bounded-vs-input-bounded contrast the test
/// exists to pin. 8 Ki rows keeps staging a rounding error while still
/// flushing only ~15 times.
const CHUNK_ROWS: usize = 8_192;

/// The synthetic wide table from `tests/streaming_ingest.rs`, scaled to
/// 1.2×10⁵ rows: 12 attribute columns + unitID, five distinct values per
/// column, so the horizontal items/offsets — what the chunked path never
/// allocates — dominate the resident build's peak.
fn write_table(path: &std::path::Path) -> u64 {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path).unwrap());
    let header: Vec<String> = (0..ATTRS).map(|a| format!("attr{a:02}")).collect();
    writeln!(f, "{},unitID", header.join(",")).unwrap();
    for r in 0..ROWS {
        for a in 0..ATTRS {
            write!(f, "value_{a:02}_{},", (r / (a + 1)) % 5).unwrap();
        }
        writeln!(f, "unit{}", r % 97).unwrap();
    }
    f.into_inner().unwrap().sync_all().unwrap();
    std::fs::metadata(path).unwrap().len()
}

fn spec() -> FinalTableSpec {
    let mut spec = FinalTableSpec::new("unitID");
    for a in 0..ATTRS {
        if a % 2 == 0 {
            spec = spec.sa(format!("attr{a:02}"));
        } else {
            spec = spec.ca(format!("attr{a:02}"));
        }
    }
    spec
}

fn main() {
    let dir = std::env::temp_dir().join(format!("scube_chunked_mem_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("wide.csv");
    write_table(&csv);

    let spec = spec();
    // High min support keeps mining transients (candidate tidsets) small
    // relative to the table, so the peaks contrast what the test is about:
    // the horizontal table the chunked path never allocates.
    let builder = CubeBuilder::new()
        .min_support(ROWS as u64 / 8)
        .materialize(Materialize::ClosedOnly)
        .parallel(false); // single-threaded for byte-stable peaks

    // Chunked first (the colder cache hurts it, not the resident path).
    // The snapshot is assembled by move — `snapshot_chunked` clones, which
    // would double-count the output in the peak.
    let (chunked, peak_chunked) = measure(|| {
        let build = run_final_table_csv_chunked(&csv, &spec, &builder, CHUNK_ROWS).unwrap();
        assert_eq!(build.stats.n_rows, ROWS);
        assert!(build.chunk_stats.peak_chunk_rows <= CHUNK_ROWS);
        let ChunkedBuild { cube, vertical, .. } = build;
        CubeSnapshot::new(cube, vertical).unwrap()
    });

    let (resident, peak_resident) = measure(|| {
        let db = spec.load_csv(&csv).unwrap();
        assert_eq!(db.len(), ROWS);
        let snap: CubeSnapshot = CubeSnapshot::from_db(&db, &builder).unwrap();
        snap
    });

    // Identity first: a low peak means nothing if the build diverged.
    assert_eq!(
        chunked.to_bytes(),
        resident.to_bytes(),
        "chunked snapshot must be byte-identical to the resident one"
    );

    println!("peak alloc: resident {peak_resident} B, chunked {peak_chunked} B");
    assert!(
        peak_chunked < peak_resident / 2,
        "chunked build must peak under half the resident build \
         ({peak_chunked} vs {peak_resident})"
    );

    std::fs::remove_dir_all(&dir).ok();
    println!("chunked_build_memory: ok");
}
