//! Bounded-memory build regressions (harness = false so the counting
//! global allocator owns the whole process). Two phases:
//!
//! 1. **Chunked vs resident.** On a ≥10⁵-row wide table, the chunked path
//!    (`run_final_table_csv_chunked`: tid-order chunks tail-appended into
//!    the vertical postings, horizontal table never materialized) must
//!    peak well under the resident path (`FinalTableSpec::load_csv` +
//!    `CubeSnapshot::from_db`), while producing a byte-identical snapshot.
//!    The resident peak necessarily covers the whole horizontal
//!    `TransactionDb` *plus* the build output; the chunked peak holds only
//!    the output (postings + cube) and one staged chunk, so it must stay
//!    under half the resident peak here — the fixed fraction this test pins.
//! 2. **Fold on emit.** The builder folds each itemset as the Eclat DFS
//!    reaches it and drops its tidset, so a build never holds every mined
//!    tidset at once: on the generator's Italian registry, `build_streaming`
//!    must peak under half the bytes that `mine_vertical_with_tidsets`'
//!    output (every frequent itemset with its tidset) retains on the same
//!    postings. A builder that collects the mined tidsets before folding
//!    peaks above all of them.
//! 3. **Save without copies.** A snapshot shares the build's postings and
//!    maintenance store, and `save` streams the file as it encodes it: on
//!    the same registry's chunked build, `snapshot_chunked` + `save` must
//!    grow the heap over the retained build by less than the saved file's
//!    length. A snapshot that deep-copies the build, or a save that builds
//!    the file in memory first, grows it by at least that much.

use scube::prelude::*;
use scube_bench::alloc::{live_bytes, measure, CountingAlloc};
use scube_fpm::eclat::mine_vertical_with_tidsets;

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
    chunked_vs_resident(&dir);
    let italy = Italy::write(&dir);
    fold_on_emit(&italy);
    save_without_copies(&italy, &dir);
    std::fs::remove_dir_all(&dir).ok();
    println!("chunked_build_memory: ok");
}

fn chunked_vs_resident(dir: &std::path::Path) {
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
    let (chunked, peak_chunked) = measure(|| {
        let build = run_final_table_csv_chunked(&csv, &spec, &builder, CHUNK_ROWS).unwrap();
        assert_eq!(build.stats.n_rows, ROWS);
        assert!(build.chunk_stats.peak_chunk_rows <= CHUNK_ROWS);
        snapshot_chunked(&build).unwrap()
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
}

/// The generator's Italian registry (20 000 companies) as a final-table
/// CSV, and the serial ClosedOnly build at rows / 200 both later phases
/// run on it.
struct Italy {
    csv: std::path::PathBuf,
    rows: usize,
    builder: CubeBuilder,
}

impl Italy {
    fn write(dir: &std::path::Path) -> Italy {
        let csv = dir.join("italy.csv");
        let file = std::fs::File::create(&csv).unwrap();
        let mut out = std::io::BufWriter::new(file);
        let stats =
            scube_datagen::stream_final_table(scube_datagen::BoardsConfig::italy(20_000), &mut out)
                .unwrap();
        out.into_inner().unwrap();
        let builder = CubeBuilder::new()
            .min_support(stats.n_rows as u64 / 200)
            .materialize(Materialize::ClosedOnly)
            .parallel(false); // single-threaded for byte-stable peaks
        Italy { csv, rows: stats.n_rows, builder }
    }
}

fn fold_on_emit(italy: &Italy) {
    let (vertical, meta, _) = scube_datagen::final_table_spec()
        .load_csv_chunked(&italy.csv, scube_data::DEFAULT_CHUNK_ROWS)
        .unwrap();

    let before = live_bytes();
    let mined = mine_vertical_with_tidsets(&vertical, italy.builder.config().min_support).unwrap();
    let mined_bytes = live_bytes() - before;
    let itemsets = mined.len();
    drop(mined);

    let (cube, peak_build) = measure(|| italy.builder.build_streaming(&meta, &vertical).unwrap());
    assert!(cube.len() > 1_000, "a cube of {} cells is too small to measure", cube.len());
    println!(
        "fold on emit: {} rows, build peak {peak_build} B, {itemsets} mined itemsets \
         retain {mined_bytes} B",
        italy.rows
    );
    assert!(
        peak_build < mined_bytes / 2,
        "the build must peak under half the bytes of every mined tidset \
         ({peak_build} vs {mined_bytes})"
    );
}

fn save_without_copies(italy: &Italy, dir: &std::path::Path) {
    let spec = scube_datagen::final_table_spec();
    let chunk_rows = scube_data::DEFAULT_CHUNK_ROWS;
    let before = live_bytes();
    let built = run_final_table_csv_chunked(&italy.csv, &spec, &italy.builder, chunk_rows).unwrap();
    let retained = live_bytes() - before;

    let path = dir.join("italy.scube");
    let ((), growth) = measure(|| snapshot_chunked(&built).unwrap().save(&path).unwrap());
    let file_len = std::fs::metadata(&path).unwrap().len() as usize;
    println!(
        "save without copies: build retains {retained} B, snapshot + save grow {growth} B, \
         file {file_len} B"
    );
    assert!(
        growth < file_len,
        "snapshot + save must grow the heap by less than the file they write \
         ({growth} vs {file_len})"
    );
}
