//! The two build workloads: raw input → a renamed, fsynced snapshot file.
//!
//! `build-registry` is the paper's scenario-1 case study (sector units: a
//! handful of units, so the join and mining dominate). `build-table` feeds
//! the same cube builder one unit per company through the chunked
//! final-table path (`scube save --final-table … --chunk-rows`), where the
//! per-unit histograms, the maintenance store, encode and fsync dominate.

use std::hash::Hasher;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use scube::pipeline::{self, ChunkedBuild, ScubeConfig, ScubeResult};
use scube::{build_final_table, Dataset, UnitStrategy};
use scube_bench::alloc;
use scube_cube::{CellCoords, CubeBuilder, CubeExplorer, CubeSnapshot, Materialize};
use scube_data::{FinalTableSpec, UnitScratch, VerticalDb, DEFAULT_CHUNK_ROWS};
use scube_datagen::BoardsConfig;
use scube_segindex::{IndexValues, UnitCounts};

use crate::report::Outcome;
use crate::stats::{quiet_passes, quiet_value};
use crate::trace::{Kind, Tracer};
use crate::{err, repeat_setup, Ctx, Res};

/// What a build workload starts from.
enum Input {
    /// The three registry relations, resident; units = company sector.
    Registry { dataset: Box<Dataset>, config: ScubeConfig },
    /// A final-table CSV on disk; units = the `unitID` column.
    Table { csv: PathBuf, spec: FinalTableSpec, builder: CubeBuilder },
}

struct Setup {
    input: Input,
    rows: usize,
    min_support: u64,
}

fn cube_builder(rows: usize) -> CubeBuilder {
    // Serial, like the CLI default: peak allocation then repeats to the byte.
    CubeBuilder::new()
        .min_support((rows as u64 / 200).max(1))
        .materialize(Materialize::ClosedOnly)
        .parallel(false)
}

fn setup_registry(ctx: &Ctx) -> Res<Setup> {
    let companies = if ctx.smoke { 2_000 } else { 200_000 };
    let dataset =
        scube_datagen::generate(BoardsConfig::italy(companies)).to_dataset(vec![]).map_err(err)?;
    let units = UnitStrategy::GroupAttribute("sector".into());
    // The row count fixes min_support = rows/200, as every experiment does.
    let rows = build_final_table(&dataset, &units, 1).map_err(err)?.db.len();
    let builder = cube_builder(rows);
    let min_support = builder.config().min_support;
    let config = ScubeConfig::new(units).cube(builder);
    Ok(Setup { input: Input::Registry { dataset: Box::new(dataset), config }, rows, min_support })
}

fn setup_table(ctx: &Ctx) -> Res<Setup> {
    let companies = if ctx.smoke { 2_000 } else { 90_000 };
    let csv = ctx.work_dir.join("build-table.csv");
    // Streamed like `write_final_table_csv`, minus its fsync: the input
    // need not survive a crash, and set-up time should not wait on the disk.
    let file = std::fs::File::create(&csv).map_err(|e| format!("create {}: {e}", csv.display()))?;
    let mut out = std::io::BufWriter::with_capacity(1 << 20, file);
    let stats =
        scube_datagen::stream_final_table(BoardsConfig::italy(companies), &mut out).map_err(err)?;
    out.into_inner().map_err(|e| format!("write {}: {}", csv.display(), e.error()))?;
    let builder = cube_builder(stats.n_rows);
    Ok(Setup {
        input: Input::Table { csv, spec: scube_datagen::final_table_spec(), builder },
        rows: stats.n_rows,
        min_support: builder.config().min_support,
    })
}

/// FxHash and length of a file's bytes.
fn hash_file(path: &Path) -> Res<(u64, u64)> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut h = scube_common::hash::FxHasher::default();
    h.write(&bytes);
    Ok((h.finish(), bytes.len() as u64))
}

struct Rep {
    wall_s: f64,
    peak_alloc: usize,
    hash: u64,
    bytes: u64,
}

/// One untraced rep through the same entry points the CLI uses.
fn untraced_rep(setup: &Setup, path: &Path) -> Res<Rep> {
    let (wall, peak_alloc) = alloc::measure(|| -> Res<f64> {
        let t0 = Instant::now();
        // The built structures are dropped after the clock is read.
        match &setup.input {
            Input::Registry { dataset, config } => {
                let result = pipeline::run(dataset, config).map_err(err)?;
                let snapshot = pipeline::snapshot(&result).map_err(err)?;
                snapshot.save(path).map_err(err)?;
                Ok(t0.elapsed().as_secs_f64())
            }
            Input::Table { csv, spec, builder } => {
                let built =
                    pipeline::run_final_table_csv_chunked(csv, spec, builder, DEFAULT_CHUNK_ROWS)
                        .map_err(err)?;
                let snapshot = pipeline::snapshot_chunked(&built).map_err(err)?;
                snapshot.save(path).map_err(err)?;
                Ok(t0.elapsed().as_secs_f64())
            }
        }
    });
    let (hash, bytes) = hash_file(path)?;
    Ok(Rep { wall_s: wall?, peak_alloc, hash, bytes })
}

/// Reps until `seconds` have passed (at least two, so the snapshot hash is
/// cross-checked), counted into `out`. Every rep must write the same bytes.
fn untraced_reps(setup: &Setup, path: &Path, seconds: f64, out: &mut Outcome) -> Res<Vec<Rep>> {
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        let rep = untraced_rep(setup, path)?;
        let same = reps.first().is_none_or(|first| first.hash == rep.hash);
        out.check(same.then_some(()).ok_or_else(|| {
            format!("rep {} wrote different snapshot bytes than rep 0", reps.len())
        }));
        reps.push(rep);
    }
    Ok(reps)
}

fn run_untraced(ctx: &Ctx, name: &'static str, setup_fn: fn(&Ctx) -> Res<Setup>) -> Res<Outcome> {
    let mut out = Outcome::new(name, false);
    let (setup, setup_s) = repeat_setup(ctx, || setup_fn(ctx))?;
    let path = ctx.work_dir.join(format!("{name}.scube"));
    let seconds = if ctx.smoke { 0.0 } else { ctx.seconds };
    let reps = untraced_reps(&setup, &path, seconds, &mut out)?;

    let rows = setup.rows as f64;
    let rows_per_s: Vec<f64> = reps.iter().map(|r| rows / r.wall_s).collect();
    let rep_us: Vec<f64> = reps.iter().map(|r| r.wall_s * 1e6).collect();
    let peak: Vec<f64> = reps.iter().map(|r| r.peak_alloc as f64).collect();
    let quiet = quiet_passes(&rows_per_s);
    out.set("ops_per_s", quiet_value(&rows_per_s, &quiet).unwrap_or(f64::NAN));
    out.set("op_p50_us", quiet_value(&rep_us, &quiet).unwrap_or(f64::NAN));
    out.set("peak_alloc_bytes", crate::stats::median(&peak).unwrap_or(f64::NAN));
    out.set("snapshot_bytes_per_row", reps[0].bytes as f64 / rows);
    out.set("setup_s", crate::stats::median(&setup_s).unwrap_or(f64::NAN));
    out.raw = vec![
        ("ops_per_s", rows_per_s),
        ("op_p50_us", rep_us),
        ("peak_alloc_bytes", peak),
        ("setup_s", setup_s),
    ];
    Ok(out)
}

/// What the staged rep hands to the probes.
struct Staged {
    snapshot: CubeSnapshot,
    wall_s: f64,
    rep_span: usize,
}

/// One rep executed stage by stage through the layers' public functions,
/// one span each. It must write the same bytes as the untraced reps.
fn staged_rep(setup: &Setup, path: &Path, t: &mut Tracer) -> Res<Staged> {
    let rep_span = t.enter("rep", Kind::Stage);
    let snapshot = match &setup.input {
        Input::Registry { dataset, config } => {
            let ft = t
                .stage("core.join", |_| {
                    build_final_table(dataset, &config.units, config.min_shared)
                })
                .map_err(err)?;
            let vertical: VerticalDb =
                t.stage("data.vertical_build", |_| VerticalDb::build(&ft.db));
            let cube = t
                .stage("cube.build", |_| config.cube.build_from_vertical(&ft.db, &vertical))
                .map_err(err)?;
            let result = ScubeResult {
                cube,
                final_table: ft.db,
                vertical,
                builder: config.cube,
                clustering: ft.clustering,
                isolated: ft.isolated,
                timings: Default::default(),
                stats: Default::default(),
            };
            t.stage("cube.store", |_| pipeline::snapshot(&result)).map_err(err)?
        }
        Input::Table { csv, spec, builder } => {
            let (vertical, meta, chunk_stats): (VerticalDb, _, _) = t
                .stage("data.ingest", |_| spec.load_csv_chunked(csv, DEFAULT_CHUNK_ROWS))
                .map_err(err)?;
            let cube = t
                .stage("cube.build", |_| builder.build_streaming(&meta, &vertical))
                .map_err(err)?;
            let built = ChunkedBuild {
                cube,
                vertical,
                builder: *builder,
                chunk_stats,
                timings: Default::default(),
                stats: Default::default(),
            };
            t.stage("cube.store", |_| pipeline::snapshot_chunked(&built)).map_err(err)?
        }
    };
    t.stage("cube.save", |_| snapshot.save(path)).map_err(err)?;
    t.exit(rep_span);
    let wall_s = t.spans()[rep_span].duration_ns() as f64 / 1e9;
    Ok(Staged { snapshot, wall_s, rep_span })
}

/// The isolated layer measurements, as probe spans beside the staged rep.
fn probes(
    setup: &Setup,
    staged: &Staged,
    path: &Path,
    t: &mut Tracer,
    out: &mut Outcome,
) -> Res<()> {
    let snapshot = &staged.snapshot;
    let vertical = snapshot.vertical();

    if let Input::Table { csv, .. } = &setup.input {
        let records = t.probe("common.csv_parse", |_| -> Res<usize> {
            let file = std::fs::File::open(csv).map_err(err)?;
            let mut reader = scube_common::csv::Reader::new(std::io::BufReader::new(file));
            let (mut record, mut n) = (Vec::new(), 0);
            while reader.read_record(&mut record).map_err(err)? {
                n += 1;
            }
            Ok(n)
        })?;
        out.check(
            (records == setup.rows + 1)
                .then_some(())
                .ok_or_else(|| format!("csv probe read {records} records for {} rows", setup.rows)),
        );
    }

    let mined = t
        .probe("fpm.mine", |_| {
            scube_fpm::eclat::mine_vertical_with_tidsets(vertical, setup.min_support)
        })
        .map_err(err)?;
    out.set("fpm.itemsets", mined.len() as f64);
    drop(mined);

    let encoded = t.probe("cube.encode", |_| snapshot.to_bytes());
    out.set("cube.snapshot_bytes", encoded.len() as f64);
    drop(encoded);

    let mapped: CubeSnapshot =
        t.probe("cube.open_mmap", |_| CubeSnapshot::open_mmap(path)).map_err(err)?;
    let loaded: CubeSnapshot =
        t.probe("cube.load_heap", |_| CubeSnapshot::load(path)).map_err(err)?;
    out.check(
        (mapped.cube() == snapshot.cube() && loaded.cube() == snapshot.cube())
            .then_some(())
            .ok_or_else(|| {
                "the saved file does not open back to the cube that was built".to_string()
            }),
    );
    drop((mapped, loaded));

    // The three kernels behind every cell, on the workload's own postings.
    let explorer = CubeExplorer::from_vertical(vertical.clone())
        .with_atkinson_b(snapshot.atkinson_b())
        .with_measures(snapshot.measures());
    let mut breakdown_scratch = explorer.new_scratch();
    let mut scratch = UnitScratch::new(vertical.num_units());
    let cells: Vec<(&CellCoords, &IndexValues)> = snapshot.cube().cells().collect();
    let kernels = t.enter("kernels", Kind::Probe);
    let mut reproduced = true;
    for (coords, stored) in &cells {
        let items = coords.union();
        let id = t.enter("bitmap.tidset", Kind::Probe);
        let tids = vertical.tidset(&items);
        t.exit(id);
        let id = t.enter("data.unit_histogram", Kind::Probe);
        vertical.unit_histogram_into(&tids, &mut scratch);
        t.exit(id);
        black_box(scratch.touched().len());
        let counts =
            UnitCounts::from_triples(explorer.unit_breakdown_with(coords, &mut breakdown_scratch))
                .map_err(err)?;
        let id = t.enter("segindex.compute", Kind::Probe);
        let values =
            IndexValues::compute_masked(&counts, snapshot.atkinson_b(), snapshot.measures());
        t.exit(id);
        reproduced &= values == **stored;
    }
    t.exit(kernels);
    out.check(
        reproduced
            .then_some(())
            .ok_or_else(|| "the kernel probes do not reproduce the stored cell values".to_string()),
    );
    out.set("cube.cells", cells.len() as f64);
    Ok(())
}

fn run_traced(
    ctx: &Ctx,
    name: &'static str,
    setup_fn: fn(&Ctx) -> Res<Setup>,
) -> Res<(Outcome, Tracer)> {
    let mut out = Outcome::new(name, true);
    let mut t = Tracer::new(name);
    let started = Instant::now();
    let setup = setup_fn(ctx)?;
    out.set("core.setup_s", started.elapsed().as_secs_f64());
    let path = ctx.work_dir.join(format!("{name}.scube"));

    // An untraced baseline of the same code, for the overhead of staging.
    let seconds = if ctx.smoke { 0.0 } else { ctx.seconds / 2.0 };
    let baseline = untraced_reps(&setup, &path, seconds, &mut out)?;
    let rows = setup.rows as f64;
    let untraced = baseline.iter().map(|r| rows / r.wall_s).fold(0.0, f64::max);

    let staged = staged_rep(&setup, &path, &mut t)?;
    let (hash, _) = hash_file(&path)?;
    out.check(
        (hash == baseline[0].hash)
            .then_some(())
            .ok_or_else(|| "the staged rep wrote different snapshot bytes".to_string()),
    );
    probes(&setup, &staged, &path, &mut t, &mut out)?;

    for (metric, span) in [
        ("core.join_s", "core.join"),
        ("data.ingest_s", "data.ingest"),
        ("data.vertical_build_s", "data.vertical_build"),
        ("cube.build_s", "cube.build"),
        ("cube.store_s", "cube.store"),
        ("cube.save_s", "cube.save"),
        ("common.csv_parse_s", "common.csv_parse"),
        ("fpm.mine_s", "fpm.mine"),
        ("cube.encode_s", "cube.encode"),
    ] {
        out.set(metric, t.total_s(span));
    }
    out.set("cube.open_mmap_ms", t.total_s("cube.open_mmap") * 1e3);
    out.set("cube.load_heap_ms", t.total_s("cube.load_heap") * 1e3);
    for (metric, span) in [
        ("bitmap.tidset_ns", "bitmap.tidset"),
        ("data.unit_histogram_ns", "data.unit_histogram"),
        ("segindex.compute_ns", "segindex.compute"),
    ] {
        out.set(metric, t.mean_ns(span));
    }
    out.set("cube.fold_s", t.total_s("cube.build") - t.total_s("fpm.mine"));
    out.set("cube.fsync_s", t.total_s("cube.save") - t.total_s("cube.encode"));
    out.set("core.build_unattributed_s", t.self_ns(staged.rep_span) as f64 / 1e9);
    out.set("core.rows_per_s", rows / staged.wall_s);
    out.set("core.peak_alloc_bytes", baseline[0].peak_alloc as f64);
    out.set("core.rows", rows);
    out.set("core.units", f64::from(staged.snapshot.cube().num_units()));
    out.set("core.passes", 1.0);
    out.set("trace.untraced_ops_per_s", untraced);
    out.set("trace_overhead_share", (untraced - rows / staged.wall_s) / untraced);
    out.raw = vec![("untraced_rows_per_s", baseline.iter().map(|r| rows / r.wall_s).collect())];
    Ok((out, t))
}

/// Run `build-registry` or `build-table` in the phase `traced` names.
pub fn run(ctx: &Ctx, name: &'static str, traced: bool) -> Res<(Outcome, Option<Tracer>)> {
    let setup_fn: fn(&Ctx) -> Res<Setup> =
        if name == "build-registry" { setup_registry } else { setup_table };
    if traced {
        run_traced(ctx, name, setup_fn).map(|(out, t)| (out, Some(t)))
    } else {
        run_untraced(ctx, name, setup_fn).map(|out| (out, None))
    }
}
