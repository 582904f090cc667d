//! Experiment reproduction binary: one subcommand per paper artefact.
//!
//! ```text
//! cargo run -p scube-bench --release --bin exp -- <experiment> [scale]
//!
//! fig1         E1  — the Fig. 1 segregation cube grid (dissimilarity)
//! final-table  E2  — the Fig. 3 finalTable sample rows
//! provinces    E3  — Fig. 3 (right): per-region dissimilarity map rows
//! cube-sheet   E4  — Fig. 5 (top): the cube sheet (CSV head)
//! radial       E5  — Fig. 5 (bottom): 6 indexes × 20 sectors
//! scenario1    E6  — tabular: women across company sectors
//! scenario2    E7  — director-graph communities (3 clustering methods)
//! scenario3    E8  — bipartite company communities
//! compare      E9  — Italy vs Estonia cross-comparison
//! temporal     E10 — Estonian 20-year snapshot trend
//! scale        E11 — efficiency: cube build scaling and ablations
//! simpson      E12 — the wrong-granularity (Simpson's paradox) warning
//! significance E13 — permutation tests on discovered contexts (extension)
//! cube-build   E14 — build-pipeline throughput; writes BENCH_cube_build.json
//! cube-query   E15 — snapshot load + query serving; writes BENCH_cube_query.json
//! cube-serve   E16 — concurrent sharded serving; writes BENCH_cube_serve.json
//! cube-update  E17 — incremental delta ingest vs full rebuild; writes
//!                    BENCH_cube_update.json
//! cube-daemon  E19 — scubed loopback serving: closed-loop client sweep
//!                    against a live daemon, gated on bit-identity with the
//!                    in-process engine; writes BENCH_cube_serve_daemon.json
//!                    (pass --smoke for a quick gate-only pass that skips
//!                    the file write)
//! cube-scale   E20 — the data-scale axis: datagen streams up to ~4×10⁶
//!                    final-table rows to CSV, the cube builds both
//!                    resident and chunked (bounded-memory) under the
//!                    counting allocator — gated on whole-snapshot
//!                    byte-identity — and the saved snapshot is served
//!                    heap-loaded vs mmap-opened, every number gated on
//!                    bit-identity between the two paths; writes
//!                    BENCH_cube_scale.json (pass --smoke for a quick
//!                    gate-only pass that skips the file write)
//! cube-indexes E21 — the measure axis: single-index vs full-suite fold
//!                    cost, subset-snapshot round-trip, and the permutation
//!                    significance pass — gated on the differential
//!                    harness (subset builds bit-equal the masked full
//!                    build *and* direct segindex recomputation); writes
//!                    BENCH_cube_indexes.json (pass --smoke for a quick
//!                    gate-only pass that skips the file write)
//! all              — run everything
//! ```
//!
//! `scale` (default 3000) is the synthetic company count for the data-sized
//! experiments; the `scale` experiment uses its own sweep.

use std::time::Instant;

use scube::prelude::*;
use scube_bench::{estonia_dataset, fmt, italy_dataset, italy_final_table};
use scube_common::table::{Align, TextTable};
use scube_cube::CubeExplorer;
use scube_fpm::{Apriori, Eclat, FpGrowth, Miner};

/// The counting allocator owns the whole process so E20 can report peak
/// build allocation for the resident vs chunked construction paths. It
/// costs two relaxed atomics per allocation — noise for the wall-clock
/// numbers the other experiments report.
#[global_allocator]
static ALLOC: scube_bench::alloc::CountingAlloc = scube_bench::alloc::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exp = args.first().map(String::as_str).unwrap_or("all");
    let scale: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(3000);

    let run = |name: &str| exp == "all" || exp == name;
    let mut matched = false;
    if run("fig1") {
        fig1(scale);
        matched = true;
    }
    if run("final-table") {
        final_table(scale);
        matched = true;
    }
    if run("provinces") {
        provinces(scale);
        matched = true;
    }
    if run("cube-sheet") {
        cube_sheet(scale);
        matched = true;
    }
    if run("radial") {
        radial(scale);
        matched = true;
    }
    if run("scenario1") {
        scenario1(scale);
        matched = true;
    }
    if run("scenario2") {
        scenario2(scale);
        matched = true;
    }
    if run("scenario3") {
        scenario3(scale);
        matched = true;
    }
    if run("compare") {
        compare(scale);
        matched = true;
    }
    if run("temporal") {
        temporal(scale);
        matched = true;
    }
    if run("scale") {
        scale_experiment();
        matched = true;
    }
    if run("simpson") {
        simpson();
        matched = true;
    }
    if run("significance") {
        significance(scale);
        matched = true;
    }
    if run("cube-build") {
        cube_build_experiment();
        matched = true;
    }
    if run("cube-query") {
        cube_query_experiment();
        matched = true;
    }
    if run("cube-serve") {
        cube_serve_experiment();
        matched = true;
    }
    if run("cube-update") {
        cube_update_experiment();
        matched = true;
    }
    if run("cube-daemon") {
        cube_daemon_experiment(args.iter().any(|a| a == "--smoke"));
        matched = true;
    }
    if run("cube-scale") {
        cube_scale_experiment(args.iter().any(|a| a == "--smoke"));
        matched = true;
    }
    if run("cube-indexes") {
        cube_indexes_experiment(args.iter().any(|a| a == "--smoke"));
        matched = true;
    }
    if !matched {
        eprintln!("unknown experiment '{exp}'; see the module docs for the list");
        std::process::exit(2);
    }
}

/// The host-fingerprint fields shared by every `BENCH_*.json` writer, as a
/// ready-to-splice JSON fragment (values escaped).
fn host_json() -> String {
    let (cpu, arch) = scube_bench::host_fingerprint();
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!("\"host_cpu\": \"{}\",\n  \"host_arch\": \"{}\"", esc(&cpu), esc(&arch))
}

fn banner(id: &str, title: &str) {
    println!("\n==================================================================");
    println!("{id}: {title}");
    println!("==================================================================");
}

/// E1 — Fig. 1: the segregation data cube grid with the dissimilarity
/// index over SA = (gender, age) and CA = macro-area.
fn fig1(scale: usize) {
    banner("E1 (Fig. 1)", "segregation data cube with dissimilarity index");
    let dataset = italy_dataset(scale);
    let result = scube::run(
        &dataset,
        &ScubeConfig::new(UnitStrategy::GroupAttribute("sector".into()))
            .cube(CubeBuilder::new().min_support(20).parallel(true)),
    )
    .expect("pipeline succeeds");
    print!("{}", fig1_grid(&result.cube, "gender", "age", "area", SegIndex::Dissimilarity));
    println!("(units = 20 company sectors; '-' = undefined or below min-support)");
}

/// E2 — Fig. 3 (bottom-left): the finalTable sample.
fn final_table(scale: usize) {
    banner("E2 (Fig. 3)", "finalTable rows (multi-valued sector cells)");
    let dataset = italy_dataset(scale.min(500));
    let ft = scube::build_final_table(
        &dataset,
        &UnitStrategy::ClusterGroups(ClusteringMethod::ConnectedComponents),
        1,
    )
    .expect("pipeline succeeds");
    let rel = scube::final_table_relation(&ft.db);
    let mut table = TextTable::new().header(rel.columns().to_vec());
    // Prefer rows with multi-valued sectors (the Fig. 3 highlight).
    let mut shown = 0;
    for row in rel.rows() {
        if row.iter().any(|c| c.contains(';')) && shown < 5 {
            table.row(row.clone());
            shown += 1;
        }
    }
    for row in rel.rows().iter().take(8 - shown.min(8)) {
        table.row(row.clone());
    }
    print!("{}", table.render());
    println!("({} rows total)", rel.len());
}

/// E3 — Fig. 3 (right): dissimilarity of women per region (map overlay
/// rows; the paper colours Italian provinces by this value).
fn provinces(scale: usize) {
    banner("E3 (Fig. 3 right)", "per-region dissimilarity of women across sectors");
    let dataset = italy_dataset(scale);
    let result = scube::run(
        &dataset,
        &ScubeConfig::new(UnitStrategy::GroupAttribute("sector".into()))
            .cube(CubeBuilder::new().min_support(10).parallel(true)),
    )
    .expect("pipeline succeeds");
    let mut rows: Vec<(String, f64, u64)> = result
        .cube
        .cells()
        .filter_map(|(coords, v)| {
            // Cells of the form (gender=F | residence=R).
            let labels = result.cube.labels();
            let is_target = coords.sa.len() == 1
                && coords.ca.len() == 1
                && labels.attr_of(coords.sa[0]) == "gender"
                && labels.value_of(coords.sa[0]) == "F"
                && labels.attr_of(coords.ca[0]) == "residence";
            (is_target && v.dissimilarity.is_some()).then(|| {
                (labels.value_of(coords.ca[0]).to_string(), v.dissimilarity.unwrap(), v.total)
            })
        })
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut table = TextTable::new().header(["region", "D", "population"]).aligns(vec![
        Align::Left,
        Align::Right,
        Align::Right,
    ]);
    for (region, d, t) in rows {
        table.row([region, format!("{d:.3}"), t.to_string()]);
    }
    print!("{}", table.render());
}

/// E4 — Fig. 5 (top): the cube sheet.
fn cube_sheet(scale: usize) {
    banner("E4 (Fig. 5 top)", "multidimensional segregation cube sheet (CSV head)");
    let db = italy_final_table(scale);
    let cube = CubeBuilder::new().min_support(50).parallel(true).build(&db).expect("cube builds");
    let csv = scube_cube::to_csv(&cube);
    for line in csv.lines().take(15) {
        println!("{line}");
    }
    println!("... ({} cells total)", cube.len());
}

/// E5 — Fig. 5 (bottom): radial plot series, 6 indexes per sector.
fn radial(scale: usize) {
    banner("E5 (Fig. 5 bottom)", "six segregation indexes per company sector");
    let db = italy_final_table(scale);
    let mut explorer: CubeExplorer = CubeExplorer::new(&db);
    let cube = CubeBuilder::new().min_support(1).build(&db).expect("cube builds");
    let coords = cube.coords_by_names(&[("gender", "F")], &[]).expect("gender=F exists");
    let breakdown = explorer.unit_breakdown(&coords);
    let series = radial_series(&breakdown, db.unit_names());
    let mut table =
        TextTable::new().header(["sector", "D", "G", "H", "xPx", "xPy", "A"]).aligns(vec![
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ]);
    let mut series = series;
    series.sort_by(|a, b| a.0.cmp(&b.0));
    for (sector, v) in &series {
        table.row([
            sector.clone(),
            fmt(v.dissimilarity),
            fmt(v.gini),
            fmt(v.information),
            fmt(v.isolation),
            fmt(v.interaction),
            fmt(v.atkinson),
        ]);
    }
    print!("{}", table.render());
}

/// E6 — Scenario 1: women across company sectors (tabular).
fn scenario1(scale: usize) {
    banner("E6 (Scenario 1)", "tabular: how segregated are women in company sectors?");
    let dataset = italy_dataset(scale);
    let start = Instant::now();
    let result = scube::run(
        &dataset,
        &ScubeConfig::new(UnitStrategy::GroupAttribute("sector".into()))
            .cube(CubeBuilder::new().min_support(20).parallel(true)),
    )
    .expect("pipeline succeeds");
    println!(
        "{} directors, {} sectors, {} cells, total {:?}",
        result.stats.n_individuals,
        result.stats.n_units,
        result.stats.n_cells,
        start.elapsed()
    );
    let women = result.cube.get_by_names(&[("gender", "F")], &[]).expect("cell exists");
    println!(
        "women | * :  D={} G={} H={} xPx={} xPy={} A={}",
        fmt(women.dissimilarity),
        fmt(women.gini),
        fmt(women.information),
        fmt(women.isolation),
        fmt(women.interaction),
        fmt(women.atkinson)
    );
    println!("\ntop contexts by D (population ≥ 100):");
    for (coords, v, d) in top_contexts(&result.cube, SegIndex::Dissimilarity, 10, 100) {
        println!(
            "  D={d:.3}  {}  (M={}, T={})",
            result.cube.labels().describe(coords),
            v.minority,
            v.total
        );
    }
}

/// E7 — Scenario 2: communities of connected directors, per clustering
/// method.
fn scenario2(scale: usize) {
    banner("E7 (Scenario 2)", "director communities under the three clustering methods");
    let dataset = italy_dataset(scale);
    // The projected director graph, for the modularity column.
    let projection = dataset.bipartite.project_individuals(1);
    let mut table = TextTable::new()
        .header(["method", "clusters", "giant", "modularity", "time", "D(F|*)", "H(F|*)"])
        .aligns(vec![
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ]);
    for (name, method) in [
        ("connected-components", ClusteringMethod::ConnectedComponents),
        ("weight-threshold(2)", ClusteringMethod::WeightThreshold { min_weight: 2 }),
        (
            "stoc(0.5,0.5)",
            ClusteringMethod::Stoc(StocParams { tau: 0.5, alpha: 0.5, horizon: 2, seed: 42 }),
        ),
        ("label-propagation", ClusteringMethod::LabelPropagation(LabelPropParams::default())),
    ] {
        let result = scube::run(
            &dataset,
            &ScubeConfig::new(UnitStrategy::ClusterIndividuals(method))
                .cube(CubeBuilder::new().min_support(20).parallel(true)),
        )
        .expect("pipeline succeeds");
        let clustering = result.clustering.as_ref().unwrap();
        let q = scube_graph::modularity(&projection.graph, clustering);
        let women = result.cube.get_by_names(&[("gender", "F")], &[]);
        table.row([
            name.to_string(),
            clustering.num_clusters().to_string(),
            clustering.giant_size().to_string(),
            fmt(q),
            format!("{:?}", result.timings.clustering),
            fmt(women.and_then(|v| v.dissimilarity)),
            fmt(women.and_then(|v| v.information)),
        ]);
    }
    print!("{}", table.render());
}

/// E8 — Scenario 3: communities of connected companies.
fn scenario3(scale: usize) {
    banner("E8 (Scenario 3)", "bipartite: company communities by shared directors");
    let dataset = italy_dataset(scale);
    for min_shared in [1u32, 2] {
        let result = scube::run(
            &dataset,
            &ScubeConfig::new(UnitStrategy::ClusterGroups(ClusteringMethod::ConnectedComponents))
                .min_shared(min_shared)
                .cube(CubeBuilder::new().min_support(20).parallel(true)),
        )
        .expect("pipeline succeeds");
        let clustering = result.clustering.as_ref().unwrap();
        let women = result.cube.get_by_names(&[("gender", "F")], &[]);
        println!(
            "min_shared={min_shared}: {} communities (giant {}), {} isolated, \
             projection {:?}, D(F|*) = {}",
            clustering.num_clusters(),
            clustering.giant_size(),
            result.isolated.len(),
            result.timings.projection,
            fmt(women.and_then(|v| v.dissimilarity)),
        );
    }
}

/// E9 — Italy vs Estonia cross-comparison.
fn compare(scale: usize) {
    banner("E9", "Italy vs Estonia cross-comparison (women across sectors)");
    let countries =
        [("italy", scube_datagen::italy(scale)), ("estonia", scube_datagen::estonia(scale))];
    let mut results = Vec::new();
    for (name, boards) in &countries {
        let dataset = boards.to_dataset(vec![]).expect("valid dataset");
        let result = scube::run(
            &dataset,
            &ScubeConfig::new(UnitStrategy::GroupAttribute("sector".into()))
                .cube(CubeBuilder::new().min_support(10).parallel(true)),
        )
        .expect("pipeline succeeds");
        results.push((*name, result));
    }
    let mut table = TextTable::new().header(["index", results[0].0, results[1].0]).aligns(vec![
        Align::Left,
        Align::Right,
        Align::Right,
    ]);
    for idx in SegIndex::ALL {
        let mut row = vec![idx.name().to_string()];
        for (_, r) in &results {
            let v = r.cube.get_by_names(&[("gender", "F")], &[]).and_then(|v| v.get(idx));
            row.push(fmt(v));
        }
        table.row(row);
    }
    print!("{}", table.render());
}

/// E10 — temporal trend on the Estonian registry.
fn temporal(scale: usize) {
    banner("E10", "Estonian 20-year temporal trend (yearly snapshots)");
    let dataset = estonia_dataset(scale, 8);
    let snaps = scube::run_snapshots(
        &dataset,
        &ScubeConfig::new(UnitStrategy::GroupAttribute("sector".into()))
            .cube(CubeBuilder::new().min_support(10).parallel(true)),
    )
    .expect("pipeline succeeds");
    let mut table =
        TextTable::new().header(["year", "rows", "P(F)", "D", "H", "xPx"]).aligns(vec![
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ]);
    for (year, r) in &snaps {
        let v = r.cube.get_by_names(&[("gender", "F")], &[]);
        table.row([
            year.to_string(),
            r.stats.n_rows.to_string(),
            v.and_then(|v| v.minority_proportion())
                .map(|p| format!("{p:.3}"))
                .unwrap_or_else(|| "-".into()),
            fmt(v.and_then(|v| v.dissimilarity)),
            fmt(v.and_then(|v| v.information)),
            fmt(v.and_then(|v| v.isolation)),
        ]);
    }
    print!("{}", table.render());
}

/// E11 — efficiency: scaling and ablations.
fn scale_experiment() {
    banner("E11", "efficiency: cube construction scaling and ablations");

    println!("\n-- cube build time vs population (min_support = 0.5% of rows) --");
    let mut table = TextTable::new()
        .header(["companies", "rows", "cells", "all-frequent", "closed", "parallel"])
        .aligns(vec![
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ]);
    for n in [1000usize, 2000, 4000, 8000] {
        let db = italy_final_table(n);
        let minsup = (db.len() as u64 / 200).max(1);
        let t0 = Instant::now();
        let full = CubeBuilder::new()
            .min_support(minsup)
            .materialize(Materialize::AllFrequent)
            .build(&db)
            .unwrap();
        let t_full = t0.elapsed();
        let t0 = Instant::now();
        let _closed = CubeBuilder::new()
            .min_support(minsup)
            .materialize(Materialize::ClosedOnly)
            .build(&db)
            .unwrap();
        let t_closed = t0.elapsed();
        let t0 = Instant::now();
        let _par = CubeBuilder::new()
            .min_support(minsup)
            .materialize(Materialize::AllFrequent)
            .parallel(true)
            .build(&db)
            .unwrap();
        let t_par = t0.elapsed();
        table.row([
            n.to_string(),
            db.len().to_string(),
            full.len().to_string(),
            format!("{t_full:?}"),
            format!("{t_closed:?}"),
            format!("{t_par:?}"),
        ]);
    }
    print!("{}", table.render());

    println!("\n-- miner comparison (4000 companies) --");
    let db = italy_final_table(4000);
    let mut table = TextTable::new()
        .header(["min_support", "itemsets", "fpgrowth", "eclat(ewah)", "apriori"])
        .aligns(vec![Align::Right, Align::Right, Align::Right, Align::Right, Align::Right]);
    for rel_minsup in [0.02f64, 0.01, 0.005] {
        let minsup = ((db.len() as f64 * rel_minsup) as u64).max(1);
        let t0 = Instant::now();
        let fp = FpGrowth.mine(&db, minsup).unwrap();
        let t_fp = t0.elapsed();
        let t0 = Instant::now();
        let _ec = Eclat.mine(&db, minsup).unwrap();
        let t_ec = t0.elapsed();
        let t0 = Instant::now();
        let _ap = Apriori.mine(&db, minsup).unwrap();
        let t_ap = t0.elapsed();
        table.row([
            minsup.to_string(),
            fp.len().to_string(),
            format!("{t_fp:?}"),
            format!("{t_ec:?}"),
            format!("{t_ap:?}"),
        ]);
    }
    print!("{}", table.render());

    println!("\n-- closed-cube compression (4000 companies) --");
    let minsup = (db.len() as u64 / 200).max(1);
    let full = CubeBuilder::new()
        .min_support(minsup)
        .materialize(Materialize::AllFrequent)
        .build(&db)
        .unwrap();
    let closed = CubeBuilder::new()
        .min_support(minsup)
        .materialize(Materialize::ClosedOnly)
        .build(&db)
        .unwrap();
    println!(
        "all-frequent cells: {}, closed cells: {} ({:.1}% of full)",
        full.len(),
        closed.len(),
        100.0 * closed.len() as f64 / full.len() as f64
    );
}

/// E12 — the Simpson's-paradox motivation (§2): analysing at the wrong
/// granularity yields the wrong conclusion.
fn simpson() {
    banner("E12", "Simpson's paradox: aggregate evenness hides regional segregation");
    // Planted construction: in the north women fill unit A, men unit B;
    // in the south the roles reverse; the aggregate per unit is balanced.
    let mut rel = Relation::new(vec!["gender".into(), "region".into(), "unitID".into()]).unwrap();
    let mut add = |g: &str, r: &str, u: &str, n: usize| {
        for _ in 0..n {
            rel.push_row(vec![g.into(), r.into(), u.into()]).unwrap();
        }
    };
    add("F", "north", "A", 40);
    add("M", "north", "A", 10);
    add("F", "north", "B", 10);
    add("M", "north", "B", 40);
    add("F", "south", "A", 10);
    add("M", "south", "A", 40);
    add("F", "south", "B", 40);
    add("M", "south", "B", 10);

    let spec = FinalTableSpec::new("unitID").sa("gender").ca("region");
    let result = scube::run_final_table(&rel, &spec, &CubeBuilder::new()).unwrap();
    let at = |ca: &[(&str, &str)]| {
        result.cube.get_by_names(&[("gender", "F")], ca).and_then(|v| v.dissimilarity)
    };
    println!("D(gender=F | *)            = {}   ← looks perfectly even", fmt(at(&[])));
    println!(
        "D(gender=F | region=north) = {}   ← strong segregation",
        fmt(at(&[("region", "north")]))
    );
    println!(
        "D(gender=F | region=south) = {}   ← strong segregation (reversed)",
        fmt(at(&[("region", "south")]))
    );
    println!(
        "\nHypothesis testing at the aggregate level would have missed both contexts;\n\
         cube exploration over all granularities surfaces them."
    );
}

/// E14 — build-pipeline throughput: serial vs parallel cube construction
/// on datagen workloads, written to `BENCH_cube_build.json` so successive
/// PRs accumulate a perf trajectory.
fn cube_build_experiment() {
    banner("E14", "cube build throughput (writes BENCH_cube_build.json)");
    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // The canonical comparison pins 8 workers (the "8-thread datagen
    // workload"); on smaller hosts the OS interleaves them, so record the
    // host's own parallelism alongside.
    let bench_threads = 8usize;

    let best_of = |f: &dyn Fn() -> usize| -> (f64, usize) {
        let mut best = f64::INFINITY;
        let mut cells = 0;
        for _ in 0..3 {
            let t0 = Instant::now();
            cells = f();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        (best, cells)
    };

    let mut table = TextTable::new()
        .header(["companies", "rows", "cells", "serial", "parallel(8)", "speedup", "rows/s (par)"])
        .aligns(vec![
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ]);
    let mut workloads = String::new();
    for n in [1000usize, 2000, 4000] {
        let db = italy_final_table(n);
        let minsup = (db.len() as u64 / 200).max(1);
        let serial_builder = CubeBuilder::new().min_support(minsup).parallel(false);
        let parallel_builder =
            CubeBuilder::new().min_support(minsup).parallel(true).threads(bench_threads);
        let (serial_s, cells) = best_of(&|| serial_builder.build(&db).unwrap().len());
        let (parallel_s, _) = best_of(&|| parallel_builder.build(&db).unwrap().len());
        // Gate the recorded numbers on full bit-identity, cell by cell —
        // never report timings of a divergent parallel build as validated.
        let serial_cube = serial_builder.build(&db).unwrap();
        let parallel_cube = parallel_builder.build(&db).unwrap();
        assert_eq!(serial_cube.len(), parallel_cube.len(), "parallel build must be bit-identical");
        for (coords, v) in serial_cube.cells() {
            assert_eq!(
                parallel_cube.get(coords),
                Some(v),
                "parallel build diverged from serial at a cell"
            );
        }
        let rows = db.len();
        let speedup = serial_s / parallel_s;
        table.row([
            n.to_string(),
            rows.to_string(),
            cells.to_string(),
            format!("{:.1} ms", serial_s * 1e3),
            format!("{:.1} ms", parallel_s * 1e3),
            format!("{speedup:.2}x"),
            format!("{:.0}", rows as f64 / parallel_s),
        ]);
        if !workloads.is_empty() {
            workloads.push_str(",\n");
        }
        workloads.push_str(&format!(
            "    {{\"dataset\": \"italy\", \"companies\": {n}, \"rows\": {rows}, \
             \"units\": {units}, \"min_support\": {minsup}, \"cells\": {cells}, \
             \"serial_s\": {serial_s:.6}, \"parallel_s\": {parallel_s:.6}, \
             \"parallel_threads\": {bench_threads}, \"speedup\": {speedup:.3}, \
             \"serial_rows_per_s\": {srps:.0}, \"parallel_rows_per_s\": {prps:.0}, \
             \"serial_cells_per_s\": {scps:.0}, \"parallel_cells_per_s\": {pcps:.0}}}",
            units = db.num_units(),
            srps = rows as f64 / serial_s,
            prps = rows as f64 / parallel_s,
            scps = cells as f64 / serial_s,
            pcps = cells as f64 / parallel_s,
        ));
    }
    print!("{}", table.render());

    // Thread sweep on the largest workload.
    let db = italy_final_table(4000);
    let minsup = (db.len() as u64 / 200).max(1);
    let mut sweep_threads = String::new();
    let mut sweep_seconds = String::new();
    println!("\n-- thread sweep (4000 companies) --");
    for threads in [1usize, 2, 4, 8] {
        let builder = CubeBuilder::new().min_support(minsup).parallel(threads > 1).threads(threads);
        let (secs, _) = best_of(&|| builder.build(&db).unwrap().len());
        println!("  {threads} thread(s): {:.1} ms", secs * 1e3);
        if !sweep_threads.is_empty() {
            sweep_threads.push_str(", ");
            sweep_seconds.push_str(", ");
        }
        sweep_threads.push_str(&threads.to_string());
        sweep_seconds.push_str(&format!("{secs:.6}"));
    }

    let host = host_json();
    let json = format!(
        "{{\n  \"experiment\": \"cube_build\",\n  \"generated_by\": \
         \"cargo run -p scube-bench --release --bin exp -- cube-build\",\n  \
         \"host_threads\": {host_threads},\n  {host},\n  \"workloads\": [\n{workloads}\n  ],\n  \
         \"thread_sweep\": {{\"dataset\": \"italy\", \"companies\": 4000, \
         \"min_support\": {minsup}, \"threads\": [{sweep_threads}], \
         \"seconds\": [{sweep_seconds}]}}\n}}\n"
    );
    std::fs::write("BENCH_cube_build.json", &json).expect("write BENCH_cube_build.json");
    println!("\nwrote BENCH_cube_build.json ({} workloads)", 3);
}

/// E15 — cube serving: snapshot cold-load time and point-query throughput
/// through the three tiers (materialized store / LRU cache / explorer
/// fallback), written to `BENCH_cube_query.json`.
fn cube_query_experiment() {
    banner("E15", "cube serving: snapshot load + query throughput (writes BENCH_cube_query.json)");
    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let db = italy_final_table(4000);
    let rows = db.len();
    let minsup = (rows as u64 / 200).max(1);

    // Serve from the closed materialization (the compressed store); the
    // full cube defines the query universe, so a share of the workload
    // exercises the explorer-fallback path.
    let closed_builder =
        CubeBuilder::new().min_support(minsup).materialize(Materialize::ClosedOnly).parallel(true);
    let snapshot: CubeSnapshot =
        CubeSnapshot::from_db(&db, &closed_builder).expect("snapshot builds");
    let full = CubeBuilder::new()
        .min_support(minsup)
        .materialize(Materialize::AllFrequent)
        .parallel(true)
        .build(&db)
        .expect("cube builds");
    let bytes = snapshot.to_bytes();

    let mut cold_load_s = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        let loaded: CubeSnapshot = CubeSnapshot::from_bytes(&bytes).expect("snapshot loads");
        cold_load_s = cold_load_s.min(t0.elapsed().as_secs_f64());
        drop(loaded);
    }

    let workload: Vec<CellCoords> = full.cells().map(|(c, _)| c.clone()).collect();
    let fallback_cells = workload.iter().filter(|c| snapshot.cube().get(c).is_none()).count();
    let materialized: Vec<CellCoords> = snapshot.cube().cells().map(|(c, _)| c.clone()).collect();

    // Every tier must agree with the in-memory full build, bit for bit,
    // before any throughput number is recorded.
    let check = ConcurrentCubeEngine::new(snapshot.clone());
    for (coords, v) in full.cells() {
        assert_eq!(check.query(coords).expect("query succeeds"), *v, "tier divergence");
    }

    let qps = |engine: &ConcurrentCubeEngine, coords: &[CellCoords]| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            for c in coords {
                std::hint::black_box(engine.query(c).expect("query succeeds"));
            }
            best = best.min(t0.elapsed().as_secs_f64());
        }
        coords.len() as f64 / best
    };

    // Materialized-only lookups (pure hash-map tier).
    let engine = ConcurrentCubeEngine::new(snapshot.clone());
    let materialized_qps = qps(&engine, &materialized);

    // Full universe with the cache disabled: every miss recomputes.
    let engine = ConcurrentCubeEngine::with_config(snapshot.clone(), scube_cube::DEFAULT_SHARDS, 0);
    let uncached_qps = qps(&engine, &workload);

    // Full universe with the cache warm: misses come from the LRU. The hit
    // rate is differenced over the timed region only, so the cold warm-up
    // pass does not dilute it.
    let engine = ConcurrentCubeEngine::new(snapshot.clone());
    for c in &workload {
        engine.query(c).expect("warm-up succeeds");
    }
    let before = engine.stats();
    let cached_qps = qps(&engine, &workload);
    let after = engine.stats();
    let warm_hit_rate =
        1.0 - (after.explored - before.explored) as f64 / (after.total() - before.total()) as f64;

    println!("rows: {rows}, min_support: {minsup}");
    println!(
        "store: {} closed cells of {} frequent ({} served by fallback)",
        materialized.len(),
        workload.len(),
        fallback_cells
    );
    println!("snapshot: {} bytes, cold load {:.3} ms", bytes.len(), cold_load_s * 1e3);
    println!("materialized lookups: {materialized_qps:.0}/s");
    println!("fallback uncached:    {uncached_qps:.0}/s  (cache capacity 0)");
    println!("fallback cached:      {cached_qps:.0}/s  (warm hit rate {warm_hit_rate:.3})");

    let host = host_json();
    let json = format!(
        "{{\n  \"experiment\": \"cube_query\",\n  \"generated_by\": \
         \"cargo run -p scube-bench --release --bin exp -- cube-query\",\n  \
         \"host_threads\": {host_threads},\n  {host},\n  \"dataset\": \"italy\",\n  \
         \"companies\": 4000,\n  \"rows\": {rows},\n  \"min_support\": {minsup},\n  \
         \"materialized_cells\": {mat},\n  \"query_universe\": {uni},\n  \
         \"fallback_cells\": {fallback_cells},\n  \"snapshot_bytes\": {nbytes},\n  \
         \"cold_load_s\": {cold_load_s:.6},\n  \"cold_load_cells_per_s\": {clps:.0},\n  \
         \"materialized_qps\": {materialized_qps:.0},\n  \"uncached_qps\": {uncached_qps:.0},\n  \
         \"cached_qps\": {cached_qps:.0},\n  \"cache_capacity\": {cap},\n  \
         \"warm_hit_rate\": {warm_hit_rate:.4}\n}}\n",
        mat = materialized.len(),
        uni = workload.len(),
        nbytes = bytes.len(),
        clps = materialized.len() as f64 / cold_load_s,
        cap = scube_cube::DEFAULT_CACHE_CAPACITY,
    );
    std::fs::write("BENCH_cube_query.json", &json).expect("write BENCH_cube_query.json");
    println!("\nwrote BENCH_cube_query.json");
}

/// E20 — the data-scale axis, end to end: `scube_datagen` streams a
/// final table (up to ~4×10⁶ rows, one per board seat, one unit per
/// company) straight to CSV, and the cube is built two ways under the
/// counting global allocator: the chunked bounded-memory path
/// ([`run_final_table_csv_chunked`] — tid-order chunks tail-appended into
/// the vertical postings, the horizontal table never materialized) and
/// the resident path (`FinalTableSpec::load_csv` + `CubeSnapshot::from_db`).
/// The chunked snapshot must re-encode **byte-identical** to the resident
/// one; the largest scale runs chunked-only — that input is what the
/// bounded path exists for — and its record shows the chunked peak
/// staying output-bounded while rows grow. The saved snapshot is then
/// served heap-loaded vs mmap-opened, every recorded number gated on
/// bit-identity between the two serving paths: re-encoded bytes, every
/// materialized cell value, and the answers to a mixed
/// materialized + fallback workload (the fallback tier recomputes from
/// the snapshot's postings, so the mapped run exercises the zero-copy
/// views). Written to `BENCH_cube_scale.json`.
fn cube_scale_experiment(smoke: bool) {
    banner(
        "E20",
        "cube scale: chunked vs resident build + mmap serving (writes BENCH_cube_scale.json)",
    );
    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let query_threads = 4usize.min(host_threads);
    // (company count, run the resident path too). Mean board size is
    // ~2.8 seats, so the largest scale is ~4.2×10⁶ rows — chunked-only:
    // materializing its horizontal table is the cost this path avoids.
    let scales: &[(usize, bool)] = if smoke {
        &[(2_000, true)]
    } else {
        &[(45_000, true), (180_000, true), (360_000, true), (1_500_000, false)]
    };
    let chunk_rows = scube_data::DEFAULT_CHUNK_ROWS;
    let dir = std::env::temp_dir().join(format!("scube_e20_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    let best_of = |reps: usize, f: &mut dyn FnMut()| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            f();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };

    let mut table = TextTable::new()
        .header([
            "rows",
            "snapshot",
            "build res",
            "build chk",
            "peak res",
            "peak chk",
            "heap load",
            "mmap open",
            "heap q/s",
            "mmap q/s",
        ])
        .aligns(vec![Align::Right; 10]);
    let mut records = String::new();
    for &(n, resident) in scales {
        let csv = dir.join(format!("scale_{n}.csv"));
        let snap_path = dir.join(format!("scale_{n}.snap"));

        let t0 = Instant::now();
        let stats =
            scube_datagen::write_final_table_csv(scube_datagen::BoardsConfig::italy(n), &csv)
                .expect("datagen streams");
        let datagen_s = t0.elapsed().as_secs_f64();
        let csv_bytes = std::fs::metadata(&csv).expect("csv written").len();
        let rows = stats.n_rows;

        let spec = scube_datagen::final_table_spec();
        let minsup = (rows as u64 / 200).max(1);
        let builder = CubeBuilder::new()
            .min_support(minsup)
            .materialize(Materialize::ClosedOnly)
            .parallel(true);

        // Chunked bounded-memory build (every scale): CSV rows stream in
        // tid-order chunks straight into the vertical postings, the cube
        // mines from them, and the snapshot is assembled by move (the
        // `snapshot_chunked` helper clones, which would inflate the peak
        // measurement). Peak allocation here is bounded by the output
        // (postings + cube) plus one staged chunk — not the input table.
        let t0 = Instant::now();
        let (chunked, chunked_peak) = scube_bench::alloc::measure(|| {
            let cb = run_final_table_csv_chunked(&csv, &spec, &builder, chunk_rows)
                .expect("chunked build");
            assert_eq!(cb.stats.n_rows, rows, "chunked ingest must see every emitted row");
            let ChunkedBuild { cube, vertical, .. } = cb;
            let config = builder.config();
            CubeSnapshot::new(cube, vertical).expect("snapshot assembles").with_build_config(
                config.materialize,
                config.atkinson_b,
                config.measures,
            )
        });
        let chunked_build_s = t0.elapsed().as_secs_f64();
        let cells = chunked.cube().len();

        // Resident build (skipped at the largest scale): materialize the
        // whole horizontal table, then build. Gate: the chunked build's
        // snapshot re-encodes byte-identical to the resident build's.
        let mut ingest_s: Option<f64> = None;
        let mut build_s: Option<f64> = None;
        let mut resident_peak: Option<usize> = None;
        if resident {
            let (snapshot, peak) = scube_bench::alloc::measure(|| {
                let t0 = Instant::now();
                let db = spec.load_csv(&csv).expect("streaming ingest");
                ingest_s = Some(t0.elapsed().as_secs_f64());
                assert_eq!(db.len(), rows, "ingest must see every emitted row");
                let t0 = Instant::now();
                let snap: CubeSnapshot =
                    CubeSnapshot::from_db(&db, &builder).expect("snapshot builds");
                build_s = Some(t0.elapsed().as_secs_f64());
                snap
            });
            resident_peak = Some(peak);
            assert_eq!(
                snapshot.to_bytes(),
                chunked.to_bytes(),
                "chunked build must re-encode byte-identical to the resident build"
            );
        }

        let t0 = Instant::now();
        chunked.save(&snap_path).expect("snapshot saves");
        let save_s = t0.elapsed().as_secs_f64();
        let snapshot_bytes = std::fs::metadata(&snap_path).expect("snapshot written").len();
        drop(chunked);

        let heap_load_s = best_of(3, &mut || {
            let snap: CubeSnapshot = CubeSnapshot::load(&snap_path).expect("heap load");
            drop(snap);
        });
        let mmap_open_s = best_of(3, &mut || {
            let snap: CubeSnapshot = CubeSnapshot::open_mmap(&snap_path).expect("mmap open");
            drop(snap);
        });

        // --- Bit-identity gates: nothing below is recorded unless the
        // mapped path is indistinguishable from the heap path. ---
        let heap: CubeSnapshot = CubeSnapshot::load(&snap_path).expect("heap load");
        let mapped: CubeSnapshot = CubeSnapshot::open_mmap(&snap_path).expect("mmap open");
        assert_eq!(
            heap.to_bytes(),
            mapped.to_bytes(),
            "mapped snapshot must re-encode bit-identically"
        );
        for (coords, v) in heap.cube().cells() {
            assert_eq!(mapped.cube().get(coords), Some(v), "mapped cube diverged at a cell");
        }

        // Workload: every materialized cell plus its CA-parent projections
        // (frequent by anti-monotonicity, usually not closed, so they are
        // served by posting recomputation — the tier the mapping must feed).
        let mut workload: Vec<CellCoords> = heap.cube().cells().map(|(c, _)| c.clone()).collect();
        let mut seen: std::collections::HashSet<CellCoords> = workload.iter().cloned().collect();
        let mut fallback_cells = 0usize;
        for (c, _) in heap.cube().cells() {
            if c.ca.is_empty() {
                continue;
            }
            let mut parent = c.clone();
            parent.ca.pop();
            if heap.cube().get(&parent).is_none() && seen.insert(parent.clone()) {
                fallback_cells += 1;
                workload.push(parent);
            }
        }
        workload.sort();

        let heap_engine = ConcurrentCubeEngine::new(heap);
        let mapped_engine = ConcurrentCubeEngine::new(mapped);
        let heap_answers =
            heap_engine.query_batch(&workload, query_threads).expect("heap queries succeed");
        let mapped_answers =
            mapped_engine.query_batch(&workload, query_threads).expect("mapped queries succeed");
        assert_eq!(heap_answers, mapped_answers, "mapped serving diverged from heap serving");

        let qps = |engine: &ConcurrentCubeEngine| -> f64 {
            let secs = best_of(3, &mut || {
                std::hint::black_box(
                    engine.query_batch(&workload, query_threads).expect("queries succeed"),
                );
            });
            workload.len() as f64 / secs
        };
        let heap_qps = qps(&heap_engine);
        let mapped_qps = qps(&mapped_engine);

        let mb = |b: usize| format!("{:.1} MB", b as f64 / 1e6);
        table.row([
            rows.to_string(),
            format!("{:.1} MB", snapshot_bytes as f64 / 1e6),
            build_s.map(|s| format!("{s:.2} s")).unwrap_or_else(|| "-".into()),
            format!("{chunked_build_s:.2} s"),
            resident_peak.map(mb).unwrap_or_else(|| "-".into()),
            mb(chunked_peak),
            format!("{:.1} ms", heap_load_s * 1e3),
            format!("{:.2} ms", mmap_open_s * 1e3),
            format!("{heap_qps:.0}"),
            format!("{mapped_qps:.0}"),
        ]);
        println!(
            "  {n} companies: {rows} rows ({} directors), csv {:.1} MB in {datagen_s:.2} s, \
             chunked build {chunked_build_s:.2} s ({chunk_rows}-row chunks), {cells} cells, \
             workload {} ({fallback_cells} fallback){}",
            stats.n_directors,
            csv_bytes as f64 / 1e6,
            workload.len(),
            if resident { "" } else { " [chunked-only]" },
        );

        if !records.is_empty() {
            records.push_str(",\n");
        }
        let jf = |v: Option<f64>| v.map(|x| format!("{x:.6}")).unwrap_or_else(|| "null".into());
        records.push_str(&format!(
            "    {{\"dataset\": \"italy_final_table\", \"companies\": {n}, \"rows\": {rows}, \
             \"directors\": {dirs}, \"units\": {n}, \"csv_bytes\": {csv_bytes}, \
             \"datagen_s\": {datagen_s:.6}, \"datagen_rows_per_s\": {dgr:.0}, \
             \"ingest_s\": {ing}, \"ingest_rows_per_s\": {igr}, \
             \"min_support\": {minsup}, \"build_s\": {bld}, \"cells\": {cells}, \
             \"chunk_rows\": {chunk_rows}, \"chunked_build_s\": {chunked_build_s:.6}, \
             \"chunked_rows_per_s\": {ckr:.0}, \
             \"build_peak_alloc_bytes\": {{\"resident\": {rpk}, \"chunked\": {chunked_peak}}}, \
             \"chunked_matches_resident\": {cmr}, \
             \"save_s\": {save_s:.6}, \"snapshot_bytes\": {snapshot_bytes}, \
             \"heap_load_s\": {heap_load_s:.6}, \"mmap_open_s\": {mmap_open_s:.6}, \
             \"open_speedup\": {ospd:.1}, \"workload_cells\": {wl}, \
             \"fallback_cells\": {fallback_cells}, \"query_threads\": {query_threads}, \
             \"heap_qps\": {heap_qps:.0}, \"mmap_qps\": {mapped_qps:.0}, \
             \"bit_identical\": true}}",
            dirs = stats.n_directors,
            dgr = rows as f64 / datagen_s,
            ing = jf(ingest_s),
            igr = jf(ingest_s.map(|s| (rows as f64 / s).round())),
            bld = jf(build_s),
            ckr = rows as f64 / chunked_build_s,
            rpk = resident_peak.map(|p| p.to_string()).unwrap_or_else(|| "null".into()),
            cmr = if resident { "true" } else { "null" },
            ospd = heap_load_s / mmap_open_s,
            wl = workload.len(),
        ));
    }
    print!("{}", table.render());
    std::fs::remove_dir_all(&dir).ok();

    if smoke {
        println!("smoke mode: bit-identity gates passed; skipping BENCH_cube_scale.json");
        return;
    }

    let host = host_json();
    let json = format!(
        "{{\n  \"experiment\": \"cube_scale\",\n  \"generated_by\": \
         \"cargo run -p scube-bench --release --bin exp -- cube-scale\",\n  \
         \"host_threads\": {host_threads},\n  {host},\n  \"scales\": [\n{records}\n  ]\n}}\n"
    );
    std::fs::write("BENCH_cube_scale.json", &json).expect("write BENCH_cube_scale.json");
    println!("\nwrote BENCH_cube_scale.json ({} scales)", scales.len());
}

/// E16 — concurrent sharded serving: one `ConcurrentCubeEngine` shared by
/// N worker threads answering the full-cube universe (materialized hits +
/// sharded-cache/explorer fallbacks), swept over thread and shard counts,
/// written to `BENCH_cube_serve.json`. All timings are gated on
/// bit-identity with an in-memory full build.
fn cube_serve_experiment() {
    banner("E16", "concurrent sharded serving (writes BENCH_cube_serve.json)");
    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let db = italy_final_table(4000);
    let rows = db.len();
    let minsup = (rows as u64 / 200).max(1);

    let closed_builder =
        CubeBuilder::new().min_support(minsup).materialize(Materialize::ClosedOnly).parallel(true);
    let snapshot: CubeSnapshot =
        CubeSnapshot::from_db(&db, &closed_builder).expect("snapshot builds");
    let full = CubeBuilder::new()
        .min_support(minsup)
        .materialize(Materialize::AllFrequent)
        .parallel(true)
        .build(&db)
        .expect("cube builds");

    let mut workload: Vec<CellCoords> = full.cells().map(|(c, _)| c.clone()).collect();
    workload.sort();
    let fallback_cells = workload.iter().filter(|c| snapshot.cube().get(c).is_none()).count();

    // Correctness gate: the shared-reference engine must answer the whole
    // universe bit-identically to the in-memory full build — across
    // threads — before any throughput number is recorded.
    let gate = ConcurrentCubeEngine::new(snapshot.clone());
    let answers = gate.query_batch(&workload, 4).expect("gate queries succeed");
    for (c, got) in workload.iter().zip(&answers) {
        assert_eq!(full.get(c), Some(got), "concurrent engine diverged at a cell");
    }

    // One long pre-repeated workload per measurement, so worker threads are
    // spawned once per timing (as a resident serving pool would be) rather
    // than once per round.
    const ROUNDS: usize = 50;
    let mut big: Vec<CellCoords> = Vec::with_capacity(workload.len() * ROUNDS);
    for _ in 0..ROUNDS {
        big.extend(workload.iter().cloned());
    }

    // Warm the engine, then time the big pass; the hit rate is differenced
    // over the timed region only.
    let measure = |engine: &ConcurrentCubeEngine, threads: usize| -> (f64, f64) {
        engine.query_batch(&workload, threads).expect("warm-up succeeds");
        let mut best = f64::INFINITY;
        let before = engine.stats();
        for _ in 0..3 {
            let t0 = Instant::now();
            std::hint::black_box(engine.query_batch(&big, threads).expect("queries succeed"));
            best = best.min(t0.elapsed().as_secs_f64());
        }
        let after = engine.stats();
        let hit_rate = 1.0
            - (after.explored - before.explored) as f64 / (after.total() - before.total()) as f64;
        (big.len() as f64 / best, hit_rate)
    };

    println!("rows: {rows}, min_support: {minsup}, host_threads: {host_threads}");
    println!(
        "store: {} closed cells of {} frequent ({} served by fallback)",
        snapshot.cube().len(),
        workload.len(),
        fallback_cells
    );

    let mut table = TextTable::new().header(["threads", "qps", "hit rate"]).aligns(vec![
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    let sweep_threads = [1usize, 2, 4, 8];
    let mut thread_qps = Vec::new();
    let mut thread_hit = Vec::new();
    for &threads in &sweep_threads {
        let engine = ConcurrentCubeEngine::new(snapshot.clone());
        let (qps, hit) = measure(&engine, threads);
        table.row([threads.to_string(), format!("{qps:.0}"), format!("{hit:.4}")]);
        thread_qps.push(qps);
        thread_hit.push(hit);
    }
    print!("{}", table.render());

    let mut table = TextTable::new()
        .header(["shards", "qps (8 threads)"])
        .aligns(vec![Align::Right, Align::Right]);
    let sweep_shards = [1usize, 2, 4, 8, 16, 32];
    let mut shard_qps = Vec::new();
    for &shards in &sweep_shards {
        let engine = ConcurrentCubeEngine::with_config(
            snapshot.clone(),
            shards,
            scube_cube::DEFAULT_CACHE_CAPACITY,
        );
        let (qps, _) = measure(&engine, 8);
        table.row([shards.to_string(), format!("{qps:.0}")]);
        shard_qps.push(qps);
    }
    print!("{}", table.render());

    let single_thread_qps = thread_qps[0];
    let (best_i, best_multi) = thread_qps
        .iter()
        .enumerate()
        .skip(1)
        .map(|(i, &q)| (i, q))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("sweep has multi-thread entries");
    println!(
        "single thread: {single_thread_qps:.0}/s; best multi-thread: {best_multi:.0}/s \
         at {} threads ({:.2}x)",
        sweep_threads[best_i],
        best_multi / single_thread_qps
    );

    let fmt_list = |xs: &[f64], prec: usize| -> String {
        xs.iter().map(|x| format!("{x:.prec$}")).collect::<Vec<_>>().join(", ")
    };
    let host = host_json();
    let json = format!(
        "{{\n  \"experiment\": \"cube_serve\",\n  \"generated_by\": \
         \"cargo run -p scube-bench --release --bin exp -- cube-serve\",\n  \
         \"host_threads\": {host_threads},\n  {host},\n  \"dataset\": \"italy\",\n  \
         \"companies\": 4000,\n  \"rows\": {rows},\n  \"min_support\": {minsup},\n  \
         \"materialized_cells\": {mat},\n  \"query_universe\": {uni},\n  \
         \"fallback_cells\": {fallback_cells},\n  \"rounds_per_pass\": {ROUNDS},\n  \
         \"cache_capacity\": {cap},\n  \"default_shards\": {shards},\n  \
         \"thread_sweep\": {{\"threads\": [{ts}], \"qps\": [{tq}], \"hit_rate\": [{th}]}},\n  \
         \"shard_sweep\": {{\"threads\": 8, \"shards\": [{ss}], \"qps\": [{sq}]}},\n  \
         \"single_thread_qps\": {single_thread_qps:.0},\n  \
         \"best_multi_thread_qps\": {best_multi:.0},\n  \
         \"best_multi_threads\": {bt}\n}}\n",
        mat = snapshot.cube().len(),
        uni = workload.len(),
        cap = scube_cube::DEFAULT_CACHE_CAPACITY,
        shards = scube_cube::DEFAULT_SHARDS,
        ts = sweep_threads.map(|t| t.to_string()).join(", "),
        tq = fmt_list(&thread_qps, 0),
        th = fmt_list(&thread_hit, 4),
        ss = sweep_shards.map(|s| s.to_string()).join(", "),
        sq = fmt_list(&shard_qps, 0),
        bt = sweep_threads[best_i],
    );
    std::fs::write("BENCH_cube_serve.json", &json).expect("write BENCH_cube_serve.json");
    println!("\nwrote BENCH_cube_serve.json");
}

/// E19 — the `scubed` serving daemon over loopback: a closed-loop client
/// sweep against a live [`scube::daemon::Daemon`], measuring end-to-end
/// request throughput and latency percentiles (parse + route + engine +
/// serialize + TCP round trip). Every timed request is compared
/// byte-for-byte against a body pre-rendered from an in-process engine
/// with the daemon's own serializers, so a throughput number can never be
/// bought with a wrong answer. `--smoke` runs the bit-identity gate and a
/// reduced sweep, and skips the file write.
fn cube_daemon_experiment(smoke: bool) {
    use minihttp::{percent_encode, HttpClient};
    use scube::daemon::{self, Daemon, DaemonConfig};

    banner("E19", "scubed loopback serving daemon (writes BENCH_cube_serve_daemon.json)");
    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let companies = if smoke { 400 } else { 4000 };
    let db = italy_final_table(companies);
    let rows = db.len();
    let minsup = (rows as u64 / 200).max(1);
    let builder =
        CubeBuilder::new().min_support(minsup).materialize(Materialize::ClosedOnly).parallel(true);
    let snapshot: CubeSnapshot = CubeSnapshot::from_db(&db, &builder).expect("snapshot builds");

    // Expected wire bodies, pre-rendered from an in-process engine with the
    // daemon's own serializers: the loopback answers must match them
    // byte-for-byte, both in the gate and inside every timed request.
    let reference = ConcurrentCubeEngine::new(snapshot.clone());
    let labels = reference.cube().labels().clone();
    let mut cells: Vec<CellCoords> = snapshot.cube().cells().map(|(c, _)| c.clone()).collect();
    cells.sort();
    let workload: Vec<(String, String)> = cells
        .iter()
        .map(|coords| {
            let name = |items: &[u32]| {
                let pairs: Vec<String> = items
                    .iter()
                    .map(|&i| format!("{}={}", labels.attr_of(i), labels.value_of(i)))
                    .collect();
                percent_encode(&pairs.join(","))
            };
            let path = format!("/cubes/main/query?sa={}&ca={}", name(&coords.sa), name(&coords.ca));
            let body = daemon::cell_json(&labels, coords, &reference.query(coords).unwrap());
            (path, body)
        })
        .collect();

    let client_sweep: Vec<usize> = if smoke { vec![1, 2] } else { vec![1, 2, 4, 8] };
    // The daemon is thread-per-connection: give it one worker per client in
    // the largest sweep point, plus slack for the gate connection.
    let config = DaemonConfig {
        workers: client_sweep.iter().max().copied().unwrap_or(1) + 2,
        ..DaemonConfig::default()
    };
    let workers = config.workers;
    let daemon = Daemon::bind("127.0.0.1:0", vec![("main".to_string(), snapshot.clone())], config)
        .expect("daemon binds on loopback");
    let addr = daemon.local_addr().expect("daemon addr").to_string();
    let server = std::thread::spawn(move || daemon.run());

    // Correctness gate: one pass over the whole workload before any timing.
    let mut gate = HttpClient::connect(&addr).expect("gate connects");
    for (path, expected) in &workload {
        let resp = gate.get(path).expect("gate request");
        assert_eq!(resp.status, 200, "gate request failed: {path}");
        assert_eq!(resp.text().unwrap(), expected, "daemon diverged from in-process engine");
    }
    println!(
        "rows: {rows}, min_support: {minsup}, workload: {} materialized cells \
         (gate: all bit-identical over loopback)",
        workload.len()
    );

    let per_client = if smoke { 200 } else { 5_000 };
    let pct = |sorted: &[u64], q: f64| -> u64 {
        sorted[((sorted.len() - 1) as f64 * q).round() as usize]
    };

    let mut table = TextTable::new()
        .header(["clients", "qps", "p50 us", "p95 us", "p99 us"])
        .aligns(vec![Align::Right; 5]);
    let (mut qps_col, mut p50_col, mut p95_col, mut p99_col) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for &clients in &client_sweep {
        let t0 = Instant::now();
        let mut latencies: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|offset| {
                    let (addr, workload) = (&addr, &workload);
                    scope.spawn(move || {
                        // Closed loop: each client owns one keep-alive
                        // connection and drives it as fast as the daemon
                        // answers, round-robin over the workload.
                        let mut client = HttpClient::connect(addr).expect("client connects");
                        let mut lats = Vec::with_capacity(per_client);
                        for i in 0..per_client {
                            let (path, expected) = &workload[(offset + i) % workload.len()];
                            let t = Instant::now();
                            let resp = client.get(path).expect("timed request");
                            lats.push(t.elapsed().as_micros() as u64);
                            assert_eq!(resp.text().unwrap(), expected, "timed request diverged");
                        }
                        lats
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
        });
        let wall = t0.elapsed().as_secs_f64();
        latencies.sort_unstable();
        let qps = latencies.len() as f64 / wall;
        let (p50, p95, p99) = (pct(&latencies, 0.50), pct(&latencies, 0.95), pct(&latencies, 0.99));
        table.row([
            clients.to_string(),
            format!("{qps:.0}"),
            p50.to_string(),
            p95.to_string(),
            p99.to_string(),
        ]);
        qps_col.push(qps);
        p50_col.push(p50);
        p95_col.push(p95);
        p99_col.push(p99);
    }
    print!("{}", table.render());

    let mut admin = HttpClient::connect(&addr).expect("admin connects");
    assert_eq!(admin.post("/shutdown", b"").expect("shutdown").status, 200);
    server.join().expect("daemon thread").expect("daemon exits cleanly");

    if smoke {
        println!("smoke mode: bit-identity gate passed; skipping BENCH_cube_serve_daemon.json");
        return;
    }

    let (best_i, best_qps) = qps_col
        .iter()
        .enumerate()
        .map(|(i, &q)| (i, q))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("sweep is non-empty");
    println!("best: {best_qps:.0} req/s at {} clients", client_sweep[best_i]);

    let ints = |xs: &[u64]| xs.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(", ");
    let host = host_json();
    let json = format!(
        "{{\n  \"experiment\": \"cube_serve_daemon\",\n  \"generated_by\": \
         \"cargo run -p scube-bench --release --bin exp -- cube-daemon\",\n  \
         \"host_threads\": {host_threads},\n  {host},\n  \"dataset\": \"italy\",\n  \
         \"companies\": {companies},\n  \"rows\": {rows},\n  \"min_support\": {minsup},\n  \
         \"workload_requests\": {uni},\n  \"daemon_workers\": {workers},\n  \
         \"requests_per_client\": {per_client},\n  \"bit_identity_gate\": \"passed\",\n  \
         \"client_sweep\": {{\"clients\": [{cs}], \"qps\": [{qs}], \"p50_us\": [{p50}], \
         \"p95_us\": [{p95}], \"p99_us\": [{p99}]}},\n  \
         \"best_qps\": {best_qps:.0},\n  \"best_clients\": {bc}\n}}\n",
        uni = workload.len(),
        cs = client_sweep.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(", "),
        qs = qps_col.iter().map(|q| format!("{q:.0}")).collect::<Vec<_>>().join(", "),
        p50 = ints(&p50_col),
        p95 = ints(&p95_col),
        p99 = ints(&p99_col),
        bc = client_sweep[best_i],
    );
    std::fs::write("BENCH_cube_serve_daemon.json", &json)
        .expect("write BENCH_cube_serve_daemon.json");
    println!("\nwrote BENCH_cube_serve_daemon.json");
}

/// E17 — incremental cube maintenance under churn: fold append-only,
/// delete-only, and mixed deltas (1% / 5% / 20%) into a built snapshot —
/// serially and with parallel dirty-cell re-evaluation — versus rebuilding
/// the cube from the edited data, gated on bit-identity of the *entire
/// snapshot bytes* with the from-scratch build. Writes
/// `BENCH_cube_update.json`.
fn cube_update_experiment() {
    banner("E17", "incremental churn ingest vs full rebuild (writes BENCH_cube_update.json)");
    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let db = italy_final_table(4000);
    let rows = db.len();
    let minsup = (rows as u64 / 200).max(1);
    let full_rel = scube::final_table_relation(&db);

    // Reconstruct the encoding spec so row slices re-encode identically.
    let spec = scube_data::FinalTableSpec::from_schema(db.schema(), "unitID");

    // Serial builder on the full (AllFrequent) cube; the update path is
    // timed both serially and with parallel phase-2 re-evaluation.
    let builder = CubeBuilder::new().min_support(minsup).parallel(false);
    let full_db = spec.encode(&full_rel).expect("full table re-encodes");
    let rebuilt: CubeSnapshot = CubeSnapshot::from_db(&full_db, &builder).expect("full build");
    let total_cells = rebuilt.cube().len();

    let mut rebuild_s = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let snap: CubeSnapshot = CubeSnapshot::from_db(&full_db, &builder).expect("full build");
        rebuild_s = rebuild_s.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(snap);
    }
    // For transparency, also time the cube alone (the pre-update artifact,
    // without the maintenance histograms an updatable snapshot carries).
    let mut cube_only_rebuild_s = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        std::hint::black_box(builder.build(&full_db).expect("cube builds"));
        cube_only_rebuild_s = cube_only_rebuild_s.min(t0.elapsed().as_secs_f64());
    }

    println!("rows: {rows}, min_support: {minsup}, cells: {total_cells}");
    println!(
        "full snapshot rebuild (serial): {:.1} ms ({:.1} ms cube only)",
        rebuild_s * 1e3,
        cube_only_rebuild_s * 1e3
    );

    // Keep only the rows of `full_rel` whose index passes `keep`.
    let filter_rows = |keep: &dyn Fn(usize) -> bool| -> Relation {
        let mut out = Relation::new(full_rel.columns().to_vec()).expect("columns");
        for (i, row) in full_rel.rows().iter().enumerate() {
            if keep(i) {
                out.push_row(row.to_vec()).expect("row shapes match");
            }
        }
        out
    };

    // Dirty-cell re-evaluation is CPU-bound, so the parallel measurement
    // uses min(8, host cores) workers — oversubscribing a 1-CPU container
    // would measure scheduling overhead, not the phase. (The multi-worker
    // merge is bit-identity property-tested at fixed thread counts in
    // `tests/cube_update_equivalence.rs`, independently of this host.)
    let parallel_threads = host_threads.clamp(1, 8);
    let mut table = TextTable::new()
        .header([
            "kind", "delta", "+rows", "-rows", "dirty", "promoted", "demoted", "clean", "serial",
            "parallel", "rebuild", "speedup",
        ])
        .aligns(vec![
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ]);
    let mut churn_json = String::new();
    for delta_pct in [1usize, 5, 20] {
        for kind in ["append", "delete", "mixed"] {
            let delta_rows = (rows * delta_pct / 100).max(1);
            // Workload shapes: `append` folds the last delta_pct% of rows
            // into a snapshot of the prefix; `delete` retracts the same
            // tail from the full snapshot (the undo workload — tail
            // surgery, no relabeling); `mixed` retracts a scattered half-
            // delta from the prefix (demotions, renumbering) while
            // appending the tail half.
            let (base_rel, remove, add_rel): (Relation, Vec<u32>, Option<Relation>) = match kind {
                "append" => (
                    full_rel.slice_rows(0..rows - delta_rows),
                    Vec::new(),
                    Some(full_rel.slice_rows(rows - delta_rows..rows)),
                ),
                "delete" => (
                    full_rel.slice_rows(0..rows),
                    ((rows - delta_rows) as u32..rows as u32).collect(),
                    None,
                ),
                _ => {
                    let half_add = (delta_rows / 2).max(1);
                    let base_rows = rows - half_add;
                    let stride = (2 * base_rows / delta_rows.max(1)).max(2);
                    let remove: Vec<u32> =
                        (0..base_rows as u32).step_by(stride).take(delta_rows / 2 + 1).collect();
                    (
                        full_rel.slice_rows(0..base_rows),
                        remove,
                        Some(full_rel.slice_rows(base_rows..rows)),
                    )
                }
            };
            let base_db = spec.encode(&base_rel).expect("base rows encode");
            let base: CubeSnapshot = CubeSnapshot::from_db(&base_db, &builder).expect("base");
            let mut batch = match &add_rel {
                Some(rel) => {
                    scube_cube::UpdateBatch::from_relation(rel, base.cube().labels(), "unitID")
                        .expect("delta rows resolve")
                }
                None => scube_cube::UpdateBatch::new(),
            };
            for &t in &remove {
                batch.remove_tid(t);
            }

            // Reference: a from-scratch snapshot on the edited table.
            let mut edited_rel =
                filter_rows(&|i| i < base_rel.len() && !remove.contains(&(i as u32)));
            if let Some(rel) = &add_rel {
                for row in rel.rows() {
                    edited_rel.push_row(row.to_vec()).expect("row shapes match");
                }
            }
            let edited_db = spec.encode(&edited_rel).expect("edited rows encode");
            let mut edited_rebuild_s = f64::INFINITY;
            let mut reference: Option<CubeSnapshot> = None;
            for _ in 0..3 {
                let t0 = Instant::now();
                let snap: CubeSnapshot =
                    CubeSnapshot::from_db(&edited_db, &builder).expect("edited build");
                edited_rebuild_s = edited_rebuild_s.min(t0.elapsed().as_secs_f64());
                reference = Some(snap);
            }
            let reference_bytes = reference.expect("three rebuilds ran").to_bytes();

            let time_update = |threads: usize| -> (f64, scube_cube::UpdateStats) {
                let mut best = f64::INFINITY;
                let mut stats = scube_cube::UpdateStats::default();
                for _ in 0..3 {
                    let mut snap = base.clone();
                    let t0 = Instant::now();
                    stats = snap.apply_update_threads(&batch, threads).expect("update applies");
                    best = best.min(t0.elapsed().as_secs_f64());
                    // Gate every recorded number on whole-snapshot
                    // bit-identity with the from-scratch build.
                    assert_eq!(
                        snap.to_bytes(),
                        reference_bytes,
                        "{kind} {delta_pct}% (threads {threads}) diverged from the rebuild"
                    );
                }
                (best, stats)
            };
            let (serial_s, stats) = time_update(1);
            let (parallel_s, pstats) = time_update(parallel_threads);
            assert_eq!(stats, pstats, "parallel stats must match serial");

            let speedup = edited_rebuild_s / serial_s;
            table.row([
                kind.to_string(),
                format!("{delta_pct}%"),
                stats.rows_added.to_string(),
                stats.rows_removed.to_string(),
                stats.dirty_cells.to_string(),
                stats.promoted_cells.to_string(),
                stats.demoted_cells.to_string(),
                stats.clean_cells.to_string(),
                format!("{:.2} ms", serial_s * 1e3),
                format!("{:.2} ms", parallel_s * 1e3),
                format!("{:.2} ms", edited_rebuild_s * 1e3),
                format!("{speedup:.1}x"),
            ]);
            if !churn_json.is_empty() {
                churn_json.push_str(",\n");
            }
            churn_json.push_str(&format!(
                "    {{\"kind\": \"{kind}\", \"delta_pct\": {delta_pct}, \
                 \"rows_added\": {}, \"rows_removed\": {}, \"base_rows\": {}, \
                 \"serial_update_s\": {serial_s:.6}, \"parallel_update_s\": {parallel_s:.6}, \
                 \"parallel_threads\": {parallel_threads}, \
                 \"rebuild_s\": {edited_rebuild_s:.6}, \"speedup_serial\": {speedup:.2}, \
                 \"speedup_parallel\": {:.2}, \"dirty_cells\": {}, \
                 \"promoted_cells\": {}, \"demoted_cells\": {}, \"clean_cells\": {}, \
                 \"bit_identical\": true}}",
                stats.rows_added,
                stats.rows_removed,
                base_rel.len(),
                edited_rebuild_s / parallel_s,
                stats.dirty_cells,
                stats.promoted_cells,
                stats.demoted_cells,
                stats.clean_cells,
            ));
        }
    }
    print!("{}", table.render());

    let host = host_json();
    let json = format!(
        "{{\n  \"experiment\": \"cube_update\",\n  \"generated_by\": \
         \"cargo run -p scube-bench --release --bin exp -- cube-update\",\n  \
         \"host_threads\": {host_threads},\n  {host},\n  \"dataset\": \"italy\",\n  \
         \"companies\": 4000,\n  \"rows\": {rows},\n  \"min_support\": {minsup},\n  \
         \"total_cells\": {total_cells},\n  \"rebuild_s\": {rebuild_s:.6},\n  \
         \"cube_only_rebuild_s\": {cube_only_rebuild_s:.6},\n  \
         \"churn\": [\n{churn_json}\n  ]\n}}\n"
    );
    std::fs::write("BENCH_cube_update.json", &json).expect("write BENCH_cube_update.json");
    println!("\nwrote BENCH_cube_update.json");
}

/// E13 (extension) — permutation significance of discovered contexts:
/// separates real segregation from the small-unit bias of random
/// allocation before reporting findings.
/// E21 — the measure axis: how much does the per-cell fold cost depend on
/// the selected `MeasureSet`, and what does a permutation-significance
/// pass over discovered contexts add on top? Every timing is gated on the
/// differential harness — each subset build must bit-equal both the
/// masked full build and a direct `SegIndex::compute` over the explorer's
/// unit breakdown, and the subset snapshot round-trip must be a byte-level
/// fixed point. Writes `BENCH_cube_indexes.json`; `--smoke` runs the
/// gates on a small dataset and skips the file write (the CI pass).
fn cube_indexes_experiment(smoke: bool) {
    banner("E21", "pluggable measure folds + significance (writes BENCH_cube_indexes.json)");
    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let companies = if smoke { 300 } else { 4000 };
    let db = italy_final_table(companies);
    let rows = db.len();
    let minsup = (rows as u64 / 200).max(1);

    let suites: [(&str, MeasureSet); 4] = [
        ("all", MeasureSet::FULL),
        ("dissimilarity", MeasureSet::only(SegIndex::Dissimilarity)),
        ("atkinson", MeasureSet::only(SegIndex::Atkinson)),
        ("gini+isolation", MeasureSet::only(SegIndex::Gini).with(SegIndex::Isolation)),
    ];
    let builder_for =
        |set: MeasureSet| CubeBuilder::new().min_support(minsup).parallel(false).measures(set);
    let full_cube = builder_for(MeasureSet::FULL).build(&db).expect("full build");
    let cells = full_cube.len();
    println!("rows: {rows}, min_support: {minsup}, cells: {cells}");

    // Differential gate: each subset build must carry exactly the masked
    // full-suite values (bit for bit, absent elsewhere), and on a cell
    // sample the folds must equal computing each index directly from the
    // explorer's per-unit breakdown — segindex as an independent oracle.
    let mut explorer: CubeExplorer = CubeExplorer::new(&db);
    for (name, set) in suites {
        let cube = builder_for(set).build(&db).expect("subset build");
        assert_eq!(cube.len(), cells, "{name}: cell universe must not depend on measures");
        for (coords, v) in cube.cells() {
            let full_v = full_cube.get(coords).expect("same universe");
            assert_eq!(
                (v.minority, v.total, v.num_units),
                (full_v.minority, full_v.total, full_v.num_units)
            );
            for index in SegIndex::ALL {
                let want = if set.contains(index) { full_v.get(index) } else { None };
                assert_eq!(
                    v.get(index).map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{name}: {index} diverged from the masked full build"
                );
            }
        }
        for (coords, v) in cube.cells().take(64) {
            let counts = UnitCounts::from_triples(explorer.unit_breakdown(coords))
                .expect("breakdown is consistent");
            for index in set.iter() {
                let want = match index {
                    SegIndex::Atkinson => {
                        scube_segindex::atkinson(&counts, scube_segindex::DEFAULT_ATKINSON_B)
                    }
                    _ => index.compute(&counts),
                };
                assert_eq!(
                    v.get(index).map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{name}: {index} diverged from direct segindex recomputation"
                );
            }
        }
    }

    // Subset round-trip gate: the snapshot carries the one version word
    // and the subset's measure set, and the load → save cycle is a
    // byte-level fixed point.
    let subset = MeasureSet::only(SegIndex::Gini).with(SegIndex::Isolation);
    let snap: CubeSnapshot =
        CubeSnapshot::from_db(&db, &builder_for(subset)).expect("subset snapshot builds");
    let bytes = snap.to_bytes();
    assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 8, "the version word");
    let reloaded: CubeSnapshot = CubeSnapshot::from_bytes(&bytes).expect("subset snapshot loads");
    assert_eq!(reloaded.measures(), subset, "the snapshot names the subset");
    assert_eq!(reloaded.to_bytes(), bytes, "subset round-trip must be a fixed point");
    println!("gates passed: masked-full identity, segindex differential, subset fixed point");
    if smoke {
        println!("(smoke: gates only, skipping timings and the JSON write)");
        return;
    }

    // Fold-cost sweep: best-of-3 full builds per measure suite. The fold
    // is a small slice of the whole build (mining dominates), so vs_full
    // measures how free a narrower suite actually is end to end.
    let mut full_build_s = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        std::hint::black_box(builder_for(MeasureSet::FULL).build(&db).expect("build"));
        full_build_s = full_build_s.min(t0.elapsed().as_secs_f64());
    }
    let mut table = TextTable::new()
        .header(["measures", "n", "build", "vs full suite"])
        .aligns(vec![Align::Left, Align::Right, Align::Right, Align::Right]);
    let mut folds_json = String::new();
    for (name, set) in suites {
        let build_s = if set.is_full() {
            full_build_s
        } else {
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let t0 = Instant::now();
                std::hint::black_box(builder_for(set).build(&db).expect("build"));
                best = best.min(t0.elapsed().as_secs_f64());
            }
            best
        };
        let vs_full = full_build_s / build_s;
        table.row([
            name.to_string(),
            set.len().to_string(),
            format!("{:.1} ms", build_s * 1e3),
            format!("{vs_full:.2}x"),
        ]);
        if !folds_json.is_empty() {
            folds_json.push_str(",\n");
        }
        folds_json.push_str(&format!(
            "    {{\"measures\": \"{name}\", \"n_measures\": {}, \
             \"build_s\": {build_s:.6}, \"vs_full\": {vs_full:.2}}}",
            set.len()
        ));
    }
    print!("{}", table.render());

    // Significance pass: the default 999-permutation test over the top-k
    // discovered contexts by dissimilarity — the cost a `--significance`
    // query adds per cell.
    let k = 20usize;
    let test = PermutationTest::default();
    let top: Vec<CellCoords> = top_contexts(&full_cube, SegIndex::Dissimilarity, k, minsup)
        .into_iter()
        .map(|(c, _, _)| c.clone())
        .collect();
    let mut tested = 0usize;
    let t0 = Instant::now();
    for coords in &top {
        let counts = UnitCounts::from_triples(explorer.unit_breakdown(coords))
            .expect("breakdown is consistent");
        if let Some(r) = test.run(SegIndex::Dissimilarity, &counts) {
            std::hint::black_box(r);
            tested += 1;
        }
    }
    let sig_s = t0.elapsed().as_secs_f64();
    let per_cell_ms = sig_s * 1e3 / tested.max(1) as f64;
    println!(
        "significance: {tested} cells x {} permutations in {:.1} ms ({per_cell_ms:.2} ms/cell)",
        test.permutations,
        sig_s * 1e3
    );

    let host = host_json();
    let json = format!(
        "{{\n  \"experiment\": \"cube_indexes\",\n  \"generated_by\": \
         \"cargo run -p scube-bench --release --bin exp -- cube-indexes\",\n  \
         \"host_threads\": {host_threads},\n  {host},\n  \"dataset\": \"italy\",\n  \
         \"companies\": {companies},\n  \"rows\": {rows},\n  \"min_support\": {minsup},\n  \
         \"cells\": {cells},\n  \"differential_gate\": \"passed\",\n  \
         \"roundtrip_gate\": \"passed\",\n  \"folds\": [\n{folds_json}\n  ],\n  \
         \"significance\": {{\"index\": \"dissimilarity\", \"permutations\": {}, \
         \"cells\": {tested}, \"total_s\": {sig_s:.6}, \"per_cell_ms\": {per_cell_ms:.4}}}\n}}\n",
        test.permutations
    );
    std::fs::write("BENCH_cube_indexes.json", &json).expect("write BENCH_cube_indexes.json");
    println!("\nwrote BENCH_cube_indexes.json");
}

fn significance(scale: usize) {
    banner("E13 (extension)", "permutation tests on the top discovered contexts");
    let db = italy_final_table(scale);
    let cube = CubeBuilder::new().min_support(100).parallel(true).build(&db).expect("cube builds");
    let mut explorer: CubeExplorer = CubeExplorer::new(&db);
    let test = scube_segindex::PermutationTest { permutations: 499, seed: 7 };
    let mut table = TextTable::new().header(["context", "D", "null mean", "p-value"]).aligns(vec![
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for (coords, _, d) in top_contexts(&cube, SegIndex::Dissimilarity, 5, 200) {
        let breakdown = explorer.unit_breakdown(coords);
        let counts =
            scube_segindex::UnitCounts::from_triples(breakdown).expect("breakdown is consistent");
        if let Some(r) = test.run(SegIndex::Dissimilarity, &counts) {
            table.row([
                cube.labels().describe(coords),
                format!("{d:.3}"),
                format!("{:.3}", r.null_mean),
                format!("{:.3}", r.p_value),
            ]);
        }
    }
    print!("{}", table.render());
    println!(
        "(null mean ≫ 0 shows the small-unit bias of D; p ≤ 0.002 is the\n\
         resolution limit of 499 permutations)"
    );
}
