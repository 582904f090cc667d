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
//! scale        E11 — efficiency: cube build scaling and closed-cube compression
//! simpson      E12 — the wrong-granularity (Simpson's paradox) warning
//! significance E13 — permutation tests on discovered contexts (extension)
//! cube-scale   E20 — the data-scale axis: datagen streams up to ~4×10⁶
//!                    final-table rows to CSV, the cube builds both
//!                    resident and chunked (bounded-memory) under the
//!                    counting allocator — gated on whole-snapshot
//!                    byte-identity — and the saved snapshot is served
//!                    heap-loaded vs mmap-opened, every number gated on
//!                    bit-identity between the two paths; writes
//!                    BENCH_cube_scale.json (pass --smoke for a quick
//!                    gate-only pass that skips the file write)
//! all              — E1–E13, the paper replication: seconds, prints only
//! ```
//!
//! Performance claims are judged by `benchmark/` (`BENCHMARK.json`), not
//! here; `cube-scale` stays because no benchmark workload reaches its row
//! counts yet, so it runs by name only — minutes, and it rewrites a
//! tracked file.
//!
//! `scale` (default 3000) is the synthetic company count for the data-sized
//! experiments; the `scale` experiment uses its own sweep.

use std::time::Instant;

use scube::daemon::json::escape;
use scube::prelude::*;
use scube_bench::{estonia_dataset, fmt, italy_dataset, italy_final_table};
use scube_common::table::{Align, TextTable};
use scube_cube::CubeExplorer;

/// The counting allocator owns the whole process so E20 can report peak
/// build allocation for the resident vs chunked construction paths. It
/// costs two relaxed atomics per allocation — noise for the wall-clock
/// numbers the other experiments report.
#[global_allocator]
static ALLOC: scube_bench::alloc::CountingAlloc = scube_bench::alloc::CountingAlloc;

/// How an experiment is invoked — which is also what `all` selects on.
enum Entry {
    /// Paper replication (E1–E13): takes the synthetic company count and
    /// prints its artefact.
    Paper(fn(usize)),
    /// The scale axis (E20): takes `--smoke`.
    Scale(fn(bool)),
}

/// Every experiment by name, in run order.
const EXPERIMENTS: &[(&str, Entry)] = &[
    ("fig1", Entry::Paper(fig1)),
    ("final-table", Entry::Paper(final_table)),
    ("provinces", Entry::Paper(provinces)),
    ("cube-sheet", Entry::Paper(cube_sheet)),
    ("radial", Entry::Paper(radial)),
    ("scenario1", Entry::Paper(scenario1)),
    ("scenario2", Entry::Paper(scenario2)),
    ("scenario3", Entry::Paper(scenario3)),
    ("compare", Entry::Paper(compare)),
    ("temporal", Entry::Paper(temporal)),
    ("scale", Entry::Paper(|_| scale_experiment())),
    ("simpson", Entry::Paper(|_| simpson())),
    ("significance", Entry::Paper(significance)),
    ("cube-scale", Entry::Scale(cube_scale_experiment)),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exp = args.first().map(String::as_str).unwrap_or("all");
    let scale: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(3000);

    let mut matched = false;
    for (name, entry) in EXPERIMENTS {
        match entry {
            Entry::Paper(run) if exp == "all" || exp == *name => run(scale),
            Entry::Scale(run) if exp == *name => run(args.iter().any(|a| a == "--smoke")),
            _ => continue,
        }
        matched = true;
    }
    if !matched {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!("unknown experiment '{exp}'; expected one of: {}, all", names.join(", "));
        std::process::exit(2);
    }
}

/// The host-fingerprint fields of `BENCH_cube_scale.json`, as a
/// ready-to-splice JSON fragment (values escaped by the daemon's escaper).
fn host_json(cpu: &str, arch: &str) -> String {
    format!("\"host_cpu\": \"{}\",\n  \"host_arch\": \"{}\"", escape(cpu), escape(arch))
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

/// E11 — efficiency: build scaling and closed-cube compression.
fn scale_experiment() {
    banner("E11", "efficiency: cube construction scaling and closed-cube compression");

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

    println!("\n-- closed-cube compression (4000 companies) --");
    let db = italy_final_table(4000);
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

/// E13 (extension) — permutation significance of discovered contexts:
/// separates real segregation from the small-unit bias of random
/// allocation before reporting findings.
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
    let host_threads = scube_common::par::host_threads();
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
        // mines from them, and the snapshot shares the build's postings and
        // store. Peak allocation here is bounded by the output (postings +
        // cube) plus one staged chunk — not the input table.
        let t0 = Instant::now();
        let (chunked, chunked_peak) = scube_bench::alloc::measure(|| {
            let cb = run_final_table_csv_chunked(&csv, &spec, &builder, chunk_rows)
                .expect("chunked build");
            assert_eq!(cb.stats.n_rows, rows, "chunked ingest must see every emitted row");
            snapshot_chunked(&cb).expect("snapshot assembles")
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
                "chunked build must re-encode byte-identical to the resident reference"
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

    let (cpu, arch) = scube_bench::host_fingerprint();
    let host = host_json(&cpu, &arch);
    let json = format!(
        "{{\n  \"experiment\": \"cube_scale\",\n  \"generated_by\": \
         \"cargo run -p scube-bench --release --bin exp -- cube-scale\",\n  \
         \"host_threads\": {host_threads},\n  {host},\n  \"scales\": [\n{records}\n  ]\n}}\n"
    );
    std::fs::write("BENCH_cube_scale.json", &json).expect("write BENCH_cube_scale.json");
    println!("\nwrote BENCH_cube_scale.json ({} scales)", scales.len());
}

#[cfg(test)]
mod tests {
    use scube::daemon::json::Json;

    #[test]
    fn host_json_is_valid_for_any_brand_string() {
        let cpu = "a \"quoted\" \\ brand\nwith a \u{1} control";
        let doc = format!("{{{}}}", super::host_json(cpu, "x86_64"));
        let json = Json::parse(&doc).expect("the fragment parses");
        assert_eq!(json.get("host_cpu").and_then(Json::as_str), Some(cpu));
        assert_eq!(json.get("host_arch").and_then(Json::as_str), Some("x86_64"));
    }
}
