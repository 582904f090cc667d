//! The `scube` command-line tool — the standalone wizard (paper Fig. 4)
//! as a CLI.
//!
//! ```text
//! scube [run] --individuals directors.csv --id id --sa gender,age --ca residence \
//!       --groups companies.csv --group-id id --group-ca sector,region \
//!       --membership boards.csv --ind-col director --grp-col company \
//!       [--interval from,to] [--dates 1995,2000,2005] \
//!       --units sector | cc | threshold:2 | stoc:0.5,0.5,2 \
//!       [--side groups|individuals] [--min-shared 1] [--min-support 50] \
//!       [--closed] [--parallel] --out reports/
//!
//! scube [run|save] --final-table rows.csv --sa gender,age --ca sector* \
//!       [--unit-col unitID] [--min-support 50] [--closed] ...
//!
//! scube save  <same input flags> --snapshot cube.scube
//! scube query --snapshot cube.scube [--mmap] [--sa gender=F] [--ca region=north]
//!             [--breakdown] [--top 10 --rank dissimilarity --min-total 100]
//!             [--slice gender=F,region=north]
//! scube inspect --snapshot cube.scube
//! ```
//!
//! `--units` selects the scenario: a group attribute name (tabular units),
//! `cc` / `threshold:<w>` / `stoc:<tau>,<alpha>,<horizon>` (graph
//! clustering; `--side` picks which projection). Reports are written by the
//! Visualizer into `--out`. Multi-valued CSV columns are declared with a
//! `*` suffix, e.g. `--ca sectors*`.
//!
//! `--final-table` takes the tabular shortcut: the CSV already carries a
//! unit column, so the pre-processing stages are skipped and the rows
//! stream through the chunked builder — staged 65 536 at a time and folded
//! straight into the postings, so the horizontal table never exists and
//! memory stays bounded by the output however many rows the file holds.
//! `run` then writes no `final_table.csv`: the input already is one.
//!
//! Every verb reads its own flag table: an unknown flag, a flag whose
//! value is missing, a repeated flag or a stray positional argument is an
//! error naming it, never silently ignored.
//!
//! `save` runs the pipeline once and persists the cube **and** its vertical
//! postings as a checksummed binary snapshot; `query` serves point / top-k /
//! slice queries from such a snapshot without re-mining — non-materialized
//! ⋆-combinations are recomputed exactly from the stored postings. Every
//! answer comes from one [`ConcurrentCubeEngine`].
//! With `--mmap`, the snapshot is memory-mapped instead of read onto the heap:
//! opening costs O(metadata) however large the file is.

use std::process::ExitCode;

use scube::prelude::*;
use scube_common::ScubeError;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let verb = match args.first().map(String::as_str) {
        Some("save" | "query" | "run" | "update" | "inspect") => args.remove(0),
        _ => "run".to_string(),
    };
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        print!("{}", USAGE);
        return ExitCode::SUCCESS;
    }
    let outcome = match verb.as_str() {
        "save" => run_save(&args),
        "query" => run_query(&args),
        "update" => run_update(&args),
        "inspect" => run_inspect(&args),
        _ => run(&args),
    };
    match outcome {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("scube: {e}");
            ExitCode::from(1)
        }
    }
}

const USAGE: &str = "\
scube — segregation discovery from relational and graph data

verbs:
  scube [run] ...        run the pipeline and write reports (--out)
  scube save ...         run the pipeline and persist a cube snapshot
                         (--snapshot <file>; input flags as for run)
  scube update ...       fold appended/retracted rows into a saved snapshot:
    --snapshot <file>    the snapshot to patch and re-save (required)
    --add <csv>          appended final-table rows: one column per cube
                         attribute plus the unit column
    --remove <csv>       retracted rows (same shape), each removed by exact
                         match; unknown values or unmatched rows are errors
                         (give --add, --remove, or both)
    --unit-col <col>     the unit column of --add/--remove [unitID]
  scube inspect ...      say what a saved snapshot is made of: region sizes
                         and shares, cell / posting / unit counts, and a
                         census of the maintenance store's histograms
    --snapshot <file>    the snapshot to inspect (required)
  scube query ...        serve queries from a saved snapshot:
    --snapshot <file>    the snapshot to load (required)
    --mmap               memory-map the snapshot instead of loading it
                         onto the heap — O(ms) open at any size
    --sa a=v,...         point query: minority coordinates (omit = *)
    --ca a=v,...         point query: context coordinates (omit = *)
    --breakdown          also print the per-unit drill-down of the cell
    --index <name>       answer with one index only (d|gini|h|xpx|xpy|a);
                         also the default --rank of a --top query
    --significance       attach a permutation-test p-value to point-query
                         indexes (999 permutations, fixed seed)
    --top <k>            top-k materialized cells by --rank
    --min-total <n>      top-k population filter [1]
    --slice a=v,...      materialized cells fixing these coordinates

required (run / save):
  --final-table <csv>    tabular shortcut: rows already carry a unit column
                         (--sa/--ca name its columns; rows stream through
                         the chunked builder, so million-row files build
                         in bounded memory; run writes no final_table.csv);
                         replaces the four inputs below
    --unit-col <col>     the unit column of --final-table [unitID]
  --individuals <csv>    individuals input (one row per person)
  --id <col>             individuals id column
  --sa <c1,c2*,...>      segregation-attribute columns ('*' = multi-valued)
  --groups <csv>         groups input (companies, schools, ...)
  --group-id <col>       groups id column
  --membership <csv>     membership edges input
  --ind-col <col>        membership column naming the individual
  --grp-col <col>        membership column naming the group
  --units <spec>         <group-attr> | cc | threshold:<w> | stoc:<tau>,<alpha>,<h> | labelprop
  --out <dir>            report output directory

optional:
  --ca <c1,...>          individual context-attribute columns
  --group-ca <c1,...>    group context-attribute columns
  --interval <from,to>   membership validity-interval columns
  --dates <y1,y2,...>    snapshot dates (temporal analysis)
  --side <groups|individuals>  projection side for graph units [groups]
  --min-shared <n>       projection weight threshold [1]
  --min-support <n>      minimum cube-cell population [1]
  --closed               materialize closed cells only
  --parallel             parallel cube construction
  --index <i1,...|all>   measure subset to fold per cell [all]; the
                         snapshot stores only the selected measures
  --rank <index>         ranking index for top_contexts [dissimilarity]
";

/// A verb's flag table: `Some(true)` for a flag of `verb` that takes a
/// value, `Some(false)` for a switch, `None` for a flag `verb` does not
/// know.
fn flag_arity(verb: &str, flag: &str) -> Option<bool> {
    match (verb, flag) {
        (
            "run" | "save",
            "--final-table" | "--unit-col" | "--individuals" | "--id" | "--sa" | "--ca"
            | "--groups" | "--group-id" | "--group-ca" | "--membership" | "--ind-col" | "--grp-col"
            | "--units" | "--interval" | "--dates" | "--side" | "--min-shared" | "--min-support"
            | "--index",
        )
        | ("run", "--out" | "--rank")
        | ("save" | "update" | "query" | "inspect", "--snapshot")
        | ("update", "--add" | "--remove" | "--unit-col")
        | ("query", "--sa" | "--ca" | "--index" | "--top" | "--rank" | "--min-total" | "--slice") => {
            Some(true)
        }
        ("run" | "save", "--closed" | "--parallel")
        | ("query", "--mmap" | "--breakdown" | "--significance") => Some(false),
        _ => None,
    }
}

/// One verb's parsed flags, each with its value (`None` for a switch).
#[derive(Debug)]
struct Flags {
    flags: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Parse an argument list against `verb`'s flag table. An unknown
    /// flag, a valued flag with no value after it, a stray positional
    /// argument and a repeated flag are all errors naming the argument:
    /// `--sa gender=F --sa gender=M` would otherwise answer with one of
    /// them, and a misspelt `--closed` would build a different cube.
    fn new(verb: &str, args: &[String]) -> Result<Self> {
        let bad = |msg: String| ScubeError::InvalidParameter(msg);
        let mut flags: Vec<(String, Option<String>)> = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let takes_value = match flag_arity(verb, arg) {
                Some(takes_value) => takes_value,
                None if arg.starts_with('-') => {
                    return Err(bad(format!("scube {verb} has no flag {arg}")))
                }
                None => return Err(bad(format!("unexpected argument {arg:?}"))),
            };
            if flags.iter().any(|(f, _)| f == arg) {
                return Err(bad(format!("flag {arg} given more than once")));
            }
            let value = if takes_value {
                let v = it.next().filter(|v| !v.starts_with("--"));
                Some(v.ok_or_else(|| bad(format!("flag {arg} needs a value")))?.clone())
            } else {
                None
            };
            flags.push((arg.clone(), value));
        }
        Ok(Flags { flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(f, _)| f == name).and_then(|(_, v)| v.as_deref())
    }

    fn require(&self, name: &str) -> Result<&str> {
        self.get(name)
            .ok_or_else(|| ScubeError::InvalidParameter(format!("missing required flag {name}")))
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == name)
    }
}

/// Split a `c1,c2*,c3` column list into `(name, multi_valued)` pairs.
fn columns(list: &str) -> Vec<(String, bool)> {
    list.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| match s.strip_suffix('*') {
            Some(name) => (name.to_string(), true),
            None => (s.to_string(), false),
        })
        .collect()
}

fn parse_units(spec: &str, side: &str) -> Result<UnitStrategy> {
    let method = if spec == "cc" {
        Some(ClusteringMethod::ConnectedComponents)
    } else if let Some(w) = spec.strip_prefix("threshold:") {
        let w: u32 = w
            .parse()
            .map_err(|_| ScubeError::InvalidParameter(format!("bad threshold weight '{w}'")))?;
        Some(ClusteringMethod::WeightThreshold { min_weight: w })
    } else if spec == "labelprop" {
        Some(ClusteringMethod::LabelPropagation(Default::default()))
    } else if let Some(params) = spec.strip_prefix("stoc:") {
        let parts: Vec<&str> = params.split(',').collect();
        if parts.len() != 3 {
            return Err(ScubeError::InvalidParameter(
                "stoc spec must be stoc:<tau>,<alpha>,<horizon>".into(),
            ));
        }
        let parse_f = |s: &str| {
            s.parse::<f64>()
                .map_err(|_| ScubeError::InvalidParameter(format!("bad stoc number '{s}'")))
        };
        Some(ClusteringMethod::Stoc(StocParams {
            tau: parse_f(parts[0])?,
            alpha: parse_f(parts[1])?,
            horizon: parts[2].parse().map_err(|_| {
                ScubeError::InvalidParameter(format!("bad stoc horizon '{}'", parts[2]))
            })?,
            seed: 0xC1B7,
        }))
    } else {
        None
    };
    Ok(match method {
        Some(m) if side == "individuals" => UnitStrategy::ClusterIndividuals(m),
        Some(m) => UnitStrategy::ClusterGroups(m),
        None => UnitStrategy::GroupAttribute(spec.to_string()),
    })
}

/// Split a `a=v,b=w` coordinate list into `(attr, value)` pairs.
fn parse_pairs(list: &str) -> Result<Vec<(String, String)>> {
    list.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| match s.split_once('=') {
            Some((a, v)) if !a.is_empty() && !v.is_empty() => {
                Ok((a.trim().to_string(), v.trim().to_string()))
            }
            _ => {
                Err(ScubeError::InvalidParameter(format!("bad coordinate '{s}' (want attr=value)")))
            }
        })
        .collect()
}

/// Build the configured wizard plus the snapshot dates from input flags
/// (shared between `run` and `save`).
fn wizard_from_flags(flags: &Flags) -> Result<(Wizard, Vec<i64>)> {
    let mut ind_spec = IndividualsSpec::new(flags.require("--id")?);
    for (name, multi) in columns(flags.require("--sa")?) {
        ind_spec.sa_columns.push((name, multi));
    }
    for (name, multi) in columns(flags.get("--ca").unwrap_or("")) {
        ind_spec.ca_columns.push((name, multi));
    }

    let mut grp_spec = GroupsSpec::new(flags.require("--group-id")?);
    for (name, multi) in columns(flags.get("--group-ca").unwrap_or("")) {
        grp_spec.ca_columns.push((name, multi));
    }

    let mut mem_spec =
        MembershipSpec::new(flags.require("--ind-col")?, flags.require("--grp-col")?);
    if let Some(interval) = flags.get("--interval") {
        let cols = columns(interval);
        if cols.len() != 2 {
            return Err(ScubeError::InvalidParameter(
                "--interval needs exactly two columns: from,to".into(),
            ));
        }
        mem_spec = mem_spec.with_interval(cols[0].0.clone(), cols[1].0.clone());
    }

    let dates: Vec<i64> = match flags.get("--dates") {
        Some(list) => list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| ScubeError::InvalidParameter(format!("bad date '{}'", s.trim())))
            })
            .collect::<Result<_>>()?,
        None => Vec::new(),
    };

    let side = flags.get("--side").unwrap_or("groups");
    if !["groups", "individuals"].contains(&side) {
        return Err(ScubeError::InvalidParameter(format!("bad --side '{side}'")));
    }
    let units = parse_units(flags.require("--units")?, side)?;

    let min_support: u64 = flags
        .get("--min-support")
        .unwrap_or("1")
        .parse()
        .map_err(|_| ScubeError::InvalidParameter("bad --min-support".into()))?;
    let min_shared: u32 = flags
        .get("--min-shared")
        .unwrap_or("1")
        .parse()
        .map_err(|_| ScubeError::InvalidParameter("bad --min-shared".into()))?;

    let mut wizard = Wizard::new()
        .individuals_csv(flags.require("--individuals")?, ind_spec)
        .groups_csv(flags.require("--groups")?, grp_spec)
        .membership_csv(flags.require("--membership")?, mem_spec)
        .units(units)
        .min_shared(min_shared)
        .min_support(min_support)
        .parallel(flags.has("--parallel"));
    if flags.has("--closed") {
        wizard = wizard.materialize(Materialize::ClosedOnly);
    }
    if let Some(measures) = parse_measures(flags)? {
        wizard = wizard.measures(measures);
    }
    Ok((wizard, dates))
}

/// The `--final-table` tabular shortcut: stream the CSV through the
/// chunked builder — the horizontal table is never materialized, peak
/// memory is the postings plus one chunk.
fn run_final_table_flags(flags: &Flags) -> Result<ChunkedBuild> {
    let path = flags.require("--final-table")?;
    if flags.has("--dates") {
        return Err(ScubeError::InvalidParameter(
            "--final-table has no membership intervals; drop --dates".into(),
        ));
    }
    let mut spec = FinalTableSpec::new(flags.get("--unit-col").unwrap_or("unitID"));
    for (name, multi) in columns(flags.require("--sa")?) {
        spec.sa_columns.push((name, multi));
    }
    for (name, multi) in columns(flags.get("--ca").unwrap_or("")) {
        spec.ca_columns.push((name, multi));
    }
    let min_support: u64 = flags
        .get("--min-support")
        .unwrap_or("1")
        .parse()
        .map_err(|_| ScubeError::InvalidParameter("bad --min-support".into()))?;
    let mut cube = CubeBuilder::new().min_support(min_support).parallel(flags.has("--parallel"));
    if flags.has("--closed") {
        cube = cube.materialize(Materialize::ClosedOnly);
    }
    if let Some(measures) = parse_measures(flags)? {
        cube = cube.measures(measures);
    }
    scube::run_final_table_csv_chunked(path, &spec, &cube, scube_data::DEFAULT_CHUNK_ROWS)
}

/// The suffix of a final-table run/save summary line: the build's peak
/// staged-chunk residency.
fn chunk_summary(s: &ChunkedBuildStats) -> String {
    format!(
        "; chunked build: {} flushes of <= {} rows, peak chunk {} rows / {} items staged",
        s.flushes, s.chunk_rows, s.peak_chunk_rows, s.peak_chunk_items
    )
}

fn parse_rank(flags: &Flags) -> Result<SegIndex> {
    flags
        .get("--rank")
        .map(|s| {
            SegIndex::parse(s)
                .ok_or_else(|| ScubeError::InvalidParameter(format!("unknown index '{s}'")))
        })
        .transpose()
        .map(|r| r.unwrap_or(SegIndex::Dissimilarity))
}

/// The `--index` measure subset of a build verb (run/save), if given.
fn parse_measures(flags: &Flags) -> Result<Option<MeasureSet>> {
    flags
        .get("--index")
        .map(|s| {
            MeasureSet::parse(s).ok_or_else(|| {
                ScubeError::InvalidParameter(format!(
                    "bad --index '{s}' (want 'all' or a comma-separated list of index names)"
                ))
            })
        })
        .transpose()
}

/// The single `--index` of a query verb, if given.
fn parse_query_index(flags: &Flags) -> Result<Option<SegIndex>> {
    flags
        .get("--index")
        .map(|s| {
            SegIndex::parse(s)
                .ok_or_else(|| ScubeError::InvalidParameter(format!("unknown index '{s}'")))
        })
        .transpose()
}

fn run(args: &[String]) -> Result<String> {
    let flags = Flags::new("run", args)?;
    let rank = parse_rank(&flags)?;
    let out_dir = flags.require("--out")?.to_string();
    let visualizer = Visualizer::new(&out_dir).rank_by(rank);

    let (stats, elapsed, build) = if flags.has("--final-table") {
        let result = run_final_table_flags(&flags)?;
        visualizer.write_chunked(&result)?;
        (result.stats, result.timings.total(), chunk_summary(&result.chunk_stats))
    } else {
        let (wizard, dates) = wizard_from_flags(&flags)?;
        if !dates.is_empty() {
            let snapshots = wizard.dates(dates).run_snapshots()?;
            let mut lines = Vec::new();
            for (date, result) in &snapshots {
                let dir = format!("{out_dir}/{date}");
                Visualizer::new(&dir).rank_by(rank).write_all(result)?;
                lines.push(format!(
                    "wrote {dir}: {} rows, {} units, {} cells",
                    result.stats.n_rows, result.stats.n_units, result.stats.n_cells
                ));
            }
            return Ok(lines.join("\n"));
        }
        let result = wizard.run()?;
        visualizer.write_all(&result)?;
        (result.stats, result.timings.total(), String::new())
    };
    Ok(format!(
        "wrote {out_dir}: {} rows, {} units, {} cells ({elapsed:?}{build})",
        stats.n_rows, stats.n_units, stats.n_cells
    ))
}

/// `scube save`: run the pipeline once, persist cube + postings.
fn run_save(args: &[String]) -> Result<String> {
    let flags = Flags::new("save", args)?;
    let path = flags.require("--snapshot")?.to_string();
    let (snap, stats, elapsed, build) = if flags.has("--final-table") {
        let result = run_final_table_flags(&flags)?;
        let snap = scube::snapshot_chunked(&result)?;
        (snap, result.stats, result.timings.total(), chunk_summary(&result.chunk_stats))
    } else {
        let (wizard, dates) = wizard_from_flags(&flags)?;
        if !dates.is_empty() {
            return Err(ScubeError::InvalidParameter(
                "save persists a single cube; drop --dates (snapshot each date separately)".into(),
            ));
        }
        let result = wizard.run()?;
        (scube::snapshot(&result)?, result.stats, result.timings.total(), String::new())
    };
    snap.save(&path)?;
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    Ok(format!(
        "wrote {path}: {} cells over {} units ({} rows, {bytes} bytes, {elapsed:?}{build})",
        stats.n_cells, stats.n_units, stats.n_rows
    ))
}

/// `scube update`: fold appended and/or retracted rows into a saved
/// snapshot, re-save it.
fn run_update(args: &[String]) -> Result<String> {
    let flags = Flags::new("update", args)?;
    let path = flags.require("--snapshot")?.to_string();
    let add_path = flags.get("--add");
    let remove_path = flags.get("--remove");
    if add_path.is_none() && remove_path.is_none() {
        return Err(ScubeError::InvalidParameter(
            "update needs --add <csv>, --remove <csv>, or both".into(),
        ));
    }
    let unit_col = flags.get("--unit-col").unwrap_or("unitID");
    let add = add_path.map(Relation::read_csv_path).transpose()?;
    let remove = remove_path.map(Relation::read_csv_path).transpose()?;
    let start = std::time::Instant::now();
    let stats = scube::update_snapshot_file(&path, add.as_ref(), remove.as_ref(), unit_col)?;
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    Ok(format!(
        "updated {path}: +{} −{} rows (+{} −{} values, +{} −{} units); {} cells re-evaluated, \
         {} promoted, {} demoted, {} untouched ({bytes} bytes, {:?})",
        stats.rows_added,
        stats.rows_removed,
        stats.new_items,
        stats.dropped_items,
        stats.new_units,
        stats.dropped_units,
        stats.dirty_cells,
        stats.promoted_cells,
        stats.demoted_cells,
        stats.clean_cells,
        start.elapsed()
    ))
}

/// `scube inspect`: the census of a saved snapshot.
fn run_inspect(args: &[String]) -> Result<String> {
    let flags = Flags::new("inspect", args)?;
    let path = flags.require("--snapshot")?;
    let census = scube_cube::snapshot::inspect(path)?;
    Ok(format!("{path}: {census}").trim_end().to_string())
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map(|x| format!("{x:.4}")).unwrap_or_else(|| "-".into())
}

fn fmt_values(v: &IndexValues) -> String {
    format!(
        "M={} T={} units={}  D={} G={} H={} xPx={} xPy={} A={}",
        v.minority,
        v.total,
        v.num_units,
        fmt_opt(v.dissimilarity),
        fmt_opt(v.gini),
        fmt_opt(v.information),
        fmt_opt(v.isolation),
        fmt_opt(v.interaction),
        fmt_opt(v.atkinson),
    )
}

/// Single-measure form of [`fmt_values`], for `query --index <name>`.
fn fmt_one_value(v: &IndexValues, index: SegIndex) -> String {
    format!(
        "M={} T={} units={}  {}={}",
        v.minority,
        v.total,
        v.num_units,
        index.short_name(),
        fmt_opt(v.get(index))
    )
}

/// The `--significance` pass: permutation-test the point-query cell's
/// indexes against random allocation of the minority over the units
/// (deterministic seed, so transcripts are reproducible). Tests the single
/// `--index` when given, otherwise every index the cell carries a value
/// for.
fn significance_lines(
    breakdown: &[(u32, u64, u64)],
    values: &IndexValues,
    only: Option<SegIndex>,
) -> Result<Vec<String>> {
    let counts = UnitCounts::from_pairs(breakdown.iter().map(|&(_, m, t)| (m, t)))?;
    let indexes: Vec<SegIndex> = match only {
        Some(i) => vec![i],
        None => SegIndex::ALL.into_iter().filter(|&i| values.get(i).is_some()).collect(),
    };
    let test = PermutationTest::default();
    let mut out = Vec::with_capacity(indexes.len());
    for index in indexes {
        match test.run(index, &counts) {
            Some(r) => out.push(format!(
                "  significance {}: observed={:.4} null_mean={:.4} p={:.4}{}",
                index.name(),
                r.observed,
                r.null_mean,
                r.p_value,
                if r.p_value < 0.05 { " *" } else { "" }
            )),
            None => out.push(format!("  significance {}: undefined on this cell", index.name())),
        }
    }
    Ok(out)
}

/// `scube query`: serve point / top-k / slice queries from a snapshot.
fn run_query(args: &[String]) -> Result<String> {
    let flags = Flags::new("query", args)?;
    let path = flags.require("--snapshot")?;
    let load_start = std::time::Instant::now();
    let snap: CubeSnapshot = if flags.has("--mmap") {
        CubeSnapshot::open_mmap(path)?
    } else {
        CubeSnapshot::load(path)?
    };
    let loaded_in = load_start.elapsed();
    let engine = ConcurrentCubeEngine::new(snap);
    let mut out: Vec<String> = Vec::new();
    let mut answered = false;

    let query_index = parse_query_index(&flags)?;
    for point_only in ["--breakdown", "--significance"] {
        if flags.has(point_only) && !flags.has("--sa") && !flags.has("--ca") {
            return Err(ScubeError::InvalidParameter(format!(
                "{point_only} drills into a point query; give it --sa and/or --ca"
            )));
        }
    }
    if !flags.has("--top") {
        for dependent in ["--rank", "--min-total"] {
            if flags.has(dependent) {
                return Err(ScubeError::InvalidParameter(format!(
                    "{dependent} only applies to a --top query"
                )));
            }
        }
    }

    if flags.has("--sa") || flags.has("--ca") {
        answered = true;
        let sa = parse_pairs(flags.get("--sa").unwrap_or(""))?;
        let ca = parse_pairs(flags.get("--ca").unwrap_or(""))?;
        let sa_refs: Vec<(&str, &str)> = sa.iter().map(|(a, v)| (&a[..], &v[..])).collect();
        let ca_refs: Vec<(&str, &str)> = ca.iter().map(|(a, v)| (&a[..], &v[..])).collect();
        let coords = engine.resolve(&sa_refs, &ca_refs)?;
        let values = engine.query(&coords)?;
        out.push(engine.cube().labels().describe(&coords));
        out.push(format!(
            "  {}",
            match query_index {
                Some(index) => fmt_one_value(&values, index),
                None => fmt_values(&values),
            }
        ));
        if flags.has("--significance") {
            let breakdown = engine.unit_breakdown(&coords)?;
            out.extend(significance_lines(&breakdown, &values, query_index)?);
        }
        if flags.has("--breakdown") {
            let breakdown = engine.unit_breakdown(&coords)?;
            let names = engine.cube().labels().unit_names.clone();
            for (unit, m, t) in breakdown {
                let name =
                    names.get(unit as usize).cloned().unwrap_or_else(|| format!("unit{unit}"));
                out.push(format!("  {name}: {m}/{t}"));
            }
        }
    }

    if let Some(k) = flags.get("--top") {
        answered = true;
        let k: usize = k.parse().map_err(|_| ScubeError::InvalidParameter("bad --top".into()))?;
        let min_total: u64 = flags
            .get("--min-total")
            .unwrap_or("1")
            .parse()
            .map_err(|_| ScubeError::InvalidParameter("bad --min-total".into()))?;
        // --rank wins; --index is the fallback so `--index gini --top 5`
        // ranks by the measure it queries.
        let rank = if flags.has("--rank") {
            parse_rank(&flags)?
        } else {
            query_index.unwrap_or(SegIndex::Dissimilarity)
        };
        out.push(format!("top {k} by {rank} (population >= {min_total}):"));
        for (coords, values, x) in engine.top_k(rank, k, min_total) {
            out.push(format!(
                "  {x:.4}  {}  (M={}, T={})",
                engine.cube().labels().describe(&coords),
                values.minority,
                values.total
            ));
        }
    }

    if let Some(list) = flags.get("--slice") {
        answered = true;
        let fixed = parse_pairs(list)?;
        let fixed_refs: Vec<(&str, &str)> = fixed.iter().map(|(a, v)| (&a[..], &v[..])).collect();
        out.push(format!("slice {list}:"));
        for (coords, values) in engine.slice(&fixed_refs) {
            out.push(format!(
                "  {}  {}",
                engine.cube().labels().describe(&coords),
                match query_index {
                    Some(index) => fmt_one_value(&values, index),
                    None => fmt_values(&values),
                }
            ));
        }
    }

    if !answered {
        let cube = engine.cube();
        out.push(format!(
            "loaded {path} in {loaded_in:?}: {} cells over {} units (min_support {}); \
             ask with --sa/--ca, --top, or --slice",
            cube.len(),
            cube.num_units(),
            cube.min_support()
        ));
    }
    Ok(out.join("\n"))
}

// Keep the argument helpers honest.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_parse_multi_flags() {
        assert_eq!(
            columns("gender,sectors*,age"),
            vec![
                ("gender".to_string(), false),
                ("sectors".to_string(), true),
                ("age".to_string(), false),
            ]
        );
        assert!(columns("").is_empty());
    }

    #[test]
    fn unit_specs_parse() {
        assert_eq!(
            parse_units("sector", "groups").unwrap(),
            UnitStrategy::GroupAttribute("sector".into())
        );
        assert!(matches!(
            parse_units("cc", "groups").unwrap(),
            UnitStrategy::ClusterGroups(ClusteringMethod::ConnectedComponents)
        ));
        assert!(matches!(
            parse_units("cc", "individuals").unwrap(),
            UnitStrategy::ClusterIndividuals(ClusteringMethod::ConnectedComponents)
        ));
        assert!(matches!(
            parse_units("threshold:3", "groups").unwrap(),
            UnitStrategy::ClusterGroups(ClusteringMethod::WeightThreshold { min_weight: 3 })
        ));
        let stoc = parse_units("stoc:0.4,0.6,3", "groups").unwrap();
        match stoc {
            UnitStrategy::ClusterGroups(ClusteringMethod::Stoc(p)) => {
                assert!((p.tau - 0.4).abs() < 1e-12);
                assert!((p.alpha - 0.6).abs() < 1e-12);
                assert_eq!(p.horizon, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_units("stoc:1,2", "groups").is_err());
        assert!(parse_units("threshold:x", "groups").is_err());
    }

    #[test]
    fn pairs_parse() {
        assert_eq!(
            parse_pairs("gender=F, region=north").unwrap(),
            vec![
                ("gender".to_string(), "F".to_string()),
                ("region".to_string(), "north".to_string()),
            ]
        );
        assert!(parse_pairs("").unwrap().is_empty());
        assert!(parse_pairs("gender").is_err());
        assert!(parse_pairs("=F").is_err());
        assert!(parse_pairs("gender=").is_err());
    }

    #[test]
    fn save_then_query_roundtrip() {
        let dir = std::env::temp_dir().join("scube_cli_save_query");
        std::fs::create_dir_all(&dir).unwrap();
        let p = |name: &str| dir.join(name).display().to_string();
        std::fs::write(p("individuals.csv"), "id,gender\nd1,F\nd2,F\nd3,F\nd4,M\nd5,M\nd6,M\n")
            .unwrap();
        std::fs::write(p("groups.csv"), "id,sector\nc1,edu\nc2,agri\n").unwrap();
        std::fs::write(p("membership.csv"), "dir,comp\nd1,c1\nd2,c1\nd3,c1\nd4,c2\nd5,c2\nd6,c2\n")
            .unwrap();
        let base = [
            "--individuals",
            &p("individuals.csv"),
            "--id",
            "id",
            "--sa",
            "gender",
            "--groups",
            &p("groups.csv"),
            "--group-id",
            "id",
            "--membership",
            &p("membership.csv"),
            "--ind-col",
            "dir",
            "--grp-col",
            "comp",
            "--units",
            "sector",
            "--snapshot",
            &p("cube.scube"),
        ];
        let args: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        let summary = run_save(&args).unwrap();
        assert!(summary.contains("cells"), "{summary}");

        // Point query: women are fully concentrated in the edu sector.
        let q: Vec<String> = ["--snapshot", &p("cube.scube"), "--sa", "gender=F", "--breakdown"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let answer = run_query(&q).unwrap();
        assert!(answer.contains("gender=F | *"), "{answer}");
        assert!(answer.contains("D=1.0000"), "{answer}");
        assert!(answer.contains("edu: 3/3"), "{answer}");

        // Top-k and slice render without error.
        let q: Vec<String> =
            ["--snapshot", &p("cube.scube"), "--top", "3"].iter().map(|s| s.to_string()).collect();
        assert!(run_query(&q).unwrap().contains("top 3 by dissimilarity"));
        let q: Vec<String> = ["--snapshot", &p("cube.scube"), "--slice", "gender=F"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run_query(&q).unwrap().contains("gender=F"));

        // A flag whose value went missing must error, not silently answer
        // the apex cell; --breakdown without a point query must error too.
        for bad in [
            vec!["--snapshot", &p("cube.scube"), "--sa"],
            vec!["--snapshot", &p("cube.scube"), "--top"],
            vec!["--snapshot", &p("cube.scube"), "--slice"],
            vec!["--snapshot", &p("cube.scube"), "--breakdown"],
            vec!["--snapshot", &p("cube.scube"), "--rank", "gini"],
            vec!["--snapshot", &p("cube.scube"), "--min-total", "5"],
            // Role confusion: sector is a unit/context-side attribute.
            vec!["--snapshot", &p("cube.scube"), "--ca", "gender=F"],
        ] {
            let q: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(run_query(&q).is_err(), "{q:?} should be rejected");
        }

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn final_table_ingest_and_mmap_query_roundtrip() {
        let dir = std::env::temp_dir().join("scube_cli_final_table");
        std::fs::create_dir_all(&dir).unwrap();
        let p = |name: &str| dir.join(name).display().to_string();
        std::fs::write(
            p("rows.csv"),
            "gender,unitID\nF,edu\nF,edu\nF,edu\nM,agri\nM,agri\nM,agri\n",
        )
        .unwrap();

        // The tabular shortcut streams the CSV through the record visitor.
        let args: Vec<String> =
            ["--final-table", &p("rows.csv"), "--sa", "gender", "--snapshot", &p("cube.scube")]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let summary = run_save(&args).unwrap();
        assert!(summary.contains("cells"), "{summary}");

        // Heap and mapped serving answer identically.
        let q: Vec<String> = ["--snapshot", &p("cube.scube"), "--sa", "gender=F"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let heap_answer = run_query(&q).unwrap();
        assert!(heap_answer.contains("D=1.0000"), "{heap_answer}");
        let q: Vec<String> = ["--snapshot", &p("cube.scube"), "--mmap", "--sa", "gender=F"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(run_query(&q).unwrap(), heap_answer, "mapped serving must match");

        // The inspector accounts for every byte of the file it names.
        let census = run_inspect(&["--snapshot".to_string(), p("cube.scube")]).unwrap();
        let file_len = std::fs::metadata(p("cube.scube")).unwrap().len();
        assert!(census.contains(&format!("format version 9, {file_len} bytes")), "{census}");
        let sum = census.lines().find(|l| l.contains("regions sum")).expect("a regions-sum line");
        assert!(sum.contains(&format!(" {file_len} B")), "{census}");
        assert!(census.contains("3 cells, 2 postings, 6 transactions, 2 units"), "{census}");
        assert!(run_inspect(&["--snapshot".to_string(), p("rows.csv")]).is_err(), "not a snapshot");

        // The run verb takes the same shortcut and writes reports.
        let args: Vec<String> =
            ["--final-table", &p("rows.csv"), "--sa", "gender", "--out", &p("out")]
                .iter()
                .map(|s| s.to_string())
                .collect();
        assert!(run(&args).unwrap().contains("2 units"));
        assert!(dir.join("out").join("cube.csv").exists());

        // Bad shortcut invocations error.
        for bad in [
            vec!["--final-table", &p("rows.csv"), "--snapshot", &p("x.scube")], // no --sa
            vec![
                "--final-table",
                &p("rows.csv"),
                "--sa",
                "gender",
                "--dates",
                "2000",
                "--snapshot",
                &p("x.scube"),
            ],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(run_save(&args).is_err(), "{args:?} should be rejected");
        }

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn final_table_save_matches_resident_reference() {
        let dir = std::env::temp_dir().join("scube_cli_final_table_reference");
        std::fs::create_dir_all(&dir).unwrap();
        let p = |name: &str| dir.join(name).display().to_string();
        std::fs::write(
            p("rows.csv"),
            "gender,region,unitID\nF,north,edu\nF,north,edu\nF,south,edu\nM,south,agri\nM,north,agri\nM,south,agri\nF,south,agri\n",
        )
        .unwrap();
        let spec = FinalTableSpec::new("unitID").sa("gender").ca("region");
        let input = ["--final-table", &p("rows.csv"), "--sa", "gender", "--ca", "region"];

        // The saved file is the resident reference's bytes, under both
        // materializations.
        let closed = CubeBuilder::new().min_support(2).materialize(Materialize::ClosedOnly);
        for (extra, builder) in
            [(&[][..], CubeBuilder::new()), (&["--closed", "--min-support", "2"][..], closed)]
        {
            let args: Vec<String> = [&input[..], extra, &["--snapshot", &p("cube.scube")]]
                .concat()
                .into_iter()
                .map(str::to_string)
                .collect();
            let summary = run_save(&args).unwrap();
            assert!(summary.contains("chunked build: 1 flushes of <= 65536 rows"), "{summary}");
            assert!(summary.contains("peak chunk 7 rows"), "{summary}");
            let reference =
                CubeSnapshot::from_db(&spec.load_csv(p("rows.csv")).unwrap(), &builder).unwrap();
            assert_eq!(
                std::fs::read(p("cube.scube")).unwrap(),
                reference.to_bytes(),
                "{extra:?}: the saved snapshot must be the resident reference's bytes"
            );
        }

        // The run verb writes three reports: no final_table.csv, because
        // the input already is the final table.
        let args: Vec<String> =
            [&input[..], &["--out", &p("out")]].concat().into_iter().map(str::to_string).collect();
        assert!(run(&args).unwrap().contains("chunked build"));
        let mut written: Vec<String> = std::fs::read_dir(dir.join("out"))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        written.sort();
        assert_eq!(written, ["cube.csv", "summary.md", "top_contexts.csv"]);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn measure_subset_and_significance_roundtrip() {
        let dir = std::env::temp_dir().join("scube_cli_measures");
        std::fs::create_dir_all(&dir).unwrap();
        let p = |name: &str| dir.join(name).display().to_string();
        std::fs::write(
            p("rows.csv"),
            "gender,unitID\nF,edu\nF,edu\nF,edu\nM,agri\nM,agri\nM,agri\n",
        )
        .unwrap();
        let q = |args: &[&str]| -> Result<String> {
            let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            run_query(&v)
        };

        // A subset build records its measure set in the snapshot.
        let args: Vec<String> = [
            "--final-table",
            &p("rows.csv"),
            "--sa",
            "gender",
            "--index",
            "gini,isolation",
            "--snapshot",
            &p("subset.scube"),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run_save(&args).unwrap();
        let bytes = std::fs::read(p("subset.scube")).unwrap();
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 9, "the version word");
        let subset = MeasureSet::only(SegIndex::Gini).with(SegIndex::Isolation);
        let saved: CubeSnapshot = CubeSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(saved.measures(), subset, "the snapshot names the subset");

        // Point queries project one measure; unselected measures read as
        // absent from the subset store.
        let one =
            q(&["--snapshot", &p("subset.scube"), "--sa", "gender=F", "--index", "gini"]).unwrap();
        assert!(one.contains("G=1.0000"), "{one}");
        assert!(!one.contains("D="), "{one}");
        let gone =
            q(&["--snapshot", &p("subset.scube"), "--sa", "gender=F", "--index", "d"]).unwrap();
        assert!(gone.contains("D=-"), "{gone}");

        // --index doubles as the default --top ranking, and filters slices.
        let top = q(&["--snapshot", &p("subset.scube"), "--top", "2", "--index", "gini"]).unwrap();
        assert!(top.contains("top 2 by gini"), "{top}");
        let slice = q(&["--snapshot", &p("subset.scube"), "--slice", "gender=F", "--index", "xpx"])
            .unwrap();
        assert!(slice.contains("xPx="), "{slice}");

        // A closed subset store leaves (gender=F | *) to the fallback tier
        // (every F row is in the north, so {F} is not closed). The answer
        // folds the snapshot's measure subset and prints the same bytes as
        // the masked full build.
        std::fs::write(
            p("regions.csv"),
            "gender,region,unitID\nF,north,edu\nF,north,edu\nF,north,agri\nM,north,edu\n\
             M,south,agri\nM,south,agri\nM,south,edu\n",
        )
        .unwrap();
        for (flag, out) in [(Some("--closed"), "closed.scube"), (None, "all.scube")] {
            let table = p("regions.csv");
            let args: Vec<String> =
                ["--final-table", &table, "--sa", "gender", "--ca", "region", "--index", "gini"]
                    .into_iter()
                    .chain(flag)
                    .chain(["--snapshot", &p(out)])
                    .map(str::to_string)
                    .collect();
            run_save(&args).unwrap();
        }
        let closed: CubeSnapshot = CubeSnapshot::load(p("closed.scube")).unwrap();
        let women = closed.cube().labels().find_item("gender", "F").unwrap();
        assert!(closed.cube().get(&CellCoords::new(vec![women], vec![])).is_none());
        let masked = q(&["--snapshot", &p("all.scube"), "--sa", "gender=F"]).unwrap();
        assert!(masked.contains("D=-") && !masked.contains("G=-"), "{masked}");
        assert_eq!(q(&["--snapshot", &p("closed.scube"), "--sa", "gender=F"]).unwrap(), masked);

        // A full-suite snapshot serves --significance: deterministic
        // permutation p-values per defined index, or just the --index one.
        let args: Vec<String> =
            ["--final-table", &p("rows.csv"), "--sa", "gender", "--snapshot", &p("full.scube")]
                .iter()
                .map(|s| s.to_string())
                .collect();
        run_save(&args).unwrap();
        let sig =
            q(&["--snapshot", &p("full.scube"), "--sa", "gender=F", "--significance"]).unwrap();
        assert!(sig.contains("significance dissimilarity:"), "{sig}");
        assert!(sig.contains("p="), "{sig}");
        let sig_one = q(&[
            "--snapshot",
            &p("full.scube"),
            "--sa",
            "gender=F",
            "--significance",
            "--index",
            "gini",
        ])
        .unwrap();
        assert!(sig_one.contains("significance gini:"), "{sig_one}");
        assert!(!sig_one.contains("significance dissimilarity:"), "{sig_one}");
        // Identical on repeat — the test seed is fixed.
        assert_eq!(
            q(&["--snapshot", &p("full.scube"), "--sa", "gender=F", "--significance"]).unwrap(),
            sig
        );

        // Bad measure surfaces error, not a silent full answer.
        assert!(
            q(&["--snapshot", &p("full.scube"), "--sa", "gender=F", "--index", "bogus"]).is_err()
        );
        assert!(q(&["--snapshot", &p("full.scube"), "--significance"]).is_err());
        let bad_save: Vec<String> = [
            "--final-table",
            &p("rows.csv"),
            "--sa",
            "gender",
            "--index",
            "gini,bogus",
            "--snapshot",
            &p("x.scube"),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert!(run_save(&bad_save).is_err());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_update_query_roundtrip() {
        let dir = std::env::temp_dir().join("scube_cli_update");
        std::fs::create_dir_all(&dir).unwrap();
        let p = |name: &str| dir.join(name).display().to_string();
        std::fs::write(
            p("individuals.csv"),
            "id,gender\nd1,F\nd2,F\nd3,F\nd4,M\nd5,M\nd6,M\nd7,F\nd8,M\n",
        )
        .unwrap();
        std::fs::write(p("groups.csv"), "id,sector\nc1,edu\nc2,agri\n").unwrap();
        std::fs::write(p("membership.csv"), "dir,comp\nd1,c1\nd2,c1\nd3,c1\nd4,c2\nd5,c2\nd6,c2\n")
            .unwrap();
        let base = [
            "--individuals",
            &p("individuals.csv"),
            "--id",
            "id",
            "--sa",
            "gender",
            "--groups",
            &p("groups.csv"),
            "--group-id",
            "id",
            "--membership",
            &p("membership.csv"),
            "--ind-col",
            "dir",
            "--grp-col",
            "comp",
            "--units",
            "sector",
            "--snapshot",
            &p("cube.scube"),
        ];
        let args: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        run_save(&args).unwrap();

        // Breaking news: a woman joins agri, a man joins edu.
        std::fs::write(p("delta.csv"), "gender,unitID\nF,agri\nM,edu\n").unwrap();
        let q: Vec<String> = ["--snapshot", &p("cube.scube"), "--add", &p("delta.csv")]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let summary = run_update(&q).unwrap();
        assert!(summary.contains("+2 −0 rows"), "{summary}");

        // The patched snapshot answers with the grown population: women
        // are no longer fully concentrated in edu (D < 1).
        let q: Vec<String> = ["--snapshot", &p("cube.scube"), "--sa", "gender=F", "--breakdown"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let answer = run_query(&q).unwrap();
        assert!(answer.contains("M=4 T=8"), "{answer}");
        assert!(answer.contains("edu: 3/4"), "{answer}");
        assert!(answer.contains("agri: 1/4"), "{answer}");
        assert!(!answer.contains("D=1.0000"), "{answer}");

        // Retraction: the two breaking-news rows leave again, restoring
        // the original snapshot bytes.
        let before = std::fs::read(p("cube.scube")).unwrap();
        std::fs::write(p("gone.csv"), "gender,unitID\nF,agri\nM,edu\n").unwrap();
        let q: Vec<String> = ["--snapshot", &p("cube.scube"), "--remove", &p("gone.csv")]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let summary = run_update(&q).unwrap();
        assert!(summary.contains("−2 rows"), "{summary}");
        let q: Vec<String> = ["--snapshot", &p("cube.scube"), "--sa", "gender=F"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run_query(&q).unwrap().contains("D=1.0000"), "back to full concentration");
        // Re-apply the addition so the retract-then-re-add cycle is a
        // byte-level no-op on disk.
        let q: Vec<String> = ["--snapshot", &p("cube.scube"), "--add", &p("delta.csv")]
            .iter()
            .map(|s| s.to_string())
            .collect();
        run_update(&q).unwrap();
        assert_eq!(std::fs::read(p("cube.scube")).unwrap(), before);

        // Bad invocations error instead of clobbering the snapshot.
        std::fs::write(p("bad_value.csv"), "gender,unitID\nX,edu\n").unwrap();
        std::fs::write(p("bad_unit.csv"), "gender,unitID\nF,mining\n").unwrap();
        std::fs::write(p("no_match.csv"), "gender,unitID\nM,agri\nM,agri\nM,agri\nM,agri\n")
            .unwrap();
        for bad in [
            vec!["--snapshot", &p("cube.scube")],
            vec!["--add", &p("delta.csv")],
            vec!["--snapshot", &p("cube.scube"), "--add", &p("delta.csv"), "--unit-col"],
            vec!["--snapshot", &p("cube.scube"), "--add", &p("missing.csv")],
            vec!["--snapshot", &p("cube.scube"), "--remove", &p("missing.csv")],
            // Retractions referencing values absent from the snapshot's
            // dictionary — or matching no remaining row — must error,
            // never silently no-op.
            vec!["--snapshot", &p("cube.scube"), "--remove", &p("bad_value.csv")],
            vec!["--snapshot", &p("cube.scube"), "--remove", &p("bad_unit.csv")],
            vec!["--snapshot", &p("cube.scube"), "--remove", &p("no_match.csv")],
            vec!["--snapshot", &p("cube.scube"), "--add", &p("delta.csv"), "--threads", "0"],
            vec!["--snapshot", &p("cube.scube"), "--add", &p("delta.csv"), "--threads", "x"],
            // Duplicate flags are ambiguous, not first-one-wins.
            vec![
                "--snapshot",
                &p("cube.scube"),
                "--add",
                &p("delta.csv"),
                "--add",
                &p("delta.csv"),
            ],
        ] {
            let q: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            let snapshot_bytes = std::fs::read(p("cube.scube")).unwrap();
            assert!(run_update(&q).is_err(), "{q:?} should be rejected");
            assert_eq!(
                std::fs::read(p("cube.scube")).unwrap(),
                snapshot_bytes,
                "{q:?} must not clobber the snapshot"
            );
        }

        std::fs::remove_dir_all(&dir).ok();
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn duplicate_flags_rejected() {
        let dup = strings(&["--sa", "gender=F", "--sa", "gender=M"]);
        let err = Flags::new("query", &dup).expect_err("duplicate --sa must be rejected");
        assert!(err.to_string().contains("more than once"), "{err}");
        // A repeated boolean flag is just as ambiguous.
        assert!(Flags::new("save", &strings(&["--closed", "--closed"])).is_err());
        // Values are not mistaken for flags, even when they repeat.
        assert!(Flags::new("run", &strings(&["--sa", "x", "--ca", "x", "--closed"])).is_ok());
        // And the query path surfaces the rejection end to end.
        let q: Vec<String> = ["--snapshot", "nope.scube", "--top", "3", "--top", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = run_query(&q).expect_err("duplicate --top must be rejected");
        assert!(err.to_string().contains("more than once"), "{err}");
    }

    #[test]
    fn flags_lookup() {
        let flags = Flags::new("run", &strings(&["--id", "director", "--closed"])).unwrap();
        assert_eq!(flags.get("--id"), Some("director"));
        assert_eq!(flags.get("--closed"), None, "a switch has no value");
        assert!(flags.has("--closed"));
        assert!(!flags.has("--parallel"));
        assert!(flags.require("--units").is_err());
    }

    #[test]
    fn every_verb_refuses_flags_it_cannot_read() {
        type Verb = fn(&[String]) -> Result<String>;
        let verbs: [(&str, Verb, &[&str]); 5] = [
            ("run", run, &["--final-table", "rows.csv", "--sa", "gender", "--out", "out"]),
            ("save", run_save, &["--final-table", "rows.csv", "--sa", "gender", "--snapshot", "c"]),
            ("query", run_query, &["--snapshot", "c.scube", "--top", "3"]),
            ("update", run_update, &["--snapshot", "c.scube", "--add", "rows.csv"]),
            ("inspect", run_inspect, &["--snapshot", "c.scube"]),
        ];
        // The deleted chunk-size selector, spelt in halves so its name
        // appears in no source line: an old invocation is refused, not
        // silently run.
        let chunk_flag = concat!("--chunk", "-rows");
        for (verb, runner, base) in verbs {
            for (extra, names) in [
                // A misspelt switch once built an AllFrequent cube silently.
                (&["--clossed"][..], "--clossed"),
                (&[chunk_flag, "8"], chunk_flag),
                // A valued flag with nothing after it never falls back.
                (&["--min-support"], "--min-support"),
                (&["stray"], "\"stray\""),
            ] {
                let args = strings(&[base, extra].concat());
                let err = runner(&args).expect_err(&format!("{verb} {args:?} must be refused"));
                assert!(err.to_string().contains(names), "{verb} {args:?}: {err}");
            }
        }
        // No verb takes --threads: refused, not silently ignored.
        let args = strings(&["--snapshot", "c.scube", "--top", "3", "--threads", "2"]);
        let err = run_query(&args).expect_err("query --threads must be refused");
        assert!(err.to_string().contains("--threads"), "{err}");
        // A value cannot be another flag.
        let err = run_save(&strings(&["--sa", "--closed"])).unwrap_err();
        assert!(err.to_string().contains("--sa needs a value"), "{err}");
    }
}
