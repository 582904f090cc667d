//! The three serve workloads: a closed-loop keep-alive client against an
//! in-process `scubed` over loopback.
//!
//! `serve-hot` asks for cells the store or the LRU holds, so it measures
//! the wire; `serve-cold` asks only for cells the explorer must recompute,
//! so the engine sits on top of the same wire; `serve-churn` puts a writer
//! on a fixed 1 s schedule beside the reader, so `apply_update`, the master
//! clone, the engine rebuild and the hot swap do the work.
//!
//! Every timed response is byte-compared to a body pre-rendered with the
//! daemon's own public serializers from an in-process engine.

use std::cell::RefCell;
use std::io::{Read, Write};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use minihttp::{percent_encode, HttpClient, HttpConn, HttpResponse, Limits, RequestOutcome};
use scube::daemon::json::Json;
use scube::daemon::{self, Daemon, DaemonConfig, DaemonStopper};
use scube::{build_final_table, UnitStrategy};
use scube_bench::alloc;
use scube_cube::{
    CellCoords, ConcurrentCubeEngine, CubeBuilder, CubeSnapshot, Materialize, UpdateBatch,
    DEFAULT_CACHE_CAPACITY, DEFAULT_SHARDS,
};
use scube_data::Relation;
use scube_datagen::BoardsConfig;

use crate::awake::{Awake, OneCpu};
use crate::report::Outcome;
use crate::stats::{mean, median, percentile, quiet_passes, quiet_value, SplitMix64};
use crate::trace::{Kind, Tracer};
use crate::{err, repeat_setup, Ctx, Res};

const QUERY_PATH: &str = "/cubes/main/query";
const STATS_PATH: &str = "/cubes/main/stats";
const UPDATE_PATH: &str = "/cubes/main/update";

/// Rows one update batch appends (and the next one removes again).
const BATCH_ROWS: usize = 80;
/// The writer's fixed schedule: one batch is due every period.
const WRITER_PERIOD: Duration = Duration::from_secs(1);
/// The same under `--smoke`, where only the gates matter.
const SMOKE_WRITER_PERIOD: Duration = Duration::from_millis(100);
/// Daemon worker threads: one per connection the benchmark ever opens.
const WORKERS: usize = 2;
/// Requests the in-process replay walks through, at most.
const REPLAY_REQUESTS: usize = 10_000;

/// One cell of the request universe with everything pre-rendered.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    coords: CellCoords,
    sa: Vec<(String, String)>,
    ca: Vec<(String, String)>,
    /// `GET` target, percent-encoded as the CLI's `attr=value,…` lists.
    target: String,
    /// The body the base-state engine renders for this cell.
    expected: String,
    /// The body after the update batch is appended (`serve-churn` only).
    appended: Option<String>,
}

impl Cell {
    /// Whether `body` is a whole answer of the base or the appended state.
    fn accepts(&self, body: &[u8]) -> bool {
        body == self.expected.as_bytes()
            || self.appended.as_ref().is_some_and(|a| body == a.as_bytes())
    }

    /// The exact bytes `HttpClient::get` puts on the wire for this cell.
    fn wire(&self) -> Vec<u8> {
        format!("GET {} HTTP/1.1\r\nHost: scubed\r\nContent-Length: 0\r\n\r\n", self.target)
            .into_bytes()
    }
}

/// The append/delete pair the writer alternates.
#[derive(Debug, Clone, PartialEq)]
pub struct Batches {
    append_body: String,
    delete_body: String,
    append: Relation,
    base_rows: usize,
}

/// Everything a serve workload needs before the daemon starts.
pub struct Setup {
    snapshot: CubeSnapshot,
    cells: Vec<Cell>,
    /// One pass: indexes into `cells`, in seeded order.
    order: Vec<u32>,
    cache_capacity: usize,
    rows: usize,
    snapshot_bytes: usize,
    universe: usize,
    fallback: usize,
    batches: Option<Batches>,
    writer_period: Duration,
}

fn pairs(labels: &scube_cube::CubeLabels, items: &[u32]) -> Vec<(String, String)> {
    items.iter().map(|&i| (labels.attr_of(i).to_string(), labels.value_of(i).to_string())).collect()
}

fn refs(pairs: &[(String, String)]) -> Vec<(&str, &str)> {
    pairs.iter().map(|(a, v)| (a.as_str(), v.as_str())).collect()
}

/// Pre-render `coords` against `engine`, as the daemon would answer it.
fn render_cell(engine: &ConcurrentCubeEngine, coords: &CellCoords) -> Res<Cell> {
    let labels = engine.cube().labels();
    let (sa, ca) = (pairs(labels, &coords.sa), pairs(labels, &coords.ca));
    let list = |side: &[(String, String)]| {
        percent_encode(&side.iter().map(|(a, v)| format!("{a}={v}")).collect::<Vec<_>>().join(","))
    };
    let target = format!("{QUERY_PATH}?sa={}&ca={}", list(&sa), list(&ca));
    let expected = daemon::cell_json(labels, coords, &engine.query(coords).map_err(err)?);
    Ok(Cell { coords: coords.clone(), sa, ca, target, expected, appended: None })
}

/// One seeded permutation of `0..n`, repeated cyclically up to `len`
/// requests (never fewer than `n`, so a pass touches every cell). Cyclic
/// reuse keeps every cell's reuse distance at `n`: under a cache smaller
/// than `n` every request misses, under a larger one every request hits.
pub fn request_order(n: usize, len: usize, seed: u64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    SplitMix64::new(seed, 1).shuffle(&mut perm);
    perm.iter().copied().cycle().take(len.max(n)).collect()
}

/// The sector-unit snapshot `serve-hot` and `serve-cold` share, with the
/// universe of every frequent cell (materialized or not).
fn setup_sector(ctx: &Ctx, cold: bool) -> Res<Setup> {
    let companies = if ctx.smoke { 2_000 } else { 4_000 };
    let dataset =
        scube_datagen::generate(BoardsConfig::italy(companies)).to_dataset(vec![]).map_err(err)?;
    let db = build_final_table(&dataset, &UnitStrategy::GroupAttribute("sector".into()), 1)
        .map_err(err)?
        .db;
    let builder = CubeBuilder::new().min_support((db.len() as u64 / 200).max(1)).parallel(false);
    let snapshot: CubeSnapshot =
        CubeSnapshot::from_db(&db, &builder.materialize(Materialize::ClosedOnly)).map_err(err)?;
    let full = builder.materialize(Materialize::AllFrequent).build(&db).map_err(err)?;

    let reference = ConcurrentCubeEngine::new(snapshot.clone());
    let mut universe: Vec<&CellCoords> = full.cells().map(|(c, _)| c).collect();
    universe.sort();
    let fallback = universe.iter().filter(|c| snapshot.cube().get(c).is_none()).count();
    let mut cells = Vec::new();
    for coords in &universe {
        if cold && snapshot.cube().get(coords).is_some() {
            continue;
        }
        let cell = render_cell(&reference, coords)?;
        // The reference itself is gated on the in-memory full build.
        if full.get(coords) != Some(&reference.query(coords).map_err(err)?) {
            return Err(format!("the reference engine diverges from the full build at {coords:?}"));
        }
        cells.push(cell);
    }
    if cells.is_empty() {
        return Err("the request universe is empty".into());
    }
    let pass_len = match (ctx.smoke, cold) {
        (true, _) => 0,
        (false, false) => 40_000,
        (false, true) => 12_000,
    };
    Ok(Setup {
        order: request_order(cells.len(), pass_len, ctx.seed),
        cells,
        cache_capacity: if cold { 64 } else { DEFAULT_CACHE_CAPACITY },
        rows: db.len(),
        snapshot_bytes: snapshot.to_bytes().len(),
        snapshot,
        universe: universe.len(),
        fallback,
        batches: None,
        writer_period: WRITER_PERIOD,
    })
}

/// The update pair: `BATCH_ROWS` seed-chosen rows of `table` appended, then
/// removed again by tid, so every pair returns the cube to its base bytes.
pub fn update_batches(table: &Relation, seed: u64) -> Res<Batches> {
    let mut rng = SplitMix64::new(seed, 2);
    let mut picks: Vec<usize> = (0..table.len()).collect();
    rng.shuffle(&mut picks);
    picks.truncate(BATCH_ROWS.min(table.len()));
    let unit_col = table.column_index("unitID").ok_or("the table has no unitID column")?;
    let mut append = Relation::new(table.columns().to_vec()).map_err(err)?;
    let mut rows_json = Vec::new();
    for &i in &picks {
        let row = &table.rows()[i];
        append.push_row(row.clone()).map_err(err)?;
        let values: Vec<String> = table
            .columns()
            .iter()
            .zip(row)
            .enumerate()
            .filter(|(col, (_, value))| *col != unit_col && !value.is_empty())
            .map(|(_, (attr, value))| {
                format!("[\"{}\",\"{}\"]", daemon::json::escape(attr), daemon::json::escape(value))
            })
            .collect();
        rows_json.push(format!(
            "{{\"unit\":\"{}\",\"values\":[{}]}}",
            daemon::json::escape(&row[unit_col]),
            values.join(",")
        ));
    }
    let base_rows = table.len();
    let tids: Vec<String> = (base_rows..base_rows + picks.len()).map(|t| t.to_string()).collect();
    Ok(Batches {
        append_body: format!("{{\"add\":[{}]}}", rows_json.join(",")),
        delete_body: format!("{{\"remove_tids\":[{}]}}", tids.join(",")),
        append,
        base_rows,
    })
}

impl Batches {
    fn append_batch(&self, snapshot: &CubeSnapshot) -> Res<UpdateBatch> {
        UpdateBatch::from_relation(&self.append, snapshot.cube().labels(), "unitID").map_err(err)
    }

    fn delete_batch(&self) -> UpdateBatch {
        let mut batch = UpdateBatch::new();
        for tid in self.base_rows..self.base_rows + self.append.len() {
            batch.remove_tid(tid as u32);
        }
        batch
    }
}

/// The store-heavy snapshot of `serve-churn`: the final table with one
/// unit per company, built resident, plus both reference states.
fn setup_churn(ctx: &Ctx) -> Res<Setup> {
    let companies = if ctx.smoke { 1_000 } else { 15_000 };
    let mut csv = Vec::new();
    scube_datagen::stream_final_table(BoardsConfig::italy(companies), &mut csv).map_err(err)?;
    let table = Relation::read_csv(&csv[..]).map_err(err)?;
    drop(csv);
    let db = scube_datagen::final_table_spec().encode(&table).map_err(err)?;
    let builder = CubeBuilder::new()
        .min_support((db.len() as u64 / 200).max(1))
        .materialize(Materialize::ClosedOnly)
        .parallel(false);
    let snapshot: CubeSnapshot = CubeSnapshot::from_db(&db, &builder).map_err(err)?;
    let base_bytes = snapshot.to_bytes();

    let batches = update_batches(&table, ctx.seed)?;
    let mut edited = snapshot.clone();
    edited.apply_update(&batches.append_batch(&snapshot)?).map_err(err)?;
    let appended = ConcurrentCubeEngine::new(edited.clone());
    let reference = ConcurrentCubeEngine::new(snapshot.clone());
    let mut coords: Vec<&CellCoords> = snapshot.cube().cells().map(|(c, _)| c).collect();
    coords.sort();
    let mut cells = Vec::new();
    for c in coords {
        let mut cell = render_cell(&reference, c)?;
        cell.appended = Some(render_cell(&appended, c)?.expected);
        cells.push(cell);
    }
    // Gate before any timing: the delete undoes the append to the byte.
    edited.apply_update(&batches.delete_batch()).map_err(err)?;
    if edited.to_bytes() != base_bytes {
        return Err("append then delete does not return the snapshot to its base bytes".into());
    }
    let pass_len = if ctx.smoke { 0 } else { 10_000 };
    Ok(Setup {
        order: request_order(cells.len(), pass_len, ctx.seed),
        universe: cells.len(),
        cells,
        cache_capacity: DEFAULT_CACHE_CAPACITY,
        rows: db.len(),
        snapshot_bytes: base_bytes.len(),
        snapshot,
        fallback: 0,
        batches: Some(batches),
        writer_period: if ctx.smoke { SMOKE_WRITER_PERIOD } else { WRITER_PERIOD },
    })
}

/// A daemon serving on its own threads until [`Running::stop`] (or the
/// drop of a set-up that was only timed).
struct Running {
    addr: String,
    stopper: DaemonStopper,
    thread: Option<std::thread::JoinHandle<scube_common::Result<()>>>,
}

impl Running {
    fn start(setup: &Setup) -> Res<Running> {
        let config = DaemonConfig {
            workers: WORKERS,
            cache_capacity: setup.cache_capacity,
            ..DaemonConfig::default()
        };
        let daemon =
            Daemon::bind("127.0.0.1:0", vec![("main".to_string(), setup.snapshot.clone())], config)
                .map_err(err)?;
        let addr = daemon.local_addr().map_err(err)?.to_string();
        let stopper = daemon.stopper();
        Ok(Running { addr, stopper, thread: Some(std::thread::spawn(move || daemon.run())) })
    }

    /// Stop accepting, drain, and wait for every worker to end.
    fn stop(mut self) -> Res<()> {
        self.stopper.shutdown();
        let thread = self.thread.take().expect("the daemon thread is joined once");
        thread.join().map_err(|_| "the daemon thread panicked".to_string())?.map_err(err)
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.stopper.shutdown();
        if let Some(thread) = self.thread.take() {
            // `stop` reports how the daemon ended; a drop cannot.
            let _ = thread.join();
        }
    }
}

/// Where a pass records what it saw.
struct Sinks<'a> {
    out: &'a mut Outcome,
    tracer: Option<&'a mut Tracer>,
}

/// One pass of the reader: every request of `order`, each timed from the
/// client's write to its read of a verified body. Returns the pass's wall
/// seconds and appends each latency (ns) to `latencies`.
fn read_pass(
    client: &mut HttpClient,
    setup: &Setup,
    order: &[u32],
    latencies: &mut Vec<u64>,
    sinks: &mut Sinks,
) -> f64 {
    let started = Instant::now();
    for &i in order {
        let cell = &setup.cells[i as usize];
        let span = sinks.tracer.as_mut().map(|t| t.enter("request", Kind::Stage));
        let t0 = Instant::now();
        let reply = client.get(&cell.target);
        latencies.push(t0.elapsed().as_nanos() as u64);
        if let (Some(t), Some(id)) = (sinks.tracer.as_mut(), span) {
            t.exit(id);
        }
        sinks.out.check(match reply {
            Ok(r) if r.status == 200 && cell.accepts(&r.body) => Ok(()),
            Ok(r) if r.status != 200 => Err(format!("{} answered {}", cell.target, r.status)),
            Ok(_) => {
                Err(format!("{} answered a body that differs from the reference", cell.target))
            }
            Err(e) => Err(format!("{}: {e}", cell.target)),
        });
    }
    started.elapsed().as_secs_f64()
}

/// The untimed warm-up: every cell once, so the LRU holds what it can and
/// every reference is checked over loopback before any timing.
fn warm_up(client: &mut HttpClient, setup: &Setup, out: &mut Outcome) {
    let mut sinks = Sinks { out, tracer: None };
    read_pass(client, setup, &setup.order[..setup.cells.len()], &mut Vec::new(), &mut sinks);
}

/// The cube's tier counters `(materialized, cached, explored)` so far.
fn tier_counters(client: &mut HttpClient) -> Res<[u64; 3]> {
    let reply = client.get(STATS_PATH).map_err(err)?;
    let doc = Json::parse(reply.text().ok_or("stats body is not UTF-8")?)?;
    let tiers = doc.get("tiers").ok_or("stats body has no tiers")?;
    let field = |name: &str| {
        tiers.get(name).and_then(Json::as_u64).ok_or_else(|| format!("stats tiers lack {name}"))
    };
    Ok([field("materialized")?, field("cached")?, field("explored")?])
}

/// What the reader saw over its timed passes, one entry per pass.
#[derive(Default)]
struct Passes {
    req_per_s: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    p999_us: Vec<f64>,
    max_us: Vec<f64>,
    requests: usize,
    /// Tier shares `(materialized, cached, explored)` over the passes.
    tiers: [f64; 3],
}

impl Passes {
    fn push(&mut self, wall_s: f64, mut latencies: Vec<u64>) {
        latencies.sort_unstable();
        let us = |q: f64| percentile(&latencies, q).unwrap_or(0) as f64 / 1e3;
        self.req_per_s.push(latencies.len() as f64 / wall_s);
        self.p50_us.push(us(0.5));
        self.p99_us.push(us(0.99));
        self.p999_us.push(us(0.999));
        self.max_us.push(us(1.0));
        self.requests += latencies.len();
    }

    fn set_tiers(&mut self, before: [u64; 3], after: [u64; 3]) {
        let delta: Vec<f64> = before.iter().zip(after).map(|(b, a)| (a - b) as f64).collect();
        let total: f64 = delta.iter().sum();
        for (share, d) in self.tiers.iter_mut().zip(delta) {
            *share = if total > 0.0 { d / total } else { 0.0 };
        }
    }

    fn quiet(&self, per_pass: &[f64]) -> f64 {
        quiet_value(per_pass, &quiet_passes(&self.req_per_s)).unwrap_or(f64::NAN)
    }
}

/// Passes until `stop` says so (at least `min_passes`), with the tier
/// counters differenced over exactly those passes.
fn timed_passes(
    client: &mut HttpClient,
    setup: &Setup,
    min_passes: usize,
    stop: &dyn Fn() -> bool,
    sinks: &mut Sinks,
) -> Res<Passes> {
    let mut passes = Passes::default();
    let before = tier_counters(client)?;
    while passes.req_per_s.len() < min_passes || !stop() {
        if let Some(t) = sinks.tracer.as_mut() {
            t.set_pass(passes.req_per_s.len() as u32);
        }
        let mut latencies = Vec::with_capacity(setup.order.len());
        let wall_s = read_pass(client, setup, &setup.order, &mut latencies, sinks);
        passes.push(wall_s, latencies);
    }
    let after = tier_counters(client)?;
    passes.set_tiers(before, after);
    Ok(passes)
}

/// A workload that stops exercising its tier fails loudly.
fn check_tiers(name: &str, passes: &Passes, out: &mut Outcome) {
    let explored = passes.tiers[2];
    let holds = match name {
        "serve-hot" => explored == 0.0,
        "serve-cold" => explored >= 0.99,
        _ => true,
    };
    if !holds {
        out.fail(format!("{name}: explored share {explored} is outside the workload's tier"));
    }
}

/// What the writer measured, one entry per batch.
#[derive(Default)]
struct Writes {
    append_ms: Vec<f64>,
    delete_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// `(dirty, promoted, demoted)` summed over one append/delete pair.
    pair_cells: [f64; 3],
    /// `(due, start, end)` of each POST, for the trace.
    intervals: Vec<(Instant, Instant, Instant)>,
    checks: Vec<Result<(), String>>,
}

/// The writer: one batch per period on its own connection, append and
/// delete alternating, each timed from its due time; after every pair a
/// sweep over all cells must read the base references again.
fn write_schedule(addr: &str, setup: &Setup, batches: &Batches, n_batches: usize) -> Writes {
    let mut w = Writes::default();
    let mut client = match HttpClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            w.checks.push(Err(format!("the writer cannot connect: {e}")));
            return w;
        }
    };
    let t0 = Instant::now();
    for k in 0..n_batches {
        let due = t0 + setup.writer_period * k as u32;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let appending = k % 2 == 0;
        let body = if appending { &batches.append_body } else { &batches.delete_body };
        let start = Instant::now();
        let reply = client.post(UPDATE_PATH, body.as_bytes());
        let end = Instant::now();
        w.late_ms.push((start - due).as_secs_f64() * 1e3);
        w.intervals.push((due, start, end));
        let ms = (end - due).as_secs_f64() * 1e3;
        if appending { &mut w.append_ms } else { &mut w.delete_ms }.push(ms);
        w.checks.push(match reply {
            Ok(r) if r.status == 200 => match r.text().map(Json::parse) {
                Some(Ok(doc)) => {
                    let field = |f| doc.get(f).and_then(Json::as_u64).unwrap_or(u64::MAX);
                    let moved = if appending { field("rows_added") } else { field("rows_removed") };
                    if k < 2 {
                        for (slot, f) in w.pair_cells.iter_mut().zip([
                            "dirty_cells",
                            "promoted_cells",
                            "demoted_cells",
                        ]) {
                            *slot += field(f) as f64;
                        }
                    }
                    (moved == batches.append.len() as u64)
                        .then_some(())
                        .ok_or_else(|| format!("update {k} moved {moved} rows"))
                }
                _ => Err(format!("update {k} answered a body that is not JSON")),
            },
            Ok(r) => Err(format!("update {k} answered {}: {:?}", r.status, r.text())),
            Err(e) => Err(format!("update {k}: {e}")),
        });
        if !appending {
            for cell in &setup.cells {
                w.checks.push(match client.get(&cell.target) {
                    Ok(r) if r.status == 200 && r.body == cell.expected.as_bytes() => Ok(()),
                    _ => Err(format!("after pair {}, {} is not back at base", k / 2, cell.target)),
                });
            }
        }
    }
    w
}

/// What one churn window measured.
struct Churn {
    /// The reader's passes beside the writer.
    passes: Passes,
    writes: Writes,
    /// Half the append + delete round trip of each pair, in µs.
    pair_update_us: Vec<f64>,
}

impl Churn {
    /// The writer's quiet round trip. Reader and writer are separate
    /// clients, so the writer's pairs are ranked by the writer's own speed.
    fn update_us(&self) -> f64 {
        let speed: Vec<f64> = self.pair_update_us.iter().map(|us| 1.0 / us).collect();
        quiet_value(&self.pair_update_us, &quiet_passes(&speed)).unwrap_or(f64::NAN)
    }
}

/// Reader passes beside the writer's schedule of `n_batches`; the reader
/// ends with the pass in which the writer finished.
fn churn_window(
    running: &Running,
    client: &mut HttpClient,
    setup: &Setup,
    n_batches: usize,
    out: &mut Outcome,
    tracer: Option<&mut Tracer>,
) -> Res<Churn> {
    let batches = setup.batches.as_ref().ok_or("serve-churn has no update batches")?;
    let done = AtomicBool::new(false);
    let (passes, writes) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let w = write_schedule(&running.addr, setup, batches, n_batches);
            done.store(true, Ordering::SeqCst);
            w
        });
        let mut sinks = Sinks { out: &mut *out, tracer };
        let passes = timed_passes(client, setup, 1, &|| done.load(Ordering::SeqCst), &mut sinks);
        (passes, writer.join())
    });
    let mut writes = writes.map_err(|_| "the writer thread panicked".to_string())?;
    for check in writes.checks.drain(..) {
        out.check(check);
    }
    let pair_us = |(a, d): (&f64, &f64)| (a + d) / 2.0 * 1e3;
    Ok(Churn {
        passes: passes?,
        pair_update_us: writes.append_ms.iter().zip(&writes.delete_ms).map(pair_us).collect(),
        writes,
    })
}

/// How many batches fit `seconds` on the writer's schedule: whole pairs,
/// so the cube ends at its base state.
fn batches_for(seconds: f64) -> usize {
    let pairs = (seconds / (2.0 * WRITER_PERIOD.as_secs_f64())).round() as usize;
    2 * pairs.max(1)
}

fn run_untraced(ctx: &Ctx, name: &'static str) -> Res<Outcome> {
    let mut out = Outcome::new(name, false);
    // Set-up is everything before the first timed pass: data, snapshot,
    // references, daemon bind and the warm-up that fills the cache.
    let ((setup, heap_before_bind, running, mut client), setup_s) = repeat_setup(ctx, || {
        let setup = setup_for(ctx, name)?;
        let heap_before_bind = alloc::live_bytes();
        let running = Running::start(&setup)?;
        let mut client = HttpClient::connect(&running.addr).map_err(err)?;
        let mut warm = Outcome::new(name, false);
        warm_up(&mut client, &setup, &mut warm);
        if warm.failed > 0 {
            return Err(format!("warm-up: {}", warm.failures.join("; ")));
        }
        Ok((setup, heap_before_bind, running, client))
    })?;

    let seconds = if ctx.smoke { 0.0 } else { ctx.seconds };
    // What serving costs in memory: the heap the daemon holds when the
    // timed passes start (master snapshot + serving engine + cache) plus
    // the peak growth during them (per-request transients and, under
    // churn, the master clone and the fresh engine of every update).
    let resident = alloc::live_bytes().saturating_sub(heap_before_bind);
    let (timed, growth) = alloc::measure(|| -> Res<()> {
        if name == "serve-churn" {
            let n = if ctx.smoke { 2 } else { batches_for(seconds) };
            let churn = churn_window(&running, &mut client, &setup, n, &mut out, None)?;
            // The operation is the update: rows the daemon absorbs per
            // second of round trip. Three to four runnable threads on two
            // CPUs spread the reader's rate by a seventh from run to run
            // whatever the estimator, so it is the traced run's
            // `core.req_per_s` and `core.read_*`, not a gated metric.
            let rows = setup.batches.as_ref().map_or(0, |b| b.append.len()) as f64;
            let rows_per_s = |us: &f64| rows / (us / 1e6);
            out.set("ops_per_s", rows_per_s(&churn.update_us()));
            out.set("op_p50_us", churn.update_us());
            out.raw = vec![
                ("ops_per_s", churn.pair_update_us.iter().map(rows_per_s).collect()),
                ("op_p50_us", churn.pair_update_us),
                ("reader_req_per_s", churn.passes.req_per_s),
                ("reader_p50_us", churn.passes.p50_us),
                ("update_append_ms", churn.writes.append_ms),
                ("update_delete_ms", churn.writes.delete_ms),
            ];
        } else {
            let started = Instant::now();
            let stop = || started.elapsed().as_secs_f64() >= seconds;
            let min_passes = if ctx.smoke { 2 } else { 4 };
            let mut sinks = Sinks { out: &mut out, tracer: None };
            let passes = timed_passes(&mut client, &setup, min_passes, &stop, &mut sinks)?;
            check_tiers(name, &passes, &mut out);
            out.set("ops_per_s", passes.quiet(&passes.req_per_s));
            out.set("op_p50_us", passes.quiet(&passes.p50_us));
            out.raw = vec![("ops_per_s", passes.req_per_s), ("op_p50_us", passes.p50_us)];
        }
        Ok(())
    });
    drop(client);
    running.stop()?;
    timed?;
    out.set("peak_alloc_bytes", (resident + growth) as f64);
    out.set("snapshot_bytes_per_row", setup.snapshot_bytes as f64 / setup.rows as f64);
    out.set("setup_s", median(&setup_s).unwrap_or(f64::NAN));
    out.raw.push(("setup_s", setup_s));
    Ok(out)
}

/// The two directions of [`Pipe`].
#[derive(Default)]
struct PipeState {
    /// Request bytes the server side has yet to read, from `read` on.
    input: Vec<u8>,
    read: usize,
    /// Response bytes the server side wrote.
    output: Vec<u8>,
}

/// An in-memory duplex the replay drives `HttpConn` over: the benchmark
/// feeds request bytes in and reads response bytes out.
#[derive(Clone, Default)]
struct Pipe(Rc<RefCell<PipeState>>);

impl Pipe {
    fn feed(&self, request: Vec<u8>) {
        *self.0.borrow_mut() = PipeState { input: request, read: 0, output: Vec::new() };
    }
}

impl Read for Pipe {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut state = self.0.borrow_mut();
        let rest = &state.input[state.read..];
        let n = buf.len().min(rest.len());
        buf[..n].copy_from_slice(&rest[..n]);
        state.read += n;
        Ok(n)
    }
}

impl Write for Pipe {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().output.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Replay the request list in-process, one span per layer per request:
/// parse → resolve → query → render → respond, on an engine configured
/// like the daemon's and warmed the same way.
fn replay(setup: &Setup, t: &mut Tracer, out: &mut Outcome) -> Res<()> {
    let engine = ConcurrentCubeEngine::with_config(
        setup.snapshot.clone(),
        DEFAULT_SHARDS,
        setup.cache_capacity,
    );
    for &i in &setup.order {
        engine.query(&setup.cells[i as usize].coords).map_err(err)?;
    }
    let pipe = Pipe::default();
    let mut conn = HttpConn::new(pipe.clone(), Limits::default());
    for &i in setup.order.iter().take(REPLAY_REQUESTS) {
        let cell = &setup.cells[i as usize];
        pipe.feed(cell.wire());
        let request = t.enter("replay", Kind::Stage);
        let id = t.enter("minihttp.parse", Kind::Stage);
        let parsed = conn.next_request();
        t.exit(id);
        let id = t.enter("cube.resolve", Kind::Stage);
        let coords = engine.resolve(&refs(&cell.sa), &refs(&cell.ca));
        t.exit(id);
        let coords = coords.map_err(err)?;
        let id = t.enter("cube.query", Kind::Stage);
        let values = engine.query(&coords);
        t.exit(id);
        let values = values.map_err(err)?;
        let id = t.enter("core.daemon.render", Kind::Stage);
        let body = daemon::cell_json(engine.cube().labels(), &coords, &values);
        t.exit(id);
        let response = HttpResponse::json(200, body);
        let id = t.enter("minihttp.respond", Kind::Stage);
        let sent = conn.respond(&response);
        t.exit(id);
        t.exit(request);
        let parsed_ok = matches!(
            parsed,
            Ok(RequestOutcome::Request(ref r)) if r.method == "GET" && r.path == QUERY_PATH
        );
        let written = pipe.0.borrow().output.ends_with(cell.expected.as_bytes());
        out.check(
            (parsed_ok && sent.is_ok() && written && response.body == cell.expected.as_bytes())
                .then_some(())
                .ok_or_else(|| format!("the replay of {} differs from the reference", cell.target)),
        );
    }
    Ok(())
}

/// The in-process parts of one `POST /update`, as probe spans: the same
/// batches through `apply_update_threads` on a clone, the master clone and
/// the engine rebuild every update pays, and the body parse.
fn update_probes(setup: &Setup, t: &mut Tracer, out: &mut Outcome) -> Res<()> {
    let batches = setup.batches.as_ref().ok_or("serve-churn has no update batches")?;
    let threads = DaemonConfig::default().update_threads;
    let mut master = setup.snapshot.clone();
    let append = batches.append_batch(&master)?;
    let delete = batches.delete_batch();
    t.probe("cube.apply_update_append", |_| master.apply_update_threads(&append, threads))
        .map_err(err)?;
    t.probe("cube.apply_update_delete", |_| master.apply_update_threads(&delete, threads))
        .map_err(err)?;
    out.check(
        (master.to_bytes() == setup.snapshot.to_bytes())
            .then_some(())
            .ok_or_else(|| "the in-process pair does not return to the base bytes".to_string()),
    );
    let clone = t.probe("cube.snapshot_clone", |_| master.clone());
    let engine = t.probe("cube.engine_build", |_| {
        ConcurrentCubeEngine::with_config(clone, DEFAULT_SHARDS, setup.cache_capacity)
    });
    drop(engine);
    for body in [&batches.append_body, &batches.delete_body] {
        t.probe("core.daemon.json_parse", |_| Json::parse(body)).map(drop)?;
    }
    Ok(())
}

/// What two `Instant::now()` and a span push cost, so a reader can take
/// it off the per-request layer means.
fn span_cost_ns() -> f64 {
    let mut t = Tracer::new("calibration");
    for _ in 0..10_000 {
        let id = t.enter("empty", Kind::Probe);
        t.exit(id);
    }
    t.mean_ns("empty")
}

fn run_traced(ctx: &Ctx, name: &'static str) -> Res<(Outcome, Tracer)> {
    let mut out = Outcome::new(name, true);
    let mut t = Tracer::new(name);
    let started = Instant::now();
    let setup = setup_for(ctx, name)?;
    let running = Running::start(&setup)?;
    let mut client = HttpClient::connect(&running.addr).map_err(err)?;
    warm_up(&mut client, &setup, &mut out);
    out.set("core.setup_s", started.elapsed().as_secs_f64());

    let seconds = if ctx.smoke { 0.0 } else { ctx.seconds };
    // An untraced baseline of the same passes, then the traced ones.
    let (untraced, traced, writes) = if name == "serve-churn" {
        let n = if ctx.smoke { 2 } else { batches_for(seconds / 2.0) };
        let plain = churn_window(&running, &mut client, &setup, n, &mut out, None)?.passes;
        let Churn { passes: spanned, writes, .. } =
            churn_window(&running, &mut client, &setup, n, &mut out, Some(&mut t))?;
        (plain, spanned, Some(writes))
    } else {
        let begun = Instant::now();
        let stop = || begun.elapsed().as_secs_f64() >= seconds / 2.0;
        let mut sinks = Sinks { out: &mut out, tracer: None };
        let plain = timed_passes(&mut client, &setup, 2, &stop, &mut sinks)?;
        sinks.tracer = Some(&mut t);
        let spanned = timed_passes(&mut client, &setup, 2, &|| true, &mut sinks)?;
        (plain, spanned, None)
    };
    let untraced_rate = untraced.quiet(&untraced.req_per_s);
    let traced_rate = traced.quiet(&traced.req_per_s);
    check_tiers(name, &untraced, &mut out);
    check_tiers(name, &traced, &mut out);
    drop(client);
    running.stop()?;

    replay(&setup, &mut t, &mut out)?;
    let layers = [
        ("minihttp.parse_ns", "minihttp.parse"),
        ("cube.resolve_ns", "cube.resolve"),
        ("cube.query_ns", "cube.query"),
        ("core.daemon.render_ns", "core.daemon.render"),
        ("minihttp.respond_ns", "minihttp.respond"),
    ];
    for (metric, span) in layers {
        out.set(metric, t.mean_ns(span));
    }
    let in_process_us: f64 = layers.iter().map(|(_, span)| t.mean_ns(span)).sum::<f64>() / 1e3;
    let p50_us = untraced.quiet(&untraced.p50_us);
    out.set("core.wire_unattributed_us", p50_us - in_process_us);
    out.set("cube.materialized_share", untraced.tiers[0]);
    out.set("cube.cached_share", untraced.tiers[1]);
    out.set("cube.explored_share", untraced.tiers[2]);
    out.set("core.req_per_s", untraced_rate);
    out.set("core.req_per_s_median", median(&untraced.req_per_s).unwrap_or(0.0));
    out.set("core.req_per_s_min", untraced.req_per_s.iter().copied().fold(f64::INFINITY, f64::min));
    out.set("core.p50_us", p50_us);
    out.set("core.p99_us", median(&untraced.p99_us).unwrap_or(0.0));
    out.set("core.p999_us", median(&untraced.p999_us).unwrap_or(0.0));

    if let Some(writes) = writes {
        update_probes(&setup, &mut t, &mut out)?;
        for &(due, start, end) in &writes.intervals {
            t.record("update", due.max(start), end);
        }
        let ms = |span: &str| t.mean_ns(span) / 1e6;
        let (append, delete) = (mean(&writes.append_ms), mean(&writes.delete_ms));
        out.set("update_append_ms", median(&writes.append_ms).unwrap_or(0.0));
        out.set("update_delete_ms", median(&writes.delete_ms).unwrap_or(0.0));
        out.set("cube.apply_update_append_ms", ms("cube.apply_update_append"));
        out.set("cube.apply_update_delete_ms", ms("cube.apply_update_delete"));
        out.set("cube.snapshot_clone_ms", ms("cube.snapshot_clone"));
        out.set("cube.engine_build_ms", ms("cube.engine_build"));
        out.set("core.daemon.json_parse_ms", ms("core.daemon.json_parse"));
        let staged = (ms("cube.apply_update_append") + ms("cube.apply_update_delete")) / 2.0
            + ms("cube.snapshot_clone")
            + ms("cube.engine_build")
            + ms("core.daemon.json_parse");
        out.set("core.update_unattributed_ms", (append + delete) / 2.0 - staged);
        out.set("cube.dirty_cells", writes.pair_cells[0]);
        out.set("cube.promoted_cells", writes.pair_cells[1]);
        out.set("cube.demoted_cells", writes.pair_cells[2]);
        out.set("core.read_p99_us", median(&traced.p99_us).unwrap_or(0.0));
        out.set("core.read_stall_max_us", traced.max_us.iter().copied().fold(0.0, f64::max));
        out.set("core.writer_late_ms", writes.late_ms.iter().copied().fold(0.0, f64::max));
        out.set("core.updates", (writes.append_ms.len() + writes.delete_ms.len()) as f64);
        out.raw.push(("update_append_ms", writes.append_ms));
        out.raw.push(("update_delete_ms", writes.delete_ms));
        out.raw.push(("writer_late_ms", writes.late_ms));
    }

    out.set("core.rows", setup.rows as f64);
    out.set("core.units", f64::from(setup.snapshot.cube().num_units()));
    out.set("cube.cells", setup.snapshot.cube().len() as f64);
    out.set("cube.snapshot_bytes", setup.snapshot_bytes as f64);
    out.set("core.requests", (untraced.requests + traced.requests) as f64);
    out.set("core.passes", (untraced.req_per_s.len() + traced.req_per_s.len()) as f64);
    out.set("core.universe_cells", setup.universe as f64);
    out.set("core.fallback_cells", setup.fallback as f64);
    out.set("trace.span_cost_ns", span_cost_ns());
    out.set("trace.untraced_ops_per_s", untraced_rate);
    out.set("trace_overhead_share", (untraced_rate - traced_rate) / untraced_rate);
    out.raw.push(("untraced_req_per_s", untraced.req_per_s));
    out.raw.push(("untraced_p50_us", untraced.p50_us));
    out.raw.push(("traced_req_per_s", traced.req_per_s));
    Ok((out, t))
}

fn setup_for(ctx: &Ctx, name: &str) -> Res<Setup> {
    match name {
        "serve-hot" => setup_sector(ctx, false),
        "serve-cold" => setup_sector(ctx, true),
        _ => setup_churn(ctx),
    }
}

/// Run one of the serve workloads in the phase `traced` names.
pub fn run(ctx: &Ctx, name: &'static str, traced: bool) -> Res<(Outcome, Option<Tracer>)> {
    // Where the threads run (see `awake.rs`). One client: the whole loop on
    // one CPU, which then never idles. Reader beside writer: both CPUs, and
    // spinners so that neither halts.
    let churn = name == "serve-churn";
    let _one_cpu = (!churn).then(OneCpu::confine);
    let _awake = churn.then(Awake::start);
    if traced {
        run_traced(ctx, name).map(|(out, t)| (out, Some(t)))
    } else {
        run_untraced(ctx, name).map(|out| (out, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Relation {
        let mut csv = Vec::new();
        scube_datagen::stream_final_table(BoardsConfig::italy(60).seed(5), &mut csv).unwrap();
        Relation::read_csv(&csv[..]).unwrap()
    }

    #[test]
    fn the_same_seed_gives_the_same_request_list_and_another_seed_another() {
        assert_eq!(request_order(500, 2_000, 9), request_order(500, 2_000, 9));
        assert_ne!(request_order(500, 2_000, 9), request_order(500, 2_000, 10));
    }

    #[test]
    fn a_pass_is_one_permutation_repeated_and_touches_every_cell() {
        for len in [0, 10, 37, 100] {
            let order = request_order(37, len, 3);
            assert_eq!(order.len(), len.max(37));
            let mut seen: Vec<u32> = order[..37].to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..37).collect::<Vec<_>>());
            assert!(order.iter().enumerate().all(|(i, &c)| c == order[i % 37]));
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_update_batches_and_another_seed_others() {
        let table = table();
        let a = update_batches(&table, 11).unwrap();
        assert_eq!(a, update_batches(&table, 11).unwrap());
        assert_ne!(a.append_body, update_batches(&table, 12).unwrap().append_body);
    }

    #[test]
    fn update_bodies_are_what_the_daemon_decodes() {
        let table = table();
        let b = update_batches(&table, 1).unwrap();
        assert_eq!(b.append.len(), BATCH_ROWS.min(table.len()));
        let add = Json::parse(&b.append_body).unwrap();
        let rows = add.get("add").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), b.append.len());
        let first = &rows[0];
        assert_eq!(first.get("unit").and_then(Json::as_str), b.append.get(0, "unitID"));
        let values = first.get("values").and_then(Json::as_arr).unwrap();
        assert_eq!(values.len(), table.columns().len() - 1);
        let delete = Json::parse(&b.delete_body).unwrap();
        let tids: Vec<u64> = delete
            .get("remove_tids")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|t| t.as_u64().unwrap())
            .collect();
        let base = table.len() as u64;
        assert_eq!(tids, (base..base + b.append.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn the_schedule_always_ends_on_a_whole_pair() {
        assert_eq!(batches_for(0.0), 2);
        assert_eq!(batches_for(5.0), 6);
        assert_eq!(batches_for(10.0), 10);
        assert_eq!(batches_for(12.0), 12);
    }
}
