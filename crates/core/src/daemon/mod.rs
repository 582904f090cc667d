//! `scubed`: the long-running serving daemon over [`ConcurrentCubeEngine`].
//!
//! A [`Daemon`] owns a registry of named cubes, each a [`CubeHandle`]: one
//! immutable serving engine behind an atomically swappable `Arc`, so every
//! cube is resident once. `POST /update` applies an [`UpdateBatch`] to a
//! private clone of the served [`CubeSnapshot`] through the incremental
//! `apply_update` maintenance path, builds a fresh engine from the clone
//! and swaps it in; a failed update drops the clone and leaves the served
//! state untouched. Readers clone the `Arc` under a brief std `Mutex`
//! (O(1)), so a concurrent update can never produce a torn answer: every
//! response is bit-identical to either the complete pre-update or the
//! complete post-update engine. The fresh engine is the old one's
//! [`ConcurrentCubeEngine::successor`] and counts into the same tier
//! counters, so `/stats` also counts queries that finish on the old engine
//! after the swap.
//!
//! # Endpoints
//!
//! | Method | Path | Purpose |
//! |---|---|---|
//! | GET | `/healthz` | liveness probe |
//! | GET | `/cubes` | registry listing |
//! | GET | `/cubes/<name>/query?sa=a=v,..&ca=a=v,..` | one cell's indexes |
//! | GET | `/cubes/<name>/topk?index=gini&k=10&min_total=1` | top-k ranking |
//! | GET | `/cubes/<name>/slice?fixed=a=v,..` | slice view |
//! | GET | `/cubes/<name>/dice?attrs=a,b` | dice view |
//! | GET | `/cubes/<name>/breakdown?sa=a=v,..&ca=a=v,..` | per-unit drill-down |
//! | GET | `/cubes/<name>/stats` | one cube's cells, units, swaps and tier counters |
//! | GET | `/stats` | tier counters + per-endpoint request/latency counters |
//! | POST | `/cubes/<name>/update` | apply an [`UpdateBatch`], hot-swap |
//! | POST | `/shutdown` | graceful shutdown (drains in-flight requests) |
//!
//! `/query` and `/slice` accept an optional `index=<name>` parameter to
//! answer with that single measure; `/query` additionally accepts
//! `significance=1` to attach a permutation-test block per index
//! (deterministic seed, 999 permutations — see
//! [`scube_segindex::PermutationTest`]).
//!
//! With exactly one cube registered, `/query`, `/topk`, `/slice`, `/dice`,
//! `/breakdown`, and `/update` are aliases for that cube's endpoints.
//!
//! # Robustness
//!
//! The HTTP layer (`minihttp`) never panics on wire bytes — malformed
//! requests get structured 4xx responses. Request handlers additionally run
//! under `catch_unwind`, so even a panicking handler costs one 500, never
//! the process. Worker panics inside a parallel pass (update staging) are
//! already errors: `scube_common::par` converts them.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use minihttp::{percent_decode, HttpRequest, HttpResponse, HttpServer, Limits, RequestOutcome};
use scube_common::{lock, Result, ScubeError};
use scube_cube::{
    CellCoords, ConcurrentCubeEngine, CubeLabels, CubeSnapshot, QueryStats, UpdateBatch,
    UpdateStats, DEFAULT_CACHE_CAPACITY, DEFAULT_SHARDS,
};
use scube_segindex::{IndexValues, PermutationTest, SegIndex, UnitCounts};

pub mod json;

use json::Json;

/// Tuning knobs for a [`Daemon`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Accept/serve worker threads.
    pub workers: usize,
    /// Cache shards per engine (see [`ConcurrentCubeEngine::with_config`]).
    pub shards: usize,
    /// Per-engine fallback-cache capacity in entries, split across the
    /// shards (see [`ConcurrentCubeEngine::with_config`]; `0` disables
    /// caching).
    pub cache_capacity: usize,
    /// Worker threads for the dirty-cell re-evaluation phase of an update.
    pub update_threads: usize,
    /// Maximum accepted request-body length in bytes (`POST /update`
    /// payloads); oversized bodies are refused with a 413 naming this cap.
    pub max_body: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        let host = scube_common::par::host_threads();
        DaemonConfig {
            workers: host.clamp(2, 8),
            shards: DEFAULT_SHARDS,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            update_threads: host.min(8),
            max_body: Limits::default().max_body,
        }
    }
}

/// One resident cube: a hot-swappable serving engine, held once.
pub struct CubeHandle {
    /// Serializes `POST /update`s. It guards no data — each update works
    /// on its own clone of the served snapshot — so a lock poisoned by a
    /// contained panic is simply taken over.
    writer: Mutex<()>,
    /// The engine readers answer from. Swapped atomically (under a brief
    /// lock; readers only clone the `Arc`).
    serving: Mutex<Arc<ConcurrentCubeEngine>>,
    /// Number of successful hot-swaps.
    swaps: AtomicU64,
}

impl CubeHandle {
    fn new(snapshot: CubeSnapshot, config: &DaemonConfig) -> CubeHandle {
        let engine =
            ConcurrentCubeEngine::with_config(snapshot, config.shards, config.cache_capacity);
        CubeHandle {
            writer: Mutex::new(()),
            serving: Mutex::new(Arc::new(engine)),
            swaps: AtomicU64::new(0),
        }
    }

    /// The current serving engine (an O(1) `Arc` clone; the returned engine
    /// keeps answering consistently even across a concurrent hot-swap).
    pub fn engine(&self) -> Arc<ConcurrentCubeEngine> {
        Arc::clone(&lock(&self.serving))
    }

    /// Apply `batch` to a private clone of the served snapshot and
    /// atomically publish a fresh engine built from it; returns the
    /// update's stats and this swap's number (1 for the first). Readers
    /// holding the old engine finish their in-flight queries against it;
    /// new requests see the new engine, and both count into the same
    /// counters. An error or panic drops the clone, so the served state is
    /// either entirely old or entirely new.
    pub fn update(&self, batch: &UpdateBatch, threads: usize) -> Result<(UpdateStats, u64)> {
        let _writer = lock(&self.writer);
        // Held to the end, so the old engine is never dropped under the
        // serving lock; the successor is built before that lock is taken
        // (an assignment evaluates its value first).
        let engine = self.engine();
        let mut next = engine.snapshot();
        let stats = next.apply_update_threads(batch, threads)?;
        *lock(&self.serving) = Arc::new(engine.successor(next));
        Ok((stats, self.swaps.fetch_add(1, Ordering::Relaxed) + 1))
    }

    /// Hot-swaps performed so far.
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }
}

/// Endpoint identifiers for per-endpoint counters, in `/stats` order.
const ENDPOINTS: [&str; 9] =
    ["query", "topk", "slice", "dice", "breakdown", "stats", "update", "admin", "other"];

const EP_QUERY: usize = 0;
const EP_TOPK: usize = 1;
const EP_SLICE: usize = 2;
const EP_DICE: usize = 3;
const EP_BREAKDOWN: usize = 4;
const EP_STATS: usize = 5;
const EP_UPDATE: usize = 6;
const EP_ADMIN: usize = 7;
const EP_OTHER: usize = 8;

#[derive(Default)]
struct EndpointStats {
    requests: AtomicU64,
    errors: AtomicU64,
    micros: AtomicU64,
}

struct State {
    cubes: Vec<(String, CubeHandle)>,
    endpoints: [EndpointStats; 9],
    config: DaemonConfig,
    started: Instant,
}

impl State {
    fn cube(&self, name: &str) -> Option<&CubeHandle> {
        self.cubes.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// The implicit cube for single-cube alias routes.
    fn only_cube(&self) -> Option<&CubeHandle> {
        match self.cubes.as_slice() {
            [(_, handle)] => Some(handle),
            _ => None,
        }
    }
}

/// The serving daemon. Bind, then either [`Daemon::run`] (blocks until a
/// `POST /shutdown`) or drive it from tests via its bound address.
pub struct Daemon {
    server: Arc<HttpServer>,
    state: Arc<State>,
}

impl Daemon {
    /// Bind `addr` and build one serving engine per named snapshot.
    ///
    /// Names must be non-empty, unique, and URL-safe (`[A-Za-z0-9_-]`).
    pub fn bind(
        addr: &str,
        cubes: Vec<(String, CubeSnapshot)>,
        config: DaemonConfig,
    ) -> Result<Daemon> {
        if cubes.is_empty() {
            return Err(ScubeError::InvalidParameter("no cubes to serve".into()));
        }
        let mut handles: Vec<(String, CubeHandle)> = Vec::with_capacity(cubes.len());
        for (name, snapshot) in cubes {
            if name.is_empty()
                || !name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
            {
                return Err(ScubeError::InvalidParameter(format!(
                    "cube name {name:?} is not URL-safe"
                )));
            }
            if handles.iter().any(|(n, _)| *n == name) {
                return Err(ScubeError::InvalidParameter(format!("duplicate cube {name:?}")));
            }
            handles.push((name, CubeHandle::new(snapshot, &config)));
        }
        let server = HttpServer::bind(addr)
            .map_err(|e| ScubeError::Io { path: Some(addr.to_string()), source: e })?
            .with_limits(Limits { max_body: config.max_body, ..Limits::default() });
        Ok(Daemon {
            server: Arc::new(server),
            state: Arc::new(State {
                cubes: handles,
                endpoints: Default::default(),
                config,
                started: Instant::now(),
            }),
        })
    }

    /// The bound address (useful with `--listen 127.0.0.1:0`).
    pub fn local_addr(&self) -> Result<SocketAddr> {
        self.server
            .local_addr()
            .map_err(|e| ScubeError::Io { path: Some("listener".into()), source: e })
    }

    /// A handle that can stop the daemon from another thread.
    pub fn stopper(&self) -> DaemonStopper {
        DaemonStopper { server: Arc::clone(&self.server) }
    }

    /// Serve until shutdown. Spawns the configured worker threads and
    /// joins them; each worker drains its in-flight connection before
    /// exiting, so responses already being computed are always delivered.
    pub fn run(self) -> Result<()> {
        let workers = self.state.config.workers.max(1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let server = &self.server;
                    let state = &self.state;
                    scope.spawn(move || worker_loop(server, state))
                })
                .collect();
            for h in handles {
                // A worker that somehow panicked outside catch_unwind must
                // not abort shutdown of the rest.
                let _ = h.join();
            }
        });
        Ok(())
    }
}

/// Stops a [`Daemon`] from outside its serving threads.
pub struct DaemonStopper {
    server: Arc<HttpServer>,
}

impl DaemonStopper {
    /// Begin graceful shutdown: acceptors stop, in-flight requests drain.
    pub fn shutdown(&self) {
        self.server.shutdown();
    }
}

fn worker_loop(server: &HttpServer, state: &State) {
    while let Ok(Some(mut conn)) = server.accept() {
        loop {
            match conn.next_request() {
                Ok(RequestOutcome::Request(req)) => {
                    let keep = req.keep_alive;
                    let t0 = Instant::now();
                    let (ep, resp) = dispatch_guarded(server, state, &req);
                    let stats = &state.endpoints[ep];
                    stats.requests.fetch_add(1, Ordering::Relaxed);
                    if resp.status >= 400 {
                        stats.errors.fetch_add(1, Ordering::Relaxed);
                    }
                    stats.micros.fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
                    if conn.respond(&resp).is_err() {
                        break;
                    }
                    if resp.close || !keep || server.is_shutting_down() {
                        break;
                    }
                }
                Ok(RequestOutcome::Idle) => {
                    if server.is_shutting_down() {
                        break;
                    }
                }
                Ok(RequestOutcome::Closed) => break,
                Ok(RequestOutcome::Malformed(e)) => {
                    let stats = &state.endpoints[EP_OTHER];
                    stats.requests.fetch_add(1, Ordering::Relaxed);
                    stats.errors.fetch_add(1, Ordering::Relaxed);
                    let _ = conn.respond(&HttpResponse::from_error(&e));
                    break;
                }
                Err(_) => break,
            }
        }
    }
}

/// Route one request, converting handler panics into a 500 — a poisoned
/// query must cost one response, never the process.
fn dispatch_guarded(
    server: &HttpServer,
    state: &State,
    req: &HttpRequest,
) -> (usize, HttpResponse) {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dispatch(server, state, req))) {
        Ok(done) => done,
        Err(_) => {
            (EP_OTHER, HttpResponse::json(500, "{\"error\":\"handler panicked; request dropped\"}"))
        }
    }
}

fn dispatch(server: &HttpServer, state: &State, req: &HttpRequest) -> (usize, HttpResponse) {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let (cube, verb): (Option<&CubeHandle>, &str) = match segments.as_slice() {
        ["cubes", name, verb] => match state.cube(name) {
            Some(h) => (Some(h), *verb),
            None => {
                return (
                    EP_OTHER,
                    HttpResponse::json(
                        404,
                        format!("{{\"error\":\"no cube {}\"}}", json::escape(name)),
                    ),
                )
            }
        },
        ["cubes"] => {
            return match req.method.as_str() {
                "GET" => (EP_ADMIN, list_cubes(state)),
                _ => (EP_ADMIN, method_not_allowed()),
            }
        }
        [verb] => (state.only_cube(), *verb),
        _ => return (EP_OTHER, not_found()),
    };
    let endpoint = match verb {
        "query" => EP_QUERY,
        "topk" => EP_TOPK,
        "slice" => EP_SLICE,
        "dice" => EP_DICE,
        "breakdown" => EP_BREAKDOWN,
        "stats" => EP_STATS,
        "update" => EP_UPDATE,
        "healthz" | "shutdown" => EP_ADMIN,
        _ => return (EP_OTHER, not_found()),
    };
    // Admin verbs that need no cube.
    match (req.method.as_str(), verb) {
        ("GET", "healthz") => return (endpoint, HttpResponse::text(200, "ok\n")),
        ("POST", "shutdown") => {
            server.shutdown();
            return (endpoint, HttpResponse::text(200, "shutting down\n"));
        }
        ("GET", "stats") if segments.len() == 1 => return (endpoint, stats_response(state)),
        _ => {}
    }
    let Some(handle) = cube else {
        let msg = if state.cubes.len() > 1 {
            "{\"error\":\"multiple cubes are loaded; use /cubes/<name>/...\"}"
        } else {
            "{\"error\":\"unknown path\"}"
        };
        return (endpoint, HttpResponse::json(404, msg));
    };
    let resp = match (req.method.as_str(), verb) {
        ("GET", "query") => cell_query(handle, &req.query, false),
        ("GET", "breakdown") => cell_query(handle, &req.query, true),
        ("GET", "topk") => top_k(handle, &req.query),
        ("GET", "slice") => slice(handle, &req.query),
        ("GET", "dice") => dice(handle, &req.query),
        ("GET", "stats") => cube_stats(handle),
        ("POST", "update") => update(state, handle, &req.body),
        _ => method_not_allowed(),
    };
    (endpoint, resp)
}

fn not_found() -> HttpResponse {
    HttpResponse::json(404, "{\"error\":\"unknown path\"}")
}

fn method_not_allowed() -> HttpResponse {
    HttpResponse::json(405, "{\"error\":\"method not allowed\"}")
}

fn bad_request(msg: &str) -> HttpResponse {
    HttpResponse::json(400, format!("{{\"error\":\"{}\"}}", json::escape(msg)))
}

/// Map an engine error onto a status: caller mistakes are 4xx, everything
/// else (I/O, inconsistent data, worker panics) is a 500.
fn error_response(err: &ScubeError) -> HttpResponse {
    let status = match err {
        ScubeError::InvalidParameter(_) | ScubeError::Schema(_) | ScubeError::Csv { .. } => 400,
        _ => 500,
    };
    HttpResponse::json(status, format!("{{\"error\":\"{}\"}}", json::escape(&err.to_string())))
}

// ---------------------------------------------------------------------------
// Query-string handling
// ---------------------------------------------------------------------------

/// Decode `k=v&k2=v2` with percent-encoding; duplicates are rejected so a
/// request can't smuggle two conflicting values for one parameter.
fn query_params(raw: &str) -> std::result::Result<Vec<(String, String)>, String> {
    let mut out: Vec<(String, String)> = Vec::new();
    for piece in raw.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = piece.split_once('=').unwrap_or((piece, ""));
        let k = percent_decode(k).ok_or_else(|| format!("bad percent-encoding in {piece:?}"))?;
        let v = percent_decode(v).ok_or_else(|| format!("bad percent-encoding in {piece:?}"))?;
        if out.iter().any(|(existing, _)| *existing == k) {
            return Err(format!("duplicate parameter {k:?}"));
        }
        out.push((k, v));
    }
    Ok(out)
}

fn param<'a>(params: &'a [(String, String)], key: &str) -> Option<&'a str> {
    params.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

/// Parse the CLI's `attr=value,attr=value` pair list (empty → empty list).
fn pair_list(raw: &str) -> std::result::Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    for piece in raw.split(',').filter(|p| !p.is_empty()) {
        match piece.split_once('=') {
            Some((a, v)) if !a.is_empty() && !v.is_empty() => {
                out.push((a.to_string(), v.to_string()))
            }
            _ => return Err(format!("expected attr=value, got {piece:?}")),
        }
    }
    Ok(out)
}

fn usize_param(
    params: &[(String, String)],
    key: &str,
    default: usize,
) -> std::result::Result<usize, String> {
    match param(params, key) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| format!("bad {key}: {raw:?}")),
    }
}

fn u64_param(
    params: &[(String, String)],
    key: &str,
    default: u64,
) -> std::result::Result<u64, String> {
    match param(params, key) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| format!("bad {key}: {raw:?}")),
    }
}

fn as_refs(pairs: &[(String, String)]) -> Vec<(&str, &str)> {
    pairs.iter().map(|(a, v)| (a.as_str(), v.as_str())).collect()
}

// ---------------------------------------------------------------------------
// Response rendering (public so tests and the load generator can build the
// expected bytes from an in-process engine and compare bit-for-bit)
// ---------------------------------------------------------------------------

/// Render one [`IndexValues`] as a JSON object. Floats use shortest-round-
/// trip formatting, so parsing them back recovers identical bits.
pub fn values_json(v: &IndexValues) -> String {
    format!(
        "{{\"dissimilarity\":{},\"gini\":{},\"information\":{},\"isolation\":{},\"interaction\":{},\"atkinson\":{},\"minority\":{},\"total\":{},\"num_units\":{}}}",
        json::opt_num(v.dissimilarity),
        json::opt_num(v.gini),
        json::opt_num(v.information),
        json::opt_num(v.isolation),
        json::opt_num(v.interaction),
        json::opt_num(v.atkinson),
        v.minority,
        v.total,
        v.num_units,
    )
}

/// Render one selected measure of a cell (the `?index=` response form).
pub fn values_json_one(v: &IndexValues, index: SegIndex) -> String {
    format!(
        "{{\"index\":\"{}\",\"value\":{},\"minority\":{},\"total\":{},\"num_units\":{}}}",
        index.name(),
        json::opt_num(v.get(index)),
        v.minority,
        v.total,
        v.num_units,
    )
}

/// Render cell coordinates as `{"sa":[["attr","value"],..],"ca":[..]}`
/// (sorted item order, as stored).
pub fn coords_json(labels: &CubeLabels, coords: &CellCoords) -> String {
    let side = |items: &[u32]| {
        let pairs: Vec<String> = items
            .iter()
            .map(|&item| {
                format!(
                    "[\"{}\",\"{}\"]",
                    json::escape(labels.attr_of(item)),
                    json::escape(labels.value_of(item))
                )
            })
            .collect();
        format!("[{}]", pairs.join(","))
    };
    format!("{{\"sa\":{},\"ca\":{}}}", side(&coords.sa), side(&coords.ca))
}

/// Render the body of a `/query` (or `/breakdown`) response.
pub fn cell_json(labels: &CubeLabels, coords: &CellCoords, values: &IndexValues) -> String {
    format!(
        "{{\"cell\":{},\"describe\":\"{}\",\"values\":{}}}",
        coords_json(labels, coords),
        json::escape(&labels.describe(coords)),
        values_json(values),
    )
}

/// Render a `/breakdown` response: the cell plus per-unit counts.
pub fn breakdown_json(
    labels: &CubeLabels,
    coords: &CellCoords,
    rows: &[(u32, u64, u64)],
) -> String {
    let units: Vec<String> = rows
        .iter()
        .map(|&(unit, minority, total)| {
            let name = labels.unit_names.get(unit as usize).map(|s| s.as_str()).unwrap_or("?");
            format!("[\"{}\",{},{}]", json::escape(name), minority, total)
        })
        .collect();
    format!("{{\"cell\":{},\"units\":[{}]}}", coords_json(labels, coords), units.join(","),)
}

/// Render a `/topk` response body for one index.
pub fn topk_json(
    labels: &CubeLabels,
    index: SegIndex,
    rows: &[(CellCoords, IndexValues, f64)],
) -> String {
    let rendered: Vec<String> = rows
        .iter()
        .map(|(coords, values, score)| {
            format!(
                "{{\"cell\":{},\"score\":{},\"values\":{}}}",
                coords_json(labels, coords),
                json::num(*score),
                values_json(values),
            )
        })
        .collect();
    format!("{{\"index\":\"{}\",\"rows\":[{}]}}", index.name(), rendered.join(","))
}

/// Render a `/slice` / `/dice` response body.
pub fn cells_json(labels: &CubeLabels, cells: &[(CellCoords, IndexValues)]) -> String {
    let rendered: Vec<String> = cells
        .iter()
        .map(|(coords, values)| {
            format!(
                "{{\"cell\":{},\"values\":{}}}",
                coords_json(labels, coords),
                values_json(values),
            )
        })
        .collect();
    format!("{{\"rows\":[{}]}}", rendered.join(","))
}

/// Render an [`UpdateStats`] as a JSON object.
pub fn update_stats_json(s: &UpdateStats, swaps: u64) -> String {
    format!(
        "{{\"rows_added\":{},\"rows_removed\":{},\"new_items\":{},\"new_units\":{},\"dropped_items\":{},\"dropped_units\":{},\"dirty_cells\":{},\"promoted_cells\":{},\"demoted_cells\":{},\"clean_cells\":{},\"swaps\":{}}}",
        s.rows_added,
        s.rows_removed,
        s.new_items,
        s.new_units,
        s.dropped_items,
        s.dropped_units,
        s.dirty_cells,
        s.promoted_cells,
        s.demoted_cells,
        s.clean_cells,
        swaps,
    )
}

/// Render the query-tier counters of one cube.
pub fn query_stats_json(s: &QueryStats) -> String {
    format!(
        "{{\"materialized\":{},\"cached\":{},\"explored\":{},\"breakdown_computed\":{},\"breakdown_cached\":{},\"total\":{}}}",
        s.materialized, s.cached, s.explored, s.breakdown_computed, s.breakdown_cached, s.total(),
    )
}

// ---------------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------------

fn cell_query(handle: &CubeHandle, raw_query: &str, breakdown: bool) -> HttpResponse {
    let params = match query_params(raw_query) {
        Ok(p) => p,
        Err(e) => return bad_request(&e),
    };
    let (sa, ca) = match (
        pair_list(param(&params, "sa").unwrap_or("")),
        pair_list(param(&params, "ca").unwrap_or("")),
    ) {
        (Ok(sa), Ok(ca)) => (sa, ca),
        (Err(e), _) | (_, Err(e)) => return bad_request(&e),
    };
    let index = match param(&params, "index") {
        Some(raw) => match SegIndex::parse(raw) {
            Some(ix) => Some(ix),
            None => return bad_request(&format!("unknown index {raw:?}")),
        },
        None => None,
    };
    let significance = matches!(param(&params, "significance"), Some("1") | Some("true"));
    let engine = handle.engine();
    let coords = match engine.resolve(&as_refs(&sa), &as_refs(&ca)) {
        Ok(c) => c,
        Err(e) => return error_response(&e),
    };
    if breakdown {
        match engine.unit_breakdown(&coords) {
            Ok(rows) => {
                HttpResponse::json(200, breakdown_json(engine.cube().labels(), &coords, &rows))
            }
            Err(e) => error_response(&e),
        }
    } else {
        match engine.query(&coords) {
            Ok(values) => {
                let labels = engine.cube().labels();
                let values_body = match index {
                    Some(ix) => values_json_one(&values, ix),
                    None => values_json(&values),
                };
                let significance_body = if significance {
                    let tested = engine
                        .unit_breakdown(&coords)
                        .and_then(|rows| significance_json(&rows, &values, index));
                    match tested {
                        Ok(body) => format!(",\"significance\":{body}"),
                        Err(e) => return error_response(&e),
                    }
                } else {
                    String::new()
                };
                HttpResponse::json(
                    200,
                    format!(
                        "{{\"cell\":{},\"describe\":\"{}\",\"values\":{}{}}}",
                        coords_json(labels, &coords),
                        json::escape(&labels.describe(&coords)),
                        values_body,
                        significance_body,
                    ),
                )
            }
            Err(e) => error_response(&e),
        }
    }
}

/// The `significance=1` block of a `/query` response: one permutation-test
/// object per tested index (the single `index=` when given, otherwise every
/// index the cell carries), computed on the cell's exact per-unit counts.
fn significance_json(
    breakdown: &[(u32, u64, u64)],
    values: &IndexValues,
    only: Option<SegIndex>,
) -> Result<String> {
    let counts = UnitCounts::from_pairs(breakdown.iter().map(|&(_, m, t)| (m, t)))?;
    let indexes: Vec<SegIndex> = match only {
        Some(ix) => vec![ix],
        None => SegIndex::ALL.into_iter().filter(|&ix| values.get(ix).is_some()).collect(),
    };
    let test = PermutationTest::default();
    let entries: Vec<String> = indexes
        .into_iter()
        .map(|ix| match test.run(ix, &counts) {
            Some(r) => format!(
                "{{\"index\":\"{}\",\"observed\":{},\"null_mean\":{},\"p_value\":{}}}",
                ix.name(),
                json::num(r.observed),
                json::num(r.null_mean),
                json::num(r.p_value),
            ),
            None => format!("{{\"index\":\"{}\",\"observed\":null}}", ix.name()),
        })
        .collect();
    Ok(format!("[{}]", entries.join(",")))
}

fn top_k(handle: &CubeHandle, raw_query: &str) -> HttpResponse {
    let params = match query_params(raw_query) {
        Ok(p) => p,
        Err(e) => return bad_request(&e),
    };
    let raw_index = param(&params, "index").unwrap_or("dissimilarity");
    let index = match SegIndex::parse(raw_index) {
        Some(ix) => ix,
        None => return bad_request(&format!("unknown index {raw_index:?}")),
    };
    let (k, min_total) = match (usize_param(&params, "k", 10), u64_param(&params, "min_total", 1)) {
        (Ok(k), Ok(m)) => (k, m),
        (Err(e), _) | (_, Err(e)) => return bad_request(&e),
    };
    let engine = handle.engine();
    HttpResponse::json(
        200,
        topk_json(engine.cube().labels(), index, &engine.top_k(index, k, min_total)),
    )
}

fn slice(handle: &CubeHandle, raw_query: &str) -> HttpResponse {
    let params = match query_params(raw_query) {
        Ok(p) => p,
        Err(e) => return bad_request(&e),
    };
    let fixed = match pair_list(param(&params, "fixed").unwrap_or("")) {
        Ok(f) => f,
        Err(e) => return bad_request(&e),
    };
    let index = match param(&params, "index") {
        Some(raw) => match SegIndex::parse(raw) {
            Some(ix) => Some(ix),
            None => return bad_request(&format!("unknown index {raw:?}")),
        },
        None => None,
    };
    let engine = handle.engine();
    let cells = engine.slice(&as_refs(&fixed));
    let body = match index {
        Some(ix) => {
            let rendered: Vec<String> = cells
                .iter()
                .map(|(coords, values)| {
                    format!(
                        "{{\"cell\":{},\"values\":{}}}",
                        coords_json(engine.cube().labels(), coords),
                        values_json_one(values, ix),
                    )
                })
                .collect();
            format!("{{\"rows\":[{}]}}", rendered.join(","))
        }
        None => cells_json(engine.cube().labels(), &cells),
    };
    HttpResponse::json(200, body)
}

fn dice(handle: &CubeHandle, raw_query: &str) -> HttpResponse {
    let params = match query_params(raw_query) {
        Ok(p) => p,
        Err(e) => return bad_request(&e),
    };
    let attrs: Vec<&str> =
        param(&params, "attrs").unwrap_or("").split(',').filter(|a| !a.is_empty()).collect();
    let engine = handle.engine();
    let cells = engine.dice(&attrs);
    HttpResponse::json(200, cells_json(engine.cube().labels(), &cells))
}

fn cube_stats(handle: &CubeHandle) -> HttpResponse {
    let engine = handle.engine();
    HttpResponse::json(
        200,
        format!(
            "{{\"cells\":{},\"units\":{},\"swaps\":{},\"tiers\":{}}}",
            engine.cube().len(),
            engine.cube().num_units(),
            handle.swap_count(),
            query_stats_json(&engine.stats()),
        ),
    )
}

fn list_cubes(state: &State) -> HttpResponse {
    let entries: Vec<String> = state
        .cubes
        .iter()
        .map(|(name, handle)| {
            let engine = handle.engine();
            format!(
                "{{\"name\":\"{}\",\"cells\":{},\"units\":{},\"swaps\":{}}}",
                json::escape(name),
                engine.cube().len(),
                engine.cube().num_units(),
                handle.swap_count(),
            )
        })
        .collect();
    HttpResponse::json(200, format!("{{\"cubes\":[{}]}}", entries.join(",")))
}

fn stats_response(state: &State) -> HttpResponse {
    let endpoints: Vec<String> = ENDPOINTS
        .iter()
        .zip(&state.endpoints)
        .map(|(name, s)| {
            format!(
                "\"{}\":{{\"requests\":{},\"errors\":{},\"micros\":{}}}",
                name,
                s.requests.load(Ordering::Relaxed),
                s.errors.load(Ordering::Relaxed),
                s.micros.load(Ordering::Relaxed),
            )
        })
        .collect();
    let cubes: Vec<String> = state
        .cubes
        .iter()
        .map(|(name, handle)| {
            format!(
                "\"{}\":{{\"swaps\":{},\"tiers\":{}}}",
                json::escape(name),
                handle.swap_count(),
                query_stats_json(&handle.engine().stats()),
            )
        })
        .collect();
    HttpResponse::json(
        200,
        format!(
            "{{\"uptime_us\":{},\"endpoints\":{{{}}},\"cubes\":{{{}}}}}",
            state.started.elapsed().as_micros(),
            endpoints.join(","),
            cubes.join(","),
        ),
    )
}

/// Decode the `POST /update` body:
/// `{"add":[{"unit":"u0","values":[["sex","F"],..]},..],
///   "remove":[..same shape..],"remove_tids":[3,7]}`.
fn batch_from_json(doc: &Json) -> std::result::Result<UpdateBatch, String> {
    if !matches!(doc, Json::Obj(_)) {
        return Err("body must be a JSON object".into());
    }
    if let Json::Obj(members) = doc {
        for (key, _) in members {
            if !matches!(key.as_str(), "add" | "remove" | "remove_tids") {
                return Err(format!("unknown field {key:?}"));
            }
        }
    }
    let mut batch = UpdateBatch::new();
    for (field, removing) in [("add", false), ("remove", true)] {
        let Some(rows) = doc.get(field) else { continue };
        let rows = rows.as_arr().ok_or_else(|| format!("{field:?} must be an array"))?;
        for row in rows {
            let unit = row
                .get("unit")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{field:?} row missing string \"unit\""))?;
            let values = row
                .get("values")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{field:?} row missing array \"values\""))?;
            let mut pairs: Vec<(String, String)> = Vec::with_capacity(values.len());
            for pair in values {
                match pair.as_arr() {
                    Some([a, v]) => match (a.as_str(), v.as_str()) {
                        (Some(a), Some(v)) => pairs.push((a.to_string(), v.to_string())),
                        _ => return Err("values entries must be [\"attr\",\"value\"]".into()),
                    },
                    _ => return Err("values entries must be [\"attr\",\"value\"]".into()),
                }
            }
            if removing {
                batch.remove_row(&pairs, unit);
            } else {
                batch.add_row(&pairs, unit);
            }
        }
    }
    if let Some(tids) = doc.get("remove_tids") {
        let tids = tids.as_arr().ok_or("\"remove_tids\" must be an array")?;
        for tid in tids {
            let tid = tid
                .as_u64()
                .and_then(|t| u32::try_from(t).ok())
                .ok_or("\"remove_tids\" entries must be u32")?;
            batch.remove_tid(tid);
        }
    }
    Ok(batch)
}

fn update(state: &State, handle: &CubeHandle, body: &[u8]) -> HttpResponse {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return bad_request("body is not valid UTF-8"),
    };
    let doc = match Json::parse(text) {
        Ok(d) => d,
        Err(e) => return bad_request(&format!("bad JSON: {e}")),
    };
    let batch = match batch_from_json(&doc) {
        Ok(b) => b,
        Err(e) => return bad_request(&e),
    };
    match handle.update(&batch, state.config.update_threads) {
        Ok((stats, swaps)) => HttpResponse::json(200, update_stats_json(&stats, swaps)),
        Err(e) => error_response(&e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scube_cube::CubeBuilder;
    use scube_data::{Attribute, Schema, TransactionDbBuilder};

    /// A reader that took the engine before a hot-swap and queries it
    /// after is still counted: the next engine shares the old one's
    /// counters instead of reading them once at the swap.
    #[test]
    fn a_query_on_the_swapped_out_engine_is_counted() {
        let schema = Schema::new(vec![Attribute::sa("sex"), Attribute::ca("region")]).unwrap();
        let mut b = TransactionDbBuilder::new(schema);
        for (sex, unit) in [("F", "u0"), ("M", "u1")] {
            b.add_row(&[vec![sex], vec!["north"]], unit).unwrap();
        }
        let snapshot: CubeSnapshot =
            CubeSnapshot::from_db(&b.finish(), &CubeBuilder::new()).unwrap();
        let handle = CubeHandle::new(snapshot, &DaemonConfig::default());
        let old = handle.engine();
        let mut batch = UpdateBatch::new();
        batch.add_row(&[("sex", "F"), ("region", "north")], "u1");
        handle.update(&batch, 1).unwrap();
        assert_eq!(old.query_by_names(&[("sex", "F")], &[]).unwrap().minority, 1);
        assert_eq!(handle.engine().stats().total(), 1);
    }

    #[test]
    fn query_string_decoding() {
        let params = query_params("sa=sex%3DF&ca=region%3Dnorth,ages%3Dold&k=5").unwrap();
        assert_eq!(param(&params, "sa"), Some("sex=F"));
        assert_eq!(
            pair_list(param(&params, "ca").unwrap()).unwrap(),
            vec![("region".into(), "north".into()), ("ages".into(), "old".into())]
        );
        assert_eq!(usize_param(&params, "k", 10).unwrap(), 5);
        assert_eq!(usize_param(&params, "missing", 10).unwrap(), 10);

        assert!(query_params("a=1&a=2").is_err(), "duplicates rejected");
        assert!(query_params("bad=%zz").is_err(), "bad escapes rejected");
        assert!(pair_list("novalue").is_err());
        assert!(pair_list("=v").is_err());
        assert!(usize_param(&[("k".into(), "x".into())], "k", 1).is_err());
    }

    #[test]
    fn update_body_decoding() {
        let doc = Json::parse(
            r#"{"add":[{"unit":"u9","values":[["sex","F"]]}],
                "remove":[{"unit":"u0","values":[["sex","M"]]}],
                "remove_tids":[7]}"#,
        )
        .unwrap();
        let batch = batch_from_json(&doc).unwrap();
        assert_eq!(batch.num_rows(), 1);
        assert_eq!(batch.num_removals(), 2);

        for bad in [
            r#"[]"#,
            r#"{"unknown":1}"#,
            r#"{"add":{}}"#,
            r#"{"add":[{"values":[]}]}"#,
            r#"{"add":[{"unit":"u","values":[["only-one"]]}]}"#,
            r#"{"remove_tids":[-1]}"#,
            r#"{"remove_tids":[4294967296]}"#,
            r#"{"threads":2}"#,
        ] {
            let doc = Json::parse(bad).unwrap();
            assert!(batch_from_json(&doc).is_err(), "{bad} should fail");
        }
    }
}
