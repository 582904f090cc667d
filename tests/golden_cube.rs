//! Golden-file regression tests: a fixed-seed datagen workload is reduced
//! to committed, human-readable artefacts — the cube sheet, the top-k
//! discovery list, a query-engine transcript over a snapshot round-trip
//! and the daemon's reply bytes over loopback — compared **verbatim**, so
//! index math, cell enumeration, snapshot encoding, query routing and the
//! wire format can never drift silently.
//!
//! To regenerate after an *intentional* change:
//! `GOLDEN_BLESS=1 cargo test -p scube --test golden_cube` and review the
//! diff under `tests/golden/` like any other code change.

use minihttp::{percent_encode, HttpClient};
use scube::daemon::{Daemon, DaemonConfig};
use scube::prelude::*;
use scube_cube::ConcurrentCubeEngine;
use scube_data::TransactionDb;

const COMPANIES: usize = 150;
const MIN_SUPPORT: u64 = 20;

fn final_table() -> TransactionDb {
    let dataset = scube_datagen::italy(COMPANIES).to_dataset(vec![]).unwrap();
    scube::build_final_table(&dataset, &UnitStrategy::GroupAttribute("sector".into()), 1)
        .unwrap()
        .db
}

fn full_cube(db: &TransactionDb) -> SegregationCube {
    CubeBuilder::new()
        .min_support(MIN_SUPPORT)
        .materialize(Materialize::AllFrequent)
        .parallel(false)
        .build(db)
        .unwrap()
}

fn fmt(v: Option<f64>) -> String {
    v.map(|x| format!("{x:.6}")).unwrap_or_else(|| "-".into())
}

fn fmt_values(v: &IndexValues) -> String {
    format!(
        "M={} T={} units={} D={} G={} H={} xPx={} xPy={} A={}",
        v.minority,
        v.total,
        v.num_units,
        fmt(v.dissimilarity),
        fmt(v.gini),
        fmt(v.information),
        fmt(v.isolation),
        fmt(v.interaction),
        fmt(v.atkinson),
    )
}

/// Compare against a committed golden file, or regenerate it when blessed.
fn check(name: &str, expected: &str, actual: &str) {
    let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("GOLDEN_BLESS").is_ok() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    assert_eq!(
        actual, expected,
        "golden file {name} drifted; if the change is intentional, regenerate with \
         GOLDEN_BLESS=1 and review the diff"
    );
}

#[test]
fn cube_sheet_matches_golden() {
    let db = final_table();
    let cube = full_cube(&db);
    check(
        "italy_cube_sheet.csv",
        include_str!("golden/italy_cube_sheet.csv"),
        &scube_cube::to_csv(&cube),
    );
}

#[test]
fn multi_index_sheet_matches_golden() {
    // A Gini + Isolation subset build served through a snapshot byte
    // round-trip, reduced to the cube sheet: selected columns carry the
    // exact full-suite numbers, unselected columns are uniformly absent.
    let db = final_table();
    let measures = MeasureSet::only(SegIndex::Gini).with(SegIndex::Isolation);
    let closed = CubeBuilder::new()
        .min_support(MIN_SUPPORT)
        .materialize(Materialize::ClosedOnly)
        .parallel(false)
        .measures(measures);
    let snap: CubeSnapshot = CubeSnapshot::from_db(&db, &closed).unwrap();
    let bytes = snap.to_bytes();
    assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 9, "the version word");
    let loaded: CubeSnapshot = CubeSnapshot::from_bytes(&bytes).unwrap();
    assert_eq!(loaded.measures(), measures);
    assert_eq!(loaded.to_bytes(), bytes, "load → save is a fixed point");
    check(
        "italy_multi_index_sheet.csv",
        include_str!("golden/italy_multi_index_sheet.csv"),
        &scube_cube::to_csv(loaded.cube()),
    );
}

#[test]
fn top_contexts_match_golden() {
    let db = final_table();
    let cube = full_cube(&db);
    let mut out = String::new();
    for index in [SegIndex::Dissimilarity, SegIndex::Information] {
        out.push_str(&format!("top 10 by {index} (population >= {MIN_SUPPORT}):\n"));
        for (coords, v, x) in top_contexts(&cube, index, 10, MIN_SUPPORT) {
            out.push_str(&format!(
                "  {x:.6}  {}  (M={}, T={})\n",
                cube.labels().describe(coords),
                v.minority,
                v.total
            ));
        }
    }
    check("italy_top_contexts.txt", include_str!("golden/italy_top_contexts.txt"), &out);
}

#[test]
fn query_engine_transcript_matches_golden() {
    let db = final_table();
    let full = full_cube(&db);
    // Serve the closed store through a snapshot byte round-trip — exactly
    // what `scube save` + `scube query` do.
    let closed = CubeBuilder::new()
        .min_support(MIN_SUPPORT)
        .materialize(Materialize::ClosedOnly)
        .parallel(false);
    let snap: CubeSnapshot = CubeSnapshot::from_db(&db, &closed).unwrap();
    let loaded: CubeSnapshot = CubeSnapshot::from_bytes(&snap.to_bytes()).unwrap();
    let engine = ConcurrentCubeEngine::new(loaded);

    let mut out = String::new();
    out.push_str(&format!(
        "store: {} closed cells (full cube: {}), {} units, min_support {}\n",
        engine.cube().len(),
        full.len(),
        engine.cube().num_units(),
        engine.cube().min_support()
    ));

    // Every full-cube cell in canonical order, answered through the engine
    // (mixing materialized hits and explorer fallbacks).
    let mut coords: Vec<CellCoords> = full.cells().map(|(c, _)| c.clone()).collect();
    coords.sort();
    for c in &coords {
        let v = engine.query(c).unwrap();
        let tier = if full.get(c).is_some() && engine.cube().get(c).is_some() {
            "store"
        } else {
            "fallback"
        };
        out.push_str(&format!(
            "{tier:<8} {}  {}\n",
            engine.cube().labels().describe(c),
            fmt_values(&v)
        ));
    }
    let stats = engine.stats();
    out.push_str(&format!(
        "stats: materialized={} cached={} explored={}\n",
        stats.materialized, stats.cached, stats.explored
    ));
    check("italy_query_engine.txt", include_str!("golden/italy_query_engine.txt"), &out);
}

/// The concurrent sharded engine over the same snapshot round-trip: a cold
/// multi-threaded pass over the canonical universe, a warm pass, ranking,
/// and the final atomic stats. Everything here is deterministic despite the
/// 4 worker threads: answers are bit-identical by construction, each cell
/// is queried exactly once per pass, and the cache is big enough that no
/// eviction races can shift a query between the cached and explored tiers.
#[test]
fn serve_transcript_matches_golden() {
    const THREADS: usize = 4;
    const SHARDS: usize = 4;
    let db = final_table();
    let full = full_cube(&db);
    let closed = CubeBuilder::new()
        .min_support(MIN_SUPPORT)
        .materialize(Materialize::ClosedOnly)
        .parallel(false);
    let snap: CubeSnapshot = CubeSnapshot::from_db(&db, &closed).unwrap();
    let loaded: CubeSnapshot = CubeSnapshot::from_bytes(&snap.to_bytes()).unwrap();
    let engine =
        ConcurrentCubeEngine::with_config(loaded, SHARDS, scube_cube::DEFAULT_CACHE_CAPACITY);

    let mut out = String::new();
    out.push_str(&format!(
        "store: {} closed cells (full cube: {}), {} units, min_support {}, {} shards\n",
        engine.cube().len(),
        full.len(),
        engine.cube().num_units(),
        engine.cube().min_support(),
        engine.shard_count()
    ));

    let mut coords: Vec<CellCoords> = full.cells().map(|(c, _)| c.clone()).collect();
    coords.sort();
    let cold = engine.query_batch(&coords, THREADS).unwrap();
    let stats = engine.stats();
    out.push_str(&format!(
        "cold pass ({THREADS} threads): materialized={} cached={} explored={}\n",
        stats.materialized, stats.cached, stats.explored
    ));
    let warm = engine.query_batch(&coords, THREADS).unwrap();
    assert_eq!(cold, warm, "warm pass must be bit-identical to cold");
    let stats = engine.stats();
    out.push_str(&format!(
        "warm pass ({THREADS} threads): materialized={} cached={} explored={}\n",
        stats.materialized, stats.cached, stats.explored
    ));
    for (c, v) in coords.iter().zip(&cold) {
        let tier = if engine.cube().get(c).is_some() { "store" } else { "fallback" };
        out.push_str(&format!(
            "{tier:<8} {}  {}\n",
            engine.cube().labels().describe(c),
            fmt_values(v)
        ));
    }
    for index in [SegIndex::Dissimilarity, SegIndex::Gini] {
        out.push_str(&format!("top 3 by {index} (population >= {MIN_SUPPORT}):\n"));
        for (c, v, x) in engine.top_k(index, 3, MIN_SUPPORT) {
            out.push_str(&format!(
                "  {x:.6}  {}  (M={}, T={})\n",
                engine.cube().labels().describe(&c),
                v.minority,
                v.total
            ));
        }
    }
    check("italy_serve_transcript.txt", include_str!("golden/italy_serve_transcript.txt"), &out);
}

/// The daemon's replies over loopback, one request per line, status and
/// body verbatim: 13 cells in five forms each, the views, eight error
/// paths and four `POST /update` bodies, then `/stats` — whose tier
/// counters cross the hot-swap — with its timings masked. The other daemon
/// tests compare replies with the daemon's own renderers, so only this
/// file catches a drift in the format itself.
#[test]
fn daemon_replies_match_golden() {
    let db = final_table();
    let full = full_cube(&db);
    let closed = CubeBuilder::new()
        .min_support(MIN_SUPPORT)
        .materialize(Materialize::ClosedOnly)
        .parallel(false);
    let snap: CubeSnapshot = CubeSnapshot::from_db(&db, &closed).unwrap();
    let labels = snap.cube().labels().clone();
    let config = DaemonConfig { workers: 1, ..DaemonConfig::default() };
    let daemon = Daemon::bind("127.0.0.1:0", vec![("italy".to_string(), snap)], config).unwrap();
    let addr = daemon.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || daemon.run());
    let mut client = HttpClient::connect(&addr).unwrap();

    let mut out = String::new();
    let mut send = |method: &str, target: &str, body: &str| {
        let resp = match method {
            "GET" => client.get(target),
            _ => client.post(target, body.as_bytes()),
        }
        .unwrap();
        let mut text = resp.text().unwrap().replace('\n', "\\n");
        for key in ["\"uptime_us\":", "\"micros\":"] {
            let mut parts = text.split(key);
            let mut masked = parts.next().unwrap().to_string();
            for part in parts {
                masked.push_str(key);
                masked.push('#');
                masked.push_str(part.trim_start_matches(|c: char| c.is_ascii_digit()));
            }
            text = masked;
        }
        let sent = if body.is_empty() { String::new() } else { format!(" {body}") };
        out.push_str(&format!("{method} {target}{sent} -> {} {text}\n", resp.status));
    };

    let side = |items: &[u32]| {
        let pairs: Vec<String> = items
            .iter()
            .map(|&i| format!("{}={}", labels.attr_of(i), labels.value_of(i)))
            .collect();
        percent_encode(&pairs.join(","))
    };
    let mut coords: Vec<CellCoords> = full.cells().map(|(c, _)| c.clone()).collect();
    coords.sort();
    let cells: Vec<String> = coords
        .iter()
        .step_by(coords.len() / 13)
        .take(13)
        .map(|c| format!("sa={}&ca={}", side(&c.sa), side(&c.ca)))
        .collect();
    for cell in &cells {
        for form in ["", "&index=gini", "&significance=1", "&index=atkinson&significance=1"] {
            send("GET", &format!("/cubes/italy/query?{cell}{form}"), "");
        }
        send("GET", &format!("/cubes/italy/breakdown?{cell}"), "");
    }

    send("GET", "/cubes", "");
    send("GET", &format!("/query?{}", cells[1]), "");
    send("GET", "/cubes/italy/topk?index=gini&k=5&min_total=20", "");
    send("GET", "/cubes/italy/topk?k=3", "");
    send("GET", "/cubes/italy/slice?fixed=residence%3Dsicilia", "");
    send("GET", "/cubes/italy/slice?fixed=gender%3DF&index=isolation", "");
    send("GET", "/cubes/italy/dice?attrs=gender,region", "");
    send("GET", "/cubes/italy/stats", "");

    send("GET", "/cubes/nope/query", "");
    send("GET", "/cubes/italy/frobnicate", "");
    send("POST", "/cubes/italy/query", "");
    send("GET", "/cubes/italy/query?sa=%zz", "");
    send("GET", "/cubes/italy/query?sa=gender%3DX", "");
    send("GET", "/cubes/italy/query?sa=residence%3Dsicilia", "");
    send("GET", "/cubes/italy/topk?index=bogus", "");
    send("GET", "/cubes/italy/topk?k=1&k=2", "");

    let unit = &labels.unit_names[0];
    send("POST", "/cubes/italy/update", "{\"add\":[");
    send("POST", "/cubes/italy/update", "{\"bogus\":1}");
    let append = format!(
        "{{\"add\":[{{\"unit\":\"{unit}\",\"values\":[[\"gender\",\"F\"],[\"residence\",\"sicilia\"]]}}]}}"
    );
    send("POST", "/cubes/italy/update", &append);
    send("POST", "/cubes/italy/update", "{\"remove_tids\":[4294967295]}");
    send("GET", &format!("/cubes/italy/query?{}", cells[1]), "");
    send("GET", "/stats", "");

    client.post("/shutdown", b"").unwrap();
    server.join().unwrap().unwrap();
    check("italy_daemon_replies.txt", include_str!("golden/italy_daemon_replies.txt"), &out);
}
