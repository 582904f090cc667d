//! Loopback integration tests for the `scubed` serving daemon.
//!
//! Everything runs over real TCP on 127.0.0.1 with an ephemeral port (the
//! build environment has no outside network). The reference for every
//! assertion is an in-process engine over the same snapshot: response
//! bodies are built with the daemon's own public render functions and
//! compared **byte-for-byte**, so wire serialization can never silently
//! lose float bits.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use minihttp::{percent_encode, HttpClient};
use scube::daemon::{self, json::Json, Daemon, DaemonConfig};
use scube::prelude::*;
use scube_cube::{ConcurrentCubeEngine, CubeLabels, UpdateBatch};
use scube_data::TransactionDb;
use scube_datagen::BoardsConfig;
use scube_segindex::SegIndex;

const MIN_SUPPORT: u64 = 3;

fn final_table() -> TransactionDb {
    let boards = scube_datagen::generate(BoardsConfig::italy(200).sector_bias(0.7).seed(11));
    let dataset = boards.to_dataset(vec![]).expect("generator output is valid");
    scube::build_final_table(&dataset, &UnitStrategy::GroupAttribute("sector".into()), 1)
        .expect("pipeline succeeds")
        .db
}

fn snapshot() -> CubeSnapshot {
    let closed = CubeBuilder::new().min_support(MIN_SUPPORT).materialize(Materialize::ClosedOnly);
    CubeSnapshot::from_db(&final_table(), &closed).expect("snapshot builds")
}

fn test_config() -> DaemonConfig {
    DaemonConfig { workers: 4, ..DaemonConfig::default() }
}

/// Spawn a daemon over `snap`; returns its address and the join handle of
/// the serving thread (which exits after `POST /shutdown`).
fn spawn_daemon(
    snap: CubeSnapshot,
    config: DaemonConfig,
) -> (String, std::thread::JoinHandle<scube_common::Result<()>>) {
    let daemon =
        Daemon::bind("127.0.0.1:0", vec![("main".to_string(), snap)], config).expect("bind");
    let addr = daemon.local_addr().expect("addr").to_string();
    (addr, std::thread::spawn(move || daemon.run()))
}

/// `sa=..&ca=..` query string naming `coords` (empty sides included).
fn coords_query(labels: &CubeLabels, coords: &CellCoords) -> String {
    let side = |items: &[u32]| {
        let pairs: Vec<String> = items
            .iter()
            .map(|&i| format!("{}={}", labels.attr_of(i), labels.value_of(i)))
            .collect();
        pairs.join(",")
    };
    format!("sa={}&ca={}", percent_encode(&side(&coords.sa)), percent_encode(&side(&coords.ca)))
}

/// Every queryable endpoint, bit-identical to the in-process engine.
#[test]
fn responses_are_bit_identical_to_in_process_engine() {
    let snap = snapshot();
    let reference = ConcurrentCubeEngine::new(snap.clone());
    let labels = reference.cube().labels().clone();
    let (addr, server) = spawn_daemon(snap, test_config());
    let mut client = HttpClient::connect(&addr).expect("connect");

    // Point queries: a sample of materialized cells, apex included.
    let mut cells: Vec<CellCoords> = vec![CellCoords::apex()];
    cells.extend(reference.cube().cells().map(|(c, _)| c.clone()).step_by(7).take(20));
    for coords in &cells {
        let resp = client
            .get(&format!("/cubes/main/query?{}", coords_query(&labels, coords)))
            .expect("query");
        assert_eq!(resp.status, 200, "{}", labels.describe(coords));
        let values = reference.query(coords).expect("reference query");
        assert_eq!(
            resp.text().unwrap(),
            daemon::cell_json(&labels, coords, &values),
            "point query must be bit-identical"
        );
        // The alias route (single cube loaded) answers identically.
        let alias = client.get(&format!("/query?{}", coords_query(&labels, coords))).unwrap();
        assert_eq!(alias.body, resp.body, "alias route");
    }

    // Top-k for every index.
    for index in SegIndex::ALL {
        let ranked = reference.top_k(index, 5, MIN_SUPPORT);
        let resp = client
            .get(&format!("/cubes/main/topk?index={}&k=5&min_total={MIN_SUPPORT}", index.name()))
            .expect("topk");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.text().unwrap(), daemon::topk_json(&labels, index, &ranked));
    }

    // Slice, dice, and breakdown.
    let sliced = reference.slice(&[("sector", "services")]);
    let resp = client
        .get(&format!("/cubes/main/slice?fixed={}", percent_encode("sector=services")))
        .expect("slice");
    assert_eq!(resp.text().unwrap(), daemon::cells_json(&labels, &sliced));

    let diced = reference.dice(&["gender", "sector"]);
    let resp = client.get("/cubes/main/dice?attrs=gender,sector").expect("dice");
    assert_eq!(resp.text().unwrap(), daemon::cells_json(&labels, &diced));

    let target = cells.last().unwrap();
    let rows = reference.unit_breakdown(target).unwrap();
    let resp = client
        .get(&format!("/cubes/main/breakdown?{}", coords_query(&labels, target)))
        .expect("breakdown");
    assert_eq!(resp.text().unwrap(), daemon::breakdown_json(&labels, target, &rows));

    // Per-measure projection (`index=`) and the on-demand permutation test
    // (`significance=1`) on the same routes — still byte-exact, with the
    // expected bodies assembled from the daemon's own render helpers and a
    // reference `PermutationTest` run over the same unit breakdown.
    let values = reference.query(target).expect("reference query");
    let cell_prefix = format!(
        "{{\"cell\":{},\"describe\":\"{}\"",
        daemon::coords_json(&labels, target),
        daemon::json::escape(&labels.describe(target)),
    );
    let one = client
        .get(&format!("/cubes/main/query?{}&index=gini", coords_query(&labels, target)))
        .expect("indexed query");
    assert_eq!(one.status, 200);
    assert_eq!(
        one.text().unwrap(),
        format!("{cell_prefix},\"values\":{}}}", daemon::values_json_one(&values, SegIndex::Gini)),
        "indexed point query projects exactly one measure"
    );
    let counts = UnitCounts::from_pairs(rows.iter().map(|&(_, m, t)| (m, t))).expect("valid cell");
    let perm = PermutationTest::default().run(SegIndex::Gini, &counts).expect("gini defined here");
    let sig_path =
        format!("/cubes/main/query?{}&index=gini&significance=1", coords_query(&labels, target));
    let sig = client.get(&sig_path).expect("significance query");
    assert_eq!(
        sig.text().unwrap(),
        format!(
            "{cell_prefix},\"values\":{},\"significance\":[{{\"index\":\"gini\",\
             \"observed\":{},\"null_mean\":{},\"p_value\":{}}}]}}",
            daemon::values_json_one(&values, SegIndex::Gini),
            daemon::json::num(perm.observed),
            daemon::json::num(perm.null_mean),
            daemon::json::num(perm.p_value),
        ),
        "the permutation test is seeded: its wire form is reproducible"
    );
    assert_eq!(client.get(&sig_path).unwrap().body, sig.body, "significance is deterministic");

    // An indexed slice renders one `values_json_one` row per cell.
    let resp = client
        .get(&format!("/cubes/main/slice?fixed={}&index=xpx", percent_encode("sector=services")))
        .expect("indexed slice");
    let sliced_rows: Vec<String> = sliced
        .iter()
        .map(|(c, v)| {
            format!(
                "{{\"cell\":{},\"values\":{}}}",
                daemon::coords_json(&labels, c),
                daemon::values_json_one(v, SegIndex::Isolation)
            )
        })
        .collect();
    assert_eq!(resp.text().unwrap(), format!("{{\"rows\":[{}]}}", sliced_rows.join(",")));

    // Admin endpoints answer and the registry lists the cube.
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    let cubes = client.get("/cubes").unwrap();
    let doc = Json::parse(cubes.text().unwrap()).expect("valid JSON");
    let listed = doc.get("cubes").unwrap().as_arr().unwrap();
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].get("name").unwrap().as_str(), Some("main"));
    assert_eq!(listed[0].get("cells").unwrap().as_u64(), Some(reference.cube().len() as u64));

    // Client mistakes are 4xx, not failures.
    assert_eq!(client.get("/cubes/nope/query").unwrap().status, 404);
    assert_eq!(client.get("/bogus").unwrap().status, 404);
    assert_eq!(client.get("/cubes/main/query?sa=notanattr%3Dx").unwrap().status, 400);
    assert_eq!(client.get("/cubes/main/query?sa=gender").unwrap().status, 400);
    assert_eq!(client.get("/cubes/main/topk?index=wat").unwrap().status, 400);
    assert_eq!(client.get("/cubes/main/query?sa=&ca=&index=bogus").unwrap().status, 400);
    assert_eq!(client.get("/cubes/main/slice?fixed=&index=bogus").unwrap().status, 400);
    assert_eq!(client.get("/cubes/main/topk?k=minusone").unwrap().status, 400);
    assert_eq!(client.post("/cubes/main/query", b"").unwrap().status, 405);
    assert_eq!(client.post("/cubes/main/update", b"not json").unwrap().status, 400);
    assert_eq!(client.post("/cubes/main/update", b"{\"wat\":1}").unwrap().status, 400);

    // And the daemon still answers perfectly after all those errors.
    let resp = client.get("/cubes/main/query?sa=&ca=").unwrap();
    let apex = reference.query(&CellCoords::apex()).unwrap();
    assert_eq!(resp.text().unwrap(), daemon::cell_json(&labels, &CellCoords::apex(), &apex));

    assert_eq!(client.post("/shutdown", b"").unwrap().status, 200);
    server.join().unwrap().unwrap();
}

/// N concurrent clients hammer a cell while `POST /update` hot-swaps the
/// engine mid-stream: every response must be byte-identical to the pre- or
/// post-update engine (never torn), and the endpoint counters must sum
/// exactly to the requests issued.
#[test]
fn hot_swap_under_concurrent_load_never_tears() {
    const CLIENTS: usize = 4;
    const MIN_PER_CLIENT: usize = 50;

    let snap = snapshot();
    let labels = snap.cube().labels().clone();
    let apex = CellCoords::apex();

    // Pre- and post-update reference bodies for the apex cell (removing
    // transactions definitely changes its head-counts).
    let mut batch = UpdateBatch::new();
    for tid in 0..5 {
        batch.remove_tid(tid);
    }
    let pre_engine = ConcurrentCubeEngine::new(snap.clone());
    let pre_body = daemon::cell_json(&labels, &apex, &pre_engine.query(&apex).unwrap());
    let mut post_snap = snap.clone();
    post_snap.apply_update_threads(&batch, 2).expect("reference update");
    let post_engine = ConcurrentCubeEngine::new(post_snap);
    let post_body = daemon::cell_json(&labels, &apex, &post_engine.query(&apex).unwrap());
    assert_ne!(pre_body, post_body, "the update must change the apex cell");

    // One worker per held-open client connection plus slack for the admin
    // connection: the daemon is thread-per-connection, so keep-alive
    // clients equal to the pool size would starve the update.
    let config = DaemonConfig { workers: CLIENTS + 2, ..DaemonConfig::default() };
    let (addr, server) = spawn_daemon(snap, config);
    let updated = Arc::new(AtomicBool::new(false));
    let (saw_pre, saw_post) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let addr = addr.clone();
                let updated = Arc::clone(&updated);
                let (pre_body, post_body) = (pre_body.clone(), post_body.clone());
                scope.spawn(move || {
                    let mut client = HttpClient::connect(&addr).expect("connect");
                    let (mut pre, mut post) = (0usize, 0usize);
                    // Keep querying until the swap is visible on this
                    // stream (with a wall-clock bound, so a swap that
                    // never becomes visible still fails fast).
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
                    while std::time::Instant::now() < deadline {
                        let resp = client.get("/query?sa=&ca=").expect("query");
                        assert_eq!(resp.status, 200);
                        let body = resp.text().unwrap();
                        if body == pre_body {
                            assert!(
                                !updated.load(Ordering::Acquire) || post == 0,
                                "pre-update answer after post-update answers on one stream"
                            );
                            pre += 1;
                        } else if body == post_body {
                            post += 1;
                        } else {
                            panic!("torn response: {body}");
                        }
                        if post > 0 && pre + post >= MIN_PER_CLIENT {
                            break;
                        }
                    }
                    (pre, post)
                })
            })
            .collect();

        // Fire the hot-swap mid-stream.
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut admin = HttpClient::connect(&addr).expect("connect");
        let resp = admin.post("/update", br#"{"remove_tids":[0,1,2,3,4]}"#).unwrap();
        assert_eq!(resp.status, 200, "{:?}", resp.text());
        let stats = Json::parse(resp.text().unwrap()).unwrap();
        assert_eq!(stats.get("rows_removed").unwrap().as_u64(), Some(5));
        assert_eq!(stats.get("swaps").unwrap().as_u64(), Some(1));
        updated.store(true, Ordering::Release);

        workers.into_iter().fold((0usize, 0usize), |acc, w| {
            let (pre, post) = w.join().expect("client thread");
            (acc.0 + pre, acc.1 + post)
        })
    });
    let issued = saw_pre + saw_post;
    assert!(issued >= CLIENTS * MIN_PER_CLIENT, "every client made progress");
    assert!(saw_post > 0, "the swap must become visible");

    // After the swap, a fresh request must serve the post-update body.
    let mut client = HttpClient::connect(&addr).expect("connect");
    let resp = client.get("/query?sa=&ca=").unwrap();
    assert_eq!(resp.text().unwrap(), post_body);

    // Counter exactness: queries + 1 update + the probe query; the /stats
    // request itself is counted once finished, so issue two and check the
    // second sees the first.
    let s1 = client.get("/stats").unwrap();
    let s2 = client.get("/stats").unwrap();
    for (label, body) in [("first", &s1), ("second", &s2)] {
        let doc = Json::parse(body.text().unwrap()).expect("valid stats JSON");
        let ep = doc.get("endpoints").unwrap();
        let count =
            |name: &str, field: &str| ep.get(name).unwrap().get(field).unwrap().as_u64().unwrap();
        assert_eq!(
            count("query", "requests"),
            (issued + 1) as u64,
            "{label}: query counter must sum exactly"
        );
        assert_eq!(count("update", "requests"), 1, "{label}");
        assert_eq!(count("query", "errors"), 0, "{label}");
        assert_eq!(count("update", "errors"), 0, "{label}");
        let swaps = doc.get("cubes").unwrap().get("main").unwrap().get("swaps").unwrap();
        assert_eq!(swaps.as_u64(), Some(1), "{label}");
    }
    let doc = Json::parse(s2.text().unwrap()).unwrap();
    let stats_seen =
        doc.get("endpoints").unwrap().get("stats").unwrap().get("requests").unwrap().as_u64();
    assert_eq!(stats_seen, Some(1), "second /stats sees the first");

    let mut admin = HttpClient::connect(&addr).expect("connect");
    assert_eq!(admin.post("/shutdown", b"").unwrap().status, 200);
    server.join().unwrap().unwrap();
}

/// Graceful shutdown: clients with requests in flight either receive a
/// complete, well-formed response or a clean connection close — never a
/// truncated body — and `run()` returns once drained.
#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let snap = snapshot();
    let (addr, server) = spawn_daemon(snap, test_config());

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..3)
            .map(|_| {
                let addr = addr.clone();
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut completed = 0usize;
                    'outer: while !stop.load(Ordering::Acquire) {
                        // Reconnect each round: post-shutdown rounds must
                        // fail to connect or close cleanly, not hang.
                        let Ok(mut client) = HttpClient::connect(&addr) else { break };
                        for _ in 0..20 {
                            match client.get("/cubes/main/topk?index=gini&k=3") {
                                Ok(resp) => {
                                    // HttpClient validates framing; a torn
                                    // body would fail there.
                                    assert_eq!(resp.status, 200);
                                    completed += 1;
                                }
                                Err(_) => break 'outer,
                            }
                        }
                    }
                    completed
                })
            })
            .collect();

        std::thread::sleep(std::time::Duration::from_millis(40));
        let mut admin = HttpClient::connect(&addr).expect("connect");
        let resp = admin.post("/shutdown", b"").expect("shutdown responds");
        assert_eq!(resp.status, 200);
        stop.store(true, Ordering::Release);

        let total: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
        assert!(total > 0, "clients made progress before shutdown");
    });
    // run() returns only after every worker drained its connection.
    server.join().unwrap().unwrap();
}

/// The `--max-body` cap, both sides: a `POST /update` body over the
/// configured limit gets a 413 whose text names the cap, while a daemon
/// with a raised cap accepts the *same* body and applies it.
#[test]
fn oversized_update_bodies_get_413_naming_the_configured_cap() {
    const CAP: usize = 1024;
    // A syntactically valid update comfortably over the small cap.
    let row = r#"{"unit":"u_pad","values":[["gender","F"]]}"#;
    let rows: Vec<&str> = std::iter::repeat_n(row, 40).collect();
    let big_body = format!("{{\"add\":[{}]}}", rows.join(","));
    assert!(big_body.len() > CAP, "body must exceed the small cap");

    // Side one: the capped daemon refuses it with a self-explaining 413.
    let config = DaemonConfig { max_body: CAP, ..test_config() };
    let (addr, server) = spawn_daemon(snapshot(), config);
    let mut client = HttpClient::connect(&addr).expect("connect");
    let resp = client.post("/update", big_body.as_bytes()).expect("response");
    assert_eq!(resp.status, 413);
    let text = resp.text().unwrap().to_string();
    assert!(text.contains("limit 1024 bytes"), "413 must name the cap: {text:?}");

    // The daemon survives the refusal and still applies in-cap updates.
    let mut client = HttpClient::connect(&addr).expect("reconnect");
    let small = format!("{{\"add\":[{row}]}}");
    assert!(small.len() <= CAP);
    let resp = client.post("/update", small.as_bytes()).expect("small update");
    assert_eq!(resp.status, 200, "{:?}", resp.text());
    assert_eq!(client.post("/shutdown", b"").unwrap().status, 200);
    server.join().unwrap().unwrap();

    // Side two: raising --max-body admits the identical body.
    let config = DaemonConfig { max_body: 1 << 20, ..test_config() };
    let (addr, server) = spawn_daemon(snapshot(), config);
    let mut client = HttpClient::connect(&addr).expect("connect");
    let resp = client.post("/update", big_body.as_bytes()).expect("big update");
    assert_eq!(resp.status, 200, "{:?}", resp.text());
    let stats = Json::parse(resp.text().unwrap()).expect("valid JSON");
    assert_eq!(stats.get("rows_added").unwrap().as_u64(), Some(40));
    assert_eq!(client.post("/shutdown", b"").unwrap().status, 200);
    server.join().unwrap().unwrap();
}

/// A daemon serving a memory-mapped snapshot answers byte-identically to
/// the in-process heap engine, and `POST /update` still works (the first
/// update scans the mapped store region and decodes only what it dirties).
#[test]
fn mmap_served_daemon_matches_heap_daemon() {
    let snap = snapshot();
    let path = std::env::temp_dir().join(format!("scube_daemon_mmap_{}.scube", std::process::id()));
    snap.save(&path).expect("save");
    let mapped: CubeSnapshot = CubeSnapshot::open_mmap(&path).expect("open_mmap");

    let reference = ConcurrentCubeEngine::new(snap);
    let labels = reference.cube().labels().clone();
    let (addr, server) = spawn_daemon(mapped, test_config());
    let mut client = HttpClient::connect(&addr).expect("connect");

    let mut cells: Vec<CellCoords> = vec![CellCoords::apex()];
    cells.extend(reference.cube().cells().map(|(c, _)| c.clone()).step_by(11).take(10));
    for coords in &cells {
        let resp = client
            .get(&format!("/cubes/main/query?{}", coords_query(&labels, coords)))
            .expect("query");
        assert_eq!(resp.status, 200);
        let values = reference.query(coords).expect("reference query");
        assert_eq!(
            resp.text().unwrap(),
            daemon::cell_json(&labels, coords, &values),
            "mapped serving must be bit-identical"
        );
    }

    let resp = client
        .post("/update", br#"{"add":[{"unit":"u_new","values":[["gender","F"]]}]}"#)
        .expect("update over mapped snapshot");
    assert_eq!(resp.status, 200, "{:?}", resp.text());
    let stats = Json::parse(resp.text().unwrap()).expect("valid JSON");
    assert_eq!(stats.get("rows_added").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("new_units").unwrap().as_u64(), Some(1));

    assert_eq!(client.post("/shutdown", b"").unwrap().status, 200);
    server.join().unwrap().unwrap();
    std::fs::remove_file(&path).ok();
}

/// N clients each `POST` one append at the same moment: updates serialize
/// on the writer lock, so the replies number the swaps exactly `1..=N` —
/// each taken under that lock, never a later swap's count — and `/stats`
/// reports N.
#[test]
fn concurrent_updates_number_their_swaps_exactly() {
    const N: usize = 6;
    let config = DaemonConfig { workers: N + 2, ..DaemonConfig::default() };
    let (addr, server) = spawn_daemon(snapshot(), config);
    let start = std::sync::Barrier::new(N);
    let mut swaps: Vec<u64> = std::thread::scope(|scope| {
        let posters: Vec<_> = (0..N)
            .map(|i| {
                let (addr, start) = (&addr, &start);
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("connect");
                    let body = format!(
                        "{{\"add\":[{{\"unit\":\"u_swap{i}\",\"values\":[[\"gender\",\"F\"]]}}]}}"
                    );
                    start.wait();
                    let resp = client.post("/update", body.as_bytes()).expect("update");
                    assert_eq!(resp.status, 200, "{:?}", resp.text());
                    let doc = Json::parse(resp.text().unwrap()).expect("valid JSON");
                    doc.get("swaps").unwrap().as_u64().unwrap()
                })
            })
            .collect();
        posters.into_iter().map(|p| p.join().expect("poster")).collect()
    });
    swaps.sort_unstable();
    assert_eq!(swaps, (1..=N as u64).collect::<Vec<_>>(), "each reply names its own swap");

    let mut client = HttpClient::connect(&addr).expect("connect");
    let doc = Json::parse(client.get("/stats").unwrap().text().unwrap()).expect("valid JSON");
    let main = doc.get("cubes").unwrap().get("main").unwrap();
    assert_eq!(main.get("swaps").unwrap().as_u64(), Some(N as u64));
    assert_eq!(client.post("/shutdown", b"").unwrap().status, 200);
    server.join().unwrap().unwrap();
}

/// A valid-JSON batch that `apply_update` rejects is a 400 that changes
/// nothing: every served answer stays byte-identical and no swap is
/// counted. The next valid update then lands byte-identical to the same
/// batch applied in process.
#[test]
fn rejected_updates_leave_the_served_cube_untouched() {
    let snap = snapshot();
    let n_rows = snap.vertical().num_transactions();
    let labels = snap.cube().labels().clone();
    let mut paths: Vec<String> = vec!["/query?sa=&ca=".into(), "/topk?index=gini&k=5".into()];
    for (coords, _) in snap.cube().cells().step_by(9).take(12) {
        paths.push(format!("/query?{}", coords_query(&labels, coords)));
        paths.push(format!("/breakdown?{}", coords_query(&labels, coords)));
    }
    let (addr, server) = spawn_daemon(snap.clone(), test_config());
    let mut client = HttpClient::connect(&addr).expect("connect");
    let answers = |client: &mut HttpClient| -> Vec<Vec<u8>> {
        paths.iter().map(|p| client.get(p).expect("read").body).collect()
    };
    let swaps = |client: &mut HttpClient| {
        let doc = Json::parse(client.get("/cubes").unwrap().text().unwrap()).unwrap();
        doc.get("cubes").unwrap().as_arr().unwrap()[0].get("swaps").unwrap().as_u64()
    };
    let before = answers(&mut client);
    for (what, body) in [
        ("out-of-range tid", format!("{{\"remove_tids\":[{n_rows}]}}")),
        (
            "absent value",
            r#"{"remove":[{"unit":"u0","values":[["gender","no-such-gender"]]}]}"#.to_string(),
        ),
    ] {
        let resp = client.post("/update", body.as_bytes()).expect("update");
        assert_eq!(resp.status, 400, "{what}: {:?}", resp.text());
        assert_eq!(answers(&mut client), before, "{what}: served answers moved");
        assert_eq!(swaps(&mut client), Some(0), "{what}: no swap");
    }

    let mut batch = UpdateBatch::new();
    batch.add_row(&[("gender", "F")], "u_after").remove_tid(0);
    let mut reference = snap;
    let stats = reference.apply_update_threads(&batch, 2).expect("reference update");
    let resp = client
        .post(
            "/update",
            br#"{"add":[{"unit":"u_after","values":[["gender","F"]]}],"remove_tids":[0]}"#,
        )
        .expect("valid update");
    assert_eq!(resp.text().unwrap(), daemon::update_stats_json(&stats, 1));
    let reference = ConcurrentCubeEngine::new(reference);
    let labels = reference.cube().labels();
    for (coords, _) in reference.cube().cells().step_by(9).take(12) {
        let resp = client.get(&format!("/query?{}", coords_query(labels, coords))).expect("query");
        let values = reference.query(coords).expect("reference query");
        assert_eq!(resp.text().unwrap(), daemon::cell_json(labels, coords, &values));
    }
    assert_eq!(client.post("/shutdown", b"").unwrap().status, 200);
    server.join().unwrap().unwrap();
}

/// Byte-level robustness over a real socket: corrupted or truncated
/// requests must yield a 4xx/5xx or a clean close — and the daemon keeps
/// serving correct answers afterwards.
#[test]
fn malformed_wire_input_never_kills_the_daemon() {
    use std::io::{Read, Write};

    let snap = snapshot();
    let reference = ConcurrentCubeEngine::new(snap.clone());
    let labels = reference.cube().labels().clone();
    let (addr, server) = spawn_daemon(snap, test_config());

    let valid = b"GET /cubes/main/query?sa=&ca= HTTP/1.1\r\nHost: x\r\n\r\n";
    let attacks: Vec<Vec<u8>> = vec![
        b"\x00\x01\x02\x03garbage\r\n\r\n".to_vec(),
        b"GET / HTTP/9.9\r\n\r\n".to_vec(),
        b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
        b"POST /cubes/main/update HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n"
            .to_vec(),
        b"POST /cubes/main/update HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort".to_vec(),
        vec![b'A'; 64 * 1024], // head far over the cap, no terminator
        b"GET /cubes/main/query?sa=%zz HTTP/1.1\r\n\r\n".to_vec(),
    ];
    // Plus deterministic single-byte corruptions of a valid request.
    let corruptions = (0..valid.len()).step_by(3).map(|i| {
        let mut bytes = valid.to_vec();
        bytes[i] ^= 0x5a;
        bytes
    });

    for (case, bytes) in attacks.into_iter().chain(corruptions).enumerate() {
        let mut sock = std::net::TcpStream::connect(&addr).expect("connect");
        sock.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
        sock.write_all(&bytes).expect("write");
        let _ = sock.shutdown(std::net::Shutdown::Write);
        // Drain whatever comes back: either a status line or a clean close.
        let mut out = Vec::new();
        let _ = sock.take(1 << 20).read_to_end(&mut out);
        if !out.is_empty() {
            let text = String::from_utf8_lossy(&out);
            assert!(text.starts_with("HTTP/1.1 "), "case {case}: got {text:?}");
            let status: u16 = text[9..12].parse().unwrap_or(0);
            assert!((200..600).contains(&status), "case {case}: bad status in {text:?}");
        }
    }

    // The daemon survived everything above and still answers bit-identically.
    let mut client = HttpClient::connect(&addr).expect("connect");
    let apex = CellCoords::apex();
    let resp = client.get("/cubes/main/query?sa=&ca=").unwrap();
    assert_eq!(
        resp.text().unwrap(),
        daemon::cell_json(&labels, &apex, &reference.query(&apex).unwrap())
    );

    assert_eq!(client.post("/shutdown", b"").unwrap().status, 200);
    server.join().unwrap().unwrap();
}
