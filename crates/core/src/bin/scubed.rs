//! The `scubed` serving daemon — resident cubes answering over HTTP.
//!
//! ```text
//! scubed --snapshot main=cube.scube [--snapshot other=other.scube ...] \
//!        [--listen 127.0.0.1:7007] [--workers 4] [--shards 16] \
//!        [--cache 4096] [--update-threads 4] [--max-body 16m] [--mmap]
//! ```
//!
//! Each `--snapshot name=path` loads a checksummed `.scube` snapshot (see
//! `scube save`) and registers it under `name`. With `--mmap`, snapshots
//! are memory-mapped instead of read onto the heap: opens are
//! O(metadata) regardless of file size and daemons serving the same file
//! share one physical copy through the page cache. `--max-body` bounds
//! `POST /update` payloads (default 16 MiB; suffixes `k`/`m`/`g` accepted) —
//! larger bodies get a 413 naming the cap. The daemon serves JSON over
//! loopback-friendly HTTP/1.1 until a `POST /shutdown` arrives:
//!
//! ```text
//! curl 'http://127.0.0.1:7007/cubes/main/query?sa=gender=F&ca=region=north'
//! curl 'http://127.0.0.1:7007/cubes/main/topk?index=gini&k=10'
//! curl 'http://127.0.0.1:7007/stats'
//! curl -X POST -d '{"add":[{"unit":"u1","values":[["gender","F"]]}]}' \
//!      'http://127.0.0.1:7007/cubes/main/update'
//! curl -X POST 'http://127.0.0.1:7007/shutdown'
//! ```
//!
//! With exactly one snapshot loaded, `/query`, `/topk`, `/slice`, `/dice`,
//! `/breakdown`, and `/update` work without the `/cubes/<name>` prefix.
//! See `scube::daemon` for the endpoint table and hot-swap semantics.

use std::process::ExitCode;

use scube::daemon::{Daemon, DaemonConfig};
use scube_common::{Result, ScubeError};
use scube_cube::CubeSnapshot;

const USAGE: &str = "\
scubed: serve segregation cubes over HTTP

usage:
  scubed --snapshot name=cube.scube [--snapshot n2=other.scube ...]
         [--listen 127.0.0.1:7007] [--workers N] [--shards N]
         [--cache N] [--update-threads N] [--max-body BYTES] [--mmap]

  --mmap      memory-map the snapshots (zero-copy serving; O(ms) open)
  --max-body  cap POST /update bodies in bytes (k/m/g suffixes; default 16m)

endpoints: /healthz /cubes /stats /shutdown and per cube
  /cubes/<name>/{query,topk,slice,dice,breakdown,stats,update}
  (aliases without the prefix when exactly one cube is loaded)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match serve(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("scubed: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Options {
    listen: String,
    snapshots: Vec<(String, String)>,
    config: DaemonConfig,
    mmap: bool,
}

fn parse_args(args: &[String]) -> Result<Options> {
    let bad = |msg: String| ScubeError::InvalidParameter(msg);
    let mut listen = "127.0.0.1:7007".to_string();
    let mut snapshots: Vec<(String, String)> = Vec::new();
    let mut config = DaemonConfig::default();
    let mut mmap = false;
    let mut seen: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag != "--snapshot" && seen.contains(&flag.as_str()) {
            return Err(bad(format!("duplicate flag {flag}")));
        }
        if flag == "--mmap" {
            mmap = true;
            seen.push(flag.as_str());
            continue;
        }
        let value = it.next().ok_or_else(|| bad(format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--listen" => listen = value.clone(),
            "--snapshot" => {
                let (name, path) = value
                    .split_once('=')
                    .ok_or_else(|| bad(format!("--snapshot wants name=path, got {value:?}")))?;
                snapshots.push((name.to_string(), path.to_string()));
            }
            "--workers" => {
                config.workers = parse_count(value, "--workers")?;
            }
            "--shards" => {
                config.shards = parse_count(value, "--shards")?;
            }
            "--cache" => {
                config.cache_capacity =
                    value.parse().map_err(|_| bad(format!("bad --cache: {value:?}")))?;
            }
            "--update-threads" => {
                config.update_threads = parse_count(value, "--update-threads")?;
            }
            "--max-body" => {
                config.max_body = parse_bytes(value, "--max-body")?;
            }
            other => return Err(bad(format!("unknown flag {other}"))),
        }
        seen.push(flag.as_str());
    }
    if snapshots.is_empty() {
        return Err(bad("at least one --snapshot name=path is required".into()));
    }
    Ok(Options { listen, snapshots, config, mmap })
}

fn parse_count(value: &str, flag: &str) -> Result<usize> {
    value
        .parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| ScubeError::InvalidParameter(format!("bad {flag}: {value:?}")))
}

/// Parse a byte count with an optional `k`/`m`/`g` (KiB/MiB/GiB) suffix.
fn parse_bytes(value: &str, flag: &str) -> Result<usize> {
    let bad = || ScubeError::InvalidParameter(format!("bad {flag}: {value:?}"));
    let (digits, shift) = match value.as_bytes().last().map(|b| b.to_ascii_lowercase()) {
        Some(b'k') => (&value[..value.len() - 1], 10),
        Some(b'm') => (&value[..value.len() - 1], 20),
        Some(b'g') => (&value[..value.len() - 1], 30),
        _ => (value, 0),
    };
    let n: usize = digits.parse().map_err(|_| bad())?;
    n.checked_mul(1usize << shift).filter(|&n| n >= 1).ok_or_else(bad)
}

fn serve(args: &[String]) -> Result<()> {
    let options = parse_args(args)?;
    let mut cubes = Vec::with_capacity(options.snapshots.len());
    for (name, path) in &options.snapshots {
        let (snapshot, how) = if options.mmap {
            (CubeSnapshot::open_mmap(path)?, "mapped")
        } else {
            (CubeSnapshot::load(path)?, "loaded")
        };
        println!(
            "{how} {name} from {path}: {} cells, {} units",
            snapshot.cube().len(),
            snapshot.cube().num_units()
        );
        cubes.push((name.clone(), snapshot));
    }
    let daemon = Daemon::bind(&options.listen, cubes, options.config.clone())?;
    println!(
        "scubed listening on {} ({} workers); POST /shutdown to stop",
        daemon.local_addr()?,
        options.config.workers
    );
    daemon.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Options> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_full_flag_set() {
        let o = opts(&[
            "--snapshot",
            "main=a.scube",
            "--snapshot",
            "other=b.scube",
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "3",
            "--shards",
            "8",
            "--cache",
            "0",
            "--update-threads",
            "2",
        ])
        .unwrap();
        assert_eq!(o.listen, "127.0.0.1:0");
        assert_eq!(
            o.snapshots,
            vec![("main".into(), "a.scube".into()), ("other".into(), "b.scube".into())]
        );
        assert_eq!(o.config.workers, 3);
        assert_eq!(o.config.shards, 8);
        assert_eq!(o.config.cache_capacity, 0);
        assert_eq!(o.config.update_threads, 2);
        assert!(!o.mmap);
        assert_eq!(o.config.max_body, 16 * 1024 * 1024, "default cap is minihttp's 16 MiB");
    }

    #[test]
    fn parses_mmap_and_max_body() {
        let o = opts(&["--mmap", "--snapshot", "a=b", "--max-body", "1m"]).unwrap();
        assert!(o.mmap);
        assert_eq!(o.config.max_body, 1 << 20);
        for (spec, bytes) in [("4096", 4096), ("64k", 64 << 10), ("2M", 2 << 20), ("1g", 1 << 30)] {
            let o = opts(&["--snapshot", "a=b", "--max-body", spec]).unwrap();
            assert_eq!(o.config.max_body, bytes, "{spec}");
        }
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(opts(&[]).is_err(), "needs a snapshot");
        assert!(opts(&["--listen", "x"]).is_err(), "still needs a snapshot");
        assert!(opts(&["--snapshot", "no-equals"]).is_err());
        assert!(opts(&["--snapshot", "a=b", "--workers"]).is_err(), "missing value");
        assert!(opts(&["--snapshot", "a=b", "--workers", "0"]).is_err());
        assert!(opts(&["--snapshot", "a=b", "--bogus", "1"]).is_err());
        assert!(
            opts(&["--snapshot", "a=b", "--workers", "2", "--workers", "3"]).is_err(),
            "duplicate flag"
        );
        assert!(opts(&["--snapshot", "a=b", "--max-body", "0"]).is_err(), "zero cap");
        assert!(opts(&["--snapshot", "a=b", "--max-body", "5x"]).is_err(), "bad suffix");
        assert!(opts(&["--snapshot", "a=b", "--max-body", "99999999999999999999"]).is_err());
        assert!(opts(&["--snapshot", "a=b", "--mmap", "--mmap"]).is_err(), "duplicate --mmap");
    }
}
