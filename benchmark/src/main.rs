//! The SCube benchmark: five seeded workloads over the build, serve and
//! update paths, gated end-to-end metrics and per-layer attribution.
//! `README.md` in this directory defines every workload and metric;
//! `../BENCHMARK.json` is the contract the driver runs it under.
//!
//! ```text
//! benchmark run [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//!               [--out FILE] [--smoke]
//! benchmark compare A.json B.json
//! ```

mod awake;
mod build;
mod compare;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use report::{Outcome, J};
use trace::Tracer;

/// The benchmark counts every allocation in the process, for
/// `peak_alloc_bytes`.
#[global_allocator]
static ALLOC: scube_bench::alloc::CountingAlloc = scube_bench::alloc::CountingAlloc;

/// The workloads, in run order (and in `BENCHMARK.json` order).
pub const WORKLOADS: [&str; 5] =
    ["build-registry", "build-table", "serve-hot", "serve-cold", "serve-churn"];

/// Seconds one run measures when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

/// Results carry a reason on failure; the benchmark never panics on them.
pub type Res<T> = Result<T, String>;

/// Any error as its message.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// What every workload is run with.
pub struct Ctx {
    /// `--seed`: fixes the request order and the rows of the update batch.
    /// The data sets themselves are fixed (the generator presets' own
    /// seed), so the byte metrics repeat exactly; see README, "Seeds".
    pub seed: u64,
    /// `--seconds`: how long the timed passes of one run last.
    pub seconds: f64,
    /// `--smoke`: toy sizes, two passes, all gates, no numbers.
    pub smoke: bool,
    /// Scratch directory inside the build directory.
    pub work_dir: PathBuf,
}

/// Set up repeatedly (once under `--smoke`), keep the last, and return the
/// seconds each took: `setup_s` is their median. Three times at least, and
/// a cheap set-up up to fifteen times within a second, so that a 70 ms
/// set-up is not judged on three samples.
pub fn repeat_setup<T>(ctx: &Ctx, mut setup: impl FnMut() -> Res<T>) -> Res<(T, Vec<f64>)> {
    let mut seconds = Vec::new();
    loop {
        let started = Instant::now();
        let built = setup()?;
        seconds.push(started.elapsed().as_secs_f64());
        let enough =
            seconds.len() >= 3 && (seconds.iter().sum::<f64>() >= 1.0 || seconds.len() >= 15);
        if ctx.smoke || enough {
            return Ok((built, seconds));
        }
        drop(built);
    }
}

struct RunArgs {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    /// `Some(false)` untraced only, `Some(true)` traced only, `None` both.
    trace: Option<bool>,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_run(args: &[String]) -> Res<RunArgs> {
    let mut parsed = RunArgs {
        workloads: Vec::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let known = WORKLOADS
                    .iter()
                    .find(|w| *w == value)
                    .ok_or_else(|| format!("unknown workload {value:?}; one of {WORKLOADS:?}"))?;
                if !parsed.workloads.contains(known) {
                    parsed.workloads.push(known);
                }
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = WORKLOADS.to_vec();
    }
    Ok(parsed)
}

/// A scratch directory next to the executable, so every file the
/// benchmark writes stays inside the (git-ignored) build directory.
fn work_dir() -> Res<PathBuf> {
    let exe = std::env::current_exe().map_err(err)?;
    let dir = exe
        .parent()
        .ok_or("the executable has no parent directory")?
        .join(format!("benchmark-work-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn run_one(ctx: &Ctx, workload: &'static str, traced: bool) -> Res<(Outcome, Option<Tracer>)> {
    let (mut outcome, tracer) = if workload.starts_with("build-") {
        build::run(ctx, workload, traced)?
    } else {
        serve::run(ctx, workload, traced)?
    };
    if let Some(t) = &tracer {
        outcome.set("trace.spans", t.spans().len() as f64);
        outcome.set("core.failed_share", outcome.failed as f64 / outcome.attempted.max(1) as f64);
    }
    Ok((outcome, tracer))
}

fn run(args: &[String]) -> Res<bool> {
    let args = parse_run(args)?;
    let ctx =
        Ctx { seed: args.seed, seconds: args.seconds, smoke: args.smoke, work_dir: work_dir()? };
    let phases: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let started = Instant::now();
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut traces: Vec<(&'static str, J)> = Vec::new();
    let result = (|| -> Res<()> {
        for &traced in phases {
            for &workload in &args.workloads {
                let (outcome, tracer) = run_one(&ctx, workload, traced)?;
                if ctx.smoke {
                    println!(
                        "smoke {workload} ({}): {} operations, {} failed",
                        if traced { "traced" } else { "untraced" },
                        outcome.attempted,
                        outcome.failed
                    );
                    for why in &outcome.failures {
                        println!("  FAILED: {why}");
                    }
                } else {
                    print!("{}", outcome.table());
                }
                if let Some(t) = tracer {
                    traces.push((workload, t.to_json()));
                }
                outcomes.push(outcome);
            }
        }
        Ok(())
    })();
    std::fs::remove_dir_all(&ctx.work_dir).ok();
    result?;

    if let Some(path) = &args.out {
        report::write(path, &report::document(ctx.seed, ctx.seconds, &outcomes))?;
        if !traces.is_empty() {
            let mut trace_path = path.clone().into_os_string();
            trace_path.push(".trace.json");
            report::write(&PathBuf::from(trace_path), &J::obj(traces))?;
        }
    }
    let correct = outcomes.iter().all(|o| o.failed == 0 && (ctx.smoke || o.correct()));
    if ctx.smoke {
        println!(
            "smoke: {} in {:.1} s",
            if correct { "every gate held" } else { "A GATE FAILED" },
            started.elapsed().as_secs_f64()
        );
    } else {
        // The contract's result: one line per workload and phase, last.
        for outcome in &outcomes {
            println!("{}", outcome.result_line());
        }
    }
    Ok(correct)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((verb, rest)) if verb == "run" => run(rest),
        Some((verb, rest)) if verb == "compare" => compare::run(rest),
        _ => Err("usage: benchmark run [--workload NAME]... [--seed N] [--seconds S] \
                  [--trace 0|1] [--out FILE] [--smoke] | benchmark compare A.json B.json"
            .to_string()),
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(why) => {
            eprintln!("benchmark: {why}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let parsed = parse_run(&args(&[
            "--workload",
            "serve-cold",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(parsed.workloads, ["serve-cold"]);
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (42, 10.0, Some(true)));
    }

    #[test]
    fn workloads_repeat_and_default_to_all() {
        let parsed =
            parse_run(&args(&["--workload", "serve-hot", "--workload", "build-table", "--smoke"]))
                .unwrap();
        assert_eq!(parsed.workloads, ["serve-hot", "build-table"]);
        assert!(parsed.smoke && parsed.trace.is_none());
        assert_eq!(parse_run(&[]).unwrap().workloads, WORKLOADS);
    }

    #[test]
    fn bad_options_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seed", "x"],
            &["--seed"],
            &["--frobnicate", "1"],
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
