//! What a run reports: the metric lists `BENCHMARK.json` names, one
//! [`Outcome`] per workload and phase, the contract's result line, and the
//! `--out` file with its uniform header (host block, seed, raw per-pass
//! arrays, attempted/succeeded/failed counts).

use std::path::Path;

use scube::daemon::json;

/// A JSON value to write. Reading goes through the daemon's own
/// [`json::Json::parse`], which the unit tests round-trip against.
#[derive(Debug, Clone, PartialEq)]
pub enum J {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exact count.
    Int(u64),
    /// A measurement, written with every digit (`null` when not finite).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<J>),
    /// An object, in insertion order.
    Obj(Vec<(String, J)>),
}

impl J {
    /// A string value.
    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of measurements.
    pub fn nums(values: &[f64]) -> J {
        J::Arr(values.iter().map(|&v| J::Num(v)).collect())
    }

    /// One line, no spaces.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Objects one member per line; arrays of scalars stay on one line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(1), 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, J::Arr(_) | J::Obj(_))
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(width) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(width * depth));
            }
        };
        match self {
            J::Null => out.push_str("null"),
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            J::Int(n) => out.push_str(&n.to_string()),
            J::Num(x) => out.push_str(&json::num(*x)),
            J::Str(s) => {
                out.push('"');
                out.push_str(&json::escape(s));
                out.push('"');
            }
            J::Arr(items) => {
                let inline = items.iter().all(J::is_scalar);
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if !inline {
                        newline(out, depth + 1);
                    }
                    item.write(out, indent, depth + 1);
                }
                if !inline && !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            J::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    out.push('"');
                    out.push_str(&json::escape(key));
                    out.push_str("\":");
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                if !members.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Throughputs.
    Higher,
    /// Times and sizes.
    Lower,
}

/// One gated end-to-end metric, as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// The end-to-end metrics. Every workload reports every one of them (the
/// README's table says what each counts and times per workload).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "ops_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "op_p50_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_alloc_bytes", unit: "bytes", better: Better::Lower, bound: 0.02 },
    EndToEnd { name: "snapshot_bytes_per_row", unit: "bytes", better: Better::Lower, bound: 0.005 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

/// The per-layer metrics `(name, unit)`, measured in the traced run. A
/// workload reports 0 for a layer it does not exercise.
pub const PER_LAYER: [(&str, &str); 64] = [
    // Build path, staged.
    ("core.join_s", "s"),
    ("data.ingest_s", "s"),
    ("data.vertical_build_s", "s"),
    ("cube.build_s", "s"),
    ("cube.fold_s", "s"),
    ("cube.store_s", "s"),
    ("cube.save_s", "s"),
    ("cube.fsync_s", "s"),
    ("core.build_unattributed_s", "s"),
    // Build path, isolated probes.
    ("common.csv_parse_s", "s"),
    ("fpm.mine_s", "s"),
    ("fpm.itemsets", "count"),
    ("cube.encode_s", "s"),
    ("cube.cells", "count"),
    ("cube.snapshot_bytes", "bytes"),
    ("cube.open_mmap_ms", "ms"),
    ("cube.load_heap_ms", "ms"),
    ("bitmap.tidset_ns", "ns"),
    ("data.unit_histogram_ns", "ns"),
    ("segindex.compute_ns", "ns"),
    ("core.rows_per_s", "1/s"),
    ("core.peak_alloc_bytes", "bytes"),
    // Read path, in-process replay of the loopback request list.
    ("minihttp.parse_ns", "ns"),
    ("cube.resolve_ns", "ns"),
    ("cube.query_ns", "ns"),
    ("core.daemon.render_ns", "ns"),
    ("minihttp.respond_ns", "ns"),
    ("core.wire_unattributed_us", "us"),
    ("cube.materialized_share", "share"),
    ("cube.cached_share", "share"),
    ("cube.explored_share", "share"),
    ("core.req_per_s", "1/s"),
    ("core.req_per_s_median", "1/s"),
    ("core.req_per_s_min", "1/s"),
    ("core.p50_us", "us"),
    ("core.p99_us", "us"),
    ("core.p999_us", "us"),
    // Write path.
    ("update_append_ms", "ms"),
    ("update_delete_ms", "ms"),
    ("cube.apply_update_append_ms", "ms"),
    ("cube.apply_update_delete_ms", "ms"),
    ("cube.snapshot_clone_ms", "ms"),
    ("cube.engine_build_ms", "ms"),
    ("core.daemon.json_parse_ms", "ms"),
    ("core.update_unattributed_ms", "ms"),
    ("cube.dirty_cells", "count"),
    ("cube.promoted_cells", "count"),
    ("cube.demoted_cells", "count"),
    ("core.read_p99_us", "us"),
    ("core.read_stall_max_us", "us"),
    ("core.writer_late_ms", "ms"),
    // Sizes of what was measured, and the cost of measuring.
    ("core.rows", "count"),
    ("core.units", "count"),
    ("core.requests", "count"),
    ("core.passes", "count"),
    ("core.updates", "count"),
    ("core.universe_cells", "count"),
    ("core.fallback_cells", "count"),
    ("core.failed_share", "share"),
    ("core.setup_s", "s"),
    ("trace.spans", "count"),
    ("trace.span_cost_ns", "ns"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace_overhead_share", "share"),
];

/// What one workload produced in one phase (untraced or traced).
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this is the traced phase.
    pub traced: bool,
    /// Operations attempted (requests, updates, build reps).
    pub attempted: u64,
    /// Operations that failed a correctness gate.
    pub failed: u64,
    /// The first few failures, for the operator.
    pub failures: Vec<String>,
    /// Metric values by name (end-to-end when untraced, per-layer traced).
    pub metrics: Vec<(&'static str, f64)>,
    /// Raw per-pass arrays behind the reported values.
    pub raw: Vec<(&'static str, Vec<f64>)>,
}

impl Outcome {
    /// An outcome with nothing attempted yet.
    pub fn new(workload: &'static str, traced: bool) -> Self {
        Outcome {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            raw: Vec::new(),
        }
    }

    /// Count one attempted operation; `Err` marks it failed.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.fail(why);
        }
    }

    /// Record a failed gate that is not itself a counted operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Set metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// Metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The metrics the contract wants from this phase, as `(name, unit)`.
    fn wanted(&self) -> Vec<(&'static str, &'static str)> {
        if self.traced {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        }
    }

    /// Whether every gate held and every expected metric is a number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|(_, v)| v.is_finite())
            && (self.traced || END_TO_END.iter().all(|m| self.get(m.name).is_some_and(|v| v > 0.0)))
    }

    /// `{name: {"value", "unit"}}` for every metric of this phase; a layer
    /// the workload does not exercise reads 0.
    fn metrics_json(&self) -> J {
        J::obj(self.wanted().into_iter().map(|(name, unit)| {
            let value = self.get(name).unwrap_or(0.0);
            (name, J::obj([("value", J::Num(value)), ("unit", J::str(unit))]))
        }))
    }

    /// The contract's result line.
    pub fn result_line(&self) -> String {
        J::obj([
            ("correct", J::Bool(self.correct())),
            ("attempted", J::Int(self.attempted.max(1))),
            ("failed", J::Int(self.failed)),
            ("metrics", self.metrics_json()),
        ])
        .compact()
    }

    /// The metric table for the operator.
    pub fn table(&self) -> String {
        let phase = if self.traced { "traced" } else { "untraced" };
        let mut out = format!(
            "== {} ({phase}): attempted {} succeeded {} failed {}\n",
            self.workload,
            self.attempted,
            self.attempted.saturating_sub(self.failed),
            self.failed
        );
        for (name, unit) in self.wanted() {
            if let Some(v) = self.get(name) {
                out.push_str(&format!("  {name:<28} {v:>18.4} {unit}\n"));
            }
        }
        for why in &self.failures {
            out.push_str(&format!("  FAILED: {why}\n"));
        }
        out
    }

    /// This outcome's entry in the `--out` file.
    pub fn to_json(&self) -> J {
        J::obj([
            ("workload", J::str(self.workload)),
            ("phase", J::str(if self.traced { "traced" } else { "untraced" })),
            ("correct", J::Bool(self.correct())),
            ("attempted", J::Int(self.attempted)),
            ("succeeded", J::Int(self.attempted.saturating_sub(self.failed))),
            ("failed", J::Int(self.failed)),
            ("failures", J::Arr(self.failures.iter().map(J::str).collect())),
            ("metrics", self.metrics_json()),
            ("raw", J::obj(self.raw.iter().map(|(name, values)| (*name, J::nums(values))))),
        ])
    }
}

/// The host block every output file carries.
pub fn host_json() -> J {
    let (cpu, arch_os) = scube_bench::host_fingerprint();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    // The checkout this binary was built from, wherever it is run from.
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(["-C", env!("CARGO_MANIFEST_DIR")])
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = git(&["rev-parse", "HEAD"]);
    let dirty = git(&["status", "--porcelain"]).map(|s| !s.is_empty());
    J::obj([
        ("nproc", J::Int(nproc as u64)),
        ("cpu_model", J::str(cpu)),
        ("arch_os", J::str(arch_os)),
        ("kernel", J::str(kernel)),
        ("git_rev", rev.map_or(J::Null, J::str)),
        ("git_dirty", dirty.map_or(J::Null, J::Bool)),
    ])
}

/// The whole `--out` document.
pub fn document(seed: u64, seconds: f64, outcomes: &[Outcome]) -> J {
    J::obj([
        ("benchmark", J::str("scube-benchmark")),
        ("host", host_json()),
        ("seed", J::Int(seed)),
        ("seconds", J::Num(seconds)),
        (
            "end_to_end",
            J::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        J::obj([
                            ("name", J::str(m.name)),
                            ("unit", J::str(m.unit)),
                            (
                                "better",
                                J::str(if m.better == Better::Higher { "higher" } else { "lower" }),
                            ),
                            ("bound", J::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("runs", J::Arr(outcomes.iter().map(Outcome::to_json).collect())),
    ])
}

/// Write `doc` to `path`.
pub fn write(path: &Path, doc: &J) -> Result<(), String> {
    std::fs::write(path, doc.pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scube::daemon::json::Json;

    fn sample() -> Outcome {
        let mut o = Outcome::new("serve-hot", false);
        o.check(Ok(()));
        o.check(Ok(()));
        for m in END_TO_END {
            o.set(m.name, 1.5);
        }
        o.set("ops_per_s", 70123.456789);
        o.raw.push(("ops_per_s", vec![1.0, 2.5, 1e-7]));
        o
    }

    #[test]
    fn result_line_round_trips_through_the_daemon_parser() {
        let o = sample();
        let doc = Json::parse(&o.result_line()).expect("result line parses");
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let metrics = doc.get("metrics").expect("metrics");
        let Json::Obj(members) = metrics else { panic!("metrics is an object") };
        let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|m| m.name));
        let ops = metrics.get("ops_per_s").unwrap();
        assert_eq!(ops.get("value").and_then(Json::as_f64), Some(70123.456789));
        assert_eq!(ops.get("unit").and_then(Json::as_str), Some("1/s"));
    }

    #[test]
    fn traced_result_line_lists_every_layer_and_defaults_to_zero() {
        let mut o = Outcome::new("build-table", true);
        o.check(Ok(()));
        o.set("fpm.mine_s", 0.42);
        let doc = Json::parse(&o.result_line()).unwrap();
        let Some(Json::Obj(members)) = doc.get("metrics") else { panic!("metrics") };
        assert_eq!(members.len(), PER_LAYER.len());
        let value = |name| doc.get("metrics").unwrap().get(name).unwrap().get("value");
        assert_eq!(value("fpm.mine_s").and_then(Json::as_f64), Some(0.42));
        assert_eq!(value("cube.query_ns").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn a_failed_gate_or_a_missing_metric_is_not_correct() {
        let mut o = sample();
        assert!(o.correct());
        o.check(Err("body differs".into()));
        assert!(!o.correct());
        assert_eq!((o.attempted, o.failed), (3, 1));
        let mut missing = Outcome::new("serve-hot", false);
        missing.check(Ok(()));
        assert!(!missing.correct());
    }

    #[test]
    fn document_round_trips_pretty_and_compact() {
        let doc = document(7, 12.0, &[sample()]);
        for text in [doc.pretty(), doc.compact()] {
            let parsed = Json::parse(&text).expect("document parses");
            assert_eq!(parsed.get("seed").and_then(Json::as_u64), Some(7));
            let host = parsed.get("host").expect("host block");
            for key in ["nproc", "cpu_model", "arch_os", "kernel", "git_rev", "git_dirty"] {
                assert!(host.get(key).is_some(), "host block has {key}");
            }
            let run = &parsed.get("runs").and_then(Json::as_arr).unwrap()[0];
            assert_eq!(run.get("succeeded").and_then(Json::as_u64), Some(2));
            let raw = run.get("raw").unwrap().get("ops_per_s").and_then(Json::as_arr).unwrap();
            assert_eq!(
                raw.iter().map(|v| v.as_f64().unwrap()).collect::<Vec<_>>(),
                [1.0, 2.5, 1e-7]
            );
        }
    }

    #[test]
    fn strings_are_escaped_and_non_finite_numbers_become_null() {
        let doc = J::obj([("a\"b", J::str("x\ny")), ("n", J::Num(f64::NAN))]);
        let parsed = Json::parse(&doc.compact()).unwrap();
        assert_eq!(parsed.get("a\"b").and_then(Json::as_str), Some("x\ny"));
        assert_eq!(parsed.get("n"), Some(&Json::Null));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |pairs: Vec<(&str, &str)>| -> Vec<(String, String)> {
            pairs.into_iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(
            listed("end_to_end"),
            own(END_TO_END.iter().map(|m| (m.name, m.unit)).collect())
        );
        assert_eq!(listed("per_layer"), own(PER_LAYER.to_vec()));
        for (m, listed) in
            END_TO_END.iter().zip(doc.get("end_to_end").and_then(Json::as_arr).unwrap())
        {
            assert_eq!(listed.get("bound").and_then(Json::as_f64), Some(m.bound), "{}", m.name);
            let better = if m.better == Better::Higher { "higher" } else { "lower" };
            assert_eq!(listed.get("better").and_then(Json::as_str), Some(better), "{}", m.name);
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
