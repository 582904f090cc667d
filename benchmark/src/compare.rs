//! `benchmark compare A.json B.json`: per workload × end-to-end metric,
//! both values, the ratio with its base, the bound, and a verdict.
//!
//! * `worse` — B's value is worse than A's by more than the bound;
//! * `unresolved` — the raw per-pass spread (distance between quartiles ÷
//!   median) inside either file is wider than the bound, and not every pass
//!   of B reads better than every pass of A — nor every pass worse, which
//!   would still settle it;
//! * `ok` — otherwise.
//!
//! Exits non-zero on any `worse`.

use scube::daemon::json::Json;

use crate::stats::quartile_spread;
use crate::Res;

/// The three verdicts of one workload × metric row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse by more than the bound.
    Worse,
    /// The noise inside the files is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Values in A and B.
    pub values: (f64, f64),
    /// The metric's regression bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Decide one row. `higher` says which direction is better; the raw arrays
/// are the per-pass values behind `a` and `b` (empty for exact metrics).
pub fn verdict(a: f64, b: f64, raw_a: &[f64], raw_b: &[f64], higher: bool, bound: f64) -> Verdict {
    let worse_by = if higher { (a - b) / a } else { (b - a) / a };
    let better = |x: f64, y: f64| if higher { x > y } else { x < y };
    let every = |pred: &dyn Fn(f64, f64) -> bool| {
        !raw_a.is_empty()
            && !raw_b.is_empty()
            && raw_b.iter().all(|&y| raw_a.iter().all(|&x| pred(y, x)))
    };
    let noisy = [raw_a, raw_b].iter().any(|raw| quartile_spread(raw).is_some_and(|s| s > bound));
    if noisy && !every(&better) && !(worse_by > bound && every(&|y, x| better(x, y))) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn numbers(array: Option<&Json>) -> Vec<f64> {
    array
        .and_then(Json::as_arr)
        .map_or_else(Vec::new, |a| a.iter().filter_map(Json::as_f64).collect())
}

/// The untraced run of `workload` in an `--out` document.
fn untraced<'a>(doc: &'a Json, workload: &str) -> Option<&'a Json> {
    doc.get("runs")?.as_arr()?.iter().find(|run| {
        run.get("workload").and_then(Json::as_str) == Some(workload)
            && run.get("phase").and_then(Json::as_str) == Some("untraced")
    })
}

/// Compare two `--out` documents. The metric list, directions and bounds
/// come from A, the base.
pub fn compare(a: &Json, b: &Json) -> Res<Vec<Row>> {
    let metrics =
        a.get("end_to_end").and_then(Json::as_arr).ok_or("A lists no end_to_end metrics")?;
    let runs = a.get("runs").and_then(Json::as_arr).ok_or("A has no runs")?;
    let mut rows = Vec::new();
    for run in runs.iter().filter(|r| r.get("phase").and_then(Json::as_str) == Some("untraced")) {
        let workload =
            run.get("workload").and_then(Json::as_str).ok_or("a run without a workload")?;
        let Some(other) = untraced(b, workload) else { continue };
        for m in metrics {
            let name = m.get("name").and_then(Json::as_str).ok_or("a metric without a name")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("a metric without a bound")?;
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let value =
                |run: &Json| run.get("metrics")?.get(name)?.get("value").and_then(Json::as_f64);
            let (Some(va), Some(vb)) = (value(run), value(other)) else { continue };
            let raw = |run: &Json| numbers(run.get("raw").and_then(|r| r.get(name)));
            rows.push(Row {
                workload: workload.to_string(),
                metric: name.to_string(),
                values: (va, vb),
                bound,
                verdict: verdict(va, vb, &raw(run), &raw(other), higher, bound),
            });
        }
    }
    Ok(rows)
}

fn load(path: &str) -> Res<Json> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The `compare` verb. `Ok(false)` when any row is `worse`.
pub fn run(args: &[String]) -> Res<bool> {
    let [a, b] = args else { return Err("compare takes two files: A.json B.json".into()) };
    let rows = compare(&load(a)?, &load(b)?)?;
    if rows.is_empty() {
        return Err("the two files share no workload and metric".into());
    }
    println!(
        "{:<15} {:<25} {:>16} {:>16} {:>12} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    for r in &rows {
        println!(
            "{:<15} {:<25} {:>16.4} {:>16.4} {:>12.4} {:>6}  {}",
            r.workload,
            r.metric,
            r.values.0,
            r.values.1,
            r.values.1 / r.values.0,
            r.bound,
            r.verdict.name()
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} unresolved, {} worse (ratios are B/A, base A = {a})",
        count(Verdict::Ok),
        count(Verdict::Unresolved),
        count(Verdict::Worse)
    );
    Ok(count(Verdict::Worse) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{document, Outcome, END_TO_END};

    #[test]
    fn quiet_files_within_the_bound_are_ok_and_beyond_it_worse() {
        let steady = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            verdict(100.0, 95.0, &steady, &[95.0, 94.0, 96.0, 95.0], true, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(100.0, 85.0, &steady, &[85.0, 84.0, 86.0, 85.0], true, 0.10),
            Verdict::Worse
        );
        // Lower is better: a latency that grew by a fifth.
        assert_eq!(verdict(10.0, 12.0, &[10.0, 10.1], &[12.0, 12.1], false, 0.10), Verdict::Worse);
        assert_eq!(verdict(10.0, 9.0, &[10.0, 10.1], &[9.0, 9.1], false, 0.10), Verdict::Ok);
        // Exact metrics carry no raw arrays.
        assert_eq!(verdict(440.0, 441.0, &[], &[], false, 0.005), Verdict::Ok);
        assert_eq!(verdict(440.0, 450.0, &[], &[], false, 0.005), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_pass_settles_it() {
        let noisy_a = [60.0, 100.0, 80.0, 70.0];
        // Overlapping passes: nothing can be said either way.
        assert_eq!(
            verdict(100.0, 85.0, &noisy_a, &[85.0, 65.0, 75.0, 55.0], true, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(100.0, 99.0, &noisy_a, &[99.0, 65.0, 75.0, 55.0], true, 0.10),
            Verdict::Unresolved
        );
        // Every pass of B beats every pass of A.
        assert_eq!(
            verdict(100.0, 140.0, &noisy_a, &[140.0, 101.0, 120.0, 110.0], true, 0.10),
            Verdict::Ok
        );
        // Every pass of B loses to every pass of A, by more than the bound.
        assert_eq!(
            verdict(100.0, 50.0, &noisy_a, &[50.0, 30.0, 40.0, 35.0], true, 0.10),
            Verdict::Worse
        );
    }

    fn file(ops: f64, raw: &[f64]) -> Json {
        let mut o = Outcome::new("serve-hot", false);
        o.check(Ok(()));
        for m in END_TO_END {
            o.set(m.name, 10.0);
        }
        o.set("ops_per_s", ops);
        o.raw.push(("ops_per_s", raw.to_vec()));
        Json::parse(&document(1, 10.0, &[o]).pretty()).unwrap()
    }

    #[test]
    fn hand_made_files_compare_row_by_row() {
        let a = file(100.0, &[100.0, 99.0, 101.0, 100.0]);
        let rows = compare(&a, &file(70.0, &[70.0, 69.0, 71.0, 70.0])).unwrap();
        assert_eq!(rows.len(), END_TO_END.len());
        let ops = rows.iter().find(|r| r.metric == "ops_per_s").unwrap();
        assert_eq!((ops.values, ops.bound, ops.verdict), ((100.0, 70.0), 0.25, Verdict::Worse));
        assert!(rows.iter().filter(|r| r.metric != "ops_per_s").all(|r| r.verdict == Verdict::Ok));

        let same = compare(&a, &a).unwrap();
        assert!(same.iter().all(|r| r.verdict == Verdict::Ok));
        let noisy = compare(&a, &file(95.0, &[95.0, 45.0, 110.0, 60.0])).unwrap();
        assert_eq!(
            noisy.iter().find(|r| r.metric == "ops_per_s").unwrap().verdict,
            Verdict::Unresolved
        );
    }
}
