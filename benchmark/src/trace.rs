//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer's public functions (spans inside the program are
//! ROADMAP item 1, a later change).
//!
//! A span is `id, parent, name, workload, pass, start_ns, end_ns`. Stage
//! spans nest under the rep or request that caused them and partition it;
//! *probe* spans time one layer in isolation next to the staged run and
//! are never summed into it. A span's self time is its duration minus the
//! part of that interval its children cover.

use std::time::Instant;

use crate::report::J;

/// Whether a span is part of the staged run or an isolated measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Part of the traced rep/request; siblings partition their parent.
    Stage,
    /// An isolated layer measurement; excluded from every staged total.
    Probe,
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Position in the tracer's span list.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `fpm.mine`.
    pub name: &'static str,
    /// Pass or rep number the span belongs to.
    pub pass: u32,
    /// Stage or probe.
    pub kind: Kind,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock length in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder of one workload's traced run.
#[derive(Debug)]
pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Tracer {
    /// An empty recorder for `workload`; its clock starts now.
    pub fn new(workload: &'static str) -> Self {
        Tracer { workload, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), pass: 0 }
    }

    /// Tag spans opened from now on with `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; close it with [`exit`].
    ///
    /// [`exit`]: Tracer::exit
    pub fn enter(&mut self, name: &'static str, kind: Kind) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            pass: self.pass,
            kind,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Run `f` inside a stage span.
    pub fn stage<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.scoped(name, Kind::Stage, f)
    }

    /// Run `f` inside a probe span.
    pub fn probe<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.scoped(name, Kind::Probe, f)
    }

    fn scoped<T>(&mut self, name: &'static str, kind: Kind, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.enter(name, kind);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Add a closed top-level stage span measured elsewhere (another
    /// thread's interval), clamped to this tracer's clock.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let ns = |at: Instant| at.saturating_duration_since(self.origin).as_nanos() as u64;
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: None,
            name,
            pass: self.pass,
            kind: Kind::Stage,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of the spans called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
    }

    /// Summed duration of the spans called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().fold(0.0, |sum, d| sum + d) / 1e9
    }

    /// Mean duration of the spans called `name`, in ns (0 when none ran).
    pub fn mean_ns(&self, name: &str) -> f64 {
        crate::stats::mean(&self.durations_ns(name))
    }

    /// Self time of span `id` in ns: its duration minus the part of its
    /// interval that its stage children cover (overlaps counted once).
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id) && c.kind == Kind::Stage)
            .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
            .filter(|(s, e)| e > s)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (s, e) in children {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        span.duration_ns() - covered
    }

    /// The spans for `<out>.trace.json`: the column names once, then one
    /// row per span (a traced serve run records some 10⁵ of them).
    pub fn to_json(&self) -> J {
        let columns = ["id", "parent", "name", "workload", "pass", "kind", "start_ns", "end_ns"];
        let rows = self.spans.iter().map(|s| {
            J::Arr(vec![
                J::Int(s.id as u64),
                s.parent.map_or(J::Null, |p| J::Int(p as u64)),
                J::str(s.name),
                J::str(self.workload),
                J::Int(u64::from(s.pass)),
                J::str(if s.kind == Kind::Stage { "stage" } else { "probe" }),
                J::Int(s.start_ns),
                J::Int(s.end_ns),
            ])
        });
        J::obj([
            ("columns", J::Arr(columns.into_iter().map(J::str).collect())),
            ("spans", J::Arr(rows.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-set intervals: (name, parent, kind, start, end).
    fn tracer(spans: &[(&'static str, Option<usize>, Kind, u64, u64)]) -> Tracer {
        let mut t = Tracer::new("test");
        for (id, &(name, parent, kind, start_ns, end_ns)) in spans.iter().enumerate() {
            t.spans.push(Span { id, parent, name, pass: 0, kind, start_ns, end_ns });
        }
        t
    }

    #[test]
    fn self_time_subtracts_adjacent_children() {
        let t = tracer(&[
            ("rep", None, Kind::Stage, 0, 100),
            ("a", Some(0), Kind::Stage, 10, 40),
            ("b", Some(0), Kind::Stage, 40, 90),
        ]);
        assert_eq!(t.self_ns(0), 20);
        assert_eq!(t.self_ns(1), 30);
    }

    #[test]
    fn self_time_counts_only_direct_children_and_nested_grandchildren_once() {
        let t = tracer(&[
            ("rep", None, Kind::Stage, 0, 100),
            ("build", Some(0), Kind::Stage, 0, 80),
            ("mine", Some(1), Kind::Stage, 5, 55),
        ]);
        assert_eq!(t.self_ns(0), 20);
        assert_eq!(t.self_ns(1), 30);
        assert_eq!(t.self_ns(2), 50);
    }

    #[test]
    fn self_time_ignores_probes_and_merges_overlap() {
        let t = tracer(&[
            ("rep", None, Kind::Stage, 0, 100),
            ("a", Some(0), Kind::Stage, 10, 50),
            ("b", Some(0), Kind::Stage, 30, 70),
            ("isolated", Some(0), Kind::Probe, 70, 100),
        ]);
        assert_eq!(t.self_ns(0), 40);
    }

    #[test]
    fn the_trace_file_lists_columns_once_and_one_row_per_span() {
        use scube::daemon::json::Json;
        let t = tracer(&[
            ("rep", None, Kind::Stage, 0, 100),
            ("fpm.mine", Some(0), Kind::Probe, 10, 40),
        ]);
        let doc = Json::parse(&t.to_json().pretty()).expect("trace parses");
        let columns = doc.get("columns").and_then(Json::as_arr).unwrap();
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 2);
        let row = spans[1].as_arr().unwrap();
        assert_eq!(row.len(), columns.len());
        let field = |name: &str| {
            &row[columns.iter().position(|c| c.as_str() == Some(name)).expect("column exists")]
        };
        assert_eq!(field("parent").as_u64(), Some(0));
        assert_eq!(field("name").as_str(), Some("fpm.mine"));
        assert_eq!(field("workload").as_str(), Some("test"));
        assert_eq!(field("kind").as_str(), Some("probe"));
        assert_eq!((field("start_ns").as_u64(), field("end_ns").as_u64()), (Some(10), Some(40)));
        assert_eq!(spans[0].as_arr().unwrap()[1], Json::Null);
    }

    #[test]
    fn scoped_spans_nest_and_sum_by_name() {
        let mut t = Tracer::new("test");
        t.set_pass(3);
        t.stage("rep", |t| {
            t.stage("a", |_| ());
            t.stage("a", |_| ());
            t.probe("p", |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].parent, s[1].parent, s[3].parent), (None, Some(0), Some(0)));
        assert_eq!(s[3].kind, Kind::Probe);
        assert!(s.iter().all(|x| x.pass == 3 && x.end_ns >= x.start_ns));
        assert_eq!(t.durations_ns("a").len(), 2);
        assert_eq!(t.mean_ns("missing"), 0.0);
        assert!(t.self_ns(0) <= s[0].duration_ns());
    }
}
