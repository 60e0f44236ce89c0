//! Host-time spans recorded around the benchmark's calls into each
//! crate. Spans live in memory and are written out when the run ends;
//! a layer's self time is its span minus what its children cover.

use std::time::Instant;

use oocp_obs::Json;

/// One timed interval. `parent` is the span that was open when this one
/// started; spans of one cell share `cell`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub cell: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Work a child layer did inside a span, aggregated over many calls
/// too short to be spans of their own (the `rt.*` boundary calls the
/// interpreter makes). Counts as a child when taking self time.
#[derive(Clone, Debug, PartialEq)]
pub struct Aggregate {
    pub parent: usize,
    pub name: &'static str,
    pub calls: u64,
    pub busy_ns: u64,
}

/// The in-memory recorder.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    aggregates: Vec<Aggregate>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            aggregates: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, cell: &str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            cell: cell.to_string(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`; returns its
    /// duration in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].dur_ns() as f64 / 1e9
    }

    /// Time `f` as a span; returns its result and duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, cell: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name, cell);
        let out = f();
        (out, self.exit(id))
    }

    /// Number of spans currently open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close open spans down to `depth`: a panic unwound past their
    /// exits.
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            let innermost = self.open[self.open.len() - 1];
            self.exit(innermost);
        }
    }

    /// Attach aggregated child work to span `parent`.
    pub fn aggregate(&mut self, parent: usize, name: &'static str, calls: u64, busy_ns: u64) {
        self.aggregates.push(Aggregate {
            parent,
            name,
            calls,
            busy_ns,
        });
    }

    /// Self time of a span: its duration minus its child spans and
    /// aggregated child work (saturating, since aggregates are
    /// estimates and may overshoot a short span).
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .chain(
                self.aggregates
                    .iter()
                    .filter(|a| a.parent == id)
                    .map(|a| a.busy_ns),
            )
            .sum();
        self.spans[id].dur_ns().saturating_sub(children)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace document written to `out/trace-<workload>.json`.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::U64(s.id as u64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                    ),
                    ("name", Json::Str(s.name.to_string())),
                    ("cell", Json::Str(s.cell.clone())),
                    ("start_ns", Json::U64(s.start_ns)),
                    ("end_ns", Json::U64(s.end_ns)),
                    ("self_ns", Json::U64(self.self_ns(s.id))),
                ])
            })
            .collect();
        let aggregates = self
            .aggregates
            .iter()
            .map(|a| {
                Json::obj([
                    ("parent", Json::U64(a.parent as u64)),
                    ("name", Json::Str(a.name.to_string())),
                    ("cell", Json::Str(self.spans[a.parent].cell.clone())),
                    ("calls", Json::U64(a.calls)),
                    ("busy_ns", Json::U64(a.busy_ns)),
                ])
            })
            .collect();
        Json::obj([
            ("spans", Json::Arr(spans)),
            ("aggregates", Json::Arr(aggregates)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-set times, so the arithmetic is exact.
    fn fixture() -> Spans {
        let mut s = Spans::new();
        let cell = s.enter("cell", "c");
        let exec = s.enter("ir.exec", "c");
        s.exit(exec);
        let fin = s.enter("os.finish", "c");
        s.exit(fin);
        s.exit(cell);
        for (id, start, end) in [(cell, 0, 1000), (exec, 100, 700), (fin, 700, 900)] {
            s.spans[id].start_ns = start;
            s.spans[id].end_ns = end;
        }
        s
    }

    #[test]
    fn parents_follow_nesting() {
        let s = fixture();
        assert_eq!(s.spans()[0].parent, None);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert_eq!(s.spans()[2].parent, Some(0));
    }

    #[test]
    fn self_time_subtracts_child_spans() {
        let s = fixture();
        // 1000 - (600 + 200)
        assert_eq!(s.self_ns(0), 200);
        assert_eq!(s.self_ns(1), 600);
    }

    #[test]
    fn self_time_subtracts_aggregates_and_saturates() {
        let mut s = fixture();
        s.aggregate(1, "rt.load", 10, 250);
        s.aggregate(1, "rt.store", 5, 100);
        assert_eq!(s.self_ns(1), 250);
        // The parent's self time is unaffected by a grandchild.
        assert_eq!(s.self_ns(0), 200);
        s.aggregate(2, "rt.load", 1, 10_000);
        assert_eq!(s.self_ns(2), 0);
    }

    #[test]
    fn json_carries_every_span_and_aggregate() {
        let mut s = fixture();
        s.aggregate(1, "rt.load", 10, 250);
        let j = s.to_json();
        assert_eq!(j.get("spans").unwrap().as_arr().unwrap().len(), 3);
        let agg = &j.get("aggregates").unwrap().as_arr().unwrap()[0];
        assert_eq!(agg.get("cell").unwrap().as_str(), Some("c"));
        assert_eq!(agg.get("busy_ns").unwrap().as_u64(), Some(250));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut s = Spans::new();
        let a = s.enter("a", "c");
        let _b = s.enter("b", "c");
        s.exit(a);
    }
}
