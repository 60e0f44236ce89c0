//! Continuous telemetry: what the machine's sim-time sampler hands
//! out, its time-series ring, the Prometheus text and JSONL exporters,
//! and their validators (the JSONL one a reader `dash` uses too).
//!
//! End-of-run aggregates (the baseline schema, the `--json` report)
//! answer "how did the run do"; phase-level failures — readahead's
//! late-arrival collapse on transpose, a brownout shedding one tenant's
//! hints for a window — are invisible in totals. The sampler attached
//! to the machine reads its table of counters and gauges at a fixed
//! simulated interval into a [`TimeSeriesRing`], and hands the result
//! out as one [`Telemetry`] value. Sampling is *pull-based* and
//! entirely passive: nothing here ever advances the sim clock, so a run
//! with no sampler attached is bit-identical to one that never linked
//! this module.

use crate::hist::LatencyHist;
use crate::json::{self, Json};
use oocp_sim::time::Ns;

/// Schema tag written at the head of the JSONL time-series dump.
pub const METRICS_SCHEMA: &str = "oocp-metrics-v1";

/// Exported name and help text of [`Telemetry::fault_wait`].
const FAULT_WAIT: (&str, &str) = ("os.fault_wait_ns", "demand-fault stall distribution");

/// How a series' values evolve across samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesKind {
    /// Monotone running total.
    Counter,
    /// Instantaneous level.
    Gauge,
}

/// One sampled series.
#[derive(Clone, Debug)]
pub struct SeriesDef {
    /// Dotted series name, e.g. `disk0.queue_len`.
    pub name: String,
    /// Counter or gauge.
    pub kind: SeriesKind,
    /// One-line help text (the Prometheus `# HELP` line).
    pub help: &'static str,
}

/// What an attached sampler hands out: its series, their values at the
/// end of the run, the machine's demand-fault stall distribution, and
/// the rows sampled on the sim clock. Both exporters read this value.
#[derive(Clone, Debug)]
pub struct Telemetry {
    /// The sampled series, in row order.
    pub series: Vec<SeriesDef>,
    /// Each series' end-of-run value, aligned with `series`.
    pub values: Vec<u64>,
    /// Demand-fault stall distribution.
    pub fault_wait: LatencyHist,
    /// The sampled rows, each aligned with `series`.
    pub ring: TimeSeriesRing,
}

/// A bounded in-memory time series of sampled rows.
///
/// Rows are `(sim_time, values)`, every row `width` values wide, kept in
/// one flat buffer of at most `cap` rows. When the ring is full, a push
/// overwrites the oldest row and counts it dropped — a flight recorder,
/// like the trace — so its footprint is set by `cap`, not by the run's
/// length, and a push moves no other row.
#[derive(Clone, Debug)]
pub struct TimeSeriesRing {
    interval: Ns,
    width: usize,
    cap: usize,
    /// Up to `cap` rows of `1 + width` words, the stamp first. Once the
    /// ring is full, row `head` is the oldest.
    buf: Vec<u64>,
    head: usize,
    dropped: u64,
}

impl TimeSeriesRing {
    /// Create a ring sampling every `interval` ns, keeping at most
    /// `cap` rows of `width` values.
    ///
    /// # Panics
    ///
    /// Panics on a zero interval or capacity.
    pub fn new(interval: Ns, width: usize, cap: usize) -> Self {
        assert!(interval > 0, "sampling interval must be positive");
        assert!(cap > 0, "ring capacity must be positive");
        Self {
            interval,
            width,
            cap,
            buf: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    /// The sampling interval.
    pub fn interval(&self) -> Ns {
        self.interval
    }

    /// Append a row stamped `t`, overwriting the oldest when full.
    ///
    /// # Panics
    ///
    /// Panics unless `values` yields exactly the ring's width.
    pub fn push(&mut self, t: Ns, values: impl IntoIterator<Item = u64>) {
        let stride = self.width + 1;
        let at = if self.len() < self.cap {
            self.buf.resize(self.buf.len() + stride, 0);
            self.buf.len() - stride
        } else {
            let at = self.head * stride;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
            at
        };
        let row = &mut self.buf[at..at + stride];
        row[0] = t;
        let mut values = values.into_iter();
        for slot in &mut row[1..] {
            *slot = values.next().expect("row narrower than the ring");
        }
        assert!(values.next().is_none(), "row wider than the ring");
    }

    /// Retained rows, oldest first.
    pub fn rows(&self) -> impl DoubleEndedIterator<Item = (Ns, &[u64])> + ExactSizeIterator {
        let (stride, len) = (self.width + 1, self.len());
        (0..len).map(move |i| {
            let at = (self.head + i) % len * stride;
            (self.buf[at], &self.buf[at + 1..at + stride])
        })
    }

    /// Rows evicted by overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained rows.
    pub fn len(&self) -> usize {
        self.buf.len() / (self.width + 1)
    }

    /// Whether no rows were sampled.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Sanitize a dotted series name into a Prometheus metric name.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("oocp_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Render the telemetry's end-of-run state in the Prometheus text
/// exposition format: scalars as `counter`/`gauge`, the fault-wait
/// histogram as cumulative `_bucket{le=...}` series plus `_sum` and
/// `_count`.
pub fn prometheus_text(telemetry: &Telemetry) -> String {
    let mut out = String::new();
    for (d, v) in telemetry.series.iter().zip(&telemetry.values) {
        let name = prom_name(&d.name);
        let kind = match d.kind {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
        };
        out.push_str(&format!("# HELP {name} {}\n", d.help));
        out.push_str(&format!("# TYPE {name} {kind}\n"));
        out.push_str(&format!("{name} {v}\n"));
    }
    let (raw, help) = FAULT_WAIT;
    let h = &telemetry.fault_wait;
    let name = prom_name(raw);
    out.push_str(&format!("# HELP {name} {help}\n"));
    out.push_str(&format!("# TYPE {name} histogram\n"));
    let mut cum = 0u64;
    for (i, &c) in h.buckets().iter().enumerate() {
        if c == 0 {
            continue;
        }
        cum += c;
        let bound = LatencyHist::bucket_bound(i);
        if bound == Ns::MAX {
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cum}\n"));
        } else {
            out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cum}\n"));
        }
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
    out.push_str(&format!("{name}_sum {}\n", h.sum_ns()));
    out.push_str(&format!("{name}_count {}\n", h.count()));
    out
}

/// Render the sampled time series as JSONL: a header object
/// (`schema`, `interval_ns`, `dropped_rows`, `series`) followed by one
/// `{"t": ..., "v": [...]}` object per retained row.
pub fn jsonl_series(telemetry: &Telemetry) -> String {
    let ring = &telemetry.ring;
    let mut out = String::new();
    let header = Json::obj([
        ("schema", Json::Str(METRICS_SCHEMA.into())),
        ("interval_ns", Json::U64(ring.interval())),
        ("dropped_rows", Json::U64(ring.dropped())),
        (
            "series",
            Json::Arr(
                telemetry
                    .series
                    .iter()
                    .map(|d| Json::Str(d.name.clone()))
                    .collect(),
            ),
        ),
    ]);
    out.push_str(&header.to_string());
    out.push('\n');
    for (t, row) in ring.rows() {
        let obj = Json::obj([
            ("t", Json::U64(t)),
            ("v", Json::Arr(row.iter().map(|&v| Json::U64(v)).collect())),
        ]);
        out.push_str(&obj.to_string());
        out.push('\n');
    }
    out
}

/// Validate a Prometheus text dump: every sample line's metric must be
/// declared by a preceding `# TYPE`, and values must parse as numbers.
/// Returns the number of sample lines.
pub fn check_prometheus_text(text: &str) -> Result<usize, String> {
    let mut typed: Vec<String> = Vec::new();
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or(format!("line {n}: TYPE missing name"))?;
            let kind = it.next().ok_or(format!("line {n}: TYPE missing kind"))?;
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("line {n}: unknown TYPE kind '{kind}'"));
            }
            typed.push(name.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (metric, value) = line
            .rsplit_once(' ')
            .ok_or(format!("line {n}: malformed sample"))?;
        let base = metric.split('{').next().unwrap_or(metric);
        let base = base
            .strip_suffix("_bucket")
            .or_else(|| base.strip_suffix("_sum"))
            .or_else(|| base.strip_suffix("_count"))
            .unwrap_or(base);
        if !typed.iter().any(|t| t == base) {
            return Err(format!("line {n}: sample for undeclared metric '{base}'"));
        }
        value
            .parse::<f64>()
            .map_err(|_| format!("line {n}: non-numeric value '{value}'"))?;
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples in Prometheus dump".into());
    }
    Ok(samples)
}

/// Why a JSONL time-series dump failed [`read_jsonl`]. Row-level
/// variants carry the 1-based line number of the **first** offending
/// row so a corrupted capture can be located without re-parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonlError {
    /// The dump has no header line at all.
    Empty,
    /// The header line is broken: bad JSON, a missing field, an
    /// unknown schema tag, or a series name that is not a string. The
    /// payload says which.
    Header(String),
    /// A row is malformed: bad JSON, missing `t`/`v`, a value vector
    /// of the wrong width, or a non-integer value.
    Malformed { line: usize, reason: String },
    /// A row's timestamp is not a multiple of the header's
    /// `interval_ns` — the sampler only stamps on the interval grid.
    OffGrid {
        line: usize,
        t: u64,
        interval_ns: u64,
    },
    /// A row's timestamp does not follow its predecessor by exactly
    /// one `interval_ns` — retained rows must be contiguous (the ring
    /// evicts only from the front, never from the middle).
    Gap { line: usize, t: u64, expected: u64 },
}

impl std::fmt::Display for JsonlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonlError::Empty => write!(f, "empty JSONL dump"),
            JsonlError::Header(e) => write!(f, "header: {e}"),
            JsonlError::Malformed { line, reason } => write!(f, "line {line}: {reason}"),
            JsonlError::OffGrid {
                line,
                t,
                interval_ns,
            } => write!(
                f,
                "line {line}: timestamp {t} is not a multiple of interval_ns {interval_ns}"
            ),
            JsonlError::Gap { line, t, expected } => write!(
                f,
                "line {line}: timestamp {t} breaks contiguity (expected {expected})"
            ),
        }
    }
}

/// A JSONL time-series dump as [`read_jsonl`] reads it back.
#[derive(Clone, Debug)]
pub struct JsonlDump {
    /// The header's sampling interval.
    pub interval_ns: Ns,
    /// Rows the ring had evicted when the dump was written.
    pub dropped_rows: u64,
    /// Series names, in row order.
    pub series: Vec<String>,
    /// `(sim_time, values)` rows, oldest first, each as wide as `series`.
    pub rows: Vec<(Ns, Vec<u64>)>,
}

/// Read a JSONL time-series dump produced by [`jsonl_series`]: correct
/// schema tag, every row's value vector as wide as the header's series
/// list, and timestamps that sit on **contiguous** multiples of the
/// header's `interval_ns` — the sampler stamps a row at every interval
/// boundary it crosses and the ring evicts only its oldest rows, so the
/// first retained row may be any grid point but each successive row
/// must be exactly one interval later (which also makes them strictly
/// increasing). The error names the first bad row.
pub fn read_jsonl(text: &str) -> Result<JsonlDump, JsonlError> {
    let mut lines = text.lines();
    let header = json::parse(lines.next().ok_or(JsonlError::Empty)?)
        .map_err(|e| JsonlError::Header(e.to_string()))?;
    let missing = |what: &str| JsonlError::Header(format!("missing {what}"));
    let schema = header
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| missing("schema"))?;
    if schema != METRICS_SCHEMA {
        return Err(JsonlError::Header(format!(
            "unknown metrics schema '{schema}'"
        )));
    }
    let interval_ns = header
        .get("interval_ns")
        .and_then(Json::as_u64)
        .filter(|&i| i > 0)
        .ok_or_else(|| missing("positive interval_ns"))?;
    let dropped_rows = header
        .get("dropped_rows")
        .and_then(Json::as_u64)
        .ok_or_else(|| missing("dropped_rows"))?;
    let series = header
        .get("series")
        .and_then(Json::as_arr)
        .ok_or_else(|| missing("series list"))?
        .iter()
        .map(|n| n.as_str().map(str::to_string))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| JsonlError::Header("non-string series name".into()))?;
    let mut rows: Vec<(Ns, Vec<u64>)> = Vec::new();
    for (i, line) in lines.enumerate() {
        let n = i + 2;
        let malformed = |reason: String| JsonlError::Malformed { line: n, reason };
        let row = json::parse(line).map_err(|e| malformed(e.to_string()))?;
        let t = row
            .get("t")
            .and_then(Json::as_u64)
            .ok_or_else(|| malformed("row missing t".into()))?;
        if !t.is_multiple_of(interval_ns) {
            return Err(JsonlError::OffGrid {
                line: n,
                t,
                interval_ns,
            });
        }
        if let Some(&(prev, _)) = rows.last() {
            let expected = prev + interval_ns;
            if t != expected {
                return Err(JsonlError::Gap {
                    line: n,
                    t,
                    expected,
                });
            }
        }
        let v = row
            .get("v")
            .and_then(Json::as_arr)
            .ok_or_else(|| malformed("row missing v".into()))?;
        if v.len() != series.len() {
            return Err(malformed(format!(
                "row width {} != series width {}",
                v.len(),
                series.len()
            )));
        }
        let v = v
            .iter()
            .map(Json::as_u64)
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| malformed("non-integer value in row".into()))?;
        rows.push((t, v));
    }
    Ok(JsonlDump {
        interval_ns,
        dropped_rows,
        series,
        rows,
    })
}

/// Validate a JSONL time-series dump with [`read_jsonl`]; returns the
/// number of rows.
pub fn check_jsonl(text: &str) -> Result<usize, JsonlError> {
    read_jsonl(text).map(|d| d.rows.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str, kind: SeriesKind, help: &'static str) -> SeriesDef {
        SeriesDef {
            name: name.to_string(),
            kind,
            help,
        }
    }

    fn sample_telemetry() -> Telemetry {
        let mut fault_wait = LatencyHist::new();
        fault_wait.record(1_000);
        fault_wait.record(0);
        let mut ring = TimeSeriesRing::new(1_000, 2, 16);
        ring.push(1_000, [4, 2]);
        ring.push(2_000, [5, 3]);
        Telemetry {
            series: vec![
                def("os.hard_faults", SeriesKind::Counter, "demand faults"),
                def("disk0.queue_len", SeriesKind::Gauge, "queued requests"),
            ],
            values: vec![5, 3],
            fault_wait,
            ring,
        }
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut ring = TimeSeriesRing::new(100, 1, 2);
        ring.push(100, [1]);
        ring.push(200, [2]);
        ring.push(300, [3]);
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.rows().next().unwrap().0, 200, "oldest evicted first");

        // Many overflows, at every phase of the ring: the newest `cap`
        // rows remain, contiguous and in order, and every push past
        // `cap` is one drop.
        for cap in [1, 3, 7] {
            let mut ring = TimeSeriesRing::new(10, 2, cap);
            for n in 1..=100u64 {
                ring.push(10 * n, [n, n * n]);
                let kept = (n as usize).min(cap);
                assert_eq!(ring.len(), kept);
                assert_eq!(ring.dropped(), n - kept as u64, "cap {cap} after {n}");
                let want: Vec<(Ns, Vec<u64>)> = (n + 1 - kept as u64..=n)
                    .map(|k| (10 * k, vec![k, k * k]))
                    .collect();
                let got: Vec<(Ns, Vec<u64>)> = ring.rows().map(|(t, v)| (t, v.to_vec())).collect();
                assert_eq!(got, want, "cap {cap} after {n}");
                assert_eq!(ring.rows().next_back().unwrap().0, 10 * n);
            }
        }
    }

    #[test]
    #[should_panic(expected = "row narrower than the ring")]
    fn ring_refuses_a_row_of_the_wrong_width() {
        TimeSeriesRing::new(10, 2, 4).push(10, [1]);
    }

    #[test]
    fn prometheus_export_validates() {
        let text = prometheus_text(&sample_telemetry());
        assert!(text.contains("# TYPE oocp_os_hard_faults counter"));
        assert!(text.contains("oocp_disk0_queue_len 3"));
        assert!(text.contains("oocp_os_fault_wait_ns_count 2"));
        assert!(text.contains("le=\"+Inf\"} 2"));
        let n = check_prometheus_text(&text).expect("valid dump");
        assert!(n >= 4);
    }

    #[test]
    fn prometheus_checker_rejects_undeclared_metrics() {
        assert!(check_prometheus_text("oocp_mystery 1\n").is_err());
        assert!(check_prometheus_text("").is_err());
    }

    #[test]
    fn jsonl_export_roundtrips_through_checker() {
        let text = jsonl_series(&sample_telemetry());
        assert_eq!(check_jsonl(&text).unwrap(), 2);
    }

    #[test]
    fn jsonl_reader_returns_exactly_the_rings_rows() {
        // An overflowed ring, so the first row read back is not the
        // first row sampled.
        let mut t = sample_telemetry();
        t.ring = TimeSeriesRing::new(1_000, 2, 5);
        for n in 3..40u64 {
            t.ring.push(n * 1_000, [n, 40 - n]);
        }
        let dump = read_jsonl(&jsonl_series(&t)).unwrap();
        assert_eq!(dump.interval_ns, 1_000);
        assert_eq!(dump.dropped_rows, t.ring.dropped());
        assert_eq!(dump.series, ["os.hard_faults", "disk0.queue_len"]);
        let rows: Vec<(Ns, Vec<u64>)> = t.ring.rows().map(|(t, v)| (t, v.to_vec())).collect();
        assert_eq!(dump.rows, rows);
        assert_eq!(dump.rows[0].0, 35_000);
    }

    #[test]
    fn jsonl_checker_rejects_width_and_order_violations() {
        let mut t = sample_telemetry();
        t.ring = TimeSeriesRing::new(1_000, 1, 16);
        t.ring.push(1_000, [1]); // too narrow for 2 series
        assert!(check_jsonl(&jsonl_series(&t)).is_err());
        let bad_order = format!(
            "{}\n{}\n{}\n",
            Json::obj([
                ("schema", Json::Str(METRICS_SCHEMA.into())),
                ("interval_ns", Json::U64(10)),
                ("dropped_rows", Json::U64(0)),
                ("series", Json::Arr(vec![Json::Str("a".into())])),
            ]),
            "{\"t\":20,\"v\":[1]}",
            "{\"t\":10,\"v\":[1]}",
        );
        assert_eq!(
            check_jsonl(&bad_order),
            Err(JsonlError::Gap {
                line: 3,
                t: 10,
                expected: 30
            })
        );
    }

    #[test]
    fn jsonl_checker_names_first_off_grid_and_gapped_row() {
        let header = Json::obj([
            ("schema", Json::Str(METRICS_SCHEMA.into())),
            ("interval_ns", Json::U64(100)),
            ("dropped_rows", Json::U64(0)),
            ("series", Json::Arr(vec![Json::Str("a".into())])),
        ]);
        // A first retained row at any grid point is fine (the ring may
        // have evicted everything before it)...
        let ok = format!("{header}\n{{\"t\":700,\"v\":[1]}}\n{{\"t\":800,\"v\":[2]}}\n");
        assert_eq!(check_jsonl(&ok).unwrap(), 2);
        // ...but a timestamp off the interval grid is named exactly...
        let off = format!("{header}\n{{\"t\":700,\"v\":[1]}}\n{{\"t\":850,\"v\":[2]}}\n");
        assert_eq!(
            check_jsonl(&off),
            Err(JsonlError::OffGrid {
                line: 3,
                t: 850,
                interval_ns: 100
            })
        );
        // ...and so is a skipped interval, even though both rows sit
        // on the grid and increase monotonically.
        let gap = format!("{header}\n{{\"t\":700,\"v\":[1]}}\n{{\"t\":900,\"v\":[2]}}\n");
        assert_eq!(
            check_jsonl(&gap),
            Err(JsonlError::Gap {
                line: 3,
                t: 900,
                expected: 800
            })
        );
        assert!(check_jsonl("").unwrap_err().to_string().contains("empty"));
    }
}
