//! Cross-layer observability for the out-of-core prefetching simulator.
//!
//! The paper's headline results are *breakdowns*, not single numbers:
//! Figure 5 decomposes execution time into compute / I/O stall /
//! prefetch overhead, and Figures 6-8 classify prefetches as timely,
//! late, or dropped. This crate provides the zero-dependency building
//! blocks every layer records into:
//!
//! * [`LatencyHist`] — fixed-bucket log2 latency histograms with exact
//!   sums and p50/p95/p99/max estimation, cheap enough to keep always-on
//!   in the disk model and optionally in the OS.
//! * [`PrefetchLedger`] — follows every issued prefetch page from issue
//!   through {timely hit, late-but-inflight, dropped, wasted}, keeping
//!   the Figure 6/7 effectiveness partition as a checked invariant.
//! * [`TimeAttribution`] — bins every simulated nanosecond of a run
//!   into compute / demand stall / late-prefetch stall / overhead
//!   buckets that sum exactly to end-to-end elapsed time.
//! * [`json`] — a hand-rolled JSON value type (writer *and* parser) so
//!   run reports and Chrome trace-event files need no external crates.
//! * [`baseline`] — the *across-run* layer: versioned `oocp-bench-v4`
//!   performance baselines (`BENCH_<n>.json`) whose schema is one table
//!   per JSON block, an identical-by-default diff that pairs metrics by
//!   name with explicit per-metric allowances, and drift classification
//!   for the perfgate regression gate.
//! * [`tracediff`] — aligns two Chrome trace exports by prefetch span
//!   id and reports the first divergent lifecycle event, turning a
//!   metric regression into a timeline location.
//! * [`registry`] — the *continuous* layer: the machine's sampler
//!   reads its series on the sim clock into a bounded time-series ring
//!   and hands out one [`Telemetry`] value, which the Prometheus/JSONL
//!   exporters read; one JSONL reader serves the validator and `dash`.
//! * [`whylate`] — causal attribution: every late, dropped, or wasted
//!   prefetch gets exactly one dominant cause, partition-checked
//!   against the ledger.
//! * [`prof`] — the *host-time* layer: scoped, monomorphized probes
//!   attribute wall-clock nanoseconds to a site tree (kernel → loop →
//!   statement → opcode class, plus machine-side buckets), with
//!   collapsed-stack export, merge, and differential alignment.
//! * [`flame`] — renders a [`prof::Profile`] as a self-contained SVG
//!   flamegraph.
//!
//! Everything here is passive bookkeeping: recording never advances the
//! simulated clock, so enabling observability cannot change a single
//! simulated timestamp or computed result (property-tested at the
//! workspace level).

pub mod attr;
pub mod baseline;
pub mod flame;
pub mod hist;
pub mod json;
pub mod ledger;
pub mod prof;
pub mod registry;
pub mod tracediff;
pub mod whylate;

pub use attr::TimeAttribution;
pub use baseline::{
    Allowance, Baseline, BaselineRun, CompareReport, HistSummary, ProfileSummary, RedundancySummary,
};
pub use flame::flamegraph_svg;
pub use hist::LatencyHist;
pub use json::Json;
pub use ledger::{
    IssueCtx, LateCause, LedgerCounts, PrefetchLedger, ISSUE_DEGRADED, ISSUE_REBUILD_ACTIVE,
};
pub use prof::{
    check_collapsed, HostProf, MachineBucket, MachineProf, NoProf, ProfSink, Profile, PROF_SCHEMA,
};
pub use registry::{
    check_jsonl, check_prometheus_text, jsonl_series, prometheus_text, read_jsonl, JsonlDump,
    JsonlError, SeriesDef, SeriesKind, Telemetry, TimeSeriesRing, METRICS_SCHEMA,
};
pub use tracediff::{Divergence, SpanRecord};
pub use whylate::{WhylateSummary, WHYLATE_CAUSES, WHYLATE_NAMES};
