//! Versioned performance baselines: the across-run half of the
//! observability story.
//!
//! The within-run layer (attribution, ledger, histograms) explains one
//! execution; this module makes those numbers *comparable across
//! commits*. A capture run of the benchmark matrix is serialized as an
//! `oocp-bench-v4` document (`BENCH_<n>.json` at the repo root); a
//! later compare run re-executes the same matrix and diffs every metric
//! against the stored trajectory entry. The simulator is deterministic,
//! so the default contract is *identical-by-default*: any drift at all
//! is a gate finding unless an explicit [`Allowance`] (from a
//! `--allow metric=pct` flag or a checked-in `perf-allowances.toml`)
//! declares the change intentional and bounds it.
//!
//! Only the current schema loads. `BENCH_1`–`BENCH_6` (v1–v3) stay in
//! the tree as read-only history of the trajectory and are rejected by
//! their tag; `BENCH_7.json` is the gate.
//!
//! Direction matters for reading a report, not for gating: a lower
//! elapsed time is an *improvement* and a higher one a *regression*,
//! but both are drift and both fail the gate until the baseline is
//! re-captured — that is what keeps the committed trajectory honest.

use crate::{Json, LatencyHist, LedgerCounts, TimeAttribution, WhylateSummary};

/// The schema identifier, written by every capture and the only one
/// accepted on read. Optional per-run blocks (`whylate`,
/// `sim_throughput`, the report-only `profile`, `redundancy`) are each
/// complete or absent, and their metrics ride strictly behind the
/// always-present ones so positional compare stays aligned between
/// cells with and without them.
pub const SCHEMA_V4: &str = "oocp-bench-v4";

/// Compact summary of a [`LatencyHist`]: the quantiles the trajectory
/// tracks, without the 64 raw buckets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Median estimate.
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

impl HistSummary {
    /// Summarize a live histogram.
    pub fn of(h: &LatencyHist) -> Self {
        Self {
            count: h.count(),
            p50: h.p50(),
            p95: h.p95(),
            p99: h.p99(),
        }
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("count", Json::U64(self.count)),
            ("p50_ns", Json::U64(self.p50)),
            ("p95_ns", Json::U64(self.p95)),
            ("p99_ns", Json::U64(self.p99)),
        ])
    }

    fn parse(v: &Json, ctx: &str) -> Result<Self, String> {
        Ok(Self {
            count: req_u64(v, "count", ctx)?,
            p50: req_u64(v, "p50_ns", ctx)?,
            p95: req_u64(v, "p95_ns", ctx)?,
            p99: req_u64(v, "p99_ns", ctx)?,
        })
    }
}

/// Multi-tenant summary of a co-scheduled run: the fairness numbers
/// the `tenants` bench gates on, folded into the trajectory so quota
/// and arbitration changes are visible across commits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantSummary {
    /// Tenants co-scheduled in the cell.
    pub count: u64,
    /// Worst per-tenant p95 demand stall across the fleet.
    pub p95_stall_max_ns: u64,
    /// Hints dropped by per-tenant quota enforcement.
    pub hints_dropped_quota: u64,
    /// Hints shed by the pressure arbiter.
    pub hints_dropped_pressure: u64,
    /// Frames an over-quota tenant recycled from its own segment.
    pub quota_evictions: u64,
}

impl TenantSummary {
    fn to_json(self) -> Json {
        Json::obj([
            ("count", Json::U64(self.count)),
            ("p95_stall_max_ns", Json::U64(self.p95_stall_max_ns)),
            ("hints_dropped_quota", Json::U64(self.hints_dropped_quota)),
            (
                "hints_dropped_pressure",
                Json::U64(self.hints_dropped_pressure),
            ),
            ("quota_evictions", Json::U64(self.quota_evictions)),
        ])
    }

    fn parse(v: &Json, ctx: &str) -> Result<Self, String> {
        Ok(Self {
            count: req_u64(v, "count", ctx)?,
            p95_stall_max_ns: req_u64(v, "p95_stall_max_ns", ctx)?,
            hints_dropped_quota: req_u64(v, "hints_dropped_quota", ctx)?,
            hints_dropped_pressure: req_u64(v, "hints_dropped_pressure", ctx)?,
            quota_evictions: req_u64(v, "quota_evictions", ctx)?,
        })
    }
}

/// Prefetch-policy summary of a run that raced a policy against (or
/// instead of) the compiler's hints: the injection and controller
/// counters the `ablations` policy matrix gates on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PolicySummary {
    /// Policy name (`readahead`, `adaptive-distance`, …).
    pub name: String,
    /// Prefetch pages the policy injected beyond the compiler's hints.
    pub injected_prefetch_pages: u64,
    /// Release pages the policy injected.
    pub injected_release_pages: u64,
    /// Peak readahead window / lead distance reached, in pages.
    pub window_peak: u64,
    /// Times the distance controller retuned its lead.
    pub distance_retunes: u64,
    /// Late-rate observation windows the controller completed.
    pub late_rate_samples: u64,
    /// Late-arrival rate of consumed prefetches, in basis points
    /// (1/100 of a percent) so the trajectory stays integer-valued.
    pub late_arrival_bp: u64,
}

impl PolicySummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            (
                "injected_prefetch_pages",
                Json::U64(self.injected_prefetch_pages),
            ),
            (
                "injected_release_pages",
                Json::U64(self.injected_release_pages),
            ),
            ("window_peak", Json::U64(self.window_peak)),
            ("distance_retunes", Json::U64(self.distance_retunes)),
            ("late_rate_samples", Json::U64(self.late_rate_samples)),
            ("late_arrival_bp", Json::U64(self.late_arrival_bp)),
        ])
    }

    fn parse(v: &Json, ctx: &str) -> Result<Self, String> {
        Ok(Self {
            name: v
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{ctx}: policy block missing name"))?
                .to_string(),
            injected_prefetch_pages: req_u64(v, "injected_prefetch_pages", ctx)?,
            injected_release_pages: req_u64(v, "injected_release_pages", ctx)?,
            window_peak: req_u64(v, "window_peak", ctx)?,
            distance_retunes: req_u64(v, "distance_retunes", ctx)?,
            late_rate_samples: req_u64(v, "late_rate_samples", ctx)?,
            late_arrival_bp: req_u64(v, "late_arrival_bp", ctx)?,
        })
    }
}

/// Redundancy summary of a parity cell: the degraded-read, hedging,
/// and rebuild counters the `redundancy` matrix gates on. Absent for
/// `--redundancy none` cells, so every pre-parity cell keeps its exact
/// metric list.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RedundancySummary {
    /// Demand reads served by survivor fan-out reconstruction.
    pub degraded_reads: u64,
    /// Total stall time of degraded demand reconstructions.
    pub degraded_read_ns: u64,
    /// Prefetch hints rerouted from a dead disk into survivor fan-outs.
    pub hints_rerouted: u64,
    /// Degraded reads that armed the hedging deadline.
    pub hedged_reads: u64,
    /// Hedged races the speculative reconstruction won.
    pub hedged_wins: u64,
    /// Stripe rows rebuilt onto the hot spare.
    pub rebuild_rows: u64,
    /// Simulated time from death detection to rebuild completion.
    pub rebuild_ns: u64,
    /// Rebuilt rows that failed verification (zero unless the debug
    /// parity-corruption hook fired).
    pub verify_mismatches: u64,
    /// Parity blocks written.
    pub parity_writes: u64,
}

impl RedundancySummary {
    fn to_json(self) -> Json {
        Json::obj([
            ("degraded_reads", Json::U64(self.degraded_reads)),
            ("degraded_read_ns", Json::U64(self.degraded_read_ns)),
            ("hints_rerouted", Json::U64(self.hints_rerouted)),
            ("hedged_reads", Json::U64(self.hedged_reads)),
            ("hedged_wins", Json::U64(self.hedged_wins)),
            ("rebuild_rows", Json::U64(self.rebuild_rows)),
            ("rebuild_ns", Json::U64(self.rebuild_ns)),
            ("verify_mismatches", Json::U64(self.verify_mismatches)),
            ("parity_writes", Json::U64(self.parity_writes)),
        ])
    }

    fn parse(v: &Json, ctx: &str) -> Result<Self, String> {
        Ok(Self {
            degraded_reads: req_u64(v, "degraded_reads", ctx)?,
            degraded_read_ns: req_u64(v, "degraded_read_ns", ctx)?,
            hints_rerouted: req_u64(v, "hints_rerouted", ctx)?,
            hedged_reads: req_u64(v, "hedged_reads", ctx)?,
            hedged_wins: req_u64(v, "hedged_wins", ctx)?,
            rebuild_rows: req_u64(v, "rebuild_rows", ctx)?,
            rebuild_ns: req_u64(v, "rebuild_ns", ctx)?,
            verify_mismatches: req_u64(v, "verify_mismatches", ctx)?,
            parity_writes: req_u64(v, "parity_writes", ctx)?,
        })
    }
}

/// Compact host-time profile of one cell: where the interpreter and
/// machine spent wall-clock time while executing it. Stamped by
/// `perfgate --capture --profile` from a second, profiled run of the
/// cell (the timed run stays detached so `sim_throughput` is not
/// polluted by probe overhead).
///
/// Report-only by design: none of these numbers appear in [`metrics`],
/// so they can drift freely between machines without tripping the
/// gate. They exist to make "where does host time go" diffable across
/// trajectory entries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileSummary {
    /// Total host nanoseconds attributed by the profiler root.
    pub total_host_ns: u64,
    /// Top self-time sites as (`;`-joined site path, self ns), in
    /// descending self-time order.
    pub sites: Vec<(String, u64)>,
}

impl ProfileSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("total_host_ns", Json::U64(self.total_host_ns)),
            (
                "sites",
                Json::Arr(
                    self.sites
                        .iter()
                        .map(|(path, ns)| {
                            Json::obj([
                                ("path", Json::Str(path.clone())),
                                ("self_ns", Json::U64(*ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn parse(v: &Json, ctx: &str) -> Result<Self, String> {
        let sites_v = v
            .get("sites")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{ctx}: profile block missing sites array"))?;
        let mut sites = Vec::with_capacity(sites_v.len());
        for s in sites_v {
            let path = s
                .get("path")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{ctx}: profile site missing path"))?
                .to_string();
            let ns = req_u64(s, "self_ns", ctx)?;
            sites.push((path, ns));
        }
        Ok(Self {
            total_host_ns: req_u64(v, "total_host_ns", ctx)?,
            sites,
        })
    }
}

/// One benchmark execution in the trajectory: a (kernel, config) cell
/// of the capture matrix with every gated metric.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BaselineRun {
    /// Kernel name (`EMBAR` … for the NAS suite, `ook:stencil` … for
    /// the sample kernels).
    pub kernel: String,
    /// Canonical configuration label (e.g. `pf+fcfs`).
    pub config: String,
    /// End-to-end simulated time.
    pub elapsed_ns: u64,
    /// FNV-1a checksum of the final address space — never allowable:
    /// a checksum change is a correctness divergence, not a regression.
    pub checksum: u64,
    /// Figure-5 attribution of the elapsed time.
    pub attr: TimeAttribution,
    /// Demand faults that went to disk.
    pub hard_faults: u64,
    /// Reclaims from the free list.
    pub soft_faults: u64,
    /// Faults absorbed by a completed prefetch.
    pub prefetched_hits: u64,
    /// Lifecycle ledger outcomes (all zero for non-prefetching runs).
    pub ledger: LedgerCounts,
    /// Ledger entries opened (partition denominator).
    pub ledger_entries: u64,
    /// Demand-fault stall distribution.
    pub fault_wait: HistSummary,
    /// Prefetch issue-to-arrival distribution.
    pub lead_time: HistSummary,
    /// Arrival-to-first-use distribution.
    pub arrival_to_use: HistSummary,
    /// Write-ahead journal intents appended (write amplification).
    pub journal_appends: u64,
    /// Writebacks that stalled waiting for a journal ring slot.
    pub journal_stalls: u64,
    /// Crash recovery: journal payloads replayed onto home blocks.
    pub recovery_replayed: u64,
    /// Crash recovery: in-flight updates discarded (old image kept).
    pub recovery_discarded: u64,
    /// Crash recovery: torn home blocks caught by their checksum.
    pub recovery_torn: u64,
    /// Crash recovery: pages lost for good. Zero whenever the journal
    /// is on; the chaos `--no-journal` gate proves it goes positive
    /// without one.
    pub recovery_unrecoverable: u64,
    /// Simulated time the recovery pass took (zero if never crashed).
    pub recovery_ns: u64,
    /// Multi-tenant fairness summary; `None` for solo cells and for
    /// baselines captured before the multi-tenant machine existed.
    pub tenant: Option<TenantSummary>,
    /// Prefetch-policy summary; `None` for compiler-only cells and for
    /// baselines captured before the policy subsystem existed.
    pub policy: Option<PolicySummary>,
    /// Whylate causal attribution of the cell's late/dropped/wasted
    /// prefetches; `None` for baselines captured before the telemetry
    /// subsystem existed.
    pub whylate: Option<WhylateSummary>,
    /// Simulated nanoseconds advanced per host-wall-clock second while
    /// executing the cell. Wall-clock-derived and therefore noisy —
    /// gated only under a wide `simthroughput.*` allowance band.
    /// `None` for pre-v2 baselines.
    pub sim_throughput: Option<u64>,
    /// v3 addition: compact host-time profile summary. Report-only —
    /// deliberately excluded from [`metrics`] and therefore never
    /// gated. `None` for pre-v3 baselines and unprofiled captures.
    pub profile: Option<ProfileSummary>,
    /// v4 addition: parity redundancy counters. `None` for
    /// `--redundancy none` cells and pre-v4 baselines.
    pub redundancy: Option<RedundancySummary>,
}

/// How a metric's drift reads in a report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// An increase is worse (elapsed time, stalls, drops).
    HigherWorse,
    /// A decrease is worse (coverage-style counters).
    LowerWorse,
    /// Neither direction is inherently bad; drift still gates.
    Neutral,
}

/// The gated metrics of one run, in a stable order, with the direction
/// each one reads in. `checksum` is deliberately absent — it is
/// compared separately and can never be allowed.
pub fn metrics(r: &BaselineRun) -> Vec<(&'static str, u64, Direction)> {
    use Direction::*;
    let a = &r.attr;
    let mut m = vec![
        ("elapsed_ns", r.elapsed_ns, HigherWorse),
        ("attr.compute_ns", a.compute_ns, Neutral),
        ("attr.fault_overhead_ns", a.fault_overhead_ns, HigherWorse),
        ("attr.hint_overhead_ns", a.hint_overhead_ns, HigherWorse),
        ("attr.demand_stall_ns", a.demand_stall_ns, HigherWorse),
        (
            "attr.late_prefetch_stall_ns",
            a.late_prefetch_stall_ns,
            HigherWorse,
        ),
        (
            "attr.backpressure_stall_ns",
            a.backpressure_stall_ns,
            HigherWorse,
        ),
        ("attr.drain_idle_ns", a.drain_idle_ns, HigherWorse),
        ("faults.hard", r.hard_faults, HigherWorse),
        ("faults.soft", r.soft_faults, Neutral),
        ("faults.prefetched_hits", r.prefetched_hits, LowerWorse),
        ("ledger.entries", r.ledger_entries, Neutral),
        ("ledger.timely_hits", r.ledger.timely_hits, LowerWorse),
        ("ledger.late_inflight", r.ledger.late_inflight, HigherWorse),
        (
            "ledger.dropped_no_memory",
            r.ledger.dropped_no_memory,
            HigherWorse,
        ),
        (
            "ledger.dropped_queue_full",
            r.ledger.dropped_queue_full,
            HigherWorse,
        ),
        (
            "ledger.dropped_io_error",
            r.ledger.dropped_io_error,
            HigherWorse,
        ),
        ("ledger.dropped_quota", r.ledger.dropped_quota, HigherWorse),
        (
            "ledger.dropped_pressure",
            r.ledger.dropped_pressure,
            HigherWorse,
        ),
        (
            "ledger.evicted_unused",
            r.ledger.evicted_unused,
            HigherWorse,
        ),
        ("ledger.unused_at_end", r.ledger.unused_at_end, HigherWorse),
        ("hist.fault_wait.count", r.fault_wait.count, Neutral),
        ("hist.fault_wait.p50", r.fault_wait.p50, HigherWorse),
        ("hist.fault_wait.p95", r.fault_wait.p95, HigherWorse),
        ("hist.fault_wait.p99", r.fault_wait.p99, HigherWorse),
        ("hist.lead_time.count", r.lead_time.count, Neutral),
        ("hist.lead_time.p50", r.lead_time.p50, Neutral),
        ("hist.lead_time.p95", r.lead_time.p95, Neutral),
        ("hist.lead_time.p99", r.lead_time.p99, Neutral),
        ("hist.arrival_to_use.count", r.arrival_to_use.count, Neutral),
        ("hist.arrival_to_use.p50", r.arrival_to_use.p50, Neutral),
        ("hist.arrival_to_use.p95", r.arrival_to_use.p95, Neutral),
        ("hist.arrival_to_use.p99", r.arrival_to_use.p99, Neutral),
        ("journal.appends", r.journal_appends, HigherWorse),
        ("journal.stalls", r.journal_stalls, HigherWorse),
        ("recovery.pages_replayed", r.recovery_replayed, Neutral),
        ("recovery.pages_discarded", r.recovery_discarded, Neutral),
        ("recovery.torn_detected", r.recovery_torn, Neutral),
        (
            "recovery.unrecoverable",
            r.recovery_unrecoverable,
            HigherWorse,
        ),
        ("recovery.recovery_ns", r.recovery_ns, HigherWorse),
    ];
    if let Some(t) = &r.tenant {
        m.push(("tenant.count", t.count, Neutral));
        m.push(("tenant.p95_stall_max_ns", t.p95_stall_max_ns, HigherWorse));
        m.push(("tenant.dropped_quota", t.hints_dropped_quota, HigherWorse));
        m.push((
            "tenant.dropped_pressure",
            t.hints_dropped_pressure,
            HigherWorse,
        ));
        m.push(("tenant.quota_evictions", t.quota_evictions, HigherWorse));
    }
    if let Some(p) = &r.policy {
        m.push((
            "policy.injected_prefetch_pages",
            p.injected_prefetch_pages,
            Neutral,
        ));
        m.push((
            "policy.injected_release_pages",
            p.injected_release_pages,
            Neutral,
        ));
        m.push(("policy.window_peak", p.window_peak, Neutral));
        m.push(("policy.distance_retunes", p.distance_retunes, Neutral));
        m.push(("policy.late_rate_samples", p.late_rate_samples, Neutral));
        m.push(("policy.late_arrival_bp", p.late_arrival_bp, HigherWorse));
    }
    // v2 additions ride strictly at the tail: compare() zips metric
    // lists positionally, so a BENCH_4-era cell (whylate/sim_throughput
    // absent) zips against the same prefix of a v2 capture and the new
    // tail goes uncompared — which is exactly the backward-compat
    // contract.
    if let Some(w) = &r.whylate {
        m.push(("whylate.late_issue_lag", w.late_issue_lag, HigherWorse));
        m.push(("whylate.late_queue_wait", w.late_queue_wait, HigherWorse));
        m.push((
            "whylate.late_service_time",
            w.late_service_time,
            HigherWorse,
        ));
        m.push((
            "whylate.late_journal_stall",
            w.late_journal_stall,
            HigherWorse,
        ));
        m.push((
            "whylate.late_degraded_pause",
            w.late_degraded_pause,
            HigherWorse,
        ));
        m.push(("whylate.drop_no_memory", w.drop_no_memory, HigherWorse));
        m.push(("whylate.drop_queue_full", w.drop_queue_full, HigherWorse));
        m.push(("whylate.drop_io_error", w.drop_io_error, HigherWorse));
        m.push(("whylate.drop_quota", w.drop_quota, HigherWorse));
        m.push(("whylate.drop_pressure", w.drop_pressure, HigherWorse));
        m.push((
            "whylate.wasted_evicted_unused",
            w.wasted_evicted_unused,
            HigherWorse,
        ));
        m.push((
            "whylate.wasted_unused_at_end",
            w.wasted_unused_at_end,
            HigherWorse,
        ));
    }
    if let Some(st) = r.sim_throughput {
        m.push(("simthroughput.sim_ns_per_host_s", st, LowerWorse));
    }
    // v4 additions ride behind the entire v2/v3 tail for the same
    // positional reason: a BENCH_6-era cell's whylate block parses with
    // the two redundancy causes defaulted to zero, so its metric list
    // matches a fresh non-parity capture element for element, and the
    // `redundancy` block only exists on parity cells (all new keys).
    if let Some(w) = &r.whylate {
        m.push((
            "whylate.late_degraded_read",
            w.late_degraded_read,
            HigherWorse,
        ));
        m.push((
            "whylate.late_rebuild_contention",
            w.late_rebuild_contention,
            HigherWorse,
        ));
    }
    if let Some(rd) = &r.redundancy {
        m.push(("redundancy.degraded_reads", rd.degraded_reads, Neutral));
        m.push((
            "redundancy.degraded_read_ns",
            rd.degraded_read_ns,
            HigherWorse,
        ));
        m.push(("redundancy.hints_rerouted", rd.hints_rerouted, Neutral));
        m.push(("redundancy.hedged_reads", rd.hedged_reads, Neutral));
        m.push(("redundancy.hedged_wins", rd.hedged_wins, Neutral));
        m.push(("redundancy.rebuild_rows", rd.rebuild_rows, Neutral));
        m.push(("redundancy.rebuild_ns", rd.rebuild_ns, HigherWorse));
        m.push((
            "redundancy.verify_mismatches",
            rd.verify_mismatches,
            HigherWorse,
        ));
        m.push(("redundancy.parity_writes", rd.parity_writes, HigherWorse));
    }
    m
}

impl BaselineRun {
    /// The matrix key a run is matched by across captures.
    pub fn key(&self) -> String {
        format!("{}/{}", self.kernel, self.config)
    }
}

/// A full trajectory entry: one capture of the benchmark matrix.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Baseline {
    /// Trajectory index (the `<n>` of `BENCH_<n>.json`).
    pub index: u64,
    /// Workload seed the matrix was captured with.
    pub seed: u64,
    /// One entry per (kernel, config) cell.
    pub runs: Vec<BaselineRun>,
    /// Aggregate whylate cause vector across every cell (the sum of the
    /// per-run blocks); `None` for pre-v2 baselines.
    pub whylate: Option<WhylateSummary>,
}

fn attr_json(a: &TimeAttribution) -> Json {
    Json::obj([
        ("compute_ns", Json::U64(a.compute_ns)),
        ("fault_overhead_ns", Json::U64(a.fault_overhead_ns)),
        ("hint_overhead_ns", Json::U64(a.hint_overhead_ns)),
        ("demand_stall_ns", Json::U64(a.demand_stall_ns)),
        (
            "late_prefetch_stall_ns",
            Json::U64(a.late_prefetch_stall_ns),
        ),
        ("backpressure_stall_ns", Json::U64(a.backpressure_stall_ns)),
        ("drain_idle_ns", Json::U64(a.drain_idle_ns)),
        ("total_ns", Json::U64(a.total())),
    ])
}

fn run_json(r: &BaselineRun) -> Json {
    let mut fields = vec![
        ("kernel", Json::Str(r.kernel.clone())),
        ("config", Json::Str(r.config.clone())),
        ("elapsed_ns", Json::U64(r.elapsed_ns)),
        ("checksum", Json::U64(r.checksum)),
        ("attr", attr_json(&r.attr)),
        (
            "faults",
            Json::obj([
                ("hard", Json::U64(r.hard_faults)),
                ("soft", Json::U64(r.soft_faults)),
                ("prefetched_hits", Json::U64(r.prefetched_hits)),
            ]),
        ),
        (
            "ledger",
            Json::obj([
                ("entries", Json::U64(r.ledger_entries)),
                ("timely_hits", Json::U64(r.ledger.timely_hits)),
                ("late_inflight", Json::U64(r.ledger.late_inflight)),
                ("dropped_no_memory", Json::U64(r.ledger.dropped_no_memory)),
                ("dropped_queue_full", Json::U64(r.ledger.dropped_queue_full)),
                ("dropped_io_error", Json::U64(r.ledger.dropped_io_error)),
                ("dropped_quota", Json::U64(r.ledger.dropped_quota)),
                ("dropped_pressure", Json::U64(r.ledger.dropped_pressure)),
                ("evicted_unused", Json::U64(r.ledger.evicted_unused)),
                ("unused_at_end", Json::U64(r.ledger.unused_at_end)),
            ]),
        ),
        (
            "hist",
            Json::obj([
                ("fault_wait", r.fault_wait.to_json()),
                ("lead_time", r.lead_time.to_json()),
                ("arrival_to_use", r.arrival_to_use.to_json()),
            ]),
        ),
        (
            "recovery",
            Json::obj([
                ("journal_appends", Json::U64(r.journal_appends)),
                ("journal_stalls", Json::U64(r.journal_stalls)),
                ("pages_replayed", Json::U64(r.recovery_replayed)),
                ("pages_discarded", Json::U64(r.recovery_discarded)),
                ("torn_detected", Json::U64(r.recovery_torn)),
                ("unrecoverable", Json::U64(r.recovery_unrecoverable)),
                ("recovery_ns", Json::U64(r.recovery_ns)),
            ]),
        ),
    ];
    if let Some(t) = &r.tenant {
        fields.push(("tenant", t.to_json()));
    }
    if let Some(p) = &r.policy {
        fields.push(("policy", p.to_json()));
    }
    if let Some(w) = &r.whylate {
        fields.push(("whylate", w.to_json()));
    }
    if let Some(st) = r.sim_throughput {
        fields.push(("sim_throughput", Json::U64(st)));
    }
    if let Some(p) = &r.profile {
        fields.push(("profile", p.to_json()));
    }
    if let Some(rd) = &r.redundancy {
        fields.push(("redundancy", rd.to_json()));
    }
    Json::obj(fields)
}

/// Serialize a baseline as an `oocp-bench-v4` document.
pub fn baseline_json(b: &Baseline) -> Json {
    let mut fields = vec![
        ("schema", Json::Str(SCHEMA_V4.to_string())),
        ("index", Json::U64(b.index)),
        ("seed", Json::U64(b.seed)),
        ("runs", Json::Arr(b.runs.iter().map(run_json).collect())),
    ];
    if let Some(w) = &b.whylate {
        fields.push(("whylate", w.to_json()));
    }
    Json::obj(fields)
}

fn req_u64(v: &Json, key: &str, ctx: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{ctx}: missing {key}"))
}

fn req_obj<'a>(v: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("{ctx}: missing {key}"))
}

/// Like [`req_u64`] but a missing key reads as zero — for outcome
/// counters added after older baselines were captured.
fn opt_u64(v: &Json, key: &str, ctx: &str) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(0),
        Some(x) => x
            .as_u64()
            .ok_or_else(|| format!("{ctx}: {key} is not an integer")),
    }
}

fn parse_run(v: &Json) -> Result<BaselineRun, String> {
    let kernel = v
        .get("kernel")
        .and_then(Json::as_str)
        .ok_or("run: missing kernel")?
        .to_string();
    let config = v
        .get("config")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{kernel}: missing config"))?
        .to_string();
    let ctx = format!("{kernel}/{config}");
    let attr_v = req_obj(v, "attr", &ctx)?;
    let attr = TimeAttribution {
        compute_ns: req_u64(attr_v, "compute_ns", &ctx)?,
        fault_overhead_ns: req_u64(attr_v, "fault_overhead_ns", &ctx)?,
        hint_overhead_ns: req_u64(attr_v, "hint_overhead_ns", &ctx)?,
        demand_stall_ns: req_u64(attr_v, "demand_stall_ns", &ctx)?,
        late_prefetch_stall_ns: req_u64(attr_v, "late_prefetch_stall_ns", &ctx)?,
        backpressure_stall_ns: req_u64(attr_v, "backpressure_stall_ns", &ctx)?,
        drain_idle_ns: req_u64(attr_v, "drain_idle_ns", &ctx)?,
    };
    let faults = req_obj(v, "faults", &ctx)?;
    let ledger_v = req_obj(v, "ledger", &ctx)?;
    let ledger = LedgerCounts {
        timely_hits: req_u64(ledger_v, "timely_hits", &ctx)?,
        late_inflight: req_u64(ledger_v, "late_inflight", &ctx)?,
        dropped_no_memory: req_u64(ledger_v, "dropped_no_memory", &ctx)?,
        dropped_queue_full: req_u64(ledger_v, "dropped_queue_full", &ctx)?,
        dropped_io_error: req_u64(ledger_v, "dropped_io_error", &ctx)?,
        // Added with the multi-tenant machine; absent (zero) in older
        // trajectory entries.
        dropped_quota: opt_u64(ledger_v, "dropped_quota", &ctx)?,
        dropped_pressure: opt_u64(ledger_v, "dropped_pressure", &ctx)?,
        evicted_unused: req_u64(ledger_v, "evicted_unused", &ctx)?,
        unused_at_end: req_u64(ledger_v, "unused_at_end", &ctx)?,
    };
    let hist = req_obj(v, "hist", &ctx)?;
    // Baselines captured before the crash-consistency subsystem carry
    // no `recovery` block; they parse as all-zero so old trajectory
    // entries stay comparable. When the block is present it must be
    // complete — partial blocks are corruption, not history.
    let rec = match v.get("recovery") {
        None => [0u64; 7],
        Some(rv) => [
            req_u64(rv, "journal_appends", &ctx)?,
            req_u64(rv, "journal_stalls", &ctx)?,
            req_u64(rv, "pages_replayed", &ctx)?,
            req_u64(rv, "pages_discarded", &ctx)?,
            req_u64(rv, "torn_detected", &ctx)?,
            req_u64(rv, "unrecoverable", &ctx)?,
            req_u64(rv, "recovery_ns", &ctx)?,
        ],
    };
    // Solo cells and pre-multi-tenant baselines carry no `tenant`
    // block; when present it must be complete, like `recovery`.
    let tenant = match v.get("tenant") {
        None => None,
        Some(tv) => Some(TenantSummary::parse(tv, &ctx)?),
    };
    // Compiler-only cells and pre-policy baselines carry no `policy`
    // block; when present it must be complete, like `tenant`.
    let policy = match v.get("policy") {
        None => None,
        Some(pv) => Some(PolicySummary::parse(pv, &ctx)?),
    };
    // v2 additions: pre-telemetry cells carry neither; when the whylate
    // block is present it must be complete, like `tenant` and `policy`.
    let whylate = match v.get("whylate") {
        None => None,
        Some(wv) => Some(WhylateSummary::parse(wv).map_err(|e| format!("{ctx}: {e}"))?),
    };
    let sim_throughput = match v.get("sim_throughput") {
        None => None,
        Some(sv) => Some(
            sv.as_u64()
                .ok_or_else(|| format!("{ctx}: sim_throughput is not an integer"))?,
        ),
    };
    // v3 addition: unprofiled captures carry no `profile` block; when
    // present it must be complete, like the other optional blocks.
    let profile = match v.get("profile") {
        None => None,
        Some(pv) => Some(ProfileSummary::parse(pv, &ctx)?),
    };
    // v4 addition: non-parity cells carry no `redundancy` block; when
    // present it must be complete, like the other optional blocks.
    let redundancy = match v.get("redundancy") {
        None => None,
        Some(rv) => Some(RedundancySummary::parse(rv, &ctx)?),
    };
    let run = BaselineRun {
        elapsed_ns: req_u64(v, "elapsed_ns", &ctx)?,
        checksum: req_u64(v, "checksum", &ctx)?,
        attr,
        hard_faults: req_u64(faults, "hard", &ctx)?,
        soft_faults: req_u64(faults, "soft", &ctx)?,
        prefetched_hits: req_u64(faults, "prefetched_hits", &ctx)?,
        ledger,
        ledger_entries: req_u64(ledger_v, "entries", &ctx)?,
        fault_wait: HistSummary::parse(req_obj(hist, "fault_wait", &ctx)?, &ctx)?,
        lead_time: HistSummary::parse(req_obj(hist, "lead_time", &ctx)?, &ctx)?,
        arrival_to_use: HistSummary::parse(req_obj(hist, "arrival_to_use", &ctx)?, &ctx)?,
        journal_appends: rec[0],
        journal_stalls: rec[1],
        recovery_replayed: rec[2],
        recovery_discarded: rec[3],
        recovery_torn: rec[4],
        recovery_unrecoverable: rec[5],
        recovery_ns: rec[6],
        tenant,
        policy,
        whylate,
        sim_throughput,
        profile,
        redundancy,
        kernel,
        config,
    };
    // Schema-level invariants: the attribution must still cover the
    // elapsed time exactly, and the serialized total must agree.
    if run.attr.total() != run.elapsed_ns {
        return Err(format!(
            "{ctx}: attribution sums to {} but elapsed is {}",
            run.attr.total(),
            run.elapsed_ns
        ));
    }
    if req_u64(attr_v, "total_ns", &ctx)? != run.elapsed_ns {
        return Err(format!("{ctx}: attr.total_ns disagrees with elapsed_ns"));
    }
    Ok(run)
}

/// Parse and validate an `oocp-bench-v4` document.
///
/// Beyond shape checking this enforces the cross-layer invariants on
/// every entry (attribution covers elapsed exactly) and rejects
/// duplicate (kernel, config) keys — a trajectory entry must be a
/// function from matrix cell to measurement.
pub fn parse_baseline(doc: &Json) -> Result<Baseline, String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA_V4 => {}
        Some(s) => return Err(format!("schema is {s}, expected {SCHEMA_V4}")),
        None => return Err("missing schema field".into()),
    }
    let runs_v = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("missing runs array")?;
    let mut runs = Vec::with_capacity(runs_v.len());
    for v in runs_v {
        runs.push(parse_run(v)?);
    }
    let mut keys: Vec<String> = runs.iter().map(BaselineRun::key).collect();
    keys.sort();
    if let Some(dup) = keys.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("duplicate matrix cell {}", dup[0]));
    }
    if runs.is_empty() {
        return Err("baseline holds no runs".into());
    }
    let whylate = match doc.get("whylate") {
        None => None,
        Some(wv) => Some(WhylateSummary::parse(wv).map_err(|e| format!("baseline: {e}"))?),
    };
    Ok(Baseline {
        index: req_u64(doc, "index", "baseline")?,
        seed: req_u64(doc, "seed", "baseline")?,
        runs,
        whylate,
    })
}

/// A declared, bounded, intentional change to one metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Allowance {
    /// Metric name, exactly as in [`metrics`]; a trailing `*` makes it
    /// a prefix pattern (`hist.*`), and `all` matches every metric.
    pub metric: String,
    /// Permitted relative drift in percent (both directions).
    pub pct: f64,
}

impl Allowance {
    /// Whether this allowance covers `metric`.
    pub fn covers(&self, metric: &str) -> bool {
        if self.metric == "all" {
            return true;
        }
        match self.metric.strip_suffix('*') {
            Some(prefix) => metric.starts_with(prefix),
            None => self.metric == metric,
        }
    }
}

/// Parse a `--allow metric=pct` argument.
pub fn parse_allowance_arg(s: &str) -> Result<Allowance, String> {
    let (metric, pct) = s
        .split_once('=')
        .ok_or_else(|| format!("allowance '{s}' is not metric=pct"))?;
    let pct: f64 = pct
        .trim()
        .parse()
        .map_err(|_| format!("allowance '{s}': '{pct}' is not a number"))?;
    if !(pct >= 0.0 && pct.is_finite()) {
        return Err(format!(
            "allowance '{s}': percentage must be finite and >= 0"
        ));
    }
    Ok(Allowance {
        metric: metric.trim().to_string(),
        pct,
    })
}

/// Parse a `perf-allowances.toml` file: a flat list of `metric = pct`
/// lines. `#` comments, blank lines, and `[section]` headers are
/// ignored; keys may be bare or double-quoted. This is the whole
/// dialect — the file is a declaration list, not a config language.
pub fn parse_allowances_toml(text: &str) -> Result<Vec<Allowance>, String> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() || (line.starts_with('[') && line.ends_with(']')) {
            continue;
        }
        let (key, val) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected 'metric = pct'", lineno + 1))?;
        let key = key.trim().trim_matches('"').to_string();
        if key.is_empty() {
            return Err(format!("line {}: empty metric name", lineno + 1));
        }
        let pct: f64 = val
            .trim()
            .parse()
            .map_err(|_| format!("line {}: '{}' is not a number", lineno + 1, val.trim()))?;
        if !(pct >= 0.0 && pct.is_finite()) {
            return Err(format!(
                "line {}: percentage must be finite and >= 0",
                lineno + 1
            ));
        }
        out.push(Allowance { metric: key, pct });
    }
    Ok(out)
}

/// How one metric's drift reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriftKind {
    /// Moved in the metric's worse direction.
    Regression,
    /// Moved in the metric's better direction (still drift).
    Improvement,
    /// Direction-neutral change.
    Shift,
}

/// One metric that moved between baseline and current run.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Matrix cell (`KERNEL/config`).
    pub key: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value.
    pub old: u64,
    /// Current value.
    pub new: u64,
    /// How the move reads.
    pub kind: DriftKind,
    /// Covered by an allowance (does not fail the gate).
    pub allowed: bool,
}

impl Finding {
    /// Relative drift in percent, against a floor-1 base so zero
    /// baselines still produce a finite number.
    pub fn pct(&self) -> f64 {
        let base = self.old.max(1) as f64;
        (self.new as f64 - self.old as f64) / base * 100.0
    }
}

/// The result of diffing a capture against a baseline.
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    /// Every metric that moved, allowed or not.
    pub findings: Vec<Finding>,
    /// Matrix cells whose checksum changed — correctness divergence,
    /// never allowable.
    pub checksum_divergence: Vec<String>,
    /// Baseline cells the current capture did not produce.
    pub missing: Vec<String>,
    /// Current cells the baseline does not know.
    pub extra: Vec<String>,
    /// Cells present on both sides.
    pub runs_compared: usize,
}

impl CompareReport {
    /// Findings that fail the gate (not covered by an allowance).
    pub fn unallowed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.allowed)
    }

    /// Number of gate failures: unallowed drift, checksum divergence,
    /// and baseline cells that went missing.
    pub fn gate_failures(&self) -> usize {
        self.unallowed().count() + self.checksum_divergence.len() + self.missing.len()
    }

    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.gate_failures() == 0
    }
}

fn drift_kind(dir: Direction, old: u64, new: u64) -> DriftKind {
    match dir {
        Direction::Neutral => DriftKind::Shift,
        Direction::HigherWorse if new > old => DriftKind::Regression,
        Direction::HigherWorse => DriftKind::Improvement,
        Direction::LowerWorse if new < old => DriftKind::Regression,
        Direction::LowerWorse => DriftKind::Improvement,
    }
}

/// Diff `current` against `base`, metric by metric.
///
/// Cells are matched by [`BaselineRun::key`]. Every differing metric
/// produces a [`Finding`]; an allowance marks it tolerated when the
/// relative drift stays within the declared percentage. Checksums are
/// compared unconditionally and can never be allowed.
pub fn compare(base: &Baseline, current: &[BaselineRun], allow: &[Allowance]) -> CompareReport {
    let mut report = CompareReport::default();
    for cur in current {
        if !base.runs.iter().any(|b| b.key() == cur.key()) {
            report.extra.push(cur.key());
        }
    }
    for old in &base.runs {
        let key = old.key();
        let Some(new) = current.iter().find(|c| c.key() == key) else {
            report.missing.push(key);
            continue;
        };
        report.runs_compared += 1;
        if old.checksum != new.checksum {
            report.checksum_divergence.push(key.clone());
        }
        let old_m = metrics(old);
        let new_m = metrics(new);
        for ((name, ov, dir), (_, nv, _)) in old_m.into_iter().zip(new_m) {
            if ov == nv {
                continue;
            }
            let rel = (nv as f64 - ov as f64).abs() / ov.max(1) as f64 * 100.0;
            let allowed = allow.iter().any(|a| a.covers(name) && rel <= a.pct);
            report.findings.push(Finding {
                key: key.clone(),
                metric: name.to_string(),
                old: ov,
                new: nv,
                kind: drift_kind(dir, ov, nv),
                allowed,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run(kernel: &str, config: &str) -> BaselineRun {
        let attr = TimeAttribution {
            compute_ns: 700,
            fault_overhead_ns: 50,
            hint_overhead_ns: 30,
            demand_stall_ns: 120,
            late_prefetch_stall_ns: 40,
            backpressure_stall_ns: 10,
            drain_idle_ns: 50,
        };
        BaselineRun {
            kernel: kernel.to_string(),
            config: config.to_string(),
            elapsed_ns: attr.total(),
            checksum: 0xDEAD_BEEF,
            attr,
            hard_faults: 12,
            soft_faults: 3,
            prefetched_hits: 88,
            ledger: LedgerCounts {
                timely_hits: 80,
                late_inflight: 8,
                dropped_no_memory: 2,
                ..LedgerCounts::default()
            },
            ledger_entries: 90,
            fault_wait: HistSummary {
                count: 12,
                p50: 100,
                p95: 200,
                p99: 400,
            },
            lead_time: HistSummary {
                count: 88,
                p50: 1000,
                p95: 2000,
                p99: 4000,
            },
            arrival_to_use: HistSummary {
                count: 80,
                p50: 500,
                p95: 900,
                p99: 1100,
            },
            journal_appends: 40,
            journal_stalls: 2,
            recovery_replayed: 3,
            recovery_discarded: 1,
            recovery_torn: 1,
            recovery_unrecoverable: 0,
            recovery_ns: 77,
            tenant: None,
            policy: None,
            whylate: None,
            sim_throughput: None,
            profile: None,
            redundancy: None,
        }
    }

    fn sample_baseline() -> Baseline {
        Baseline {
            index: 1,
            seed: 42,
            runs: vec![
                sample_run("EMBAR", "pf+fcfs"),
                sample_run("BUK", "orig+fcfs"),
            ],
            whylate: None,
        }
    }

    #[test]
    fn baseline_roundtrips_through_json() {
        let b = sample_baseline();
        let text = baseline_json(&b).to_string();
        let back = parse_baseline(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn parse_rejects_bad_schema_and_duplicates() {
        let mut b = sample_baseline();
        let mut doc = baseline_json(&b);
        if let Json::Obj(fields) = &mut doc {
            fields[0].1 = Json::Str("other-schema".into());
        }
        assert!(parse_baseline(&doc).is_err());
        b.runs.push(sample_run("EMBAR", "pf+fcfs"));
        assert!(parse_baseline(&baseline_json(&b))
            .unwrap_err()
            .contains("duplicate"));
    }

    #[test]
    fn pre_crash_baselines_parse_with_zeroed_recovery() {
        // A trajectory entry captured before the crash subsystem has no
        // `recovery` block; it must still load, reading as all-zero.
        let b = sample_baseline();
        let mut doc = baseline_json(&b);
        if let Json::Obj(fields) = &mut doc {
            if let Json::Arr(runs) = &mut fields[3].1 {
                for run in runs {
                    if let Json::Obj(run) = run {
                        run.retain(|(k, _)| k != "recovery");
                    }
                }
            }
        }
        let back = parse_baseline(&doc).unwrap();
        assert_eq!(back.runs[0].journal_appends, 0);
        assert_eq!(back.runs[0].recovery_ns, 0);
        // But a present-yet-partial block is corruption.
        let mut doc = baseline_json(&b);
        if let Json::Obj(fields) = &mut doc {
            if let Json::Arr(runs) = &mut fields[3].1 {
                if let Json::Obj(run) = &mut runs[0] {
                    if let Some((_, Json::Obj(rec))) = run.iter_mut().find(|(k, _)| k == "recovery")
                    {
                        rec.retain(|(k, _)| k != "unrecoverable");
                    }
                }
            }
        }
        assert!(parse_baseline(&doc).unwrap_err().contains("unrecoverable"));
    }

    #[test]
    fn policy_block_roundtrips_and_rejects_partials() {
        let mut b = sample_baseline();
        b.runs[0].policy = Some(PolicySummary {
            name: "readahead".into(),
            injected_prefetch_pages: 512,
            injected_release_pages: 16,
            window_peak: 64,
            distance_retunes: 0,
            late_rate_samples: 0,
            late_arrival_bp: 250,
        });
        let doc = baseline_json(&b);
        let back = parse_baseline(&doc).unwrap();
        assert_eq!(back, b);
        // Policy metrics appear only for cells that ran a policy.
        assert!(metrics(&back.runs[0])
            .iter()
            .any(|(n, v, _)| *n == "policy.injected_prefetch_pages" && *v == 512));
        assert!(!metrics(&back.runs[1])
            .iter()
            .any(|(n, _, _)| n.starts_with("policy.")));
        // A present-yet-partial block is corruption.
        let mut doc = baseline_json(&b);
        if let Json::Obj(fields) = &mut doc {
            if let Json::Arr(runs) = &mut fields[3].1 {
                if let Json::Obj(run) = &mut runs[0] {
                    if let Some((_, Json::Obj(p))) = run.iter_mut().find(|(k, _)| k == "policy") {
                        p.retain(|(k, _)| k != "window_peak");
                    }
                }
            }
        }
        assert!(parse_baseline(&doc).unwrap_err().contains("window_peak"));
    }

    #[test]
    fn old_schema_tags_are_rejected_by_name() {
        // BENCH_1..BENCH_6 are history, not gates: their v1-v3 tags
        // must fail with the typed message, not half-load.
        for old in ["oocp-bench-v1", "oocp-bench-v2", "oocp-bench-v3"] {
            let mut doc = baseline_json(&sample_baseline());
            if let Json::Obj(fields) = &mut doc {
                fields[0].1 = Json::Str(old.into());
            }
            assert_eq!(
                parse_baseline(&doc).unwrap_err(),
                format!("schema is {old}, expected {SCHEMA_V4}")
            );
        }
    }

    #[test]
    fn whylate_and_throughput_additions_roundtrip() {
        // Captures round-trip the whylate and sim_throughput blocks
        // exactly, and the new metrics ride strictly behind every
        // always-present metric so positional compare against a cell
        // without them stays aligned.
        let b = sample_baseline();
        let mut b2 = sample_baseline();
        let w = WhylateSummary {
            late_queue_wait: 5,
            drop_no_memory: 2,
            wasted_unused_at_end: 1,
            ..WhylateSummary::default()
        };
        b2.runs[0].whylate = Some(w);
        b2.runs[0].sim_throughput = Some(123_456_789);
        b2.whylate = Some(w);
        let back = parse_baseline(&baseline_json(&b2)).unwrap();
        assert_eq!(back, b2);
        let old_m = metrics(&b.runs[0]);
        let new_m = metrics(&back.runs[0]);
        assert!(new_m.len() > old_m.len());
        for ((on, ..), (nn, ..)) in old_m.iter().zip(&new_m) {
            assert_eq!(on, nn, "v2 metrics must extend, not reorder");
        }
        assert_eq!(
            new_m.last().unwrap().0,
            "whylate.late_rebuild_contention",
            "without a redundancy block the v4 whylate tail is final"
        );
        assert!(
            new_m
                .iter()
                .position(|(n, ..)| *n == "simthroughput.sim_ns_per_host_s")
                .unwrap()
                < new_m
                    .iter()
                    .position(|(n, ..)| *n == "whylate.late_degraded_read")
                    .unwrap(),
            "v4 whylate causes ride behind the whole v2 tail"
        );
        // A present-yet-partial whylate block is corruption.
        let mut doc = baseline_json(&b2);
        if let Json::Obj(fields) = &mut doc {
            if let Json::Arr(runs) = &mut fields[3].1 {
                if let Json::Obj(run) = &mut runs[0] {
                    if let Some((_, Json::Obj(wf))) = run.iter_mut().find(|(k, _)| k == "whylate") {
                        wf.retain(|(k, _)| k != "late_queue_wait");
                    }
                }
            }
        }
        assert!(parse_baseline(&doc)
            .unwrap_err()
            .contains("late_queue_wait"));
    }

    #[test]
    fn profile_block_roundtrips_and_never_gates() {
        // Captures round-trip the profile block exactly, and the
        // block is report-only: the gated metric list must be
        // bit-identical with and without it.
        let b = sample_baseline();
        let mut b3 = sample_baseline();
        b3.runs[0].profile = Some(ProfileSummary {
            total_host_ns: 5_000_000,
            sites: vec![
                ("all;EMBAR;for#0;stmt:store;op:load".into(), 3_000_000),
                ("all;machine;residency".into(), 1_200_000),
            ],
        });
        let back = parse_baseline(&baseline_json(&b3)).unwrap();
        assert_eq!(back, b3);
        assert_eq!(
            metrics(&back.runs[0]),
            metrics(&b.runs[0]),
            "profile fields must never appear in the gated metrics"
        );
        // A present-yet-partial profile block is corruption.
        let mut doc = baseline_json(&b3);
        if let Json::Obj(fields) = &mut doc {
            if let Json::Arr(runs) = &mut fields[3].1 {
                if let Json::Obj(run) = &mut runs[0] {
                    if let Some((_, Json::Obj(p))) = run.iter_mut().find(|(k, _)| k == "profile") {
                        p.retain(|(k, _)| k != "total_host_ns");
                    }
                }
            }
        }
        assert!(parse_baseline(&doc).unwrap_err().contains("total_host_ns"));
    }

    #[test]
    fn redundancy_block_roundtrips_behind_the_plain_metrics() {
        // Parity cells round-trip the block exactly and append every
        // redundancy metric strictly behind the non-parity list.
        let b = sample_baseline();
        let mut b4 = sample_baseline();
        b4.runs[0].redundancy = Some(RedundancySummary {
            degraded_reads: 31,
            degraded_read_ns: 900_000,
            hints_rerouted: 12,
            hedged_reads: 3,
            hedged_wins: 1,
            rebuild_rows: 64,
            rebuild_ns: 4_000_000,
            verify_mismatches: 0,
            parity_writes: 80,
        });
        let back = parse_baseline(&baseline_json(&b4)).unwrap();
        assert_eq!(back, b4);
        let plain = metrics(&b.runs[0]);
        let par = metrics(&back.runs[0]);
        for ((on, ..), (nn, ..)) in plain.iter().zip(&par) {
            assert_eq!(on, nn, "redundancy metrics must extend, not reorder");
        }
        assert_eq!(par.len(), plain.len() + 9);
        assert_eq!(par.last().unwrap().0, "redundancy.parity_writes");
        // A present-yet-partial redundancy block is corruption.
        let mut doc = baseline_json(&b4);
        if let Json::Obj(fields) = &mut doc {
            if let Json::Arr(runs) = &mut fields[3].1 {
                if let Json::Obj(run) = &mut runs[0] {
                    if let Some((_, Json::Obj(rd))) =
                        run.iter_mut().find(|(k, _)| k == "redundancy")
                    {
                        rd.retain(|(k, _)| k != "rebuild_rows");
                    }
                }
            }
        }
        assert!(parse_baseline(&doc).unwrap_err().contains("rebuild_rows"));
    }

    #[test]
    fn parse_rejects_attribution_leak() {
        let b = sample_baseline();
        let mut doc = baseline_json(&b);
        if let Json::Obj(fields) = &mut doc {
            if let Json::Arr(runs) = &mut fields[3].1 {
                if let Json::Obj(run) = &mut runs[0] {
                    if let Some((_, v)) = run.iter_mut().find(|(k, _)| k == "elapsed_ns") {
                        *v = Json::U64(999_999);
                    }
                }
            }
        }
        assert!(parse_baseline(&doc).unwrap_err().contains("attribution"));
    }

    #[test]
    fn self_compare_is_clean() {
        let b = sample_baseline();
        let report = compare(&b, &b.runs, &[]);
        assert!(report.passed());
        assert!(report.findings.is_empty());
        assert_eq!(report.runs_compared, 2);
        assert!(report.missing.is_empty() && report.extra.is_empty());
    }

    #[test]
    fn drift_fails_gate_and_classifies_direction() {
        let b = sample_baseline();
        let mut cur = b.runs.clone();
        cur[0].elapsed_ns += 100;
        cur[0].attr.demand_stall_ns += 100;
        cur[0].prefetched_hits -= 10;
        let report = compare(&b, &cur, &[]);
        assert!(!report.passed());
        let by_metric = |m: &str| {
            report
                .findings
                .iter()
                .find(|f| f.metric == m)
                .unwrap_or_else(|| panic!("no finding for {m}"))
        };
        assert_eq!(by_metric("elapsed_ns").kind, DriftKind::Regression);
        assert_eq!(
            by_metric("attr.demand_stall_ns").kind,
            DriftKind::Regression
        );
        assert_eq!(
            by_metric("faults.prefetched_hits").kind,
            DriftKind::Regression
        );
        // A speedup is an improvement but still drift.
        let mut faster = b.runs.clone();
        faster[1].elapsed_ns -= 10;
        faster[1].attr.compute_ns -= 10;
        let report = compare(&b, &faster, &[]);
        assert!(!report.passed());
        assert_eq!(
            report
                .findings
                .iter()
                .find(|f| f.metric == "elapsed_ns")
                .unwrap()
                .kind,
            DriftKind::Improvement
        );
    }

    #[test]
    fn allowances_tolerate_declared_drift() {
        let b = sample_baseline();
        let mut cur = b.runs.clone();
        cur[0].elapsed_ns += 20; // 2% of 1000
        cur[0].attr.compute_ns += 20;
        let allow = vec![
            parse_allowance_arg("elapsed_ns=5").unwrap(),
            parse_allowance_arg("attr.*=5").unwrap(),
        ];
        let report = compare(&b, &cur, &allow);
        assert!(report.passed(), "2% drift under a 5% allowance passes");
        assert_eq!(report.findings.len(), 2, "findings are still reported");
        // The same drift without coverage fails.
        assert!(!compare(&b, &cur, &[]).passed());
        // An allowance never covers a checksum change.
        cur[0].checksum ^= 1;
        let report = compare(&b, &cur, &[parse_allowance_arg("all=100").unwrap()]);
        assert!(!report.passed());
        assert_eq!(
            report.checksum_divergence,
            vec!["EMBAR/pf+fcfs".to_string()]
        );
    }

    #[test]
    fn missing_cells_fail_and_extra_cells_warn() {
        let b = sample_baseline();
        let cur = vec![b.runs[0].clone(), sample_run("FFT", "pf+fcfs")];
        let report = compare(&b, &cur, &[]);
        assert_eq!(report.missing, vec!["BUK/orig+fcfs".to_string()]);
        assert_eq!(report.extra, vec!["FFT/pf+fcfs".to_string()]);
        assert!(!report.passed());
    }

    #[test]
    fn allowance_toml_dialect() {
        let text = r#"
# intentional: scheduler rework lands this PR
[allow]
elapsed_ns = 5.0
"hist.fault_wait.p99" = 25   # tail only
ledger.* = 10
"#;
        let got = parse_allowances_toml(text).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].metric, "elapsed_ns");
        assert_eq!(got[1].pct, 25.0);
        assert!(got[2].covers("ledger.timely_hits"));
        assert!(!got[2].covers("elapsed_ns"));
        assert!(parse_allowances_toml("bogus line").is_err());
        assert!(parse_allowances_toml("x = -3").is_err());
    }
}
