//! Versioned performance baselines: the across-run half of the
//! observability story.
//!
//! A capture of the benchmark matrix is serialized as an `oocp-bench-v4`
//! document (`BENCH_<n>.json`); a compare run re-executes the matrix and
//! diffs every metric against it. The simulator is deterministic, so any
//! drift — slower, faster or sideways — is a gate finding unless an
//! [`Allowance`] (`--allow metric=pct`, `perf-allowances.toml`) declares
//! and bounds it. Only v4 loads: `BENCH_1`–`BENCH_6` are history.
//!
//! The schema is written once, as tables: each `u64` is one row holding
//! its JSON key, the gated metric it is compared as, that metric's
//! direction, and the field it lives in. The writer, the reader and
//! [`metrics`] walk the same rows, so a new field is one row and a new
//! block one table.

use crate::attr::ATTR;
use crate::ledger::OUTCOMES;
use crate::whylate::WHYLATE;
use crate::{Json, LatencyHist, LedgerCounts, TimeAttribution, WhylateSummary};

/// The schema identifier, written by every capture and the only one
/// accepted on read. Every key is required except the optional per-run
/// blocks (`tenant`, `policy`, `whylate`, `sim_throughput`, the
/// report-only `profile`, `redundancy`), each complete or absent.
pub const SCHEMA_V4: &str = "oocp-bench-v4";

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

/// One `u64` of the schema: its JSON key, the gated metric it is
/// compared as (`None`: stored, never gated), that metric's direction,
/// and how to read and write it in a `T`.
pub(crate) struct Field<T> {
    pub(crate) key: &'static str,
    pub(crate) metric: Option<&'static str>,
    pub(crate) dir: Direction,
    pub(crate) get: fn(&T) -> u64,
    pub(crate) set: fn(&mut T, u64),
}

/// `row!(key, metric, Direction, path.to.field)` is a gated [`Field`]
/// of a struct (no path: of a bare `u64`); `row!(key, path.to.field)`
/// is one stored but not gated.
macro_rules! row {
    (@ $key:literal, $metric:expr, $dir:ident; $($f:ident).*) => {
        $crate::baseline::Field {
            key: $key,
            metric: $metric,
            dir: $crate::baseline::Direction::$dir,
            get: |t| (*t)$(.$f)*,
            set: |t, v| (*t)$(.$f)* = v,
        }
    };
    ($key:literal, $metric:literal, $dir:ident $(, $($f:ident).+)?) => {
        $crate::baseline::row!(@ $key, Some($metric), $dir; $($($f).+)?)
    };
    ($key:literal, $($f:ident).+) => {
        $crate::baseline::row!(@ $key, None, Neutral; $($f).+)
    };
}
pub(crate) use row;

/// A JSON object of [`Field`]s, stored under `key` in its parent.
pub(crate) struct Block<T: 'static> {
    pub(crate) key: &'static str,
    pub(crate) fields: &'static [Field<T>],
}

impl<T: Default> Block<T> {
    fn entry(&self, t: &T) -> (&'static str, Json) {
        (self.key, Json::obj(pairs(t, self.fields)))
    }

    /// Read the block's own object `v` into `t`; an error names the
    /// block and the missing key.
    fn fill(&self, v: &Json, t: &mut T) -> Result<(), String> {
        read_fields(v, t, self.fields).map_err(|e| format!("{} {e}", self.key))
    }

    /// Read the block of `parent`, which must have it, into `t`.
    fn read(&self, parent: &Json, t: &mut T) -> Result<(), String> {
        self.fill(req(parent, self.key, Some)?, t)
    }

    /// Parse the block's own object `v`.
    pub(crate) fn parse(&self, v: &Json) -> Result<T, String> {
        let mut t = T::default();
        self.fill(v, &mut t).map(|()| t)
    }

    /// An optional block of `parent`: absent is `None`, present must be
    /// complete.
    fn find(&self, parent: &Json) -> Result<Option<T>, String> {
        parent.get(self.key).map(|v| self.parse(v)).transpose()
    }
}

pub(crate) fn pairs<'a, T>(
    t: &'a T,
    fields: &'a [Field<T>],
) -> impl Iterator<Item = (&'static str, Json)> + 'a {
    fields.iter().map(move |f| (f.key, Json::U64((f.get)(t))))
}

fn read_fields<T>(v: &Json, t: &mut T, fields: &[Field<T>]) -> Result<(), String> {
    for f in fields {
        (f.set)(t, req(v, f.key, Json::as_u64)?);
    }
    Ok(())
}

type Metric = (&'static str, u64, Direction);

/// Push the gated `fields` of each of `ts`: a block, or an optional
/// block's zero or one.
fn gate<'a, T: 'a>(ts: impl IntoIterator<Item = &'a T>, fields: &[Field<T>], m: &mut Vec<Metric>) {
    for t in ts {
        let gated = fields
            .iter()
            .filter_map(|f| Some((f.metric?, (f.get)(t), f.dir)));
        m.extend(gated);
    }
}

/// `v[key]` viewed `as_t`; absent or of another type is an error
/// naming the key.
fn req<'a, T>(v: &'a Json, key: &str, as_t: fn(&'a Json) -> Option<T>) -> Result<T, String> {
    v.get(key)
        .and_then(as_t)
        .ok_or_else(|| format!("missing {key}"))
}

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

/// Redundancy summary of a parity cell: the degraded-read, hedging,
/// and rebuild counters the `redundancy` matrix gates on. Absent for
/// `--redundancy none` cells.
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
    /// Multi-tenant fairness summary; `None` for solo cells.
    pub tenant: Option<TenantSummary>,
    /// Prefetch-policy summary; `None` for compiler-only cells.
    pub policy: Option<PolicySummary>,
    /// Whylate causal attribution of the cell's late/dropped/wasted
    /// prefetches; `None` for runs without the observability layer.
    pub whylate: Option<WhylateSummary>,
    /// Simulated nanoseconds advanced per host-wall-clock second while
    /// executing the cell. Wall-clock-derived and therefore noisy —
    /// gated only under a wide `simthroughput.*` allowance band.
    /// `None` outside a matrix capture.
    pub sim_throughput: Option<u64>,
    /// Compact host-time profile summary. Report-only — never in
    /// [`metrics`]. `None` for unprofiled captures.
    pub profile: Option<ProfileSummary>,
    /// Parity redundancy counters. `None` for `--redundancy none` cells.
    pub redundancy: Option<RedundancySummary>,
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
    /// per-run blocks); `None` when no cell carried one.
    pub whylate: Option<WhylateSummary>,
}

// The v4 schema, in document order. `kernel`, `config`, the policy's
// `name` and the profile's `sites` are strings and stay hand-written;
// the attribution, ledger-outcome and whylate rows sit beside their
// structs (`attr.rs`, `ledger.rs`, `whylate.rs`).

/// The document's scalars, after `schema`.
const DOC: &[Field<Baseline>] = &[row!("index", index), row!("seed", seed)];

/// A run's scalars, after `kernel` and `config`. The checksum is
/// compared on its own and can never be allowed.
const TOP: &[Field<BaselineRun>] = &[
    row!("elapsed_ns", "elapsed_ns", HigherWorse, elapsed_ns),
    row!("checksum", checksum),
];

#[rustfmt::skip]
const FAULTS: Block<BaselineRun> = Block { key: "faults", fields: &[
    row!("hard", "faults.hard", HigherWorse, hard_faults),
    row!("soft", "faults.soft", Neutral, soft_faults),
    row!("prefetched_hits", "faults.prefetched_hits", LowerWorse, prefetched_hits),
]};

/// The `ledger` block: its `entries`, then the nine [`OUTCOMES`].
#[rustfmt::skip]
const LEDGER: Block<BaselineRun> = Block { key: OUTCOMES.key, fields: &[row!("entries", "ledger.entries", Neutral, ledger_entries)] };

/// The `hist` block: one object per histogram.
const HIST: &str = "hist";
#[rustfmt::skip]
const HISTS: [Block<BaselineRun>; 3] = [
    Block { key: "fault_wait", fields: &[
        row!("count", "hist.fault_wait.count", Neutral, fault_wait.count),
        row!("p50_ns", "hist.fault_wait.p50", HigherWorse, fault_wait.p50),
        row!("p95_ns", "hist.fault_wait.p95", HigherWorse, fault_wait.p95),
        row!("p99_ns", "hist.fault_wait.p99", HigherWorse, fault_wait.p99),
    ]},
    Block { key: "lead_time", fields: &[
        row!("count", "hist.lead_time.count", Neutral, lead_time.count),
        row!("p50_ns", "hist.lead_time.p50", Neutral, lead_time.p50),
        row!("p95_ns", "hist.lead_time.p95", Neutral, lead_time.p95),
        row!("p99_ns", "hist.lead_time.p99", Neutral, lead_time.p99),
    ]},
    Block { key: "arrival_to_use", fields: &[
        row!("count", "hist.arrival_to_use.count", Neutral, arrival_to_use.count),
        row!("p50_ns", "hist.arrival_to_use.p50", Neutral, arrival_to_use.p50),
        row!("p95_ns", "hist.arrival_to_use.p95", Neutral, arrival_to_use.p95),
        row!("p99_ns", "hist.arrival_to_use.p99", Neutral, arrival_to_use.p99),
    ]},
];

#[rustfmt::skip]
const RECOVERY: Block<BaselineRun> = Block { key: "recovery", fields: &[
    row!("journal_appends", "journal.appends", HigherWorse, journal_appends),
    row!("journal_stalls", "journal.stalls", HigherWorse, journal_stalls),
    row!("pages_replayed", "recovery.pages_replayed", Neutral, recovery_replayed),
    row!("pages_discarded", "recovery.pages_discarded", Neutral, recovery_discarded),
    row!("torn_detected", "recovery.torn_detected", Neutral, recovery_torn),
    row!("unrecoverable", "recovery.unrecoverable", HigherWorse, recovery_unrecoverable),
    row!("recovery_ns", "recovery.recovery_ns", HigherWorse, recovery_ns),
]};

#[rustfmt::skip]
const TENANT: Block<TenantSummary> = Block { key: "tenant", fields: &[
    row!("count", "tenant.count", Neutral, count),
    row!("p95_stall_max_ns", "tenant.p95_stall_max_ns", HigherWorse, p95_stall_max_ns),
    row!("hints_dropped_quota", "tenant.dropped_quota", HigherWorse, hints_dropped_quota),
    row!("hints_dropped_pressure", "tenant.dropped_pressure", HigherWorse, hints_dropped_pressure),
    row!("quota_evictions", "tenant.quota_evictions", HigherWorse, quota_evictions),
]};

/// The policy block, after the policy's `name`.
#[rustfmt::skip]
const POLICY: Block<PolicySummary> = Block { key: "policy", fields: &[
    row!("injected_prefetch_pages", "policy.injected_prefetch_pages", Neutral, injected_prefetch_pages),
    row!("injected_release_pages", "policy.injected_release_pages", Neutral, injected_release_pages),
    row!("window_peak", "policy.window_peak", Neutral, window_peak),
    row!("distance_retunes", "policy.distance_retunes", Neutral, distance_retunes),
    row!("late_rate_samples", "policy.late_rate_samples", Neutral, late_rate_samples),
    row!("late_arrival_bp", "policy.late_arrival_bp", HigherWorse, late_arrival_bp),
]};

/// A run-level scalar, not a block: present when stamped.
#[rustfmt::skip]
const SIM_THROUGHPUT: &[Field<u64>] = &[row!("sim_throughput", "simthroughput.sim_ns_per_host_s", LowerWorse)];

/// The profile block, before its `sites`; nothing in it is gated.
#[rustfmt::skip]
const PROFILE: Block<ProfileSummary> = Block { key: "profile", fields: &[row!("total_host_ns", total_host_ns)] };

#[rustfmt::skip]
const REDUNDANCY: Block<RedundancySummary> = Block { key: "redundancy", fields: &[
    row!("degraded_reads", "redundancy.degraded_reads", Neutral, degraded_reads),
    row!("degraded_read_ns", "redundancy.degraded_read_ns", HigherWorse, degraded_read_ns),
    row!("hints_rerouted", "redundancy.hints_rerouted", Neutral, hints_rerouted),
    row!("hedged_reads", "redundancy.hedged_reads", Neutral, hedged_reads),
    row!("hedged_wins", "redundancy.hedged_wins", Neutral, hedged_wins),
    row!("rebuild_rows", "redundancy.rebuild_rows", Neutral, rebuild_rows),
    row!("rebuild_ns", "redundancy.rebuild_ns", HigherWorse, rebuild_ns),
    row!("verify_mismatches", "redundancy.verify_mismatches", HigherWorse, verify_mismatches),
    row!("parity_writes", "redundancy.parity_writes", HigherWorse, parity_writes),
]};

/// The gated metrics of one run, in document order, with the direction
/// each one reads in. `checksum` is absent — it is compared separately
/// and can never be allowed — and so is the report-only `profile`.
pub fn metrics(r: &BaselineRun) -> Vec<(&'static str, u64, Direction)> {
    let mut m = Vec::new();
    gate([r], TOP, &mut m);
    gate([&r.attr], ATTR.fields, &mut m);
    gate([r], FAULTS.fields, &mut m);
    gate([r], LEDGER.fields, &mut m);
    gate([&r.ledger], OUTCOMES.fields, &mut m);
    HISTS.iter().for_each(|h| gate([r], h.fields, &mut m));
    gate([r], RECOVERY.fields, &mut m);
    gate(&r.tenant, TENANT.fields, &mut m);
    gate(&r.policy, POLICY.fields, &mut m);
    gate(&r.whylate, WHYLATE.fields, &mut m);
    gate(&r.sim_throughput, SIM_THROUGHPUT, &mut m);
    gate(&r.redundancy, REDUNDANCY.fields, &mut m);
    m
}

fn run_json(r: &BaselineRun) -> Json {
    let mut doc = vec![
        ("kernel", Json::Str(r.kernel.clone())),
        ("config", Json::Str(r.config.clone())),
    ];
    doc.extend(pairs(r, TOP));
    doc.push((ATTR.key, r.attr.to_json()));
    doc.push(FAULTS.entry(r));
    let ledger = pairs(r, LEDGER.fields).chain(r.ledger.json_fields());
    doc.push((LEDGER.key, Json::obj(ledger)));
    doc.push((HIST, Json::obj(HISTS.iter().map(|h| h.entry(r)))));
    doc.push(RECOVERY.entry(r));
    doc.extend(r.tenant.iter().map(|t| TENANT.entry(t)));
    if let Some(p) = &r.policy {
        let fields = pairs(p, POLICY.fields);
        let name = ("name", Json::Str(p.name.clone()));
        doc.push((POLICY.key, Json::obj([name].into_iter().chain(fields))));
    }
    doc.extend(r.whylate.iter().map(|w| WHYLATE.entry(w)));
    if let Some(st) = &r.sim_throughput {
        doc.extend(pairs(st, SIM_THROUGHPUT));
    }
    if let Some(p) = &r.profile {
        let site = |(path, ns): &(String, u64)| {
            let path = ("path", Json::Str(path.clone()));
            Json::obj([path, ("self_ns", Json::U64(*ns))])
        };
        let sites = ("sites", Json::Arr(p.sites.iter().map(site).collect()));
        let fields = pairs(p, PROFILE.fields).chain([sites]);
        doc.push((PROFILE.key, Json::obj(fields)));
    }
    doc.extend(r.redundancy.iter().map(|rd| REDUNDANCY.entry(rd)));
    Json::obj(doc)
}

/// Serialize a baseline as an `oocp-bench-v4` document.
pub fn baseline_json(b: &Baseline) -> Json {
    let mut doc = vec![("schema", Json::Str(SCHEMA_V4.to_string()))];
    doc.extend(pairs(b, DOC));
    doc.push(("runs", Json::Arr(b.runs.iter().map(run_json).collect())));
    doc.extend(b.whylate.iter().map(|w| WHYLATE.entry(w)));
    Json::obj(doc)
}

fn parse_run(v: &Json) -> Result<BaselineRun, String> {
    let mut r = BaselineRun::default();
    let kernel = req(v, "kernel", Json::as_str);
    r.kernel = kernel.map_err(|e| format!("run: {e}"))?.into();
    let config = req(v, "config", Json::as_str);
    r.config = config.map_err(|e| format!("{}: {e}", r.kernel))?.into();
    read_run(v, &mut r).map_err(|e| format!("{}: {e}", r.key()))?;
    Ok(r)
}

fn read_run(v: &Json, r: &mut BaselineRun) -> Result<(), String> {
    read_fields(v, r, TOP)?;
    r.attr = TimeAttribution::parse(req(v, ATTR.key, Some)?)?;
    FAULTS.read(v, r)?;
    LEDGER.read(v, r)?;
    OUTCOMES.read(v, &mut r.ledger)?;
    let hist = req(v, HIST, Some)?;
    for h in &HISTS {
        h.read(hist, r).map_err(|e| format!("{HIST} {e}"))?;
    }
    RECOVERY.read(v, r)?;
    r.tenant = TENANT.find(v)?;
    r.policy = POLICY.find(v)?;
    if let (Some(p), Some(pv)) = (&mut r.policy, v.get(POLICY.key)) {
        let name = req(pv, "name", Json::as_str);
        p.name = name.map_err(|e| format!("{} {e}", POLICY.key))?.into();
    }
    r.whylate = WHYLATE.find(v)?;
    if v.get(SIM_THROUGHPUT[0].key).is_some() {
        read_fields(v, r.sim_throughput.insert(0), SIM_THROUGHPUT)?;
    }
    r.profile = PROFILE.find(v)?;
    if let (Some(p), Some(pv)) = (&mut r.profile, v.get(PROFILE.key)) {
        let site = |s: &Json| {
            let path = req(s, "path", Json::as_str)?.to_string();
            Ok((path, req(s, "self_ns", Json::as_u64)?))
        };
        let sites = req(pv, "sites", Json::as_arr).and_then(|s| s.iter().map(site).collect());
        p.sites = sites.map_err(|e: String| format!("{} {e}", PROFILE.key))?;
    }
    r.redundancy = REDUNDANCY.find(v)?;
    // The attribution must still cover the elapsed time exactly.
    let (total, elapsed) = (r.attr.total(), r.elapsed_ns);
    if total != elapsed {
        return Err(format!(
            "attribution sums to {total} but elapsed is {elapsed}"
        ));
    }
    Ok(())
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
    let runs = req(doc, "runs", Json::as_arr).map_err(|e| format!("baseline: {e}"))?;
    let mut b = Baseline {
        runs: runs.iter().map(parse_run).collect::<Result<_, _>>()?,
        ..Baseline::default()
    };
    let mut keys: Vec<String> = b.runs.iter().map(BaselineRun::key).collect();
    keys.sort();
    if let Some(dup) = keys.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("duplicate matrix cell {}", dup[0]));
    }
    if b.runs.is_empty() {
        return Err("baseline holds no runs".into());
    }
    read_fields(doc, &mut b, DOC).map_err(|e| format!("baseline: {e}"))?;
    b.whylate = WHYLATE.find(doc).map_err(|e| format!("baseline: {e}"))?;
    Ok(b)
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
        match self.metric.strip_suffix('*') {
            _ if self.metric == "all" => true,
            Some(prefix) => metric.starts_with(prefix),
            None => self.metric == metric,
        }
    }
}

/// Parse a `--allow metric=pct` argument; the metric may be quoted.
pub fn parse_allowance_arg(s: &str) -> Result<Allowance, String> {
    let (metric, pct) = s
        .split_once('=')
        .ok_or_else(|| format!("allowance '{s}' is not metric=pct"))?;
    let metric = metric.trim().trim_matches('"').to_string();
    if metric.is_empty() {
        return Err(format!("allowance '{s}' names no metric"));
    }
    let pct: f64 = pct
        .trim()
        .parse()
        .map_err(|_| format!("allowance '{s}': '{pct}' is not a number"))?;
    if !(pct >= 0.0 && pct.is_finite()) {
        return Err(format!(
            "allowance '{s}': percentage must be finite and >= 0"
        ));
    }
    Ok(Allowance { metric, pct })
}

/// Parse a `perf-allowances.toml` file: a flat list of `metric = pct`
/// lines, each read like a `--allow` argument. `#` comments, blank
/// lines, and `[section]` headers are ignored. This is the whole
/// dialect — the file is a declaration list, not a config language.
pub fn parse_allowances_toml(text: &str) -> Result<Vec<Allowance>, String> {
    let lines = text.lines().enumerate();
    let lines = lines.map(|(n, raw)| (n + 1, raw.split('#').next().unwrap_or("").trim()));
    lines
        .filter(|(_, l)| !(l.is_empty() || (l.starts_with('[') && l.ends_with(']'))))
        .map(|(n, l)| parse_allowance_arg(l).map_err(|e| format!("line {n}: {e}")))
        .collect()
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
    /// Present on one side only: an optional block appeared or
    /// vanished. Never allowable.
    Unpaired,
}

/// One metric that moved between baseline and current run.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Matrix cell (`KERNEL/config`).
    pub key: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value; `None` when the baseline cell lacks the metric.
    pub old: Option<u64>,
    /// Current value; `None` when the current cell lacks the metric.
    pub new: Option<u64>,
    /// How the move reads.
    pub kind: DriftKind,
    /// Covered by an allowance (does not fail the gate).
    pub allowed: bool,
}

impl Finding {
    /// Relative drift in percent, against a floor-1 base so zero
    /// baselines still produce a finite number; infinite for an
    /// unpaired metric.
    pub fn pct(&self) -> f64 {
        match (self.old, self.new) {
            (Some(old), Some(new)) => (new as f64 - old as f64) / old.max(1) as f64 * 100.0,
            _ => f64::INFINITY,
        }
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
/// Cells are matched by [`BaselineRun::key`] and metrics by name.
/// Every differing metric produces a [`Finding`]; an allowance marks it
/// tolerated when the relative drift stays within the declared
/// percentage. A metric only one side has is an unpaired finding, and
/// checksums are compared unconditionally: neither can be allowed.
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
        let (old_m, new_m) = (metrics(old), metrics(new));
        let value = |m: &[Metric], name: &str| m.iter().find(|x| x.0 == name).map(|x| x.1);
        let only_new = new_m.iter().filter(|(n, ..)| value(&old_m, n).is_none());
        for &(name, _, dir) in old_m.iter().chain(only_new) {
            let (ov, nv) = (value(&old_m, name), value(&new_m, name));
            if ov == nv {
                continue;
            }
            let mut f = Finding {
                key: key.clone(),
                metric: name.to_string(),
                old: ov,
                new: nv,
                kind: DriftKind::Unpaired,
                allowed: false,
            };
            if let (Some(o), Some(n)) = (ov, nv) {
                f.kind = drift_kind(dir, o, n);
                f.allowed = allow
                    .iter()
                    .any(|a| a.covers(name) && f.pct().abs() <= a.pct);
            }
            report.findings.push(f);
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

    fn sample_policy() -> PolicySummary {
        PolicySummary {
            name: "readahead".into(),
            injected_prefetch_pages: 512,
            injected_release_pages: 16,
            window_peak: 64,
            distance_retunes: 0,
            late_rate_samples: 0,
            late_arrival_bp: 250,
        }
    }

    /// `doc` with `key` removed from the first run's `block`, or with
    /// the whole block removed when `key` is `None`.
    fn without(mut doc: Json, block: &str, key: Option<&str>) -> Json {
        let Json::Obj(fields) = &mut doc else {
            panic!("a baseline is an object");
        };
        let Some((_, Json::Arr(runs))) = fields.iter_mut().find(|(k, _)| k == "runs") else {
            panic!("a baseline has runs");
        };
        let Json::Obj(run) = &mut runs[0] else {
            panic!("a run is an object");
        };
        match key {
            None => run.retain(|(k, _)| k != block),
            Some(key) => match run.iter_mut().find(|(k, _)| k == block) {
                Some((_, Json::Obj(b))) => b.retain(|(k, _)| k != key),
                _ => panic!("the first run has no {block} block"),
            },
        }
        doc
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
    fn v4_runs_missing_a_key_are_rejected_by_name() {
        // Every key outside the optional blocks is required: the keys
        // older schemas lacked included. The error names what is gone.
        let mut b = sample_baseline();
        b.runs[0].whylate = Some(WhylateSummary::default());
        let doc = baseline_json(&b);
        for (block, key, want) in [
            ("recovery", None, "missing recovery"),
            (
                "recovery",
                Some("unrecoverable"),
                "recovery missing unrecoverable",
            ),
            (
                "ledger",
                Some("dropped_quota"),
                "ledger missing dropped_quota",
            ),
            (
                "ledger",
                Some("dropped_pressure"),
                "ledger missing dropped_pressure",
            ),
            (
                "whylate",
                Some("late_degraded_read"),
                "whylate missing late_degraded_read",
            ),
            (
                "whylate",
                Some("late_rebuild_contention"),
                "whylate missing late_rebuild_contention",
            ),
            ("hist", Some("lead_time"), "hist missing lead_time"),
            ("attr", Some("total_ns"), "attr missing total_ns"),
        ] {
            let err = parse_baseline(&without(doc.clone(), block, key)).unwrap_err();
            assert_eq!(err, format!("EMBAR/pf+fcfs: {want}"));
        }
    }

    #[test]
    fn policy_block_roundtrips_and_rejects_partials() {
        let mut b = sample_baseline();
        b.runs[0].policy = Some(sample_policy());
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
        for key in ["window_peak", "name"] {
            let partial = without(doc.clone(), "policy", Some(key));
            assert!(parse_baseline(&partial).unwrap_err().contains(key));
        }
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
        // exactly, and gate every cause plus the throughput.
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
        let new_m = metrics(&back.runs[0]);
        assert_eq!(
            new_m.len(),
            metrics(&b.runs[0]).len() + crate::WHYLATE_CAUSES + 1
        );
        let st = (
            "simthroughput.sim_ns_per_host_s",
            123_456_789,
            Direction::LowerWorse,
        );
        assert!(new_m.contains(&st));
        // A present-yet-partial whylate block is corruption.
        let partial = without(baseline_json(&b2), "whylate", Some("late_queue_wait"));
        assert!(parse_baseline(&partial)
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
        for key in ["total_host_ns", "sites"] {
            let partial = without(baseline_json(&b3), "profile", Some(key));
            assert!(parse_baseline(&partial).unwrap_err().contains(key));
        }
    }

    #[test]
    fn redundancy_block_roundtrips_behind_the_plain_metrics() {
        // Parity cells round-trip the block exactly; redundancy is the
        // last block, so its metrics follow the non-parity list.
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
        assert_eq!(par[..plain.len()], plain[..]);
        assert_eq!(par.len(), plain.len() + 9);
        assert_eq!(par.last().unwrap().0, "redundancy.parity_writes");
        // A present-yet-partial redundancy block is corruption.
        let partial = without(baseline_json(&b4), "redundancy", Some("rebuild_rows"));
        assert!(parse_baseline(&partial)
            .unwrap_err()
            .contains("rebuild_rows"));
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
    fn compare_pairs_metrics_by_name() {
        // A cell whose optional block vanished (or appeared) reports
        // exactly that block's metrics, unpaired and never allowable;
        // the blocks behind it still compare against themselves.
        let mut b = sample_baseline();
        b.runs[0].policy = Some(sample_policy());
        b.runs[0].whylate = Some(WhylateSummary {
            late_issue_lag: 3,
            ..WhylateSummary::default()
        });
        b.runs[0].sim_throughput = Some(1_000);
        let mut cur = b.runs.clone();
        cur[0].policy = None;
        let all = [parse_allowance_arg("all=100").unwrap()];
        let report = compare(&b, &cur, &all);
        let policy: Vec<&str> = POLICY.fields.iter().filter_map(|f| f.metric).collect();
        let got: Vec<&str> = report.findings.iter().map(|f| f.metric.as_str()).collect();
        assert_eq!(got, policy);
        assert!(report.findings.iter().all(|f| f.kind == DriftKind::Unpaired
            && !f.allowed
            && f.old.is_some()
            && f.new.is_none()));
        assert!(!report.passed());
        // The other way round: the block appeared.
        let back = Baseline {
            runs: cur.clone(),
            ..b.clone()
        };
        let report = compare(&back, &b.runs, &all);
        let got: Vec<&str> = report.findings.iter().map(|f| f.metric.as_str()).collect();
        assert_eq!(got, policy);
        assert!(report
            .findings
            .iter()
            .all(|f| f.old.is_none() && f.new.is_some() && f.pct().is_infinite()));
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
