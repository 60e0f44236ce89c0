//! Shared harness for the reproduction binaries.
//!
//! The `repro` binary regenerates every table and figure of the paper's
//! evaluation from one table of [`experiments`] (see `DESIGN.md`
//! section 5 for the index), and runs the sweeps and gates from a second
//! table beside it; the tools are binaries of their own. This library
//! provides the common machinery: building a
//! workload, running it on the simulated machine in the original
//! (paged-VM) or prefetching configuration, and collecting every
//! statistic the figures need.

pub mod experiments;
mod kernel;
pub mod report;
mod sweeps;
pub mod tenants;

pub use kernel::Kernel;

use oocp_core::{compile, CompileReport, CompilerParams};
use oocp_ir::{run_program, run_program_profiled, ArrayBinding, CostModel, ExecStats, Program, Vm};
use oocp_nas::Workload;
use oocp_obs::{HostProf, Profile, TimeAttribution};
use oocp_os::{
    FaultPlan, FlushError, HistoryReplay, Machine, MachineParams, MetricsReport, OsStats,
    PolicyKind, PrefetchPolicy, RecoveryReport, Segment, Telemetry, Trace,
};
use oocp_rt::{segment_checksum, FilterMode, RtStats, Runtime, UntilCrash};
use oocp_sim::time::{Ns, TimeBreakdown};

/// A file the harness could not create or write, with the path kept
/// for the error message. The bench binaries report these and exit
/// non-zero instead of panicking — an unwritable `--json` path is an
/// operator mistake, not a harness bug.
#[derive(Debug)]
pub struct WriteError {
    /// Path that failed.
    pub path: String,
    /// Underlying I/O error.
    pub source: std::io::Error,
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot write {}: {}", self.path, self.source)
    }
}

impl std::error::Error for WriteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// The binaries' shared handler for a failed output write: print the
/// error and exit non-zero. A doomed `--csv`/`--json` path should fail
/// the run cleanly, not unwind through a panic backtrace.
pub fn exit_on(e: WriteError) -> ! {
    eprintln!("error: {e}");
    std::process::exit(1);
}

/// How to run a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The unmodified program relying on paged virtual memory ("O").
    Original,
    /// Compiler-inserted prefetching with the run-time filter ("P").
    Prefetch,
    /// Prefetching with the run-time layer disabled (Figure 4(c)).
    PrefetchNoFilter,
    /// Prefetching with two-version loops (the paper's proposed fix).
    PrefetchTwoVersion,
    /// Prefetching with in-core adaptive suppression (paper section
    /// 4.3.1 future work, implemented in the run-time layer).
    PrefetchAdaptive,
    /// Prefetching with memory-adaptive *code generation* (section
    /// 4.3.1's compiler-side proposal: the program tests its data size
    /// against an available-memory parameter at run time).
    PrefetchAdaptiveCode,
}

impl Mode {
    /// Short label used in table columns.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Original => "O",
            Mode::Prefetch => "P",
            Mode::PrefetchNoFilter => "P-nofilter",
            Mode::PrefetchTwoVersion => "P-2ver",
            Mode::PrefetchAdaptive => "P-adapt",
            Mode::PrefetchAdaptiveCode => "P-acode",
        }
    }
}

/// Everything measured in one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Mode the run used.
    pub mode: Mode,
    /// Simulated time ledger.
    pub time: TimeBreakdown,
    /// OS counters.
    pub os: OsStats,
    /// Run-time-layer counters.
    pub rt: RtStats,
    /// Aggregate disk counters.
    pub disk: oocp_disk::DiskStats,
    /// Average per-disk utilization.
    pub disk_util: f64,
    /// Time-weighted average free frames.
    pub avg_free_frames: f64,
    /// Interpreter dynamic counts.
    pub exec: ExecStats,
    /// Compile report (None for original runs).
    pub report: Option<CompileReport>,
    /// Whether the workload verifier accepted the results.
    pub verified: Result<(), String>,
    /// FNV-1a checksum of the final address-space contents. Two runs of
    /// the same workload that agree here computed bit-identical data —
    /// the correctness oracle for fault-injection sweeps.
    pub checksum: u64,
    /// Figure-5 attribution of every elapsed nanosecond (always
    /// collected; built from the OS's exact stall accumulators, so
    /// `attr.total() == time.total()`).
    pub attr: TimeAttribution,
    /// Observability snapshot: latency histograms and the prefetch-
    /// lifecycle ledger. Present when [`Config::metrics`] was set.
    pub obs: Option<MetricsReport>,
    /// Dirty pages that never durably reached the disks (write-backs
    /// abandoned after exhausted retries, or pages cut off by a
    /// simulated power loss). `None` means every result flushed clean.
    pub flush: Option<FlushError>,
    /// Name of the prefetch policy installed on the machine; `None`
    /// for the compiler-only default (no policy object at all).
    pub policy: Option<&'static str>,
    /// Continuous-telemetry output: the sampler's series, their final
    /// values and the sampled time-series ring. Present when
    /// [`Config::sampler`] was set.
    pub telemetry: Option<Telemetry>,
}

impl RunResult {
    /// Total simulated execution time.
    pub fn total(&self) -> Ns {
        self.time.total()
    }
}

/// Experiment-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Machine parameters.
    pub machine: MachineParams,
    /// Workload seed.
    pub seed: u64,
    /// Interpreter cost model.
    pub cost: CostModel,
    /// Warm-start: preload the data set before timing (Figure 6).
    pub warm: bool,
    /// Enable the machine's observability layer (timing-neutral; fills
    /// [`RunResult::obs`]).
    pub metrics: bool,
    /// Attach the sim-time telemetry sampler: `(interval_ns, ring_cap)`.
    /// Implies metrics on the machine; timing-neutral like `metrics`
    /// (the sampler only reads counters at clock-advance points). Fills
    /// [`RunResult::telemetry`].
    pub sampler: Option<(Ns, usize)>,
}

impl Config {
    /// The default experiment platform: the paper's Table 1 shape with
    /// memory scaled down so the full suite runs quickly (data-set to
    /// memory *ratios* are what the experiments control).
    pub fn default_platform() -> Self {
        let machine = MachineParams::paper_platform().with_memory_bytes(8 * 1024 * 1024);
        Self {
            machine,
            seed: 20260706,
            cost: CostModel::default(),
            warm: false,
            metrics: false,
            sampler: None,
        }
    }

    /// Compiler parameters matched to this machine.
    pub fn compiler_params(&self) -> CompilerParams {
        CompilerParams::new(
            self.machine.page_bytes,
            self.machine.memory_bytes(),
            self.machine.disk.avg_access_ns() + self.machine.fault_overhead_ns,
        )
        .with_cost(self.cost)
    }

    /// Data-set size for a memory-ratio (e.g. 2.0 = twice memory).
    pub fn bytes_for_ratio(&self, ratio: f64) -> u64 {
        (self.machine.memory_bytes() as f64 * ratio) as u64
    }
}

/// One experiment: a program, original or prefetching, on one
/// platform. Every table, figure, gate and test builds one of these
/// and calls [`RunSpec::run`] (a NAS [`Workload`]), [`RunSpec::run_ir`]
/// (a bare IR program) or [`RunSpec::crash_recover`]; all three go
/// through the same machine set-up, so a knob set here means the same
/// thing on every path.
pub struct RunSpec<'a> {
    cfg: &'a Config,
    mode: Mode,
    cparams: Option<CompilerParams>,
    pressure: Vec<(Ns, u64)>,
    plan: Option<&'a FaultPlan>,
    trace_cap: usize,
    profile: bool,
}

/// What a [`RunSpec`] run hands back.
pub struct RunOutput {
    /// Everything measured.
    pub result: RunResult,
    /// The machine's event timeline, when [`RunSpec::trace`] asked for
    /// one — what the perfgate tracediff aligns by prefetch span id.
    pub trace: Option<Trace>,
    /// Host-time attribution, when [`RunSpec::profile`] asked for it.
    /// Under `PolicyKind::HistoryReplay` it covers the *measured*
    /// second pass only.
    pub profile: Option<Profile>,
}

/// A crash-recovery round trip of one workload. The fault plan must
/// schedule a power loss: the first leg runs into it and stops there,
/// the machine is recovered as the crash left it — journal rings
/// scanned, committed intents replayed, torn and uncommitted pages
/// rolled back to their last durable version — and the workload
/// restarts from scratch on the recovered machine.
///
/// The write-ahead journal gives *per-page* atomicity, not cross-page
/// snapshot consistency, so the correctness oracle is application-
/// restart semantics: the re-run (same workload, same seed) must
/// produce bit-identical results to a run that never crashed.
pub struct CrashRun {
    /// The run that hit the power loss, stopped at the call it latched
    /// in: [`RunResult::exec`] counts what ran, [`RunResult::flush`] the
    /// pages dirty at the crash or lost by it.
    pub crashed: RunOutput,
    /// What recovery found and did.
    pub recovery: RecoveryReport,
    /// The post-recovery restart. Its stats carry the `recovery_*`
    /// counters of the machine it ran on.
    pub rerun: RunOutput,
}

/// What a run executes, built once and reused by every pass and leg:
/// the program as compiled for the mode, its address-space layout and
/// its runtime parameters.
struct Prepared<'a> {
    /// Initializer and verifier; a bare IR program has neither.
    workload: Option<&'a Workload>,
    prog: Program,
    report: Option<CompileReport>,
    binds: Vec<ArrayBinding>,
    bytes: u64,
    params: Vec<i64>,
}

impl<'a> RunSpec<'a> {
    /// `mode` on `cfg`'s platform: compiler parameters matched to the
    /// machine, no pressure, no faults, no trace, no profile.
    pub fn new(cfg: &'a Config, mode: Mode) -> Self {
        Self {
            cfg,
            mode,
            cparams: None,
            pressure: Vec::new(),
            plan: None,
            trace_cap: 0,
            profile: false,
        }
    }

    /// Explicit compiler parameters (ablations) in place of
    /// [`Config::compiler_params`].
    pub fn compiler(mut self, cparams: CompilerParams) -> Self {
        self.cparams = Some(cparams);
        self
    }

    /// A memory-pressure schedule: the resident limit changes at the
    /// given simulated times (the multiprogramming model of the
    /// paper's future work).
    pub fn pressure(mut self, schedule: Vec<(Ns, u64)>) -> Self {
        self.pressure = schedule;
        self
    }

    /// Install a fault plan before the run starts: disk errors,
    /// stragglers, brownouts, bit-vector desync, pressure storms, disk
    /// deaths and power loss, all per the plan. The run must still
    /// verify and produce the same [`RunResult::checksum`] as a
    /// fault-free run — faults may only cost time.
    pub fn faults(mut self, plan: &'a FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Capture the machine's event trace in a ring of `cap` records
    /// (0 = off) and return it as [`RunOutput::trace`].
    pub fn trace(mut self, cap: usize) -> Self {
        self.trace_cap = cap;
        self
    }

    /// Run under the host-time profiler: the same simulated run
    /// (bit-identical results, stats and timestamps — the probes read
    /// only the host clock), plus [`RunOutput::profile`].
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Compile (or not) and execute one workload; verify the results.
    pub fn run(&self, w: &Workload) -> RunOutput {
        self.run_passes(&self.prepare(&w.prog, &w.param_values, Some(w)))
    }

    /// Run a bare IR [`Program`] (e.g. a parsed `kernels/*.ook` file):
    /// a workload whose initializer is a no-op and whose verifier
    /// accepts. The program starts from a zeroed address space (the
    /// sample kernels initialize their own data) and the checksum
    /// still fingerprints the final contents.
    pub fn run_ir(&self, prog: &Program, param_values: &[i64]) -> RunOutput {
        self.run_passes(&self.prepare(prog, param_values, None))
    }

    /// Run `w` into the plan's scheduled power loss, recover, and
    /// restart on the recovered machine. See [`CrashRun`].
    ///
    /// # Panics
    ///
    /// Panics if no fault plan was given or it schedules no crash.
    pub fn crash_recover(&self, w: &Workload) -> CrashRun {
        assert!(
            self.plan.is_some_and(|p| p.crash.is_some()),
            "crash_recover needs a fault plan with a scheduled crash"
        );
        let prepared = self.prepare(&w.prog, &w.param_values, Some(w));
        let (crashed, machine) = self.execute(&prepared, None, None);
        let (machine, recovery) = machine.recover();
        let (rerun, _) = self.execute(&prepared, Some(machine), None);
        CrashRun {
            crashed,
            recovery,
            rerun,
        }
    }

    /// Compile `source` for the mode and lay out its address space.
    fn prepare(
        &self,
        source: &Program,
        param_values: &[i64],
        workload: Option<&'a Workload>,
    ) -> Prepared<'a> {
        let cparams = self.cparams.unwrap_or_else(|| self.cfg.compiler_params());
        let (prog, report) = match self.mode {
            Mode::Original => (source.clone(), None),
            Mode::Prefetch | Mode::PrefetchNoFilter | Mode::PrefetchAdaptive => {
                let (p, r) = compile(source, &cparams);
                (p, Some(r))
            }
            Mode::PrefetchTwoVersion => {
                let (p, r) = compile(source, &cparams.with_two_version(true));
                (p, Some(r))
            }
            Mode::PrefetchAdaptiveCode => {
                let (p, r) = compile(source, &cparams.with_adaptive_in_core(true));
                (p, Some(r))
            }
        };
        // The machine is sized by the ORIGINAL program's layout so both
        // versions see identical address spaces.
        let (binds, bytes) = ArrayBinding::sequential(source, self.cfg.machine.page_bytes);
        // Memory-adaptive programs take the available memory as an extra
        // runtime parameter.
        let mut params = param_values.to_vec();
        if let Some(Some(ap)) = report.as_ref().map(|r| r.adaptive_param) {
            debug_assert_eq!(ap, params.len());
            params.push(self.cfg.machine.memory_bytes() as i64);
        }
        Prepared {
            workload,
            prog,
            report,
            binds,
            bytes,
            params,
        }
    }

    /// The `PolicyKind::HistoryReplay` two-pass protocol: pass 1 runs
    /// with the recorder the machine installed by default, pass 2
    /// re-runs with the recorded miss trace replayed as injected
    /// prefetches and is the one reported. Every other policy (and the
    /// policy-free default) records nothing and is a single pass.
    fn run_passes(&self, p: &Prepared) -> RunOutput {
        let (out, machine) = self.execute(p, None, None);
        match machine.policy_miss_trace() {
            Some(miss) => {
                let replay = Box::new(HistoryReplay::replaying(miss));
                self.execute(p, None, Some(replay)).0
            }
            None => out,
        }
    }

    /// One pass on one machine — a new one, or the `recovered` machine
    /// of a crash round trip, which has already lived through the fault
    /// plan. Hands the machine back for recovery or for its miss trace.
    fn execute(
        &self,
        p: &Prepared,
        recovered: Option<Machine>,
        policy_override: Option<Box<dyn PrefetchPolicy>>,
    ) -> (RunOutput, Machine) {
        let cfg = self.cfg;
        let plan = self.plan.filter(|_| recovered.is_none());
        let mut machine = recovered.unwrap_or_else(|| Machine::new(cfg.machine, p.bytes));
        if let Some(pol) = policy_override {
            machine.set_policy(pol);
        }
        if !self.pressure.is_empty() {
            machine.set_pressure_schedule(self.pressure.clone());
        }
        if let Some(plan) = plan {
            machine.set_fault_plan(plan);
        }
        if self.trace_cap > 0 {
            machine.enable_trace(self.trace_cap);
        }
        let filter = if self.mode == Mode::PrefetchNoFilter {
            FilterMode::Disabled
        } else {
            FilterMode::Enabled
        };
        let mut rt =
            Runtime::new(machine, filter).with_adaptive(self.mode == Mode::PrefetchAdaptive);
        if cfg.metrics {
            rt.machine_mut().enable_metrics();
        }
        if let Some((interval, cap)) = cfg.sampler {
            rt.machine_mut().attach_sampler(interval, cap);
        }
        if let Some(w) = p.workload {
            w.init(&p.binds, &mut rt, cfg.seed);
        }
        if cfg.warm {
            let m = rt.machine_mut();
            let pages = m
                .total_pages()
                .min(cfg.machine.resident_limit - cfg.machine.high_water - 1);
            m.preload(0, pages);
        }
        let mut host = self.profile.then(HostProf::default);
        let exec = match &mut host {
            // A power loss ends the run: stop at the call it latches in.
            _ if plan.is_some_and(|p| p.crash.is_some()) => {
                let mut vm = Vm::new(&p.prog, &p.binds, &p.params, cfg.cost);
                vm.step(&mut UntilCrash(&mut rt)).unwrap_or(vm.stats())
            }
            Some(host) => {
                rt.machine_mut().attach_host_prof();
                run_program_profiled(&p.prog, &p.binds, &p.params, cfg.cost, &mut rt, host)
            }
            None => run_program(&p.prog, &p.binds, &p.params, cfg.cost, &mut rt),
        };
        // The interpreter's site tree with the machine's flat
        // charge-path buckets grafted under the root.
        let profile = host.map(|host| {
            let mut profile = host.finish();
            if let Some(buckets) = rt.machine_mut().take_host_prof() {
                profile.attach_machine(&buckets);
            }
            profile
        });
        let flush = rt.machine_mut().try_finish().err();
        let verified = p.workload.map_or(Ok(()), |w| w.verify(&p.binds, &rt));
        let checksum = data_checksum(&rt, p.bytes);
        let trace = rt.machine_mut().take_trace();
        let m = rt.machine();
        let result = RunResult {
            mode: self.mode,
            time: m.breakdown(),
            os: *m.stats(),
            disk: m.disk_stats(),
            disk_util: m.disk_utilization(),
            avg_free_frames: m.avg_free_frames(),
            attr: m.attribution(),
            obs: m.metrics_report(),
            rt: *rt.stats(),
            exec,
            report: p.report.clone(),
            verified,
            checksum,
            flush,
            policy: m.policy_name(),
            telemetry: m.sampler_output(),
        };
        let out = RunOutput {
            result,
            trace,
            profile,
        };
        (out, rt.into_machine())
    }
}

/// Shorthand for the common case: `mode` on `cfg`, nothing else set.
pub fn run_workload(w: &Workload, cfg: &Config, mode: Mode) -> RunResult {
    RunSpec::new(cfg, mode).run(w).result
}

/// FNV-1a over the whole simulated address space, read word-by-word
/// through the zero-cost peek path (does not perturb the run — it is
/// taken after `finish()`).
pub fn data_checksum(rt: &Runtime, bytes: u64) -> u64 {
    segment_checksum(rt.machine(), Segment { base: 0, bytes })
}

/// Format a nanosecond count as seconds with 3 decimals.
pub fn secs(ns: Ns) -> String {
    format!("{:.3}", ns as f64 / 1e9)
}

/// Format a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Percentage of `part` in `total` (0 when empty).
pub fn share(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 / total as f64
    }
}

/// Print a normalized stacked-bar style row (Figure 3(a) text form).
pub fn print_breakdown_row(name: &str, label: &str, t: &TimeBreakdown, norm: Ns) {
    let n = norm.max(1) as f64;
    println!(
        "{name:<8} {label:<11} total {:>6.1}% | user {:>6.1}% | sys-fault {:>5.1}% | sys-pf {:>5.1}% | idle {:>6.1}%",
        t.total() as f64 / n * 100.0,
        t.user as f64 / n * 100.0,
        t.sys_fault as f64 / n * 100.0,
        t.sys_prefetch as f64 / n * 100.0,
        t.idle as f64 / n * 100.0,
    );
}

/// Default telemetry sampling interval: one row per simulated
/// millisecond — a few thousand rows across a typical matrix cell.
pub const SAMPLE_INTERVAL_NS: Ns = 1_000_000;

/// Default time-series ring capacity (oldest rows evicted beyond it).
pub const SAMPLE_RING_CAP: usize = 8192;

/// A command line [`Args::try_parse_from`] rejected.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgError {
    /// A flag the shared parser does not know.
    UnknownFlag(String),
    /// A value-taking flag with nothing after it.
    MissingValue(String),
    /// A value that does not parse, or is out of range, for its flag.
    BadValue {
        /// The flag the value was given to.
        flag: String,
        /// The rejected text.
        value: String,
        /// What the flag takes.
        expected: &'static str,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::UnknownFlag(flag) => write!(f, "unknown argument {flag}"),
            ArgError::MissingValue(flag) => write!(f, "{flag} takes a value"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "{flag} takes {expected}, got {value:?}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// The flags [`Args`] understands, printed with every [`ArgError`].
const FLAGS: &str = "--mem-mb <n> --seed <n> --ratio <f> --disks <n> --csv <path> \
--json <path> --metrics-out <prefix> --sample-interval-us <n> --sched <policy> \
--queue-depth <n> --policy <name> --redundancy <none|parity> --coalesce --no-journal --smoke";

/// `--key value` style overrides shared by the binaries. A rejected
/// command line prints the full flag list.
pub struct Args {
    /// Parsed configuration (including any `--sched`/`--queue-depth`/
    /// `--coalesce` scheduler overrides, applied to `cfg.machine.sched`).
    pub cfg: Config,
    /// Data-set to memory ratio (default 2.0, the paper's headline).
    pub ratio: f64,
    /// Optional CSV output path (binaries that support it write their
    /// numeric rows there for plotting).
    pub csv: Option<String>,
    /// Optional JSON run-report output path (see [`report`]). Giving
    /// `--json` also enables [`Config::metrics`], so the report carries
    /// histograms and the lifecycle ledger.
    pub json: Option<String>,
    /// Optional telemetry export prefix: binaries that support it write
    /// `<prefix>.prom` (Prometheus text format) and `<prefix>.jsonl`
    /// (time-series rows) from [`RunResult::telemetry`]. Giving
    /// `--metrics-out` attaches the sampler ([`Config::sampler`]).
    pub metrics_out: Option<String>,
    /// Quick-gate mode: a sweep that supports it shrinks to a small
    /// kernel set so CI can run it on every change.
    pub smoke: bool,
}

impl Args {
    /// Parse from `std::env::args`, the flags overriding `cfg`: a
    /// binary whose default platform is not [`Config::default_platform`]
    /// hands its own in, and what it gets back differs from that only
    /// where the command line said so.
    pub fn parse_on(cfg: Config) -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Self::from_argv(cfg, &argv)
    }

    /// [`Args::try_parse_on`] for a `main`: a bad command line or an
    /// invalid machine configuration is an operator mistake — print it
    /// and exit with status 2.
    pub(crate) fn from_argv(cfg: Config, argv: &[String]) -> Self {
        let args = Self::try_parse_on(cfg, argv).unwrap_or_else(|e| {
            eprintln!("error: {e}\nflags: {FLAGS}");
            std::process::exit(2);
        });
        if let Err(e) = args.cfg.machine.check() {
            exit_on_bad_config(e);
        }
        args
    }

    /// Parse the arguments after the program name on the default
    /// platform.
    pub fn try_parse_from(argv: &[String]) -> Result<Self, ArgError> {
        Self::try_parse_on(Config::default_platform(), argv)
    }

    /// Parse the arguments after the program name, overriding `cfg`.
    pub fn try_parse_on(cfg: Config, argv: &[String]) -> Result<Self, ArgError> {
        let mut args = Self {
            cfg,
            ratio: 2.0,
            csv: None,
            json: None,
            metrics_out: None,
            smoke: false,
        };
        let cfg = &mut args.cfg;
        let mut sample_interval = SAMPLE_INTERVAL_NS;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| ArgError::MissingValue(flag.clone()))
            };
            let bad = |value: &str, expected| ArgError::BadValue {
                flag: flag.clone(),
                value: value.to_string(),
                expected,
            };
            match flag.as_str() {
                "--coalesce" => cfg.machine.sched = cfg.machine.sched.with_coalesce(true),
                "--smoke" => args.smoke = true,
                "--no-journal" => cfg.machine.journal = false,
                "--mem-mb" => {
                    let v = value()?;
                    let bytes = v
                        .parse::<u64>()
                        .ok()
                        .and_then(|mb| mb.checked_mul(1024 * 1024))
                        .ok_or_else(|| bad(v, "a memory size in MiB"))?;
                    cfg.machine = cfg.machine.with_memory_bytes(bytes);
                }
                "--seed" => {
                    let v = value()?;
                    cfg.seed = v.parse().map_err(|_| bad(v, "an integer"))?;
                }
                "--ratio" => {
                    let v = value()?;
                    args.ratio = v
                        .parse()
                        .ok()
                        .filter(|r: &f64| r.is_finite() && *r > 0.0)
                        .ok_or_else(|| bad(v, "a positive number"))?;
                }
                "--disks" => {
                    let v = value()?;
                    let n = v.parse().map_err(|_| bad(v, "an integer"))?;
                    cfg.machine = cfg.machine.with_ndisks(n);
                }
                "--csv" => args.csv = Some(value()?.clone()),
                "--json" => {
                    args.json = Some(value()?.clone());
                    cfg.metrics = true;
                }
                "--metrics-out" => {
                    args.metrics_out = Some(value()?.clone());
                    cfg.metrics = true;
                }
                "--sample-interval-us" => {
                    let v = value()?;
                    sample_interval = v
                        .parse::<u64>()
                        .ok()
                        .and_then(|us| us.checked_mul(1_000))
                        .filter(|&ns| ns > 0)
                        .ok_or_else(|| bad(v, "a positive number of microseconds"))?;
                }
                "--sched" => {
                    let v = value()?;
                    let policy = oocp_os::SchedPolicy::parse(v)
                        .ok_or_else(|| bad(v, "a scheduling policy"))?;
                    cfg.machine.sched = cfg.machine.sched.with_policy(policy);
                }
                "--queue-depth" => {
                    let v = value()?;
                    let depth = v.parse().map_err(|_| bad(v, "an integer"))?;
                    cfg.machine.sched = cfg.machine.sched.with_queue_depth(depth);
                }
                "--policy" => {
                    let v = value()?;
                    let kind = PolicyKind::parse(v).ok_or_else(|| bad(v, "a prefetch policy"))?;
                    cfg.machine = cfg.machine.with_prefetch_policy(kind);
                }
                "--redundancy" => {
                    let v = value()?;
                    cfg.machine.redundancy =
                        oocp_os::Redundancy::parse(v).ok_or_else(|| bad(v, "none or parity"))?;
                }
                _ => return Err(ArgError::UnknownFlag(flag.clone())),
            }
        }
        if args.metrics_out.is_some() {
            cfg.sampler = Some((sample_interval, SAMPLE_RING_CAP));
        }
        Ok(args)
    }
}

/// Write a run's telemetry as `<prefix>.prom` (Prometheus text format)
/// and `<prefix>.jsonl` (the sampled time series). Both documents are
/// validated by `oocp_obs::check_prometheus_text` / `check_jsonl`
/// before touching the filesystem — an exporter bug should fail the
/// run, not land a corrupt file.
pub fn write_metrics(prefix: &str, telemetry: &Telemetry) -> Result<(), WriteError> {
    let prom = oocp_obs::prometheus_text(telemetry);
    oocp_obs::check_prometheus_text(&prom).expect("prometheus exporter invariant");
    let jsonl = oocp_obs::jsonl_series(telemetry);
    oocp_obs::check_jsonl(&jsonl).expect("jsonl exporter invariant");
    for (ext, text) in [("prom", prom), ("jsonl", jsonl)] {
        let path = format!("{prefix}.{ext}");
        std::fs::write(&path, text).map_err(|source| WriteError { path, source })?;
        eprintln!("wrote {prefix}.{ext}");
    }
    Ok(())
}

/// Report an invalid machine configuration, a typed
/// [`oocp_os::ConfigError`], and exit with code 2 (operator error)
/// instead of letting `Machine::new` panic mid-run. Every command line
/// that overrides the machine funnels through here.
pub(crate) fn exit_on_bad_config(e: oocp_os::ConfigError) -> ! {
    eprintln!("error: invalid machine configuration: {e}");
    std::process::exit(2);
}

/// Write CSV rows to `path` (header first). An unwritable path is
/// reported as a typed [`WriteError`] so binaries can print it and exit
/// non-zero instead of panicking.
pub fn write_csv(path: &str, header: &str, rows: &[String]) -> Result<(), WriteError> {
    let mut text =
        String::with_capacity(header.len() + rows.iter().map(|r| r.len() + 1).sum::<usize>() + 1);
    text.push_str(header);
    text.push('\n');
    for r in rows {
        text.push_str(r);
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|source| WriteError {
        path: path.to_string(),
        source,
    })?;
    eprintln!("wrote {path} ({} rows)", rows.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocp_nas::{build, App};

    #[test]
    fn original_and_prefetch_runs_verify_and_speed_up() {
        let mut cfg = Config::default_platform();
        cfg.machine = cfg.machine.with_memory_bytes(2 * 1024 * 1024);
        let w = build(App::Embar, cfg.bytes_for_ratio(2.0));
        let o = run_workload(&w, &cfg, Mode::Original);
        let p = run_workload(&w, &cfg, Mode::Prefetch);
        o.verified.as_ref().expect("original verifies");
        p.verified.as_ref().expect("prefetch verifies");
        assert!(
            p.total() < o.total(),
            "prefetching must win: P {} vs O {}",
            p.total(),
            o.total()
        );
        assert!(p.os.coverage() > 0.5, "coverage {:.2}", p.os.coverage());
    }

    #[test]
    fn share_and_pct_helpers() {
        assert_eq!(share(1, 4), 0.25);
        assert_eq!(share(1, 0), 0.0);
        assert_eq!(pct(0.5), "50.0%");
    }

    #[test]
    fn write_csv_roundtrips() {
        let path = std::env::temp_dir().join("oocp_csv_test.csv");
        let path = path.to_str().unwrap();
        write_csv(path, "a,b", &["1,2".to_string(), "3,4".to_string()]).unwrap();
        let got = std::fs::read_to_string(path).unwrap();
        assert_eq!(got, "a,b\n1,2\n3,4\n");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn write_csv_reports_unwritable_path() {
        let err = write_csv("/nonexistent-dir/x.csv", "a", &[]).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("/nonexistent-dir/x.csv"),
            "names the path: {msg}"
        );
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn ir_program_runs_match_workload_contract() {
        use oocp_ir::parse_program;
        let src = "program t {\n    long a[4096];\n    for i = 0 to 4096 { a[i] = i; }\n    for i = 0 to 4096 { a[i] = a[i] + 1; }\n}\n";
        let prog = parse_program(src).unwrap();
        let mut cfg = Config::default_platform();
        cfg.machine = cfg.machine.with_memory_bytes(16 * 4096);
        cfg.metrics = true;
        let o = RunSpec::new(&cfg, Mode::Original).run_ir(&prog, &[]).result;
        let out = RunSpec::new(&cfg, Mode::Prefetch)
            .trace(1 << 14)
            .run_ir(&prog, &[]);
        let p = out.result;
        assert_eq!(o.checksum, p.checksum, "modes agree on the data");
        assert!(p.attr.sums_to(p.total(), 0.0), "attribution exact");
        assert!(p.obs.is_some(), "metrics flow through the IR path");
        let trace = out.trace.expect("trace was enabled");
        let doc = oocp_obs::json::parse(&oocp_os::chrome_trace_json(&trace)).unwrap();
        let spans = oocp_obs::tracediff::index_spans(&doc).unwrap();
        assert!(!spans.is_empty(), "prefetch spans exported");
    }

    fn parse(line: &str) -> Result<Args, ArgError> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        Args::try_parse_from(&argv)
    }

    #[test]
    fn args_parse_the_shared_flags() {
        let a = parse("--mem-mb 4 --ratio 1.5 --smoke --policy readahead --json r.json").unwrap();
        assert_eq!(a.cfg.machine.memory_bytes(), 4 * 1024 * 1024);
        assert_eq!(a.ratio, 1.5);
        assert!(a.smoke && a.cfg.metrics);
        assert_eq!(a.cfg.machine.policy, PolicyKind::Readahead);
        assert_eq!(a.json.as_deref(), Some("r.json"));
    }

    #[test]
    fn args_override_the_platform_they_are_parsed_on() {
        let mut small = Config::default_platform();
        small.machine = small.machine.with_memory_bytes(2 * 1024 * 1024);
        small.machine.redundancy = oocp_os::Redundancy::Parity;
        let on = |line: &str| {
            let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
            Args::try_parse_on(small, &argv).unwrap().cfg.machine
        };
        assert_eq!(on("--smoke").memory_bytes(), 2 * 1024 * 1024);
        assert_eq!(on("--smoke").redundancy, oocp_os::Redundancy::Parity);
        assert_eq!(on("--mem-mb 1").memory_bytes(), 1024 * 1024);
        assert_eq!(
            on("--redundancy none").redundancy,
            oocp_os::Redundancy::None
        );
        // A flag's value is not a flag: `--mem-mb` here is a file name.
        assert_eq!(on("--csv --mem-mb").memory_bytes(), 2 * 1024 * 1024);
    }

    #[test]
    fn args_reject_bad_input_with_typed_errors() {
        let bad = |line: &str, flag: &str, value: &str| match parse(line) {
            Err(ArgError::BadValue {
                flag: f, value: v, ..
            }) => assert_eq!((f.as_str(), v.as_str()), (flag, value), "{line}"),
            other => panic!("{line}: expected BadValue, got {:?}", other.map(|_| ())),
        };
        bad("--mem-mb x", "--mem-mb", "x");
        // mb * 1024 * 1024 must not wrap into a small machine.
        bad("--mem-mb 99999999999999", "--mem-mb", "99999999999999");
        bad("--seed -1", "--seed", "-1");
        bad("--sched nope", "--sched", "nope");
        bad("--sample-interval-us 0", "--sample-interval-us", "0");
        // NaN, zero and negatives parse as `f64`; none is a data-set size.
        for ratio in ["nan", "inf", "0", "-2", "x"] {
            bad(&format!("--ratio {ratio}"), "--ratio", ratio);
        }
        assert!(matches!(
            parse("--ratio nan"),
            Err(ArgError::BadValue {
                expected: "a positive number",
                ..
            })
        ));
        assert_eq!(
            parse("--smoke --mem-mb").map(|_| ()),
            Err(ArgError::MissingValue("--mem-mb".into()))
        );
        // A sweep's mode is a `repro` row, not a flag: `repro crash`,
        // `repro tenants-full`, and `repro quota-gate` runs the
        // quotas-off leg itself.
        for flag in [
            "--frobnicate",
            "--crash",
            "--disk-death",
            "--corrupt-parity",
            "--quota-gate",
            "--no-quotas",
            "--full",
        ] {
            assert_eq!(
                parse(&format!("{flag} 3")).map(|_| ()),
                Err(ArgError::UnknownFlag(flag.into()))
            );
        }
        // Every flag the usage line lists parses.
        for flag in FLAGS.split_whitespace().filter(|w| w.starts_with("--")) {
            assert!(
                !matches!(parse(&format!("{flag} 1")), Err(ArgError::UnknownFlag(f)) if f == flag),
                "FLAGS lists {flag}, which does not parse"
            );
        }
        let msg = parse("--mem-mb x").map(|_| ()).unwrap_err().to_string();
        assert!(msg.contains("--mem-mb") && msg.contains("\"x\""), "{msg}");
    }
}
