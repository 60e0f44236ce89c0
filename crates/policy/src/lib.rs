//! Pluggable prefetch policies: the OS rivals the paper's Figure 4
//! races the compiler against.
//!
//! The paper's ablation argues that compiler-inserted hints beat purely
//! reactive OS policies because the compiler *knows* the future access
//! stream. This crate supplies the reactive side of that argument as a
//! subsystem: a [`PrefetchPolicy`] trait driven at the machine's
//! touch/hint boundary, with a narrow observation API (what the program
//! touched and how the touch resolved; what the compiler hinted; when a
//! prefetch arrived or died unused) and an equally narrow action API
//! ([`PolicyActions`]: inject prefetch runs, inject releases).
//!
//! Every policy is **timing-only**: it may move pages through memory
//! earlier or later, but it can never change what the program computes.
//! The proptest oracle (`tests/proptest_policy.rs` at the workspace
//! root) holds every policy to that contract — checksums must be
//! bit-identical to [`PolicyKind::CompilerOnly`], including under disk
//! fault plans. The deliberately rule-breaking [`BrokenPolicy`] exists
//! to prove the oracle has teeth.
//!
//! Shipped policies:
//!
//! * [`PolicyKind::CompilerOnly`] — the default: no policy object at
//!   all, so the hint path is bit-identical to every baseline captured
//!   before this crate existed.
//! * [`Readahead`] — sequential/strided stream detection with
//!   multiplicative window growth and shrink-on-miss, in the style of
//!   the dynamic-window file-system readahead prefetcher of
//!   arXiv 2109.05366. Needs no compiler hints: it learns the stream
//!   from the fault pattern, which is exactly how it competes with the
//!   compiler on `Mode::Original` runs.
//! * [`AdaptiveDistance`] — an online prefetch-distance controller in
//!   the spirit of 3PO (arXiv 2207.07688): it trusts the compiler's
//!   *what* but second-guesses the *when*, extending each hint run
//!   ahead by a lead distance retuned from the observed late-arrival
//!   rate.
//! * [`HistoryReplay`] — forecast-slice style (arXiv 2005.06102): a
//!   first pass records the miss trace, a second pass replays it as
//!   hints a fixed depth ahead of the program's position.

use oocp_sim::time::Ns;

/// Which prefetch policy a machine runs. `Copy` so it can live in the
/// machine's parameter block; the trait object itself is built by
/// [`build`] inside the machine constructor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PolicyKind {
    /// Compiler hints only — no policy object is installed and the
    /// machine's behavior is bit-identical to a build without this
    /// subsystem. The default.
    #[default]
    CompilerOnly,
    /// Reactive sequential/strided readahead ([`Readahead`]).
    Readahead,
    /// Online prefetch-distance controller ([`AdaptiveDistance`]).
    AdaptiveDistance,
    /// Record a miss trace, then replay it as hints ([`HistoryReplay`]).
    /// The bench harness runs the kernel twice and reports the replay
    /// pass.
    HistoryReplay,
    /// Test-only negative control: corrupts data on purpose so the
    /// timing-only oracle can prove it catches a rule-breaking policy.
    /// Never part of [`PolicyKind::MATRIX`].
    Broken,
}

impl PolicyKind {
    /// The policies of the ablation matrix (everything shippable; the
    /// broken negative control is deliberately excluded).
    pub const MATRIX: [PolicyKind; 4] = [
        PolicyKind::CompilerOnly,
        PolicyKind::Readahead,
        PolicyKind::AdaptiveDistance,
        PolicyKind::HistoryReplay,
    ];

    /// Parse a `--policy` spelling. `"broken"` is accepted so the
    /// negative control can be driven from the command line, but it is
    /// not advertised anywhere user-facing.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_lowercase().as_str() {
            "compiler" | "compiler-only" | "none" => Some(PolicyKind::CompilerOnly),
            "readahead" | "ra" => Some(PolicyKind::Readahead),
            "adaptive" | "adaptive-distance" | "3po" => Some(PolicyKind::AdaptiveDistance),
            "replay" | "history" | "history-replay" => Some(PolicyKind::HistoryReplay),
            "broken" => Some(PolicyKind::Broken),
            _ => None,
        }
    }

    /// Short stable label, used in reports and matrix cell names.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::CompilerOnly => "compiler",
            PolicyKind::Readahead => "readahead",
            PolicyKind::AdaptiveDistance => "adaptive",
            PolicyKind::HistoryReplay => "replay",
            PolicyKind::Broken => "broken",
        }
    }
}

/// How a first demand touch of a page resolved, as observed by the
/// machine. Policies only hear about *first* touches and faults —
/// repeat hits on resident pages are silent (they carry no paging
/// signal and would swamp the host-side cost of the hooks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TouchKind {
    /// Demand fault that went to disk: no prefetch covered the page.
    HardFault,
    /// Reclaim from the free list (released or evicted page came back).
    SoftFault,
    /// First touch of a prefetched page whose read had completed: the
    /// prefetch was timely.
    PrefetchedTimely,
    /// First touch found the prefetch still in flight: the program
    /// stalled for the residual latency. The signal the distance
    /// controller feeds on.
    PrefetchedLate,
}

/// Actions a policy requests from the machine. Filled by the hooks,
/// applied by the machine after the hook returns (injected prefetches
/// flow through the ordinary hint path, minus the syscall charge — the
/// policy lives *in* the kernel, it does not call into it).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PolicyActions {
    /// Page runs to prefetch, as `(start, count)`.
    pub prefetch: Vec<(u64, u64)>,
    /// Page runs to release, as `(start, count)`.
    pub release: Vec<(u64, u64)>,
    /// Pages whose *data* to corrupt. Only [`BrokenPolicy`] ever fills
    /// this; the machine honors it so the timing-only oracle can prove
    /// a misbehaving policy is caught, not silently absorbed.
    pub corrupt: Vec<u64>,
}

impl PolicyActions {
    /// Whether no action was requested.
    pub fn is_empty(&self) -> bool {
        self.prefetch.is_empty() && self.release.is_empty() && self.corrupt.is_empty()
    }
}

/// Per-policy counters, surfaced through `OsStats` into the JSON report
/// and the perf baseline. Maintained by the policy itself (the machine
/// additionally counts the pages it actually injected).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PolicyCounters {
    /// Pages the policy asked to prefetch.
    pub injected_prefetch_pages: u64,
    /// Pages the policy asked to release.
    pub injected_release_pages: u64,
    /// Peak readahead window (or lead distance) reached, in pages.
    pub window_peak: u64,
    /// Times the distance controller changed its lead distance.
    pub distance_retunes: u64,
    /// Completed late-rate observation windows.
    pub late_rate_samples: u64,
}

/// A prefetch policy plugged into the machine's touch/hint boundary.
///
/// Contract: policies are **timing-only**. The observation hooks see
/// page numbers and touch outcomes; the action API can only move pages
/// through memory. Nothing here can change program data (the `corrupt`
/// field is the deliberate, test-only exception) — and the proptest
/// oracle verifies the result checksums stay bit-identical across
/// policies, faults included.
pub trait PrefetchPolicy {
    /// Stable label for reports.
    fn name(&self) -> &'static str;

    /// A first demand touch (or fault) of `vpage` resolved as `kind`.
    fn on_touch(&mut self, vpage: u64, kind: TouchKind, now: Ns, act: &mut PolicyActions);

    /// The program issued a hint call: `prefetch` and/or `release` name
    /// the hinted runs as `(start, count)`. Called after the machine
    /// has processed the hint itself, so injections extend rather than
    /// preempt the compiler's request.
    fn on_hint(
        &mut self,
        prefetch: Option<(u64, u64)>,
        release: Option<(u64, u64)>,
        now: Ns,
        act: &mut PolicyActions,
    );

    /// A prefetched page was evicted without ever being touched: the
    /// prefetch was wasted. The shrink signal for window policies.
    fn on_prefetch_evicted_unused(&mut self, _vpage: u64) {}

    /// Current counter snapshot.
    fn counters(&self) -> PolicyCounters;

    /// The recorded miss trace, if this policy is a recorder (only
    /// [`HistoryReplay`] in recording mode returns `Some`). The bench
    /// harness uses it to drive the replay pass.
    fn miss_trace(&self) -> Option<&[u64]> {
        None
    }
}

/// Build the policy object for a kind. `None` for
/// [`PolicyKind::CompilerOnly`]: the default machine carries no policy
/// at all, keeping the hint path bit-identical to pre-policy baselines.
pub fn build(kind: PolicyKind) -> Option<Box<dyn PrefetchPolicy>> {
    match kind {
        PolicyKind::CompilerOnly => None,
        PolicyKind::Readahead => Some(Box::new(Readahead::new())),
        PolicyKind::AdaptiveDistance => Some(Box::new(AdaptiveDistance::new())),
        PolicyKind::HistoryReplay => Some(Box::new(HistoryReplay::recorder())),
        PolicyKind::Broken => Some(Box::new(BrokenPolicy::new())),
    }
}

/// Coalesce an ascending page list into `(start, count)` runs.
fn runs_of(pages: &[u64]) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for &p in pages {
        match out.last_mut() {
            Some((s, n)) if *s + *n == p => *n += 1,
            _ => out.push((p, 1)),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Readahead
// ---------------------------------------------------------------------

/// Stream slots tracked concurrently (an out-of-core kernel touches a
/// handful of arrays at once).
const RA_STREAMS: usize = 8;
/// Largest stride (pages, either direction) recognized as a stream.
const RA_MAX_STRIDE: i64 = 8;
/// Window a freshly confirmed stream starts with.
const RA_INIT_WINDOW: u64 = 4;
/// Window growth cap, in pages.
const RA_MAX_WINDOW: u64 = 64;
/// Consumed pages a stream keeps resident behind its position; the
/// rest are released. Without the trailing release a reactive policy
/// fills memory and its own prefetches start being dropped for lack of
/// free frames (the paper's admission rule), each drop costing a hard
/// fault queued behind the readahead traffic.
const RA_KEEP_BEHIND: i64 = 4;

#[derive(Clone, Copy, Default)]
struct Stream {
    live: bool,
    /// Last page touched by this stream.
    last: i64,
    /// Detected stride in pages; 0 until two touches confirm one.
    stride: i64,
    /// Current readahead window, in pages.
    window: u64,
    /// Watermark: first page (in stride direction) not yet injected.
    injected_to: i64,
    /// Watermark: first consumed page not yet released behind.
    released_to: i64,
    /// LRU clock of the last touch, for slot replacement.
    last_use: u64,
}

/// Reactive sequential/strided readahead with a multiplicative window:
/// each confirmed stream hit doubles the window up to a cap, each
/// wasted prefetch (evicted unused) halves every window. Detects up to
/// [`RA_STREAMS`] interleaved streams with strides up to
/// [`RA_MAX_STRIDE`] pages in either direction.
pub struct Readahead {
    streams: [Stream; RA_STREAMS],
    clock: u64,
    counters: PolicyCounters,
}

impl Readahead {
    /// A readahead policy with no learned streams.
    pub fn new() -> Self {
        Self {
            streams: [Stream::default(); RA_STREAMS],
            clock: 0,
            counters: PolicyCounters::default(),
        }
    }

    /// Inject the stream's window ahead of `p`, starting past the
    /// already-injected watermark.
    fn extend(&mut self, i: usize, p: i64, act: &mut PolicyActions) {
        let s = &mut self.streams[i];
        let stride = s.stride;
        let target = p + stride * (1 + s.window as i64);
        let from = if stride > 0 {
            s.injected_to.max(p + stride)
        } else {
            s.injected_to.min(p + stride)
        };
        let mut pages: Vec<u64> = Vec::new();
        let mut q = from;
        while (stride > 0 && q < target) || (stride < 0 && q > target) {
            if q >= 0 {
                pages.push(q as u64);
            }
            q += stride;
        }
        s.injected_to = target;
        if stride < 0 {
            pages.reverse(); // runs_of wants ascending pages
        }
        self.counters.injected_prefetch_pages += pages.len() as u64;
        act.prefetch.extend(runs_of(&pages));
    }

    /// Release the stream's consumed pages more than [`RA_KEEP_BEHIND`]
    /// strides behind `p`, advancing the per-stream release watermark.
    fn trail(&mut self, i: usize, p: i64, act: &mut PolicyActions) {
        let s = &mut self.streams[i];
        let stride = s.stride;
        let target = p - stride * RA_KEEP_BEHIND;
        let mut pages: Vec<u64> = Vec::new();
        let mut q = s.released_to;
        while (stride > 0 && q < target) || (stride < 0 && q > target) {
            if q >= 0 {
                pages.push(q as u64);
            }
            q += stride;
        }
        s.released_to = target;
        if stride < 0 {
            pages.reverse(); // runs_of wants ascending pages
        }
        self.counters.injected_release_pages += pages.len() as u64;
        act.release.extend(runs_of(&pages));
    }
}

impl Default for Readahead {
    fn default() -> Self {
        Self::new()
    }
}

impl PrefetchPolicy for Readahead {
    fn name(&self) -> &'static str {
        "readahead"
    }

    fn on_touch(&mut self, vpage: u64, _kind: TouchKind, _now: Ns, act: &mut PolicyActions) {
        let p = vpage as i64;
        self.clock += 1;
        let clock = self.clock;
        // 1. A confirmed stream predicted exactly this page: grow.
        if let Some(i) = self
            .streams
            .iter()
            .position(|s| s.live && s.stride != 0 && s.last + s.stride == p)
        {
            let s = &mut self.streams[i];
            s.last = p;
            s.last_use = clock;
            s.window = (s.window * 2).clamp(RA_INIT_WINDOW, RA_MAX_WINDOW);
            self.counters.window_peak = self.counters.window_peak.max(self.streams[i].window);
            self.extend(i, p, act);
            self.trail(i, p, act);
            return;
        }
        // 2. A near miss on a tracked position: adopt the new stride.
        if let Some(i) = self
            .streams
            .iter()
            .position(|s| s.live && p != s.last && (p - s.last).abs() <= RA_MAX_STRIDE)
        {
            let s = &mut self.streams[i];
            s.stride = p - s.last;
            s.last = p;
            s.last_use = clock;
            s.window = RA_INIT_WINDOW;
            s.injected_to = p + s.stride;
            s.released_to = p;
            self.counters.window_peak = self.counters.window_peak.max(RA_INIT_WINDOW);
            self.extend(i, p, act);
            return;
        }
        // 3. An isolated touch: start tracking in the LRU slot (or a
        // dead one), stride unknown until the next nearby touch.
        let i = (0..RA_STREAMS)
            .min_by_key(|&i| {
                let s = &self.streams[i];
                if s.live {
                    (1, s.last_use)
                } else {
                    (0, 0)
                }
            })
            .unwrap_or(0);
        self.streams[i] = Stream {
            live: true,
            last: p,
            stride: 0,
            window: 0,
            injected_to: p,
            released_to: p,
            last_use: clock,
        };
    }

    fn on_hint(
        &mut self,
        _prefetch: Option<(u64, u64)>,
        _release: Option<(u64, u64)>,
        _now: Ns,
        _act: &mut PolicyActions,
    ) {
        // Readahead is hint-blind: it competes with the compiler, it
        // does not collaborate with it.
    }

    fn on_prefetch_evicted_unused(&mut self, _vpage: u64) {
        // A wasted prefetch means some window overshot memory: halve
        // them all (the ledger does not say whose page died).
        for s in &mut self.streams {
            s.window /= 2;
        }
    }

    fn counters(&self) -> PolicyCounters {
        self.counters
    }
}

// ---------------------------------------------------------------------
// AdaptiveDistance
// ---------------------------------------------------------------------

/// Hinted regions tracked concurrently (one per array the kernel's
/// loops stream over).
const AD_REGIONS: usize = 8;
/// Lead distance a fresh controller starts with, in pages.
const AD_INIT_EXTRA: u64 = 8;
/// Lead distance cap, in pages.
const AD_MAX_EXTRA: u64 = 256;
/// Consumptions per late-rate observation window.
const AD_SAMPLE: u64 = 32;

/// One hinted region: a maximal run of compiler hints the controller
/// has merged, with the frontier it keeps ahead of the program.
#[derive(Clone, Copy, Default)]
struct Region {
    live: bool,
    /// Lowest hinted page of the merged run.
    base: i64,
    /// First page past every request so far (compiler hint or injected
    /// top-up) — the prefetched frontier of the region.
    frontier: i64,
    /// LRU clock of the last hint or touch, for slot replacement.
    last_use: u64,
}

/// Online prefetch-distance controller: trusts the compiler's *what*
/// (the hinted regions) but second-guesses its *when*. It merges the
/// compiler's hint runs into per-region frontiers and, whenever a touch
/// closes within `extra` pages of a frontier, tops the frontier up from
/// touch context — so the injected requests enter the disk queue at the
/// moment they are most urgent, ahead of the next hint call's traffic,
/// instead of being bolted onto hint calls where FCFS would service
/// them before sooner-needed pages. The lead `extra` is retuned from
/// the observed late-arrival rate: more than 3% late in an
/// [`AD_SAMPLE`]-consumption window doubles it, under 1% halves it.
pub struct AdaptiveDistance {
    regions: [Region; AD_REGIONS],
    clock: u64,
    extra: u64,
    timely: u64,
    late: u64,
    counters: PolicyCounters,
}

impl AdaptiveDistance {
    /// A controller at the initial lead distance, no regions learned.
    pub fn new() -> Self {
        Self {
            regions: [Region::default(); AD_REGIONS],
            clock: 0,
            extra: AD_INIT_EXTRA,
            timely: 0,
            late: 0,
            counters: PolicyCounters {
                window_peak: AD_INIT_EXTRA,
                ..PolicyCounters::default()
            },
        }
    }

    /// Current lead distance, in pages.
    pub fn lead(&self) -> u64 {
        self.extra
    }

    /// Fold one observed consumption into the late-rate window and
    /// retune the lead at window boundaries.
    fn observe(&mut self, kind: TouchKind) {
        match kind {
            TouchKind::PrefetchedLate => self.late += 1,
            TouchKind::PrefetchedTimely => self.timely += 1,
            _ => return,
        }
        let total = self.late + self.timely;
        if total < AD_SAMPLE {
            return;
        }
        self.counters.late_rate_samples += 1;
        if self.late * 100 > total * 3 {
            // >3% late: the compiler's distance is too short here.
            if self.extra < AD_MAX_EXTRA {
                self.extra = (self.extra * 2).min(AD_MAX_EXTRA);
                self.counters.distance_retunes += 1;
            }
        } else if self.late * 100 < total && self.extra > 1 {
            // <1% late: back off and stop over-committing memory.
            self.extra /= 2;
            self.counters.distance_retunes += 1;
        }
        self.counters.window_peak = self.counters.window_peak.max(self.extra);
        self.late = 0;
        self.timely = 0;
    }
}

impl Default for AdaptiveDistance {
    fn default() -> Self {
        Self::new()
    }
}

impl PrefetchPolicy for AdaptiveDistance {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn on_touch(&mut self, vpage: u64, kind: TouchKind, _now: Ns, act: &mut PolicyActions) {
        self.observe(kind);
        let p = vpage as i64;
        self.clock += 1;
        let clock = self.clock;
        let extra = self.extra as i64;
        if let Some(r) = self
            .regions
            .iter_mut()
            .find(|r| r.live && r.base <= p && p < r.frontier)
        {
            r.last_use = clock;
            if r.frontier - p < extra {
                let k = (p + extra - r.frontier) as u64;
                act.prefetch.push((r.frontier as u64, k));
                r.frontier = p + extra;
                self.counters.injected_prefetch_pages += k;
            }
        }
    }

    fn on_hint(
        &mut self,
        prefetch: Option<(u64, u64)>,
        _release: Option<(u64, u64)>,
        _now: Ns,
        _act: &mut PolicyActions,
    ) {
        let Some((start, count)) = prefetch else {
            return;
        };
        let (s, e) = (start as i64, (start + count) as i64);
        self.clock += 1;
        let clock = self.clock;
        // Merge into the region this hint lands in or adjoins...
        if let Some(r) = self
            .regions
            .iter_mut()
            .find(|r| r.live && r.base <= e && s <= r.frontier)
        {
            r.base = r.base.min(s);
            r.frontier = r.frontier.max(e);
            r.last_use = clock;
            return;
        }
        // ...or start tracking a new region in the LRU slot.
        let i = (0..AD_REGIONS)
            .min_by_key(|&i| {
                let r = &self.regions[i];
                if r.live {
                    (1, r.last_use)
                } else {
                    (0, 0)
                }
            })
            .unwrap_or(0);
        self.regions[i] = Region {
            live: true,
            base: s,
            frontier: e,
            last_use: clock,
        };
    }

    fn counters(&self) -> PolicyCounters {
        self.counters
    }
}

// ---------------------------------------------------------------------
// HistoryReplay
// ---------------------------------------------------------------------

/// Pages the replayer keeps injected ahead of the program's position in
/// the trace.
const HR_DEPTH: usize = 64;
/// How far ahead the replayer searches the trace to resynchronize its
/// cursor with an observed touch.
const HR_LOOKAHEAD: usize = 256;
/// Trace entries behind the cursor the replayer keeps resident; older
/// entries are released (unless the trace needs them again within the
/// lookahead), for the same reason [`RA_KEEP_BEHIND`] exists.
const HR_KEEP_BEHIND: usize = 16;
/// Recording cap: a miss trace longer than this stops growing (the
/// replay pass then simply covers a prefix).
const HR_MAX_TRACE: usize = 1 << 22;

/// Record-and-replay prefetching: the recorder logs the page sequence
/// of every touch that stalled (hard faults and late prefetches); the
/// replayer walks that trace alongside the program, keeping the next
/// [`HR_DEPTH`] recorded pages injected, resynchronizing its cursor
/// whenever an observed touch appears within [`HR_LOOKAHEAD`] entries.
pub struct HistoryReplay {
    replay: bool,
    trace: Vec<u64>,
    pos: usize,
    injected_to: usize,
    released_to: usize,
    counters: PolicyCounters,
}

impl HistoryReplay {
    /// First-pass recorder: observes, never acts.
    pub fn recorder() -> Self {
        Self {
            replay: false,
            trace: Vec::new(),
            pos: 0,
            injected_to: 0,
            released_to: 0,
            counters: PolicyCounters::default(),
        }
    }

    /// Second-pass replayer over a recorded miss trace.
    pub fn replaying(trace: Vec<u64>) -> Self {
        Self {
            replay: true,
            trace,
            pos: 0,
            injected_to: 0,
            released_to: 0,
            counters: PolicyCounters {
                window_peak: HR_DEPTH as u64,
                ..PolicyCounters::default()
            },
        }
    }

    fn inject_ahead(&mut self, act: &mut PolicyActions) {
        let target = (self.pos + HR_DEPTH).min(self.trace.len());
        self.injected_to = self.injected_to.max(self.pos);
        if self.injected_to >= target {
            return;
        }
        let mut pages: Vec<u64> = self.trace[self.injected_to..target].to_vec();
        self.injected_to = target;
        pages.sort_unstable();
        pages.dedup();
        self.counters.injected_prefetch_pages += pages.len() as u64;
        act.prefetch.extend(runs_of(&pages));
    }

    /// Release trace entries more than [`HR_KEEP_BEHIND`] positions
    /// behind the cursor, skipping pages the trace touches again within
    /// the lookahead window.
    fn release_behind(&mut self, act: &mut PolicyActions) {
        let keep = self.pos.saturating_sub(HR_KEEP_BEHIND);
        let horizon = (self.pos + HR_LOOKAHEAD).min(self.trace.len());
        let mut pages: Vec<u64> = Vec::new();
        while self.released_to < keep {
            let p = self.trace[self.released_to];
            self.released_to += 1;
            if !self.trace[self.pos..horizon].contains(&p) {
                pages.push(p);
            }
        }
        pages.sort_unstable();
        pages.dedup();
        self.counters.injected_release_pages += pages.len() as u64;
        act.release.extend(runs_of(&pages));
    }
}

impl PrefetchPolicy for HistoryReplay {
    fn name(&self) -> &'static str {
        "replay"
    }

    fn on_touch(&mut self, vpage: u64, kind: TouchKind, _now: Ns, act: &mut PolicyActions) {
        if !self.replay {
            if matches!(kind, TouchKind::HardFault | TouchKind::PrefetchedLate)
                && self.trace.len() < HR_MAX_TRACE
            {
                self.trace.push(vpage);
            }
            return;
        }
        // Resynchronize: if this touch appears a little ahead in the
        // trace, jump the cursor past it.
        let horizon = (self.pos + HR_LOOKAHEAD).min(self.trace.len());
        if let Some(i) = self.trace[self.pos..horizon]
            .iter()
            .position(|&t| t == vpage)
        {
            self.pos += i + 1;
        }
        self.inject_ahead(act);
        self.release_behind(act);
    }

    fn on_hint(
        &mut self,
        _prefetch: Option<(u64, u64)>,
        _release: Option<(u64, u64)>,
        _now: Ns,
        _act: &mut PolicyActions,
    ) {
    }

    fn counters(&self) -> PolicyCounters {
        self.counters
    }

    fn miss_trace(&self) -> Option<&[u64]> {
        (!self.replay).then_some(&self.trace[..])
    }
}

// ---------------------------------------------------------------------
// BrokenPolicy (negative control)
// ---------------------------------------------------------------------

/// Corrupt every `BROKEN_PERIOD`-th first touch.
const BROKEN_PERIOD: u64 = 64;

/// The deliberately rule-breaking policy: asks the machine to corrupt
/// the data of every [`BROKEN_PERIOD`]-th touched page. Exists so the
/// timing-only oracle and the CI negative gate can prove that a policy
/// which changes program data is *caught* (diverging checksum or failed
/// verification), not silently tolerated.
pub struct BrokenPolicy {
    touches: u64,
    counters: PolicyCounters,
}

impl BrokenPolicy {
    /// A fresh negative control.
    pub fn new() -> Self {
        Self {
            touches: 0,
            counters: PolicyCounters::default(),
        }
    }
}

impl Default for BrokenPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl PrefetchPolicy for BrokenPolicy {
    fn name(&self) -> &'static str {
        "broken"
    }

    fn on_touch(&mut self, vpage: u64, _kind: TouchKind, _now: Ns, act: &mut PolicyActions) {
        self.touches += 1;
        if self.touches % BROKEN_PERIOD == 1 {
            act.corrupt.push(vpage);
        }
    }

    fn on_hint(
        &mut self,
        _prefetch: Option<(u64, u64)>,
        _release: Option<(u64, u64)>,
        _now: Ns,
        _act: &mut PolicyActions,
    ) {
    }

    fn counters(&self) -> PolicyCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn touch(pol: &mut dyn PrefetchPolicy, page: u64, kind: TouchKind) -> PolicyActions {
        let mut act = PolicyActions::default();
        pol.on_touch(page, kind, 0, &mut act);
        act
    }

    fn injected_pages(act: &PolicyActions) -> Vec<u64> {
        let mut v = Vec::new();
        for &(s, n) in &act.prefetch {
            v.extend(s..s + n);
        }
        v
    }

    #[test]
    fn kind_parses_and_roundtrips() {
        for kind in PolicyKind::MATRIX {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(PolicyKind::parse("3PO"), Some(PolicyKind::AdaptiveDistance));
        assert_eq!(PolicyKind::parse("none"), Some(PolicyKind::CompilerOnly));
        assert_eq!(PolicyKind::parse("broken"), Some(PolicyKind::Broken));
        assert_eq!(PolicyKind::parse("nope"), None);
        assert_eq!(PolicyKind::default(), PolicyKind::CompilerOnly);
    }

    #[test]
    fn compiler_only_builds_no_object() {
        assert!(build(PolicyKind::CompilerOnly).is_none());
        for kind in [
            PolicyKind::Readahead,
            PolicyKind::AdaptiveDistance,
            PolicyKind::HistoryReplay,
            PolicyKind::Broken,
        ] {
            assert!(build(kind).is_some());
        }
    }

    #[test]
    fn runs_coalesce() {
        assert_eq!(runs_of(&[1, 2, 3, 7, 8, 11]), vec![(1, 3), (7, 2), (11, 1)]);
        assert!(runs_of(&[]).is_empty());
    }

    #[test]
    fn readahead_learns_a_sequential_stream() {
        let mut ra = Readahead::new();
        // First touch: tracked, nothing injected yet.
        assert!(touch(&mut ra, 100, TouchKind::HardFault).is_empty());
        // Second touch confirms stride 1 and injects the initial window.
        let act = touch(&mut ra, 101, TouchKind::HardFault);
        assert_eq!(injected_pages(&act), vec![102, 103, 104, 105]);
        // Stream hits keep extending; the window grows toward the cap.
        let act = touch(&mut ra, 102, TouchKind::PrefetchedTimely);
        assert!(!act.prefetch.is_empty());
        let mut last = 102;
        for _ in 0..8 {
            last += 1;
            touch(&mut ra, last, TouchKind::PrefetchedTimely);
        }
        assert_eq!(ra.counters().window_peak, RA_MAX_WINDOW);
        assert!(ra.counters().injected_prefetch_pages > 0);
    }

    #[test]
    fn readahead_never_reinjects_covered_pages() {
        let mut ra = Readahead::new();
        let mut seen = std::collections::HashSet::new();
        for p in 200..260 {
            let act = touch(&mut ra, p, TouchKind::HardFault);
            for q in injected_pages(&act) {
                assert!(seen.insert(q), "page {q} injected twice");
                assert!(q > p, "page {q} injected behind the stream at {p}");
            }
        }
    }

    #[test]
    fn readahead_detects_strides_and_backward_streams() {
        let mut ra = Readahead::new();
        touch(&mut ra, 40, TouchKind::HardFault);
        let act = touch(&mut ra, 44, TouchKind::HardFault);
        assert_eq!(injected_pages(&act), vec![48, 52, 56, 60]);

        let mut ra = Readahead::new();
        touch(&mut ra, 500, TouchKind::HardFault);
        let act = touch(&mut ra, 499, TouchKind::HardFault);
        assert_eq!(injected_pages(&act), vec![495, 496, 497, 498]);
    }

    #[test]
    fn readahead_backward_stream_stops_at_page_zero() {
        let mut ra = Readahead::new();
        touch(&mut ra, 3, TouchKind::HardFault);
        let act = touch(&mut ra, 2, TouchKind::HardFault);
        assert_eq!(injected_pages(&act), vec![0, 1]);
    }

    #[test]
    fn readahead_shrinks_on_wasted_prefetch() {
        let mut ra = Readahead::new();
        touch(&mut ra, 10, TouchKind::HardFault);
        touch(&mut ra, 11, TouchKind::HardFault);
        touch(&mut ra, 12, TouchKind::HardFault);
        let before = ra.streams.iter().map(|s| s.window).max().unwrap();
        ra.on_prefetch_evicted_unused(999);
        let after = ra.streams.iter().map(|s| s.window).max().unwrap();
        assert_eq!(after, before / 2);
    }

    #[test]
    fn readahead_tracks_interleaved_streams() {
        let mut ra = Readahead::new();
        touch(&mut ra, 1000, TouchKind::HardFault);
        touch(&mut ra, 5000, TouchKind::HardFault);
        let a = touch(&mut ra, 1001, TouchKind::HardFault);
        let b = touch(&mut ra, 5001, TouchKind::HardFault);
        assert!(injected_pages(&a).iter().all(|&p| p < 2000));
        assert!(injected_pages(&b).iter().all(|&p| p >= 5000));
    }

    #[test]
    fn adaptive_tops_up_the_frontier_at_touch() {
        let mut ad = AdaptiveDistance::new();
        let mut act = PolicyActions::default();
        // Hints only teach the controller the region; no injection yet.
        ad.on_hint(Some((100, 16)), None, 0, &mut act);
        assert!(act.is_empty());
        // A touch well behind the frontier (116 - 100 >= lead) is quiet.
        assert!(touch(&mut ad, 100, TouchKind::PrefetchedTimely).is_empty());
        // A touch within `lead` pages of the frontier tops it up.
        let act = touch(&mut ad, 110, TouchKind::PrefetchedTimely);
        assert_eq!(act.prefetch, vec![(116, 110 + AD_INIT_EXTRA - 116)]);
        assert_eq!(
            ad.counters().injected_prefetch_pages,
            110 + AD_INIT_EXTRA - 116
        );
        // A follow-on hint merges into the advanced frontier instead of
        // spawning a second region.
        let mut act = PolicyActions::default();
        ad.on_hint(Some((116, 16)), None, 0, &mut act);
        assert!(act.is_empty());
        let act = touch(&mut ad, 130, TouchKind::PrefetchedTimely);
        assert_eq!(act.prefetch, vec![(132, 130 + AD_INIT_EXTRA - 132)]);
    }

    #[test]
    fn adaptive_grows_lead_when_late_and_shrinks_when_timely() {
        let mut ad = AdaptiveDistance::new();
        // A window dominated by late arrivals doubles the lead.
        for i in 0..AD_SAMPLE {
            touch(&mut ad, i, TouchKind::PrefetchedLate);
        }
        assert_eq!(ad.lead(), AD_INIT_EXTRA * 2);
        assert_eq!(ad.counters().distance_retunes, 1);
        assert_eq!(ad.counters().late_rate_samples, 1);
        // An all-timely window halves it back.
        for i in 0..AD_SAMPLE {
            touch(&mut ad, i, TouchKind::PrefetchedTimely);
        }
        assert_eq!(ad.lead(), AD_INIT_EXTRA);
        assert_eq!(ad.counters().distance_retunes, 2);
        assert_eq!(ad.counters().window_peak, AD_INIT_EXTRA * 2);
    }

    #[test]
    fn adaptive_lead_stays_bounded() {
        let mut ad = AdaptiveDistance::new();
        for round in 0..20 {
            for i in 0..AD_SAMPLE {
                touch(&mut ad, round * AD_SAMPLE + i, TouchKind::PrefetchedLate);
            }
        }
        assert_eq!(ad.lead(), AD_MAX_EXTRA);
        for round in 0..20 {
            for i in 0..AD_SAMPLE {
                touch(&mut ad, round * AD_SAMPLE + i, TouchKind::PrefetchedTimely);
            }
        }
        assert_eq!(ad.lead(), 1);
    }

    #[test]
    fn recorder_logs_stalls_only_and_exposes_the_trace() {
        let mut hr = HistoryReplay::recorder();
        assert!(touch(&mut hr, 1, TouchKind::HardFault).is_empty());
        touch(&mut hr, 2, TouchKind::PrefetchedLate);
        touch(&mut hr, 3, TouchKind::PrefetchedTimely);
        touch(&mut hr, 4, TouchKind::SoftFault);
        assert_eq!(hr.miss_trace(), Some(&[1, 2][..]));
    }

    #[test]
    fn replayer_keeps_a_depth_of_trace_injected() {
        let trace: Vec<u64> = (0..200).collect();
        let mut hr = HistoryReplay::replaying(trace);
        assert!(hr.miss_trace().is_none());
        let act = touch(&mut hr, 0, TouchKind::HardFault);
        // Cursor moved past page 0; depth pages starting there.
        let pages = injected_pages(&act);
        assert_eq!(pages.len(), HR_DEPTH);
        assert_eq!(pages[0], 1);
        // Touching ahead resynchronizes and tops the window up.
        let act = touch(&mut hr, 50, TouchKind::HardFault);
        let pages = injected_pages(&act);
        assert_eq!(*pages.last().unwrap(), 50 + HR_DEPTH as u64);
    }

    #[test]
    fn replayer_survives_unrecorded_touches() {
        let trace: Vec<u64> = (1000..1100).collect();
        let mut hr = HistoryReplay::replaying(trace);
        let act = touch(&mut hr, 5, TouchKind::HardFault);
        // Page 5 is nowhere in the trace: the cursor holds, injection
        // still covers the front of the trace.
        assert_eq!(injected_pages(&act)[0], 1000);
        let act = touch(&mut hr, 6, TouchKind::HardFault);
        assert!(act.is_empty(), "window already injected");
    }

    #[test]
    fn broken_policy_requests_corruption() {
        let mut b = BrokenPolicy::new();
        let act = touch(&mut b, 7, TouchKind::HardFault);
        assert_eq!(act.corrupt, vec![7]);
        for p in 0..BROKEN_PERIOD - 1 {
            assert!(touch(&mut b, p, TouchKind::HardFault).corrupt.is_empty());
        }
        assert_eq!(touch(&mut b, 9, TouchKind::HardFault).corrupt, vec![9]);
    }
}
