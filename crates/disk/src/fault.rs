//! Deterministic fault injection for the disk layer.
//!
//! A [`FaultPlan`] describes, per request class, the misbehaviour a run
//! should experience: transient read/write errors, tail-latency
//! stragglers, whole-disk brownout windows, and (interpreted by the
//! layers above) residency bit-vector staleness and memory-pressure
//! storms. Every random decision is drawn from per-disk [`SimRng`]
//! streams seeded from `plan.seed`, so a given plan replayed against
//! the same request sequence injects byte-identical faults — chaos runs
//! are as reproducible as fault-free ones.
//!
//! The plan is only a *schedule* of misfortune. Interpreting it is
//! split across the stack the way real systems split it: the disk
//! model fails or delays individual requests, the OS retries or drops
//! them, and the runtime decides whether the hint path is still worth
//! using. Nothing here may affect computed results — that is the
//! non-binding-hint contract under test.

use std::fmt;

use oocp_sim::rng::SimRng;
use oocp_sim::time::{Ns, MILLISECOND};

use crate::model::{ReqKind, Request};

/// Typed error for a failed disk request.
///
/// `EmptyRequest` and `OutOfRange` are logic errors (the file system
/// handed out a bad extent); `Transient` and `Brownout` are injected
/// runtime faults the OS is expected to survive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoError {
    /// A request for zero blocks.
    EmptyRequest,
    /// The request extends past the disk capacity.
    OutOfRange {
        /// First requested block.
        start_block: u64,
        /// Requested block count.
        nblocks: u64,
        /// Disk capacity in blocks.
        capacity: u64,
    },
    /// A one-shot media/transport error; retrying may succeed.
    Transient {
        /// Index of the failing disk.
        disk: usize,
    },
    /// The disk is inside a brownout window and fails every request
    /// until `until`; retrying before then is futile.
    Brownout {
        /// Index of the failing disk.
        disk: usize,
        /// Simulated time at which the brownout lifts.
        until: Ns,
    },
    /// The disk's bounded request queue is full. This is backpressure,
    /// not a fault: nothing reached the media and no retry budget
    /// should be charged. A slot is guaranteed free by `retry_at`.
    QueueFull {
        /// Index of the saturated disk.
        disk: usize,
        /// Earliest simulated time at which a queue slot frees.
        retry_at: Ns,
    },
    /// Whole-machine power loss at simulated time `at`. Every request
    /// on every disk fails from that point on; retrying is futile and
    /// the only way forward is a recovery pass over durable state.
    Crashed {
        /// Simulated time of the power loss.
        at: Ns,
    },
    /// The disk died permanently at simulated time `at`. Unlike a
    /// brownout there is no `until`: retrying is futile forever, and
    /// the only ways forward are parity reconstruction from the
    /// survivors or accepting the data as lost.
    DiskDead {
        /// Index of the dead disk.
        disk: usize,
        /// Simulated time of the death.
        at: Ns,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            IoError::EmptyRequest => write!(f, "empty disk request"),
            IoError::OutOfRange {
                start_block,
                nblocks,
                capacity,
            } => write!(
                f,
                "request [{}, {}) exceeds disk capacity {}",
                start_block,
                start_block + nblocks,
                capacity
            ),
            IoError::Transient { disk } => {
                write!(f, "transient I/O error on disk {disk}")
            }
            IoError::Brownout { disk, until } => {
                write!(f, "disk {disk} browned out until {until} ns")
            }
            IoError::QueueFull { disk, retry_at } => {
                write!(f, "disk {disk} queue full; retry at {retry_at} ns")
            }
            IoError::Crashed { at } => {
                write!(f, "simulated power loss at {at} ns")
            }
            IoError::DiskDead { disk, at } => {
                write!(f, "disk {disk} died permanently at {at} ns")
            }
        }
    }
}

impl std::error::Error for IoError {}

/// A time window during which one disk (or the whole array) fails
/// every request with [`IoError::Brownout`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Brownout {
    /// Affected disk, or `None` for the whole array.
    pub disk: Option<usize>,
    /// Window start (inclusive), simulated time.
    pub from: Ns,
    /// Window end (exclusive), simulated time.
    pub until: Ns,
}

impl Brownout {
    /// Whether the window covers disk `id` at time `now`.
    pub fn covers(&self, id: usize, now: Ns) -> bool {
        self.disk.is_none_or(|d| d == id) && self.from <= now && now < self.until
    }
}

/// When, in a run's life, the simulated power cord is pulled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// Crash at the first disk submission at or after this simulated
    /// time.
    AtTime(Ns),
    /// Crash at the Nth disk submission (0-based: `AtOp(0)` kills the
    /// very first request).
    AtOp(u64),
}

/// A whole-machine crash schedule: the power loss point plus whether
/// in-flight multi-sector page writes may land *partially* (torn).
/// With `torn_writes` off, a write either fully completed before the
/// crash or left the old page image intact; with it on, a write caught
/// mid-air lands a sector prefix of the new image over the old one,
/// leaving the stored page checksum stale — the detectable-corruption
/// case recovery must handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// When the power is cut.
    pub point: CrashPoint,
    /// Whether in-flight writes may tear.
    pub torn_writes: bool,
}

/// A permanent whole-disk death: from `at` onward every request on
/// disk `disk` fails with [`IoError::DiskDead`] until a hot spare is
/// installed in the slot ([`FaultInjector::install_spare`]). Like a
/// brownout the event is time-driven and consumes no rng draws, so a
/// plan without deaths keeps its exact historical decision streams.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiskDeath {
    /// Index of the disk that dies.
    pub disk: usize,
    /// Simulated time of the death.
    pub at: Ns,
}

/// A memory-pressure storm: between `from` and `until` the machine's
/// resident-frame limit is squeezed to `limit_frames` (the
/// multiprogramming model — another job grabbing memory — which is
/// exactly the condition under which the paper's OS starts dropping
/// prefetch hints). Interpreted by the OS/bench layers via
/// `Machine::set_pressure_schedule`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PressureStorm {
    /// Storm start, simulated time.
    pub from: Ns,
    /// Storm end (frames restored), simulated time.
    pub until: Ns,
    /// Resident-frame limit during the storm.
    pub limit_frames: u64,
}

/// A complete, seeded description of the faults a run should suffer.
///
/// All probabilities are per-request and in `[0, 1]`. The default plan
/// (via [`FaultPlan::none`]) injects nothing; builder methods switch on
/// individual fault classes.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed for the per-disk decision streams.
    pub seed: u64,
    /// Probability a demand read fails transiently.
    pub demand_read_error_prob: f64,
    /// Probability a prefetch read fails transiently.
    pub prefetch_read_error_prob: f64,
    /// Probability a write-back fails transiently.
    pub write_error_prob: f64,
    /// Probability a request becomes a tail-latency straggler.
    pub straggler_prob: f64,
    /// Multiplier applied to a straggler's service time (>= 1.0).
    pub straggler_mult: f64,
    /// Additive latency tacked onto a straggler.
    pub straggler_add_ns: Ns,
    /// Whole-disk outage windows.
    pub brownouts: Vec<Brownout>,
    /// Probability the OS "loses" a residency-bit clear, leaving the
    /// shared bit vector stale (interpreted by the OS layer).
    pub bitvec_stale_prob: f64,
    /// Memory-pressure windows (interpreted by the OS/bench layers).
    pub pressure_storms: Vec<PressureStorm>,
    /// Optional whole-machine power loss (torn-write model included).
    pub crash: Option<CrashSpec>,
    /// Permanent whole-disk deaths (at most one per disk; well-formed
    /// plans never schedule more deaths than parity can tolerate).
    pub disk_deaths: Vec<DiskDeath>,
}

impl FaultPlan {
    /// A plan that injects nothing (the fault-free baseline).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            demand_read_error_prob: 0.0,
            prefetch_read_error_prob: 0.0,
            write_error_prob: 0.0,
            straggler_prob: 0.0,
            straggler_mult: 1.0,
            straggler_add_ns: 0,
            brownouts: Vec::new(),
            bitvec_stale_prob: 0.0,
            pressure_storms: Vec::new(),
            crash: None,
            disk_deaths: Vec::new(),
        }
    }

    /// Enable transient errors per request class.
    pub fn with_errors(mut self, demand: f64, prefetch: f64, write: f64) -> Self {
        self.demand_read_error_prob = demand;
        self.prefetch_read_error_prob = prefetch;
        self.write_error_prob = write;
        self
    }

    /// Enable tail-latency stragglers: with probability `prob` a
    /// request's service time is multiplied by `mult` and extended by
    /// `add_ns`.
    pub fn with_stragglers(mut self, prob: f64, mult: f64, add_ns: Ns) -> Self {
        self.straggler_prob = prob;
        self.straggler_mult = mult;
        self.straggler_add_ns = add_ns;
        self
    }

    /// Add a brownout window.
    pub fn with_brownout(mut self, b: Brownout) -> Self {
        self.brownouts.push(b);
        self
    }

    /// Enable residency bit-vector staleness.
    pub fn with_bitvec_staleness(mut self, prob: f64) -> Self {
        self.bitvec_stale_prob = prob;
        self
    }

    /// Add a memory-pressure storm window.
    pub fn with_pressure_storm(mut self, s: PressureStorm) -> Self {
        self.pressure_storms.push(s);
        self
    }

    /// Schedule a whole-machine power loss.
    pub fn with_crash(mut self, spec: CrashSpec) -> Self {
        self.crash = Some(spec);
        self
    }

    /// Schedule a permanent whole-disk death.
    pub fn with_disk_death(mut self, d: DiskDeath) -> Self {
        self.disk_deaths.push(d);
        self
    }

    /// Drop every scheduled disk death. Suites whose machines run
    /// without redundancy strip deaths from sampled plans: losing a
    /// disk with no parity is *designed* to be fatal, so a survivable
    /// "bad day" plan for them must not include one.
    pub fn without_disk_deaths(mut self) -> Self {
        self.disk_deaths.clear();
        self
    }

    /// Draw a random but bounded plan from `g`: modest error rates
    /// (the OS retry budget is sized for transient faults, not a dead
    /// array), optional stragglers, an optional bounded brownout, and
    /// optional residency-bit staleness. This is the one shared
    /// generator for every suite that needs "a plausible bad day" —
    /// the fault property tests and the baseline round-trip test draw
    /// from it so they agree on what fault space is covered.
    pub fn sample(g: &mut SimRng) -> Self {
        let mut plan = Self::none(g.next_u64()).with_errors(
            g.next_f64() * 0.05,
            g.next_f64() * 0.10,
            g.next_f64() * 0.05,
        );
        if g.next_f64() < 0.5 {
            plan = plan.with_stragglers(
                g.next_f64() * 0.10,
                2.0 + g.next_f64() * 8.0,
                g.next_below(20) * MILLISECOND,
            );
        }
        if g.next_f64() < 0.5 {
            let from = g.next_below(500) * MILLISECOND;
            plan = plan.with_brownout(Brownout {
                disk: None,
                from,
                until: from + 200 * MILLISECOND,
            });
        }
        if g.next_f64() < 0.5 {
            plan = plan.with_bitvec_staleness(g.next_f64() * 0.10);
        }
        // At most ONE death per plan: single parity tolerates exactly
        // one lost disk, and a well-formed plan never schedules more
        // deaths than parity can absorb (with `ndisks == 2` that rules
        // out losing disk 0 and disk 1 simultaneously). Disk indices
        // stay below 2 so the plan fits any redundant array.
        if g.next_f64() < 0.25 {
            plan = plan.with_disk_death(DiskDeath {
                disk: g.next_below(2) as usize,
                at: (50 + g.next_below(400)) * MILLISECOND,
            });
        }
        plan
    }

    /// A ready-made "everything at once" plan for chaos runs: transient
    /// errors on every class, 5% stragglers at 8x latency, one
    /// whole-array brownout, stale bits, and one pressure storm.
    pub fn chaos(seed: u64, brownout_from: Ns, brownout_len: Ns, storm_frames: u64) -> Self {
        Self::none(seed)
            .with_errors(0.02, 0.05, 0.02)
            .with_stragglers(0.05, 8.0, 20 * MILLISECOND)
            .with_brownout(Brownout {
                disk: None,
                from: brownout_from,
                until: brownout_from + brownout_len,
            })
            .with_bitvec_staleness(0.02)
            .with_pressure_storm(PressureStorm {
                from: brownout_from,
                until: brownout_from + brownout_len,
                limit_frames: storm_frames,
            })
    }

    /// Whether any disk-level fault class is enabled.
    pub fn is_active(&self) -> bool {
        self.demand_read_error_prob > 0.0
            || self.prefetch_read_error_prob > 0.0
            || self.write_error_prob > 0.0
            || self.straggler_prob > 0.0
            || !self.brownouts.is_empty()
            || self.crash.is_some()
            || !self.disk_deaths.is_empty()
    }

    /// Error probability for a request class.
    pub fn error_prob(&self, kind: ReqKind) -> f64 {
        match kind {
            ReqKind::DemandRead => self.demand_read_error_prob,
            ReqKind::PrefetchRead => self.prefetch_read_error_prob,
            ReqKind::Write => self.write_error_prob,
        }
    }
}

/// The outcome of consulting the injector for one request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Injection {
    /// Serve the request normally.
    None,
    /// Fail the request with this error.
    Fail(IoError),
    /// Serve the request, but stretch its service time:
    /// `service' = service * mult + add_ns`.
    Straggle {
        /// Service-time multiplier (>= 1.0).
        mult: f64,
        /// Additive latency.
        add_ns: Ns,
    },
}

/// Per-array fault decision engine.
///
/// Each disk gets its own decision stream so the injected fault
/// sequence on disk `i` depends only on `(plan.seed, i)` and the
/// order of requests submitted to disk `i` — adding a disk or
/// reordering traffic on one disk never perturbs another's faults.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    streams: Vec<SimRng>,
    /// Submissions seen so far (only counted when a crash is scheduled,
    /// so crash-free plans keep their exact historical decision order).
    ops: u64,
    /// Simulated time of the power loss, once it has happened.
    crashed_at: Option<Ns>,
    /// Per-slot scheduled death time. `None` when the slot has no
    /// pending death — either none was planned, or a hot spare has
    /// been installed over the corpse.
    death_at: Vec<Option<Ns>>,
}

impl FaultInjector {
    /// Build an injector for an array of `ndisks` disks.
    pub fn new(plan: FaultPlan, ndisks: usize) -> Self {
        let streams = (0..ndisks as u64)
            // Offset each stream with a large odd constant so per-disk
            // sequences are decorrelated even for adjacent seeds.
            .map(|i| SimRng::new(plan.seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        let mut death_at = vec![None; ndisks];
        for d in &plan.disk_deaths {
            if let Some(slot) = death_at.get_mut(d.disk) {
                // At most one death per disk; keep the earliest.
                *slot = Some(slot.map_or(d.at, |t: Ns| t.min(d.at)));
            }
        }
        Self {
            plan,
            streams,
            ops: 0,
            crashed_at: None,
            death_at,
        }
    }

    /// Install a hot spare in slot `id`: the scheduled death (if any)
    /// is cleared and subsequent requests to the slot reach the fresh
    /// media. The rebuild scrubber above decides when the spare's
    /// contents are trustworthy; the injector only models the swap.
    pub fn install_spare(&mut self, id: usize) {
        if let Some(slot) = self.death_at.get_mut(id) {
            *slot = None;
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Simulated time of the scheduled power loss, once it has tripped.
    pub fn crashed_at(&self) -> Option<Ns> {
        self.crashed_at
    }

    /// Decide the fate of one request on disk `id` at time `now`.
    ///
    /// A scheduled crash is checked first and latches permanently: once
    /// the power is out, every subsequent request on every disk fails
    /// with the same [`IoError::Crashed`] and no rng draws are
    /// consumed. A scheduled disk death comes next — time-driven like
    /// a brownout, permanent until [`install_spare`], no draws
    /// consumed. Brownout windows follow (time-driven, not random);
    /// then the per-class error draw; then the straggler draw. Both
    /// draws are always consumed so the stream position depends only on
    /// the request count, keeping sibling fault classes independent of
    /// each other's probabilities.
    ///
    /// [`install_spare`]: FaultInjector::install_spare
    pub fn decide(&mut self, id: usize, now: Ns, req: &Request) -> Injection {
        if let Some(spec) = self.plan.crash {
            if let Some(at) = self.crashed_at {
                return Injection::Fail(IoError::Crashed { at });
            }
            let tripped = match spec.point {
                CrashPoint::AtTime(t) if now >= t => Some(t),
                CrashPoint::AtOp(n) if self.ops >= n => Some(now),
                _ => None,
            };
            self.ops += 1;
            if let Some(at) = tripped {
                self.crashed_at = Some(at);
                return Injection::Fail(IoError::Crashed { at });
            }
        }
        if let Some(at) = self.death_at.get(id).copied().flatten() {
            if now >= at {
                return Injection::Fail(IoError::DiskDead { disk: id, at });
            }
        }
        for b in &self.plan.brownouts {
            if b.covers(id, now) {
                return Injection::Fail(IoError::Brownout {
                    disk: id,
                    until: b.until,
                });
            }
        }
        let g = &mut self.streams[id];
        let error_draw = g.next_f64();
        let straggle_draw = g.next_f64();
        if error_draw < self.plan.error_prob(req.kind) {
            return Injection::Fail(IoError::Transient { disk: id });
        }
        if straggle_draw < self.plan.straggler_prob {
            return Injection::Straggle {
                mult: self.plan.straggler_mult,
                add_ns: self.plan.straggler_add_ns,
            };
        }
        Injection::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(kind: ReqKind) -> Request {
        Request::new(kind, 0, 1)
    }

    #[test]
    fn null_plan_injects_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::none(7), 2);
        for _ in 0..1000 {
            assert_eq!(
                inj.decide(0, 0, &read(ReqKind::DemandRead)),
                Injection::None
            );
            assert_eq!(inj.decide(1, 0, &read(ReqKind::Write)), Injection::None);
        }
    }

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan::none(42)
            .with_errors(0.3, 0.3, 0.3)
            .with_stragglers(0.2, 4.0, 1000);
        let mut a = FaultInjector::new(plan.clone(), 3);
        let mut b = FaultInjector::new(plan, 3);
        for i in 0..500usize {
            let d = i % 3;
            let r = read(ReqKind::PrefetchRead);
            assert_eq!(a.decide(d, i as Ns, &r), b.decide(d, i as Ns, &r));
        }
    }

    #[test]
    fn per_disk_streams_are_independent() {
        let plan = FaultPlan::none(9).with_errors(0.5, 0.5, 0.5);
        let mut a = FaultInjector::new(plan.clone(), 2);
        let mut b = FaultInjector::new(plan, 2);
        // Interleave traffic differently on disk 1; disk 0's fault
        // sequence must be unaffected.
        let r = read(ReqKind::DemandRead);
        let seq_a: Vec<_> = (0..100)
            .map(|i| {
                if i % 2 == 0 {
                    b.decide(1, 0, &r);
                }
                a.decide(0, 0, &r)
            })
            .collect();
        let seq_b: Vec<_> = (0..100).map(|_| b.decide(0, 0, &r)).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn brownout_windows_fail_deterministically() {
        let plan = FaultPlan::none(1).with_brownout(Brownout {
            disk: Some(1),
            from: 100,
            until: 200,
        });
        let mut inj = FaultInjector::new(plan, 2);
        let r = read(ReqKind::DemandRead);
        assert_eq!(inj.decide(1, 99, &r), Injection::None);
        assert_eq!(
            inj.decide(1, 100, &r),
            Injection::Fail(IoError::Brownout {
                disk: 1,
                until: 200
            })
        );
        assert_eq!(
            inj.decide(1, 199, &r),
            Injection::Fail(IoError::Brownout {
                disk: 1,
                until: 200
            })
        );
        assert_eq!(inj.decide(1, 200, &r), Injection::None);
        // Other disks unaffected.
        assert_eq!(inj.decide(0, 150, &r), Injection::None);
    }

    #[test]
    fn brownout_covers_pins_window_edges() {
        let b = Brownout {
            disk: Some(2),
            from: 100,
            until: 200,
        };
        // Inclusive start, exclusive end.
        assert!(!b.covers(2, 99));
        assert!(b.covers(2, 100));
        assert!(b.covers(2, 199));
        assert!(!b.covers(2, 200));
        // Disk filter: only the named disk is covered.
        assert!(!b.covers(1, 150));
        // A whole-array window covers every disk.
        let all = Brownout {
            disk: None,
            from: 100,
            until: 200,
        };
        assert!(all.covers(0, 150) && all.covers(7, 150));
        // A zero-length window covers nothing, not even its own edge.
        let empty = Brownout {
            disk: None,
            from: 100,
            until: 100,
        };
        assert!(!empty.covers(0, 99) && !empty.covers(0, 100) && !empty.covers(0, 101));
    }

    #[test]
    fn crash_at_op_latches_on_every_disk() {
        let plan = FaultPlan::none(3).with_crash(CrashSpec {
            point: CrashPoint::AtOp(2),
            torn_writes: false,
        });
        let mut inj = FaultInjector::new(plan, 2);
        let r = read(ReqKind::Write);
        assert!(inj.crashed_at().is_none());
        assert_eq!(inj.decide(0, 10, &r), Injection::None);
        assert_eq!(inj.decide(1, 20, &r), Injection::None);
        // Third submission (0-based op 2) trips the crash at its time.
        assert_eq!(
            inj.decide(0, 30, &r),
            Injection::Fail(IoError::Crashed { at: 30 })
        );
        assert_eq!(inj.crashed_at(), Some(30));
        // Latched: every later request on any disk fails identically.
        assert_eq!(
            inj.decide(1, 99, &read(ReqKind::DemandRead)),
            Injection::Fail(IoError::Crashed { at: 30 })
        );
    }

    #[test]
    fn crash_at_time_trips_on_first_submission_past_the_point() {
        let plan = FaultPlan::none(3).with_crash(CrashSpec {
            point: CrashPoint::AtTime(500),
            torn_writes: true,
        });
        let mut inj = FaultInjector::new(plan, 1);
        let r = read(ReqKind::DemandRead);
        assert_eq!(inj.decide(0, 499, &r), Injection::None);
        // The power loss time is the scheduled instant, not the
        // (possibly later) submission that observed it.
        assert_eq!(
            inj.decide(0, 700, &r),
            Injection::Fail(IoError::Crashed { at: 500 })
        );
        assert_eq!(inj.crashed_at(), Some(500));
    }

    #[test]
    fn crash_consumes_no_rng_draws() {
        // With errors enabled, a crash-bearing plan must make the same
        // pre-crash error decisions as the crash-free plan.
        let base = FaultPlan::none(77).with_errors(0.3, 0.3, 0.3);
        let crashy = base.clone().with_crash(CrashSpec {
            point: CrashPoint::AtOp(50),
            torn_writes: false,
        });
        let mut a = FaultInjector::new(base, 1);
        let mut b = FaultInjector::new(crashy, 1);
        let r = read(ReqKind::DemandRead);
        for i in 0..50 {
            assert_eq!(a.decide(0, i, &r), b.decide(0, i, &r), "op {i}");
        }
    }

    #[test]
    fn disk_death_is_permanent_until_spared() {
        let plan = FaultPlan::none(5).with_disk_death(DiskDeath { disk: 1, at: 100 });
        let mut inj = FaultInjector::new(plan, 3);
        let r = read(ReqKind::DemandRead);
        assert_eq!(inj.decide(1, 99, &r), Injection::None);
        let dead = Injection::Fail(IoError::DiskDead { disk: 1, at: 100 });
        assert_eq!(inj.decide(1, 100, &r), dead);
        // Permanent: no brownout-style recovery, any later time fails.
        assert_eq!(inj.decide(1, 1_000_000, &r), dead);
        // Other disks unaffected.
        assert_eq!(inj.decide(0, 150, &r), Injection::None);
        assert_eq!(inj.decide(2, 150, &r), Injection::None);
        // A hot spare in the slot serves requests again.
        inj.install_spare(1);
        assert_eq!(inj.decide(1, 200, &r), Injection::None);
    }

    #[test]
    fn disk_death_consumes_no_rng_draws() {
        // With errors enabled, a death-bearing plan must make the same
        // decisions on the surviving disks as the death-free plan.
        let base = FaultPlan::none(88).with_errors(0.3, 0.3, 0.3);
        let deadly = base.clone().with_disk_death(DiskDeath { disk: 0, at: 0 });
        let mut a = FaultInjector::new(base, 2);
        let mut b = FaultInjector::new(deadly, 2);
        let r = read(ReqKind::DemandRead);
        for i in 0..200 {
            assert_eq!(a.decide(1, i, &r), b.decide(1, i, &r), "op {i}");
        }
    }

    #[test]
    fn error_rates_track_probabilities() {
        let plan = FaultPlan::none(1234).with_errors(0.25, 0.0, 0.0);
        let mut inj = FaultInjector::new(plan, 1);
        let n = 10_000;
        let failures = (0..n)
            .filter(|_| {
                matches!(
                    inj.decide(0, 0, &read(ReqKind::DemandRead)),
                    Injection::Fail(_)
                )
            })
            .count();
        let rate = failures as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate} far from 0.25");
        // Prefetch reads never fail under this plan.
        let pf_failures = (0..n)
            .filter(|_| {
                matches!(
                    inj.decide(0, 0, &read(ReqKind::PrefetchRead)),
                    Injection::Fail(_)
                )
            })
            .count();
        assert_eq!(pf_failures, 0);
    }
}
