//! Pluggable per-disk I/O scheduling: policies, queue configuration,
//! and completion tickets.
//!
//! The paper notes that Hurricane's disk scheduler "treats prefetches
//! the same as normal disk read requests" and leaves demand-over-
//! prefetch prioritization as future work (section 6). This module
//! makes that design axis explicit: every [`crate::Disk`] owns a real
//! request queue, and a [`SchedPolicy`] decides which queued request is
//! dispatched whenever the media goes idle.
//!
//! Four policies are provided:
//!
//! * [`SchedPolicy::Fcfs`] — strict arrival order, the paper's
//!   baseline. With the default [`SchedConfig`] (unbounded queue, no
//!   coalescing) the simulated timing is bit-identical to the original
//!   queueless model, because FIFO dispatch commutes with computing
//!   completions at submission.
//! * [`SchedPolicy::Sstf`] — shortest seek time first: the eligible
//!   request whose start block is closest to the head.
//! * [`SchedPolicy::Scan`] — the elevator: sweep toward increasing
//!   block addresses serving eligible requests in address order, then
//!   reverse when nothing remains ahead of the head.
//! * [`SchedPolicy::DemandPriority`] — demand reads preempt queued
//!   prefetches (and write-backs), with an aging bound: a prefetch
//!   that has waited longer than [`SchedConfig::prefetch_age_ns`] is
//!   dispatched next regardless, so hint traffic cannot starve.
//!
//! Scheduling is **timing-only** by construction: a policy chooses
//! *when* a request reaches the media, never *whether* or *what* it
//! reads, so computed results are identical across policies (the
//! property `tests/proptest_sched.rs` checks).

use std::collections::VecDeque;
use std::fmt;

use oocp_sim::time::{Ns, MILLISECOND};

use crate::model::ReqKind;

/// A structurally invalid scheduler configuration.
///
/// Produced by [`SchedConfig::check`]; the panicking
/// [`SchedConfig::validate`] wraps it for callers that treat a bad
/// configuration as a programming error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedError {
    /// `queue_depth` was zero: a disk that can never accept a request
    /// is a configuration error, not a backpressure state.
    ZeroQueueDepth,
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::ZeroQueueDepth => write!(f, "queue depth must be at least 1"),
        }
    }
}

impl std::error::Error for SchedError {}

/// Which queued request a disk dispatches when the media goes idle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedPolicy {
    /// First come, first served — arrival order (the paper's baseline).
    #[default]
    Fcfs,
    /// Shortest seek time first: nearest start block to the head.
    Sstf,
    /// Elevator: serve in address order along the current sweep
    /// direction, reversing at the ends.
    Scan,
    /// Demand reads first, then write-backs, then prefetches; a
    /// prefetch older than the aging bound jumps the priority order.
    DemandPriority,
}

impl SchedPolicy {
    /// All policies, in sweep order.
    pub const ALL: [SchedPolicy; 4] = [
        SchedPolicy::Fcfs,
        SchedPolicy::Sstf,
        SchedPolicy::Scan,
        SchedPolicy::DemandPriority,
    ];

    /// Short label used in table columns and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            SchedPolicy::Fcfs => "fcfs",
            SchedPolicy::Sstf => "sstf",
            SchedPolicy::Scan => "scan",
            SchedPolicy::DemandPriority => "demand-prio",
        }
    }

    /// Parse a CLI label (as printed by [`SchedPolicy::label`]).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fcfs" => Some(SchedPolicy::Fcfs),
            "sstf" => Some(SchedPolicy::Sstf),
            "scan" => Some(SchedPolicy::Scan),
            "demand-prio" | "demand" => Some(SchedPolicy::DemandPriority),
            _ => None,
        }
    }
}

/// Per-disk queue configuration.
///
/// The default reproduces the original queueless model exactly: FCFS
/// dispatch, an unbounded queue (backpressure never fires), and no
/// coalescing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SchedConfig {
    /// Dispatch policy.
    pub policy: SchedPolicy,
    /// Maximum undispatched requests per disk; an enqueue beyond this
    /// is rejected with [`crate::IoError::QueueFull`]. Must be >= 1.
    pub queue_depth: usize,
    /// Merge an arriving read with an adjacent queued read of the same
    /// class into one multi-block transfer (never across the
    /// cylinder-span bound, so the merged request still pays a single
    /// positioning — the extent-layout guarantee).
    pub coalesce: bool,
    /// Aging bound for [`SchedPolicy::DemandPriority`]: a queued
    /// prefetch that has waited this long is dispatched ahead of
    /// demand traffic (starvation bound).
    pub prefetch_age_ns: Ns,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            policy: SchedPolicy::Fcfs,
            queue_depth: usize::MAX,
            coalesce: false,
            prefetch_age_ns: 50 * MILLISECOND,
        }
    }
}

impl SchedConfig {
    /// Same configuration with a different policy.
    #[must_use]
    pub fn with_policy(mut self, policy: SchedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Same configuration with a bounded queue depth.
    #[must_use]
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Same configuration with coalescing switched on or off.
    #[must_use]
    pub fn with_coalesce(mut self, on: bool) -> Self {
        self.coalesce = on;
        self
    }

    /// Same configuration with a different prefetch aging bound.
    #[must_use]
    pub fn with_prefetch_age_ns(mut self, ns: Ns) -> Self {
        self.prefetch_age_ns = ns;
        self
    }

    /// Check internal consistency, returning a typed error.
    pub fn check(&self) -> Result<(), SchedError> {
        if self.queue_depth == 0 {
            return Err(SchedError::ZeroQueueDepth);
        }
        Ok(())
    }

    /// Validate internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if [`SchedConfig::check`] fails (a disk that can never
    /// accept a request is a configuration error, not a backpressure
    /// state).
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

/// Opaque handle to an admitted disk request.
///
/// Returned by [`crate::DiskArray::admit`]; redeemed with
/// [`crate::DiskArray::poll`] or [`crate::DiskArray::wait_for`], once
/// per completion unit it was admitted with: a tracked `n`-block read
/// carries `n`, so each of the `n` pages it loads settles on its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Ticket {
    pub(crate) disk: usize,
    pub(crate) seq: u64,
}

impl Ticket {
    /// The disk the tracked request was queued on.
    pub fn disk(&self) -> usize {
        self.disk
    }
}

/// One undispatched request sitting in a disk's queue.
#[derive(Clone, Debug)]
pub(crate) struct Pending {
    pub(crate) req: crate::model::Request,
    /// Enqueue time; a request is eligible for dispatch at `start` only
    /// if it had already arrived (`arrival <= start`).
    pub(crate) arrival: Ns,
    /// Straggler service-time multiplier decided at enqueue (fault
    /// streams consume draws in submission order, policy-independent).
    pub(crate) mult: f64,
    /// Straggler additive latency decided at enqueue.
    pub(crate) add_ns: Ns,
    /// `(ticket seq, completion units)` of the request itself; zero
    /// units means posted (no completion tracking).
    pub(crate) ticket: (u64, u64),
    /// The tickets of the requests coalesced into this one. Empty — and
    /// so never allocated — unless a merge happened, and then a list
    /// recycled through the disk's `spare_merged`.
    pub(crate) merged: Vec<(u64, u64)>,
}

impl Pending {
    /// Every `(ticket seq, completion units)` riding on this request.
    pub(crate) fn tickets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        std::iter::once(self.ticket).chain(self.merged.iter().copied())
    }
}

/// Mutable scheduler state a disk carries across picks: the elevator
/// sweep direction and the tenant round-robin cursor.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PickState {
    /// Elevator sweep direction for [`SchedPolicy::Scan`].
    pub(crate) scan_up: bool,
    /// Tenant most recently served by the tenant rotation of
    /// [`SchedPolicy::DemandPriority`]; the next pick within a class
    /// starts cyclically after it. Untouched (and unread) while the
    /// eligible set names a single tenant, so solo traffic dispatches
    /// exactly as before.
    pub(crate) rr_tenant: u32,
}

impl Default for PickState {
    fn default() -> Self {
        Self {
            scan_up: true,
            rr_tenant: 0,
        }
    }
}

/// Outcome of a policy pick: which queue index to dispatch, plus
/// whether the choice preempted older lower-priority traffic or was
/// forced by the aging bound.
pub(crate) struct Picked {
    pub(crate) idx: usize,
    /// A demand read was dispatched ahead of an older queued
    /// non-demand request.
    pub(crate) preempted: bool,
    /// A prefetch exceeded the aging bound and bypassed eligible
    /// higher-priority traffic.
    pub(crate) aged: bool,
}

/// The queued requests that had arrived by `start`, with their queue
/// indices, in queue (= arrival) order.
fn eligible(q: &VecDeque<Pending>, start: Ns) -> impl Iterator<Item = (usize, &Pending)> + Clone {
    q.iter()
        .enumerate()
        .filter(move |(_, p)| p.arrival <= start)
}

impl SchedPolicy {
    /// Choose which queued request to dispatch at time `start`.
    ///
    /// Only requests that have already arrived (`arrival <= start`) are
    /// eligible; the caller guarantees at least one is. Ties break by
    /// queue order (= arrival order), keeping every policy
    /// deterministic.
    pub(crate) fn pick(
        self,
        q: &VecDeque<Pending>,
        head: u64,
        start: Ns,
        age_limit: Ns,
        state: &mut PickState,
    ) -> Picked {
        let el = eligible(q, start);
        debug_assert!(
            el.clone().next().is_some(),
            "dispatch with no eligible request"
        );
        let idx = match self {
            SchedPolicy::Fcfs => el.map(|(i, _)| i).next(),
            SchedPolicy::Sstf => el
                .map(|(i, p)| (p.req.start_block.abs_diff(head), i))
                .min()
                .map(|(_, i)| i),
            SchedPolicy::Scan => Some(Self::pick_scan(el, head, &mut state.scan_up)),
            SchedPolicy::DemandPriority => {
                return Self::pick_demand_priority(el, start, age_limit, &mut state.rr_tenant)
            }
        };
        Picked {
            idx: idx.expect("eligible set is non-empty"),
            preempted: false,
            aged: false,
        }
    }

    /// Elevator pick: nearest eligible request along the current sweep
    /// direction; reverse the direction when the sweep is exhausted.
    fn pick_scan<'q>(
        el: impl Iterator<Item = (usize, &'q Pending)> + Clone,
        head: u64,
        scan_up: &mut bool,
    ) -> usize {
        for _ in 0..2 {
            // Keyed `(block, index)`: among equal blocks the minimum is
            // the first queued and the maximum the last.
            let blocks = el.clone().map(|(i, p)| (p.req.start_block, i));
            let found = if *scan_up {
                blocks.filter(|&(b, _)| b >= head).min()
            } else {
                blocks.filter(|&(b, _)| b <= head).max()
            };
            if let Some((_, i)) = found {
                return i;
            }
            *scan_up = !*scan_up;
        }
        unreachable!("one of the two sweeps covers a non-empty eligible set")
    }

    /// Demand > write > prefetch, FCFS within a class; a prefetch past
    /// the aging bound jumps the order so hints cannot starve.
    ///
    /// When the eligible set names more than one tenant, the pick is
    /// tenant-aware: every tenant's *oldest* queued prefetch carries
    /// its own aging clock, and within a class tenants are served
    /// round-robin (cursor in `rr`) so one tenant's burst cannot starve
    /// another's traffic of the same class. With a single tenant both
    /// refinements reduce exactly to the historical behavior — the
    /// oldest prefetch overall is the only aging candidate and FCFS
    /// order wins within each class — so solo timing is bit-identical.
    fn pick_demand_priority<'q>(
        el: impl Iterator<Item = (usize, &'q Pending)> + Clone,
        start: Ns,
        age_limit: Ns,
        rr: &mut u32,
    ) -> Picked {
        let first_tenant = el.clone().next().map(|(_, p)| p.req.tenant);
        let multi = el.clone().any(|(_, p)| Some(p.req.tenant) != first_tenant);
        // Rotation key: how far cyclically past the last-served tenant.
        let rr_dist = |p: &Pending, rr: u32| p.req.tenant.wrapping_sub(rr).wrapping_sub(1);
        // Aging: each tenant's oldest queued prefetch carries its own
        // clock; when several tenants' prefetches are past the bound,
        // the rotation shares the aged dispatches instead of letting
        // the deepest backlog monopolize them.
        let prefetches = el
            .clone()
            .filter(|(_, p)| p.req.kind == ReqKind::PrefetchRead);
        let mut aged = prefetches.clone().filter(|&(i, p)| {
            start.saturating_sub(p.arrival) > age_limit
                && !prefetches
                    .clone()
                    .take_while(|&(j, _)| j < i)
                    .any(|(_, older)| older.req.tenant == p.req.tenant)
        });
        let aged_pick = if multi {
            aged.min_by_key(|(_, p)| rr_dist(p, *rr))
        } else {
            aged.next()
        };
        if let Some((idx, p)) = aged_pick {
            if multi {
                *rr = p.req.tenant;
            }
            // Starvation bound: the aged prefetch goes next. Count it
            // only when it actually bypassed something.
            let bypassed = el.clone().any(|(_, p)| p.req.kind != ReqKind::PrefetchRead);
            return Picked {
                idx,
                preempted: false,
                aged: bypassed,
            };
        }
        for kind in [ReqKind::DemandRead, ReqKind::Write, ReqKind::PrefetchRead] {
            let mut in_class = el.clone().filter(|(_, p)| p.req.kind == kind);
            let picked = if multi {
                // Serve the tenant cyclically after the last-served
                // one; within a tenant, oldest first (queue order).
                in_class.min_by_key(|&(i, p)| (rr_dist(p, *rr), i))
            } else {
                in_class.next()
            };
            if let Some((idx, p)) = picked {
                if multi {
                    *rr = p.req.tenant;
                }
                let preempted = kind == ReqKind::DemandRead
                    && el
                        .clone()
                        .take_while(|&(j, _)| j < idx)
                        .any(|(_, p)| p.req.kind != ReqKind::DemandRead);
                return Picked {
                    idx,
                    preempted,
                    aged: false,
                };
            }
        }
        unreachable!("eligible set is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Request;

    fn pend(kind: ReqKind, start_block: u64, arrival: Ns) -> Pending {
        pend_t(kind, start_block, arrival, 0)
    }

    fn pend_t(kind: ReqKind, start_block: u64, arrival: Ns, tenant: u32) -> Pending {
        Pending {
            req: Request::new(kind, start_block, 1).with_tenant(tenant),
            arrival,
            mult: 1.0,
            add_ns: 0,
            ticket: (0, 0),
            merged: Vec::new(),
        }
    }

    #[test]
    fn labels_roundtrip_through_parse() {
        for p in SchedPolicy::ALL {
            assert_eq!(SchedPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(SchedPolicy::parse("nope"), None);
    }

    #[test]
    fn default_config_is_the_paper_baseline() {
        let c = SchedConfig::default();
        assert_eq!(c.policy, SchedPolicy::Fcfs);
        assert_eq!(c.queue_depth, usize::MAX);
        assert!(!c.coalesce);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "queue depth")]
    fn zero_queue_depth_rejected() {
        SchedConfig::default().with_queue_depth(0).validate();
    }

    #[test]
    fn fcfs_picks_first_eligible() {
        let q = VecDeque::from([
            pend(ReqKind::PrefetchRead, 900, 0),
            pend(ReqKind::DemandRead, 10, 1),
        ]);
        let mut st = PickState::default();
        let p = SchedPolicy::Fcfs.pick(&q, 0, 5, Ns::MAX, &mut st);
        assert_eq!(p.idx, 0);
    }

    #[test]
    fn sstf_picks_nearest_to_head() {
        let q = VecDeque::from([
            pend(ReqKind::DemandRead, 9_000, 0),
            pend(ReqKind::DemandRead, 110, 0),
            pend(ReqKind::DemandRead, 4_000, 0),
        ]);
        let mut st = PickState::default();
        let p = SchedPolicy::Sstf.pick(&q, 100, 0, Ns::MAX, &mut st);
        assert_eq!(p.idx, 1, "block 110 is nearest to head 100");
    }

    #[test]
    fn scan_sweeps_up_then_reverses() {
        let q = VecDeque::from([
            pend(ReqKind::DemandRead, 50, 0),
            pend(ReqKind::DemandRead, 200, 0),
            pend(ReqKind::DemandRead, 500, 0),
        ]);
        let mut st = PickState::default();
        // Head at 100 moving up: 200 first, not the nearer 50.
        assert_eq!(SchedPolicy::Scan.pick(&q, 100, 0, Ns::MAX, &mut st).idx, 1);
        // Head at 600 moving up: nothing ahead, so reverse to 500.
        let p = SchedPolicy::Scan.pick(&q, 600, 0, Ns::MAX, &mut st);
        assert_eq!(p.idx, 2);
        assert!(!st.scan_up, "direction flipped to downward");
    }

    #[test]
    fn demand_priority_jumps_older_prefetches() {
        let q = VecDeque::from([
            pend(ReqKind::PrefetchRead, 10, 0),
            pend(ReqKind::Write, 20, 1),
            pend(ReqKind::DemandRead, 900, 2),
        ]);
        let mut st = PickState::default();
        let p = SchedPolicy::DemandPriority.pick(&q, 0, 5, Ns::MAX, &mut st);
        assert_eq!(p.idx, 2, "demand read first");
        assert!(p.preempted, "it bypassed older queued traffic");
        assert!(!p.aged);
    }

    #[test]
    fn aged_prefetch_beats_demand() {
        let age = 1_000;
        let q = VecDeque::from([
            pend(ReqKind::PrefetchRead, 10, 0),
            pend(ReqKind::DemandRead, 900, 5),
        ]);
        let mut st = PickState::default();
        let p = SchedPolicy::DemandPriority.pick(&q, 0, age + 1, age, &mut st);
        assert_eq!(p.idx, 0, "prefetch waited past the bound");
        assert!(p.aged);
        // Under the bound the demand read still wins.
        let p = SchedPolicy::DemandPriority.pick(&q, 0, age, age, &mut st);
        assert_eq!(p.idx, 1);
    }

    #[test]
    fn check_reports_zero_queue_depth_as_typed_error() {
        assert_eq!(
            SchedConfig::default().with_queue_depth(0).check(),
            Err(SchedError::ZeroQueueDepth)
        );
        assert_eq!(SchedConfig::default().check(), Ok(()));
        assert_eq!(
            SchedError::ZeroQueueDepth.to_string(),
            "queue depth must be at least 1"
        );
    }

    #[test]
    fn demand_priority_round_robins_tenants_within_class() {
        // Tenant 0 floods the demand class; tenant 1 queues one demand
        // read behind the flood.
        let q = VecDeque::from([
            pend_t(ReqKind::DemandRead, 10, 0, 0),
            pend_t(ReqKind::DemandRead, 20, 1, 0),
            pend_t(ReqKind::DemandRead, 30, 2, 1),
        ]);
        let mut st = PickState::default();
        let p = SchedPolicy::DemandPriority.pick(&q, 0, 5, Ns::MAX, &mut st);
        assert_eq!(p.idx, 2, "tenant 1 is cyclically next after cursor 0");
        assert_eq!(st.rr_tenant, 1);
        let p = SchedPolicy::DemandPriority.pick(&q, 0, 5, Ns::MAX, &mut st);
        assert_eq!(p.idx, 0, "rotation returns to tenant 0's oldest");
        assert_eq!(st.rr_tenant, 0);
    }

    #[test]
    fn single_tenant_pick_ignores_the_rotation_cursor() {
        // A non-zero cursor must not perturb a single-tenant queue:
        // FCFS within the class, exactly the historical order.
        let q = VecDeque::from([
            pend_t(ReqKind::DemandRead, 10, 0, 3),
            pend_t(ReqKind::DemandRead, 20, 1, 3),
        ]);
        let mut st = PickState {
            scan_up: true,
            rr_tenant: 7,
        };
        let p = SchedPolicy::DemandPriority.pick(&q, 0, 5, Ns::MAX, &mut st);
        assert_eq!(p.idx, 0);
        assert_eq!(st.rr_tenant, 7, "cursor untouched for a single tenant");
    }

    #[test]
    fn aged_prefetches_rotate_across_tenants() {
        let age = 1_000;
        // Both tenants' oldest prefetches are past the bound; tenant
        // 0's arrived first. The rotation (cursor 0) still serves
        // tenant 1 next, so one tenant's deep backlog of stale hints
        // cannot monopolize the aging escape hatch.
        let q = VecDeque::from([
            pend_t(ReqKind::PrefetchRead, 10, 0, 0),
            pend_t(ReqKind::PrefetchRead, 20, 1, 1),
            pend_t(ReqKind::DemandRead, 900, 2, 0),
        ]);
        let mut st = PickState::default();
        let p = SchedPolicy::DemandPriority.pick(&q, 0, age + 2, age, &mut st);
        assert_eq!(p.idx, 1, "tenant 1's aged prefetch rotates in first");
        assert!(p.aged);
        assert_eq!(st.rr_tenant, 1);
        let p = SchedPolicy::DemandPriority.pick(&q, 0, age + 2, age, &mut st);
        assert_eq!(p.idx, 0, "then tenant 0's");
        assert!(p.aged);
    }

    #[test]
    fn not_yet_arrived_requests_are_ineligible() {
        let q = VecDeque::from([
            pend(ReqKind::DemandRead, 10, 100),
            pend(ReqKind::DemandRead, 20, 0),
        ]);
        let mut st = PickState::default();
        // At start=50 only the second request has arrived.
        let p = SchedPolicy::Sstf.pick(&q, 10, 50, Ns::MAX, &mut st);
        assert_eq!(p.idx, 1);
    }
}
