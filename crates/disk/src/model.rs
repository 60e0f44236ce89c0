//! Single-disk model: geometry parameters, service times, a scheduled
//! request queue, and statistics.

use std::collections::VecDeque;

use oocp_obs::LatencyHist;
use oocp_sim::time::{Ns, MICROSECOND, MILLISECOND};

use crate::fault::IoError;
use crate::sched::{Pending, PickState, Picked, SchedConfig};

/// Kind of request submitted to a disk.
///
/// Figure 5(a) of the paper breaks down disk traffic into exactly these
/// three classes, so we track them separately from the start.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReqKind {
    /// Read triggered by a page fault the application is stalled on.
    DemandRead,
    /// Read triggered by a non-binding prefetch hint.
    PrefetchRead,
    /// Write-back of a dirty page (eviction, release, or final flush).
    Write,
}

/// A request for `nblocks` contiguous blocks starting at `start_block`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Traffic class of this request.
    pub kind: ReqKind,
    /// First block number on this disk.
    pub start_block: u64,
    /// Number of contiguous blocks; must be at least 1.
    pub nblocks: u64,
    /// Tenant the request is submitted on behalf of. Single-program
    /// machines leave this at 0 (the default); the multi-tenant OS tags
    /// it so tenant-aware scheduling and per-tenant queue shares can
    /// tell traffic streams apart.
    pub tenant: u32,
    /// Whether the request was injected by a prefetch policy rather
    /// than issued for a compiler hint or a demand fault. Attribution
    /// only; scheduling treats both identically.
    pub policy_injected: bool,
}

impl Request {
    /// Checked constructor enforcing the `nblocks >= 1` invariant.
    ///
    /// An empty request is a programming error at every call site (the
    /// file system never places zero-block runs), so the check is a
    /// debug assertion; release builds still surface the mistake as a
    /// typed [`IoError::EmptyRequest`] at submission.
    #[must_use]
    pub fn new(kind: ReqKind, start_block: u64, nblocks: u64) -> Self {
        debug_assert!(nblocks >= 1, "a disk request must name at least one block");
        Self {
            kind,
            start_block,
            nblocks,
            tenant: 0,
            policy_injected: false,
        }
    }

    /// Same request tagged with a submitting tenant.
    #[must_use]
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// Same request marked as injected by a prefetch policy.
    #[must_use]
    pub fn with_policy_injected(mut self, injected: bool) -> Self {
        self.policy_injected = injected;
        self
    }
}

/// Physical parameters of one disk.
///
/// Defaults approximate the 1996-era drives in the paper's Table 1
/// platform: 4 KB blocks, ~5400 RPM, 2-22 ms seek, ~4 MB/s media rate.
#[derive(Clone, Copy, Debug)]
pub struct DiskParams {
    /// Bytes per block; the simulator uses one page per block.
    pub block_bytes: u64,
    /// Capacity in blocks (bounds seek distance scaling).
    pub blocks: u64,
    /// Minimum (track-to-track) seek time.
    pub seek_min_ns: Ns,
    /// Maximum (full-stroke) seek time.
    pub seek_max_ns: Ns,
    /// Time for one full platter rotation; average rotational latency is
    /// half of this.
    pub rotation_ns: Ns,
    /// Media transfer time per block.
    pub transfer_ns_per_block: Ns,
    /// Blocks within this distance of the head count as the same
    /// cylinder: no seek, and for an exactly-sequential continuation no
    /// rotational delay either (the extent-based layout guarantee).
    pub cylinder_blocks: u64,
}

impl Default for DiskParams {
    fn default() -> Self {
        Self {
            block_bytes: 4096,
            blocks: 512 * 1024, // 2 GB of 4 KB blocks
            seek_min_ns: 2 * MILLISECOND,
            seek_max_ns: 22 * MILLISECOND,
            rotation_ns: 11_100 * MICROSECOND,  // 5400 RPM
            transfer_ns_per_block: MILLISECOND, // ~4 MB/s media rate
            cylinder_blocks: 64,
        }
    }
}

impl DiskParams {
    /// A 2020s SATA SSD: no mechanical positioning — modeled as a tiny
    /// constant "seek", no rotation, ~500 MB/s media rate.
    pub fn ssd() -> Self {
        Self {
            block_bytes: 4096,
            blocks: 64 * 1024 * 1024, // 256 GB
            seek_min_ns: 20_000,
            seek_max_ns: 60_000,
            rotation_ns: 0,
            transfer_ns_per_block: 8_000, // ~500 MB/s
            cylinder_blocks: u64::MAX,    // no distance penalty
        }
    }

    /// A 2020s NVMe drive: ~10 us access, ~3 GB/s.
    pub fn nvme() -> Self {
        Self {
            block_bytes: 4096,
            blocks: 256 * 1024 * 1024, // 1 TB
            seek_min_ns: 8_000,
            seek_max_ns: 15_000,
            rotation_ns: 0,
            transfer_ns_per_block: 1_300, // ~3 GB/s
            cylinder_blocks: u64::MAX,
        }
    }

    /// Positioning plus transfer time for a request, given head position.
    ///
    /// * Sequential continuation (`start == head`): transfer only.
    /// * Same cylinder: half a rotation plus transfer.
    /// * Otherwise: distance-dependent seek (square-root profile, the
    ///   standard approximation for the accelerate/decelerate arm) plus
    ///   half a rotation plus transfer.
    pub fn service_ns(&self, head: u64, req: &Request) -> Ns {
        let transfer = self.transfer_ns_per_block * req.nblocks;
        let dist = head.abs_diff(req.start_block);
        if dist == 0 {
            return transfer;
        }
        let half_rot = self.rotation_ns / 2;
        if dist <= self.cylinder_blocks {
            return half_rot + transfer;
        }
        let frac = (dist as f64 / self.blocks as f64).min(1.0).sqrt();
        let seek = self.seek_min_ns + ((self.seek_max_ns - self.seek_min_ns) as f64 * frac) as Ns;
        seek + half_rot + transfer
    }

    /// Latency of an isolated average single-block read (used to seed the
    /// compiler's fault-latency estimate).
    pub fn avg_access_ns(&self) -> Ns {
        let avg_seek = self.seek_min_ns + (self.seek_max_ns - self.seek_min_ns) / 3;
        avg_seek + self.rotation_ns / 2 + self.transfer_ns_per_block
    }
}

/// Counters maintained by each disk.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiskStats {
    /// Number of demand-read requests.
    pub demand_reads: u64,
    /// Number of prefetch-read requests.
    pub prefetch_reads: u64,
    /// Number of write requests.
    pub writes: u64,
    /// Blocks moved by demand reads.
    pub demand_blocks: u64,
    /// Blocks moved by prefetch reads.
    pub prefetch_blocks: u64,
    /// Blocks moved by writes.
    pub write_blocks: u64,
    /// Total time the arm/media were busy.
    pub busy_ns: Ns,
    /// Requests failed by the fault injector (transient or brownout).
    pub faults_injected: u64,
    /// Requests served with injected straggler latency.
    pub stragglers_injected: u64,
    /// Total extra service time injected into stragglers.
    pub straggle_extra_ns: Ns,
    /// Time demand reads spent queued before reaching the media.
    pub demand_wait_ns: Ns,
    /// Time prefetch reads spent queued before reaching the media.
    pub prefetch_wait_ns: Ns,
    /// Time writes spent queued before reaching the media.
    pub write_wait_ns: Ns,
    /// Media time (positioning + transfer) spent on demand reads.
    pub demand_service_ns: Ns,
    /// Media time spent on prefetch reads.
    pub prefetch_service_ns: Ns,
    /// Media time spent on writes.
    pub write_service_ns: Ns,
    /// High-water mark of undispatched requests in the queue.
    pub queue_depth_hwm: u64,
    /// Requests absorbed into an adjacent queued request (each merge
    /// removes one request from the dispatch stream).
    pub coalesced_requests: u64,
    /// Blocks those absorbed requests contributed to merged transfers.
    pub coalesced_blocks: u64,
    /// Demand reads dispatched ahead of older queued non-demand
    /// traffic (DemandPriority only).
    pub preemptions: u64,
    /// Prefetches dispatched by the aging bound past waiting
    /// higher-priority traffic (DemandPriority only).
    pub prefetch_aged: u64,
    /// Enqueue attempts rejected because the bounded queue was full.
    pub queue_full_rejections: u64,
    /// Prefetch enqueues rejected because the submitting tenant had
    /// already consumed its per-tenant share of the queue (a subset of
    /// `queue_full_rejections`; zero on single-tenant machines).
    pub share_rejections: u64,
    /// Queued prefetch reads reclassified as demand because a consumer
    /// blocked on them before dispatch (multi-tenant DemandPriority —
    /// a late prefetch must not wait out the prefetch class).
    pub promotions: u64,
    /// Queueing-delay distribution across all classes (arrival to
    /// dispatch). Log2 buckets; sums are exact.
    pub queue_wait_hist: LatencyHist,
    /// Media-time distribution of demand reads.
    pub demand_service_hist: LatencyHist,
    /// Media-time distribution of prefetch reads.
    pub prefetch_service_hist: LatencyHist,
    /// Media-time distribution of writes.
    pub write_service_hist: LatencyHist,
    /// Prefetch reads injected by a prefetch policy rather than issued
    /// for compiler hints (a subset of `prefetch_reads`).
    pub policy_injected_reqs: u64,
}

impl DiskStats {
    /// Total request count across classes.
    pub fn requests(&self) -> u64 {
        self.demand_reads + self.prefetch_reads + self.writes
    }

    /// Total blocks moved across classes.
    pub fn blocks(&self) -> u64 {
        self.demand_blocks + self.prefetch_blocks + self.write_blocks
    }

    /// Busy fraction over an elapsed wall-clock span.
    pub fn utilization(&self, elapsed: Ns) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.busy_ns as f64 / elapsed as f64
        }
    }

    /// Total queueing delay across classes.
    pub fn wait_ns(&self) -> Ns {
        self.demand_wait_ns + self.prefetch_wait_ns + self.write_wait_ns
    }

    /// Total media time across classes (equals `busy_ns`).
    pub fn service_ns(&self) -> Ns {
        self.demand_service_ns + self.prefetch_service_ns + self.write_service_ns
    }

    /// Mean queueing delay of a demand read — the latency the
    /// application actually stalls on. Zero when no demand reads ran.
    pub fn mean_demand_wait_ns(&self) -> f64 {
        if self.demand_reads == 0 {
            0.0
        } else {
            self.demand_wait_ns as f64 / self.demand_reads as f64
        }
    }

    /// Merge another disk's counters into this one (for array totals).
    pub fn merge(&mut self, o: &DiskStats) {
        self.demand_reads += o.demand_reads;
        self.prefetch_reads += o.prefetch_reads;
        self.writes += o.writes;
        self.demand_blocks += o.demand_blocks;
        self.prefetch_blocks += o.prefetch_blocks;
        self.write_blocks += o.write_blocks;
        self.busy_ns += o.busy_ns;
        self.faults_injected += o.faults_injected;
        self.stragglers_injected += o.stragglers_injected;
        self.straggle_extra_ns += o.straggle_extra_ns;
        self.demand_wait_ns += o.demand_wait_ns;
        self.prefetch_wait_ns += o.prefetch_wait_ns;
        self.write_wait_ns += o.write_wait_ns;
        self.demand_service_ns += o.demand_service_ns;
        self.prefetch_service_ns += o.prefetch_service_ns;
        self.write_service_ns += o.write_service_ns;
        // The array's high-water mark is the deepest single queue, not
        // a sum: per-disk queues are independent.
        self.queue_depth_hwm = self.queue_depth_hwm.max(o.queue_depth_hwm);
        self.coalesced_requests += o.coalesced_requests;
        self.coalesced_blocks += o.coalesced_blocks;
        self.preemptions += o.preemptions;
        self.prefetch_aged += o.prefetch_aged;
        self.queue_full_rejections += o.queue_full_rejections;
        self.share_rejections += o.share_rejections;
        self.policy_injected_reqs += o.policy_injected_reqs;
        self.promotions += o.promotions;
        self.queue_wait_hist.merge(&o.queue_wait_hist);
        self.demand_service_hist.merge(&o.demand_service_hist);
        self.prefetch_service_hist.merge(&o.prefetch_service_hist);
        self.write_service_hist.merge(&o.write_service_hist);
    }
}

/// One disk: head position, a scheduled request queue, and statistics.
///
/// Requests enter a per-disk queue at submission and are *dispatched*
/// to the media one at a time, in the order the configured
/// [`SchedConfig`] policy chooses. Dispatch is lazy and deterministic:
/// whenever the disk is consulted at simulated time `now`, every
/// request whose dispatch slot `max(busy_until, arrival)` has passed is
/// served. Under the default configuration (FCFS, unbounded queue, no
/// coalescing) the resulting timing is bit-identical to the historical
/// queueless model that computed `max(now, busy_until) + service` at
/// submission.
///
/// Every request is admitted by [`Disk::enqueue`], told the completions
/// it owes: one for a *blocking* request its caller waits on next (a
/// demand read; [`Disk::submit`]), one per block for a *tracked*
/// prefetch whose pages the OS settles one by one through
/// [`Disk::poll`] / [`Disk::wait_for`], none for a *posted* write-back
/// nobody observes ([`Disk::try_post`]).
#[derive(Clone, Debug)]
pub struct Disk {
    params: DiskParams,
    sched: SchedConfig,
    head: u64,
    busy_until: Ns,
    stats: DiskStats,
    /// Undispatched requests, in arrival order.
    queue: VecDeque<Pending>,
    /// Scheduler state carried across picks (elevator direction and the
    /// tenant round-robin cursor).
    pick_state: PickState,
    /// Tenants sharing this disk; divides the queue depth into
    /// per-tenant prefetch shares when greater than one.
    tenant_count: usize,
    /// Completions of dispatched tracked/blocking requests.
    done: Completions,
    /// The emptied [`Pending::merged`] lists of dispatched requests, for
    /// the next request that absorbs another: as many as were ever
    /// queued at once, so coalescing stops allocating once warm.
    spare_merged: Vec<Vec<(u64, u64)>>,
}

/// How a request completed: when it finished and how the time between
/// submission and completion split between sitting in the queue and
/// occupying the media. The whylate attribution engine uses
/// the split to decide whether a late prefetch was a scheduling problem
/// (queue wait dominates) or a bandwidth problem (service dominates).
///
/// Coalesced tickets share their carrier request's wait and service —
/// the blocks arrived under one dispatch, so that is the physical truth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// Simulated time the request completed.
    pub at: Ns,
    /// Time the request spent queued before dispatch.
    pub wait: Ns,
    /// Media service time, including any injected straggle.
    pub service: Ns,
}

/// The ticket `seq` of a posted request: it names no slot.
const POSTED: u64 = u64::MAX;

/// One ticket's slot in [`Completions`].
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// Bumped each time the slot is recycled, so a spent ticket's `seq`
    /// no longer names it.
    gen: u32,
    /// Units still to redeem; zero until the request is dispatched.
    left: u64,
    done: Completion,
}

/// The completion store: one slot per tracked ticket *outstanding*.
///
/// A ticket's `seq` is its slot's index under the slot's generation
/// (`gen << 32 | index`). The slot is claimed when the request is
/// accepted, filled at dispatch, and recycled when its last unit is
/// redeemed — so the store is as large as the most tickets ever
/// outstanding at once, however many were issued, and a ticket nobody
/// redeems costs its own slot and pins nothing else. Redeeming is an
/// index and a compare: no hashing, no allocation.
#[derive(Clone, Debug, Default)]
struct Completions {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

impl Completions {
    /// Claim a slot for a newly accepted tracked request.
    fn issue(&mut self) -> u64 {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot {
                gen: 0,
                left: 0,
                done: Completion {
                    at: 0,
                    wait: 0,
                    service: 0,
                },
            });
            (self.slots.len() - 1) as u32
        });
        (self.slots[idx as usize].gen as u64) << 32 | idx as u64
    }

    /// The live slot `seq` names, if it still names one.
    fn slot(&mut self, seq: u64) -> Option<&mut Slot> {
        let slot = self.slots.get_mut(seq as u32 as usize)?;
        (slot.gen == (seq >> 32) as u32).then_some(slot)
    }

    /// The request behind `seq` was dispatched: `units` redemptions of
    /// `done` are now owed.
    fn complete(&mut self, seq: u64, units: u64, done: Completion) {
        let slot = self.slot(seq).expect("a queued ticket holds its slot");
        slot.left = units;
        slot.done = done;
    }

    /// Redeem one unit of `seq` if its request has been dispatched and
    /// completes by `by`, recycling the slot with the last unit.
    fn take(&mut self, seq: u64, by: Ns) -> Option<Completion> {
        let slot = self.slot(seq).filter(|s| s.left > 0 && s.done.at <= by)?;
        slot.left -= 1;
        let done = slot.done;
        if slot.left == 0 {
            slot.gen = slot.gen.wrapping_add(1);
            self.free.push(seq as u32);
        }
        Some(done)
    }
}

impl Disk {
    /// Create an idle disk with the head parked at block 0 and the
    /// default (paper-baseline) scheduler configuration.
    pub fn new(params: DiskParams) -> Self {
        Self::with_sched(params, SchedConfig::default())
    }

    /// Create an idle disk with an explicit scheduler configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SchedConfig::validate`]).
    pub fn with_sched(params: DiskParams, sched: SchedConfig) -> Self {
        sched.validate();
        Self {
            params,
            sched,
            head: 0,
            busy_until: 0,
            stats: DiskStats::default(),
            queue: VecDeque::new(),
            pick_state: PickState::default(),
            tenant_count: 1,
            done: Completions::default(),
            spare_merged: Vec::new(),
        }
    }

    /// The disk's physical parameters.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// The scheduler configuration.
    pub fn sched(&self) -> SchedConfig {
        self.sched
    }

    /// Replace the scheduler configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SchedConfig::validate`]).
    pub fn set_sched(&mut self, sched: SchedConfig) {
        sched.validate();
        self.sched = sched;
    }

    /// Declare how many tenants share this disk. With more than one,
    /// each tenant's queued prefetches are capped at an equal share of
    /// the queue depth (`max(1, depth / tenants)`), so one tenant's
    /// hint storm cannot occupy the whole queue. The default of 1
    /// leaves behavior exactly as before.
    pub fn set_tenant_count(&mut self, n: usize) {
        self.tenant_count = n.max(1);
    }

    /// Submit a blocking request at simulated time `now` and wait for
    /// it; returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics if the request is empty or extends past the disk capacity —
    /// the file system is responsible for allocating valid extents, so an
    /// out-of-range request is a logic error, not a recoverable condition.
    /// Callers that want a typed error instead use [`Disk::enqueue`].
    pub fn submit(&mut self, now: Ns, req: Request) -> Ns {
        self.enqueue(now, req, 1.0, 0, 1)
            .map(|seq| self.wait_for(seq).at)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Submit a posted (fire-and-forget) request: it queues without
    /// blocking and its completion is never individually observed.
    pub fn try_post(&mut self, now: Ns, req: Request) -> Result<(), IoError> {
        self.enqueue(now, req, 1.0, 0, 0).map(drop)
    }

    /// Admit one request: validate, account, coalesce or queue it.
    /// `units` is the completions it owes — 1 for a blocking request
    /// its caller waits on next, `req.nblocks` for a tracked read whose
    /// pages settle one by one, 0 for a posted one nobody observes — and
    /// the returned ticket sequence number redeems them through
    /// [`Disk::poll`] / [`Disk::wait_for`]. The fault injector's
    /// straggle multiplies the service time by `mult` and extends it by
    /// `add_ns`; `1.0, 0` is a normal request. Malformed requests and a
    /// full queue are typed errors.
    pub fn enqueue(
        &mut self,
        now: Ns,
        req: Request,
        mult: f64,
        add_ns: Ns,
        units: u64,
    ) -> Result<u64, IoError> {
        if req.nblocks == 0 {
            return Err(IoError::EmptyRequest);
        }
        if req.start_block + req.nblocks > self.params.blocks {
            return Err(IoError::OutOfRange {
                start_block: req.start_block,
                nblocks: req.nblocks,
                capacity: self.params.blocks,
            });
        }
        // Serve everything whose dispatch slot has passed, so queue
        // depth and coalescing windows reflect the true backlog at
        // `now`, not history.
        self.advance(now);
        let target = if self.sched.coalesce {
            self.coalesce_target(&req, mult, add_ns)
        } else {
            None
        };
        if target.is_none() {
            if req.kind == ReqKind::PrefetchRead && self.tenant_count > 1 {
                // Per-tenant queue share: a tenant may hold at most an
                // equal fraction of the queue in undispatched
                // prefetches. Demand reads and writes are exempt — the
                // share exists precisely to keep slots open for them.
                let share = (self.sched.queue_depth / self.tenant_count).max(1);
                let held = self
                    .queue
                    .iter()
                    .filter(|p| p.req.kind == ReqKind::PrefetchRead && p.req.tenant == req.tenant)
                    .count();
                if held >= share {
                    self.stats.queue_full_rejections += 1;
                    self.stats.share_rejections += 1;
                    return Err(IoError::QueueFull {
                        disk: 0,
                        retry_at: self.busy_until.max(now + 1),
                    });
                }
            }
            if self.queue.len() >= self.sched.queue_depth {
                self.stats.queue_full_rejections += 1;
                // After advance(now), a non-empty queue implies the
                // media is busy past `now`; a slot frees at the next
                // dispatch.
                return Err(IoError::QueueFull {
                    disk: 0,
                    retry_at: self.busy_until.max(now + 1),
                });
            }
        }
        // Accepted. Only a request whose completion someone will ask
        // for takes a slot in the completion store.
        let seq = if units > 0 { self.done.issue() } else { POSTED };
        match target {
            Some(i) => {
                let p = &mut self.queue[i];
                p.req.start_block = p.req.start_block.min(req.start_block);
                p.req.nblocks += req.nblocks;
                if p.merged.capacity() == 0 {
                    p.merged = self.spare_merged.pop().unwrap_or_default();
                }
                p.merged.push((seq, units));
                self.stats.coalesced_requests += 1;
                self.stats.coalesced_blocks += req.nblocks;
            }
            None => {
                self.queue.push_back(Pending {
                    req,
                    arrival: now,
                    mult,
                    add_ns,
                    ticket: (seq, units),
                    merged: Vec::new(),
                });
                self.stats.queue_depth_hwm =
                    self.stats.queue_depth_hwm.max(self.queue.len() as u64);
            }
        }
        // Class counters record *accepted* requests at submission (the
        // historical observable); a merge changes only how the blocks
        // reach the media.
        match req.kind {
            ReqKind::DemandRead => {
                self.stats.demand_reads += 1;
                self.stats.demand_blocks += req.nblocks;
            }
            ReqKind::PrefetchRead => {
                self.stats.prefetch_reads += 1;
                self.stats.prefetch_blocks += req.nblocks;
                if req.policy_injected {
                    self.stats.policy_injected_reqs += 1;
                }
            }
            ReqKind::Write => {
                self.stats.writes += 1;
                self.stats.write_blocks += req.nblocks;
            }
        }
        Ok(seq)
    }

    /// The queued request `req` can merge into: adjacent, of the same
    /// class and straggle profile, and the merged transfer stays within
    /// one cylinder span (so it still pays a single positioning).
    fn coalesce_target(&self, req: &Request, mult: f64, add_ns: Ns) -> Option<usize> {
        if req.kind == ReqKind::Write {
            return None;
        }
        let cap = self.params.cylinder_blocks;
        self.queue.iter().position(|p| {
            p.req.kind == req.kind
                && p.mult.to_bits() == mult.to_bits()
                && p.add_ns == add_ns
                && p.req.nblocks.saturating_add(req.nblocks) <= cap
                && (p.req.start_block + p.req.nblocks == req.start_block
                    || req.start_block + req.nblocks == p.req.start_block)
        })
    }

    /// Dispatch the next queued request if its slot — the media going
    /// idle, or the earliest arrival if that is later — has come by
    /// `limit`. Returns whether one went.
    fn dispatch_next(&mut self, limit: Ns) -> bool {
        let Some(front) = self.queue.front() else {
            return false;
        };
        // With a request already waiting when the media goes idle the
        // slot is that instant; only an idle disk looks for the
        // earliest arrival.
        let start = if front.arrival <= self.busy_until {
            self.busy_until
        } else {
            let earliest = self.queue.iter().map(|p| p.arrival).min();
            self.busy_until.max(earliest.expect("queue is non-empty"))
        };
        if start > limit {
            return false;
        }
        self.dispatch_at(start);
        true
    }

    /// Dispatch every queued request whose slot has passed by `now`.
    fn advance(&mut self, now: Ns) {
        while self.dispatch_next(now) {}
    }

    /// Dispatch the policy's pick at time `start`, advancing the busy
    /// horizon and recording per-class wait/service statistics.
    fn dispatch_at(&mut self, start: Ns) {
        let Picked {
            idx,
            preempted,
            aged,
        } = self.sched.policy.pick(
            &self.queue,
            self.head,
            start,
            self.sched.prefetch_age_ns,
            &mut self.pick_state,
        );
        let p = self.queue.remove(idx).expect("the pick is a queue index");
        let base = self.params.service_ns(self.head, &p.req);
        let service = (base as f64 * p.mult.max(1.0)) as Ns + p.add_ns;
        if service > base {
            self.stats.stragglers_injected += 1;
            self.stats.straggle_extra_ns += service - base;
        }
        let done = start + service;
        self.busy_until = done;
        self.head = p.req.start_block + p.req.nblocks;
        self.stats.busy_ns += service;
        let wait = start - p.arrival;
        self.stats.queue_wait_hist.record(wait);
        match p.req.kind {
            ReqKind::DemandRead => {
                self.stats.demand_wait_ns += wait;
                self.stats.demand_service_ns += service;
                self.stats.demand_service_hist.record(service);
            }
            ReqKind::PrefetchRead => {
                self.stats.prefetch_wait_ns += wait;
                self.stats.prefetch_service_ns += service;
                self.stats.prefetch_service_hist.record(service);
            }
            ReqKind::Write => {
                self.stats.write_wait_ns += wait;
                self.stats.write_service_ns += service;
                self.stats.write_service_hist.record(service);
            }
        }
        if preempted {
            self.stats.preemptions += 1;
        }
        if aged {
            self.stats.prefetch_aged += 1;
        }
        let completion = Completion {
            at: done,
            wait,
            service,
        };
        for (seq, units) in p.tickets() {
            if units > 0 {
                self.done.complete(seq, units, completion);
            }
        }
        if p.merged.capacity() > 0 {
            let mut merged = p.merged;
            merged.clear();
            self.spare_merged.push(merged);
        }
    }

    /// Reclassify the still-queued prefetch read holding ticket `seq`
    /// as a demand read: a consumer is now blocked on it, so letting
    /// it wait out the prefetch class (and every per-tenant share and
    /// aging rule that applies to hints) would serve nobody. Requests
    /// whose dispatch slot already passed by `now` are on the media
    /// and keep their class. Returns whether a promotion happened.
    pub fn promote(&mut self, seq: u64, now: Ns) -> bool {
        self.advance(now);
        for p in &mut self.queue {
            if p.req.kind == ReqKind::PrefetchRead && p.tickets().any(|(s, _)| s == seq) {
                p.req.kind = ReqKind::DemandRead;
                self.stats.promotions += 1;
                return true;
            }
        }
        false
    }

    /// Non-blocking completion check: if ticket `seq` completed by
    /// `now`, redeem one unit and return its [`Completion`].
    pub fn poll(&mut self, seq: u64, now: Ns) -> Option<Completion> {
        self.advance(now);
        self.done.take(seq, now)
    }

    /// Block until ticket `seq` completes (dispatching queued requests
    /// in policy order as needed); redeems one unit.
    ///
    /// # Panics
    ///
    /// Panics if `seq` was never issued or all its units were already
    /// redeemed — redeeming a ticket twice is a logic error.
    pub fn wait_for(&mut self, seq: u64) -> Completion {
        loop {
            if let Some(c) = self.done.take(seq, Ns::MAX) {
                return c;
            }
            assert!(
                self.dispatch_next(Ns::MAX),
                "waiting on unknown or fully-redeemed disk ticket {seq}"
            );
        }
    }

    /// Dispatch everything still queued and return the time the media
    /// goes idle.
    pub fn drain(&mut self) -> Ns {
        while self.dispatch_next(Ns::MAX) {}
        self.busy_until
    }

    /// Record a request the fault injector failed before it reached the
    /// media (the arm never moves; only the counter advances).
    pub fn note_injected_fault(&mut self) {
        self.stats.faults_injected += 1;
    }

    /// Time at which all *dispatched* requests will have completed
    /// (queued-but-undispatched requests are not included; see
    /// [`Disk::drain`]).
    pub fn busy_until(&self) -> Ns {
        self.busy_until
    }

    /// Undispatched requests currently queued.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Current head position (block number just past the last access).
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::sched::SchedPolicy;

    fn req(kind: ReqKind, start: u64, n: u64) -> Request {
        Request::new(kind, start, n)
    }

    /// Admit a tracked request: one completion unit per block.
    fn track(d: &mut Disk, now: Ns, r: Request) -> Result<u64, IoError> {
        d.enqueue(now, r, 1.0, 0, r.nblocks)
    }

    /// The completion time `poll` redeemed, if any.
    fn at(c: Option<Completion>) -> Option<Ns> {
        c.map(|c| c.at)
    }

    #[test]
    fn sequential_continuation_is_transfer_only() {
        let p = DiskParams::default();
        let t = p.service_ns(100, &req(ReqKind::DemandRead, 100, 4));
        assert_eq!(t, 4 * p.transfer_ns_per_block);
    }

    #[test]
    fn same_cylinder_pays_rotation_not_seek() {
        let p = DiskParams::default();
        let t = p.service_ns(100, &req(ReqKind::DemandRead, 110, 1));
        assert_eq!(t, p.rotation_ns / 2 + p.transfer_ns_per_block);
    }

    #[test]
    fn longer_seeks_cost_more() {
        let p = DiskParams::default();
        let near = p.service_ns(0, &req(ReqKind::DemandRead, 1_000, 1));
        let far = p.service_ns(0, &req(ReqKind::DemandRead, 400_000, 1));
        assert!(far > near);
        assert!(far <= p.seek_max_ns + p.rotation_ns / 2 + p.transfer_ns_per_block);
    }

    #[test]
    fn block_request_amortizes_positioning() {
        let p = DiskParams::default();
        let one = p.service_ns(0, &req(ReqKind::PrefetchRead, 10_000, 1));
        let four = p.service_ns(0, &req(ReqKind::PrefetchRead, 10_000, 4));
        // Four blocks in one request cost far less than four separate
        // positioned reads.
        assert!(four < 2 * one);
    }

    #[test]
    fn fifo_queueing_delays_later_requests() {
        let mut d = Disk::new(DiskParams::default());
        let t1 = d.submit(0, req(ReqKind::DemandRead, 50_000, 1));
        let t2 = d.submit(0, req(ReqKind::DemandRead, 50_001, 1));
        assert!(t2 > t1, "second request must queue behind the first");
        // The second is a sequential continuation: only transfer added.
        assert_eq!(t2 - t1, d.params().transfer_ns_per_block);
    }

    #[test]
    fn idle_gap_resets_start_time() {
        let mut d = Disk::new(DiskParams::default());
        let t1 = d.submit(0, req(ReqKind::DemandRead, 0, 1));
        let much_later = t1 + 1_000_000_000;
        let t2 = d.submit(much_later, req(ReqKind::DemandRead, 1, 1));
        assert_eq!(t2, much_later + d.params().transfer_ns_per_block);
    }

    #[test]
    fn stats_classify_by_kind() {
        let mut d = Disk::new(DiskParams::default());
        d.submit(0, req(ReqKind::DemandRead, 0, 1));
        d.submit(0, req(ReqKind::PrefetchRead, 1, 4));
        d.submit(0, req(ReqKind::Write, 5, 2));
        let s = d.stats();
        assert_eq!(s.demand_reads, 1);
        assert_eq!(s.prefetch_reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.demand_blocks, 1);
        assert_eq!(s.prefetch_blocks, 4);
        assert_eq!(s.write_blocks, 2);
        assert_eq!(s.requests(), 3);
        assert_eq!(s.blocks(), 7);
    }

    #[test]
    fn busy_time_equals_sum_of_services() {
        let mut d = Disk::new(DiskParams::default());
        let t1 = d.submit(0, req(ReqKind::DemandRead, 9_000, 1));
        let t2 = d.submit(0, req(ReqKind::DemandRead, 200_000, 2));
        assert_eq!(d.stats().busy_ns, t2, "back-to-back => busy till t2");
        assert!(t1 < t2);
    }

    #[test]
    fn utilization_is_busy_over_elapsed() {
        let mut d = Disk::new(DiskParams::default());
        let done = d.submit(0, req(ReqKind::DemandRead, 0, 1));
        let u = d.stats().utilization(done * 2);
        assert!((u - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "exceeds disk capacity")]
    fn out_of_range_request_panics() {
        let mut d = Disk::new(DiskParams::default());
        let blocks = d.params().blocks;
        d.submit(0, req(ReqKind::DemandRead, blocks - 1, 2));
    }

    #[test]
    fn avg_access_is_between_min_and_max_service() {
        let p = DiskParams::default();
        let avg = p.avg_access_ns();
        assert!(avg > p.transfer_ns_per_block);
        assert!(avg < p.seek_max_ns + p.rotation_ns + p.transfer_ns_per_block);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "at least one block")]
    fn empty_request_constructor_asserts() {
        let _ = Request::new(ReqKind::DemandRead, 0, 0);
    }

    #[test]
    fn tracked_request_queues_until_polled() {
        let mut d = Disk::new(DiskParams::default());
        let t = track(&mut d, 0, req(ReqKind::PrefetchRead, 10_000, 1)).unwrap();
        assert_eq!(d.queue_len(), 1, "tracked request sits in the queue");
        // Polling too early dispatches it (its slot is now) but the
        // completion is still in the future.
        assert_eq!(d.poll(t, 0), None);
        assert_eq!(d.queue_len(), 0, "poll dispatched the request");
        let done = d.busy_until();
        assert_eq!(at(d.poll(t, done)), Some(done));
    }

    #[test]
    fn tracked_ticket_carries_one_unit_per_block() {
        let mut d = Disk::new(DiskParams::default());
        let t = track(&mut d, 0, req(ReqKind::PrefetchRead, 0, 3)).unwrap();
        let done = d.drain();
        assert_eq!(at(d.poll(t, done)), Some(done));
        assert_eq!(at(d.poll(t, done)), Some(done));
        assert_eq!(d.wait_for(t).at, done, "third unit still redeemable");
        assert_eq!(d.poll(t, done), None, "all units consumed");
    }

    #[test]
    fn completion_store_is_bounded_by_tickets_outstanding() {
        let mut d = Disk::new(DiskParams::default());
        // One old ticket nobody redeems, then 100 000 more that are
        // each redeemed before the next is issued.
        let old = track(&mut d, 0, req(ReqKind::PrefetchRead, 7, 1)).unwrap();
        let mut now = 0;
        for i in 0..100_000u64 {
            let t = track(&mut d, now, req(ReqKind::Write, 1_000 + i % 50_000, 1)).unwrap();
            assert_ne!(t, old, "a live ticket's seq is never reissued");
            now = d.wait_for(t).at;
            assert!(d.done.slots.len() <= 2, "{} slots", d.done.slots.len());
        }
        // A burst of 64 outstanding at once grows the store to the
        // burst, and redeeming it gives the slots back for reuse.
        for round in 0..100 {
            let burst: Vec<u64> = (0..64)
                .map(|i| track(&mut d, now, req(ReqKind::Write, 64 * i, 1)).unwrap())
                .collect();
            now = burst.iter().map(|&t| d.wait_for(t).at).max().unwrap();
            assert!(d.done.slots.len() <= 65, "round {round}");
        }
        // The old ticket was dispatched long ago and is still good.
        let done = d.poll(old, now).expect("completed at the start").at;
        assert!(done < now);
        assert_eq!(d.poll(old, now), None, "its one unit is spent");
    }

    #[test]
    #[should_panic(expected = "waiting on unknown or fully-redeemed disk ticket")]
    fn redeeming_a_ticket_twice_panics() {
        let mut d = Disk::new(DiskParams::default());
        let t = track(&mut d, 0, req(ReqKind::PrefetchRead, 7, 1)).unwrap();
        d.wait_for(t);
        // The slot has since been recycled for another request; the
        // spent ticket must not redeem that one's completion.
        let u = track(&mut d, 0, req(ReqKind::PrefetchRead, 9, 1)).unwrap();
        assert_ne!(t, u);
        d.drain();
        d.wait_for(t);
    }

    #[test]
    fn completion_detail_splits_wait_and_service() {
        let mut d = Disk::new(DiskParams::default());
        // Two tracked reads: the second waits out the first's service.
        let t1 = track(&mut d, 0, req(ReqKind::PrefetchRead, 0, 1)).unwrap();
        let t2 = track(&mut d, 0, req(ReqKind::PrefetchRead, 50_000, 1)).unwrap();
        let c1 = d.wait_for(t1);
        let c2 = d.wait_for(t2);
        assert_eq!(c1.wait, 0, "first request dispatches immediately");
        assert!(c1.service > 0);
        assert_eq!(c1.at, c1.wait + c1.service);
        assert_eq!(c2.wait, c1.at, "second waited out the first");
        assert_eq!(c2.at, c2.wait + c2.service);
        // Polling after a drain redeems the same detail.
        let mut e = Disk::new(DiskParams::default());
        let u1 = track(&mut e, 0, req(ReqKind::PrefetchRead, 0, 1)).unwrap();
        let u2 = track(&mut e, 0, req(ReqKind::PrefetchRead, 50_000, 1)).unwrap();
        e.drain();
        assert_eq!(e.poll(u1, c2.at), Some(c1));
        assert_eq!(e.poll(u2, c2.at), Some(c2));
    }

    #[test]
    fn blocking_submit_drains_queued_traffic_first() {
        // FCFS equivalence: a demand read behind two queued prefetches
        // completes exactly when the old queueless model said.
        let mut legacy = Disk::new(DiskParams::default());
        let mut queued = Disk::new(DiskParams::default());
        let a = legacy.submit(0, req(ReqKind::PrefetchRead, 10_000, 2));
        let b = legacy.submit(0, req(ReqKind::PrefetchRead, 90_000, 1));
        let c = legacy.submit(0, req(ReqKind::DemandRead, 200, 1));
        let ta = track(&mut queued, 0, req(ReqKind::PrefetchRead, 10_000, 2)).unwrap();
        let tb = track(&mut queued, 0, req(ReqKind::PrefetchRead, 90_000, 1)).unwrap();
        let got = queued.submit(0, req(ReqKind::DemandRead, 200, 1));
        assert_eq!(got, c);
        assert_eq!(queued.wait_for(ta).at, a);
        assert_eq!(queued.wait_for(tb).at, b);
        assert_eq!(queued.stats().busy_ns, legacy.stats().busy_ns);
        assert!(queued.stats().demand_wait_ns > 0, "demand read queued");
    }

    #[test]
    fn posted_write_is_fire_and_forget() {
        let mut d = Disk::new(DiskParams::default());
        d.try_post(0, req(ReqKind::Write, 5_000, 1)).unwrap();
        assert_eq!(d.stats().writes, 1, "counted at submission");
        assert_eq!(d.queue_len(), 1);
        let done = d.drain();
        assert!(done > 0);
        assert_eq!(d.stats().write_service_ns, d.stats().busy_ns);
    }

    #[test]
    fn coalescing_merges_adjacent_reads_within_cylinder() {
        let run = |coalesce: bool| {
            let sched = SchedConfig::default().with_coalesce(coalesce);
            let mut d = Disk::with_sched(DiskParams::default(), sched);
            // Plug: occupies the media so the adjacent reads queue.
            track(&mut d, 0, req(ReqKind::DemandRead, 500_000, 1)).unwrap();
            let t1 = track(&mut d, 0, req(ReqKind::PrefetchRead, 1_000, 2)).unwrap();
            // Back-merge (follows the queued request) and front-merge
            // (precedes it).
            let t2 = track(&mut d, 0, req(ReqKind::PrefetchRead, 1_002, 1)).unwrap();
            let t3 = track(&mut d, 0, req(ReqKind::PrefetchRead, 999, 1)).unwrap();
            let done = d.drain();
            let finishes: Vec<Ns> = [t1, t2, t3].map(|t| d.wait_for(t).at).to_vec();
            if coalesce {
                // All three tickets redeem against the one merged transfer.
                assert!(finishes.iter().all(|&f| f == done), "{finishes:?}");
            }
            (d.queue_len(), *d.stats())
        };
        let (qlen, merged) = run(true);
        assert_eq!(qlen, 0);
        assert_eq!(merged.coalesced_requests, 2);
        assert_eq!(merged.coalesced_blocks, 2);
        assert_eq!(merged.prefetch_reads, 3, "class counts unmerged");
        let (_, split) = run(false);
        assert_eq!(split.coalesced_requests, 0);
        assert_eq!(merged.blocks(), split.blocks(), "same data moved");
        assert!(
            merged.busy_ns < split.busy_ns,
            "one positioning instead of three: {} < {}",
            merged.busy_ns,
            split.busy_ns
        );
    }

    #[test]
    fn merged_ticket_lists_are_recycled_not_accumulated() {
        let sched = SchedConfig::default().with_coalesce(true);
        let mut d = Disk::with_sched(DiskParams::default(), sched);
        let mut now = 0;
        for round in 0..1_000u64 {
            // A plug, then two queued requests that each absorb another.
            let blocks = [
                (ReqKind::DemandRead, 500_000),
                (ReqKind::PrefetchRead, 1_000),
            ]
            .into_iter()
            .chain([1_001, 2_000, 2_001].map(|b| (ReqKind::PrefetchRead, b)));
            let tickets: Vec<u64> = blocks
                .map(|(kind, b)| track(&mut d, now, req(kind, b, 1)).unwrap())
                .collect();
            now = d.drain();
            assert!(tickets.iter().all(|&t| d.poll(t, now).is_some()));
            // Both lists are back, empty, for the next round's merges.
            assert_eq!(d.spare_merged.len(), 2, "round {round}");
            assert!(d.spare_merged.iter().all(Vec::is_empty));
        }
        assert_eq!(d.stats().coalesced_requests, 2_000);
    }

    #[test]
    fn coalescing_respects_cylinder_bound_and_class() {
        let params = DiskParams {
            cylinder_blocks: 4,
            ..DiskParams::default()
        };
        let sched = SchedConfig::default().with_coalesce(true);
        let mut d = Disk::with_sched(params, sched);
        // Plug so the candidates below stay queued.
        track(&mut d, 0, req(ReqKind::DemandRead, 500_000, 1)).unwrap();
        track(&mut d, 0, req(ReqKind::PrefetchRead, 100, 3)).unwrap();
        // Would exceed the 4-block cylinder span: not merged.
        track(&mut d, 0, req(ReqKind::PrefetchRead, 103, 2)).unwrap();
        // Adjacent but a different class: not merged.
        d.try_post(0, req(ReqKind::Write, 105, 1)).unwrap();
        assert_eq!(d.queue_len(), 3);
        assert_eq!(d.stats().coalesced_requests, 0);
    }

    #[test]
    fn bounded_queue_rejects_with_retry_time() {
        let sched = SchedConfig::default().with_queue_depth(1);
        let mut d = Disk::with_sched(DiskParams::default(), sched);
        track(&mut d, 0, req(ReqKind::PrefetchRead, 10_000, 1)).unwrap();
        // The second submission's arrival dispatches the first (the
        // media was idle), so it takes the single queue slot; the third
        // finds the media busy and the queue full.
        track(&mut d, 0, req(ReqKind::PrefetchRead, 20_000, 1)).unwrap();
        assert_eq!(d.queue_len(), 1);
        let err = track(&mut d, 0, req(ReqKind::PrefetchRead, 30_000, 1)).unwrap_err();
        match err {
            IoError::QueueFull { retry_at, .. } => {
                assert!(retry_at > 0, "retry time points past now");
                // At retry_at a slot has freed.
                track(&mut d, retry_at, req(ReqKind::PrefetchRead, 30_000, 1)).unwrap();
            }
            other => panic!("expected QueueFull, got {other}"),
        }
        assert_eq!(d.stats().queue_full_rejections, 1);
    }

    #[test]
    fn demand_priority_cuts_demand_wait() {
        let run = |policy: SchedPolicy| {
            let sched = SchedConfig::default().with_policy(policy);
            let mut d = Disk::with_sched(DiskParams::default(), sched);
            for i in 0..6 {
                track(&mut d, 0, req(ReqKind::PrefetchRead, 50_000 + i * 200, 1)).unwrap();
            }
            d.submit(0, req(ReqKind::DemandRead, 100, 1));
            d.drain();
            *d.stats()
        };
        let fcfs = run(SchedPolicy::Fcfs);
        let prio = run(SchedPolicy::DemandPriority);
        assert!(
            prio.demand_wait_ns < fcfs.demand_wait_ns,
            "priority demand wait {} must undercut FCFS {}",
            prio.demand_wait_ns,
            fcfs.demand_wait_ns
        );
        assert_eq!(prio.preemptions, 1, "the demand read jumped the queue");
        assert_eq!(fcfs.preemptions, 0);
        // Scheduling is timing-only: identical work reached the media.
        assert_eq!(prio.blocks(), fcfs.blocks());
    }

    #[test]
    fn aging_bound_prevents_prefetch_starvation() {
        let sched = SchedConfig::default()
            .with_policy(SchedPolicy::DemandPriority)
            .with_prefetch_age_ns(MILLISECOND);
        let mut d = Disk::with_sched(DiskParams::default(), sched);
        // Plug the media, then queue one prefetch behind a wall of
        // demand reads. Strict priority would starve it; the 1 ms aging
        // bound forces it in once the plug (≫ 1 ms of service) is done.
        track(&mut d, 0, req(ReqKind::DemandRead, 500_000, 1)).unwrap();
        let t = track(&mut d, 0, req(ReqKind::PrefetchRead, 50_000, 1)).unwrap();
        for i in 0..8 {
            track(&mut d, 0, req(ReqKind::DemandRead, i * 30_000, 1)).unwrap();
        }
        d.wait_for(t);
        assert!(
            d.stats().prefetch_aged >= 1,
            "the starving prefetch was aged in: {:?}",
            d.stats()
        );
        assert!(
            d.queue_len() > 0,
            "the aged prefetch jumped ahead of still-queued demand traffic"
        );
    }

    #[test]
    fn queue_depth_high_water_mark_tracks_backlog() {
        let mut d = Disk::new(DiskParams::default());
        assert_eq!(d.stats().queue_depth_hwm, 0);
        for i in 0..5 {
            track(&mut d, 0, req(ReqKind::PrefetchRead, 10_000 * (i + 1), 1)).unwrap();
        }
        // First submission dispatched at once; four piled up behind it.
        assert_eq!(d.stats().queue_depth_hwm, 4);
        d.drain();
        assert_eq!(d.stats().queue_depth_hwm, 4, "hwm is sticky");
    }

    #[test]
    fn wait_plus_service_totals_are_consistent() {
        let mut d = Disk::new(DiskParams::default());
        d.submit(0, req(ReqKind::DemandRead, 9_000, 1));
        d.try_post(0, req(ReqKind::Write, 200_000, 2)).unwrap();
        track(&mut d, 0, req(ReqKind::PrefetchRead, 400_000, 1)).unwrap();
        d.drain();
        let s = *d.stats();
        assert_eq!(s.service_ns(), s.busy_ns, "service partition covers busy");
        assert!(s.wait_ns() > 0, "later requests queued behind the first");
    }

    #[test]
    fn tenant_prefetch_share_caps_one_tenants_queue_slots() {
        let mut d = Disk::new(DiskParams::default());
        d.set_sched(SchedConfig::default().with_queue_depth(4));
        d.set_tenant_count(2);
        // Depth 4 shared by 2 tenants: each may hold 2 queued
        // prefetches. The first submission dispatches immediately, so
        // tenant 0 fits two more in its share before the cap fires.
        for i in 0..3 {
            track(
                &mut d,
                0,
                req(ReqKind::PrefetchRead, 10_000 * (i + 1), 1).with_tenant(0),
            )
            .unwrap();
        }
        let err = track(
            &mut d,
            0,
            req(ReqKind::PrefetchRead, 90_000, 1).with_tenant(0),
        )
        .unwrap_err();
        assert!(matches!(err, IoError::QueueFull { .. }));
        assert_eq!(d.stats().share_rejections, 1);
        // Tenant 1 still has its own share...
        track(
            &mut d,
            0,
            req(ReqKind::PrefetchRead, 50_000, 1).with_tenant(1),
        )
        .unwrap();
        // ...and tenant 0's non-prefetch traffic is exempt from the
        // share: only the global depth bounds it.
        d.try_post(0, req(ReqKind::Write, 70_000, 1).with_tenant(0))
            .unwrap();
        d.try_post(0, req(ReqKind::Write, 80_000, 1).with_tenant(0))
            .unwrap_err(); // the queue itself is now full at depth 4
        assert!(d.stats().queue_full_rejections > d.stats().share_rejections);
    }

    #[test]
    fn single_tenant_share_never_binds() {
        let mut d = Disk::new(DiskParams::default());
        d.set_sched(SchedConfig::default().with_queue_depth(4));
        // tenant_count defaults to 1: only the global depth applies.
        for i in 0..5u64 {
            track(&mut d, 0, req(ReqKind::PrefetchRead, 10_000 * (i + 1), 1)).unwrap();
        }
        assert_eq!(d.stats().share_rejections, 0);
    }
}
