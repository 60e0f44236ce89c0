//! An array of identical disks addressed by index.

use oocp_sim::time::Ns;

use crate::fault::{FaultInjector, FaultPlan, Injection, IoError};
use crate::model::{Completion, Disk, DiskParams, DiskStats, Request};
use crate::sched::{SchedConfig, Ticket};

/// A bank of `n` identical, independently-queued disks.
///
/// The paper's platform attaches seven disks and stripes file pages
/// round-robin across all of them; the striping policy itself lives in
/// the file-system crate — this type only provides indexed submission
/// and aggregate statistics. An optional [`FaultInjector`] sits in
/// front of the queues and may fail or delay individual requests.
#[derive(Clone, Debug)]
pub struct DiskArray {
    disks: Vec<Disk>,
    injector: Option<FaultInjector>,
}

impl DiskArray {
    /// Create `n` idle disks sharing the same parameters.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero: a diskless machine cannot run the simulator.
    pub fn new(n: usize, params: DiskParams) -> Self {
        assert!(n > 0, "disk array must contain at least one disk");
        Self {
            disks: (0..n).map(|_| Disk::new(params)).collect(),
            injector: None,
        }
    }

    /// Install the same scheduler configuration on every disk.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero queue depth). Must
    /// be called before any traffic is submitted: changing policy under
    /// a non-empty queue would silently reorder already-accepted work.
    pub fn set_sched(&mut self, sched: SchedConfig) {
        for d in &mut self.disks {
            assert_eq!(
                d.queue_len(),
                0,
                "cannot change policy under queued traffic"
            );
            d.set_sched(sched);
        }
    }

    /// The scheduler configuration (identical across the array).
    pub fn sched(&self) -> SchedConfig {
        self.disks[0].sched()
    }

    /// Declare how many tenants share the array (see
    /// [`Disk::set_tenant_count`]). The default of 1 leaves scheduling
    /// and queue admission exactly as before.
    pub fn set_tenant_count(&mut self, n: usize) {
        for d in &mut self.disks {
            d.set_tenant_count(n);
        }
    }

    /// Install a fault plan; subsequent [`DiskArray::admit`] calls
    /// consult it. A plan with no disk-level faults enabled is not
    /// installed at all (the fault-free fast path stays branch-free).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.injector = if plan.is_active() {
            Some(FaultInjector::new(plan, self.disks.len()))
        } else {
            None
        };
    }

    /// The installed fault plan, if any disk-level faults are active.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.injector.as_ref().map(|i| i.plan())
    }

    /// Simulated time of the scheduled power loss, once it has tripped.
    pub fn crashed_at(&self) -> Option<Ns> {
        self.injector.as_ref().and_then(|i| i.crashed_at())
    }

    /// Install a hot spare in slot `id`: the injector's scheduled death
    /// for that slot is cleared, so subsequent requests reach fresh
    /// media. The disk's queue and statistics carry over — the slot is
    /// the same logical position in the array, only the media is new.
    pub fn install_spare(&mut self, id: usize) {
        if let Some(inj) = self.injector.as_mut() {
            inj.install_spare(id);
        }
    }

    /// Number of disks in the array.
    pub fn len(&self) -> usize {
        self.disks.len()
    }

    /// Whether the array is empty.
    ///
    /// Always `false`: [`DiskArray::new`] panics on zero disks, so an
    /// array can never be empty. The method exists only to satisfy the
    /// `len`/`is_empty` pairing convention (and clippy's `len_without_is_empty`);
    /// callers must not branch on it.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        debug_assert!(!self.disks.is_empty(), "DiskArray::new enforces n > 0");
        false
    }

    /// Admit a request to disk `id` owing `units` completions (see
    /// [`Disk::enqueue`]: 1 for a blocking request the caller waits on
    /// next, `req.nblocks` for a tracked read, 0 for a posted one), and
    /// return the [`Ticket`] that redeems them via [`DiskArray::poll`] /
    /// [`DiskArray::wait_for`].
    ///
    /// The fault injector is consulted here, at submission, in global
    /// submission order — so the fault stream a run experiences depends
    /// only on the request sequence, never on the scheduling policy
    /// that later reorders dispatch. On an injected failure the request
    /// never reaches the media: the head does not move, no busy time
    /// accrues, and only the disk's `faults_injected` counter advances.
    /// Stragglers are served with stretched service time.
    pub fn admit(
        &mut self,
        id: usize,
        now: Ns,
        req: Request,
        units: u64,
    ) -> Result<Ticket, IoError> {
        let (mult, add_ns) = match self
            .injector
            .as_mut()
            .map_or(Injection::None, |inj| inj.decide(id, now, &req))
        {
            Injection::Fail(e) => {
                self.disks[id].note_injected_fault();
                return Err(e);
            }
            Injection::Straggle { mult, add_ns } => (mult, add_ns),
            Injection::None => (1.0, 0),
        };
        match self.disks[id].enqueue(now, req, mult, add_ns, units) {
            Ok(seq) => Ok(Ticket { disk: id, seq }),
            // A disk reports its own queue as disk 0: name it.
            Err(IoError::QueueFull { retry_at, .. }) => {
                Err(IoError::QueueFull { disk: id, retry_at })
            }
            Err(e) => Err(e),
        }
    }

    /// Redeem one completion unit of `t` if its request has finished by
    /// `now`.
    pub fn poll(&mut self, t: Ticket, now: Ns) -> Option<Completion> {
        self.disks[t.disk].poll(t.seq, now)
    }

    /// Block until `t`'s request completes, redeeming one unit.
    ///
    /// # Panics
    ///
    /// Panics if the ticket is unknown or fully redeemed.
    pub fn wait_for(&mut self, t: Ticket) -> Completion {
        self.disks[t.disk].wait_for(t.seq)
    }

    /// Undispatched requests queued on disk `id` — the queue-depth
    /// gauge the telemetry sampler reads.
    pub fn queue_len(&self, id: usize) -> usize {
        self.disks[id].queue_len()
    }

    /// Promote `t`'s still-queued prefetch read to demand class (see
    /// [`Disk::promote`]); call when a consumer blocks on the ticket.
    pub fn promote(&mut self, t: Ticket, now: Ns) -> bool {
        self.disks[t.disk].promote(t.seq, now)
    }

    /// Dispatch every queued request on every disk; returns the time at
    /// which the most-backlogged disk falls idle.
    pub fn drain_all(&mut self) -> Ns {
        self.disks.iter_mut().map(|d| d.drain()).max().unwrap_or(0)
    }

    /// Statistics for one disk.
    pub fn stats(&self, id: usize) -> &DiskStats {
        self.disks[id].stats()
    }

    /// Aggregate statistics across the whole array.
    pub fn total_stats(&self) -> DiskStats {
        let mut total = DiskStats::default();
        for d in &self.disks {
            total.merge(d.stats());
        }
        total
    }

    /// Average per-disk utilization over `elapsed` (Figure 5(b)).
    pub fn avg_utilization(&self, elapsed: Ns) -> f64 {
        // `new` guarantees at least one disk, so the mean is well-defined.
        self.disks
            .iter()
            .map(|d| d.stats().utilization(elapsed))
            .sum::<f64>()
            / self.disks.len() as f64
    }

    /// Underlying disk parameters (identical across the array).
    pub fn params(&self) -> &DiskParams {
        self.disks[0].params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ReqKind;

    fn req(start: u64, n: u64) -> Request {
        Request::new(ReqKind::PrefetchRead, start, n)
    }

    /// A blocking submission: admit owing one completion, then wait.
    fn submit(a: &mut DiskArray, id: usize, now: Ns, r: Request) -> Ns {
        let t = a.admit(id, now, r, 1).expect("fault-free array");
        a.wait_for(t).at
    }

    #[test]
    fn disks_queue_independently() {
        let mut a = DiskArray::new(2, DiskParams::default());
        let t0 = submit(&mut a, 0, 0, req(10_000, 1));
        let t1 = submit(&mut a, 1, 0, req(10_000, 1));
        // Same request on two idle disks completes at the same time:
        // no cross-disk queueing.
        assert_eq!(t0, t1);
    }

    #[test]
    fn total_stats_sum_over_disks() {
        let mut a = DiskArray::new(3, DiskParams::default());
        submit(&mut a, 0, 0, req(0, 1));
        submit(&mut a, 1, 0, req(0, 2));
        submit(&mut a, 2, 0, req(0, 3));
        let s = a.total_stats();
        assert_eq!(s.prefetch_reads, 3);
        assert_eq!(s.prefetch_blocks, 6);
    }

    #[test]
    fn avg_utilization_averages_over_all_disks() {
        let mut a = DiskArray::new(2, DiskParams::default());
        let done = submit(&mut a, 0, 0, req(0, 1));
        // Disk 1 idle: average utilization is half of disk 0's.
        let u = a.avg_utilization(done);
        assert!((u - 0.5).abs() < 1e-9);
    }

    #[test]
    fn drain_time_is_max_backlog() {
        let mut a = DiskArray::new(2, DiskParams::default());
        let t0 = submit(&mut a, 0, 0, req(100_000, 1));
        let t1 = submit(&mut a, 1, 0, req(100_000, 8));
        assert_eq!(a.drain_all(), t0.max(t1));
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn zero_disks_rejected() {
        let _ = DiskArray::new(0, DiskParams::default());
    }

    #[test]
    fn array_is_never_empty() {
        // `new` rejects n == 0, so is_empty is statically false.
        assert!(!DiskArray::new(1, DiskParams::default()).is_empty());
        assert!(!DiskArray::new(7, DiskParams::default()).is_empty());
    }

    #[test]
    fn tracked_tickets_name_their_disk() {
        let mut a = DiskArray::new(2, DiskParams::default());
        let t = a
            .admit(1, 0, req(10_000, 2), 2)
            .expect("track on idle disk");
        assert_eq!(t.disk(), 1);
        let done = a.drain_all();
        assert_eq!(a.wait_for(t).at, done);
        assert_eq!(
            a.poll(t, done).map(|c| c.at),
            Some(done),
            "second block unit"
        );
        assert_eq!(a.poll(t, done), None, "both units redeemed");
    }

    /// The submission shapes differ only in the completions a request
    /// owes. One request stream, under errors and stragglers on every
    /// disk, gets the same injector verdicts, completion times and disk
    /// statistics whether it is sent blocking, tracked or posted.
    #[test]
    fn every_shape_gets_the_same_verdicts_times_and_stats() {
        use oocp_sim::time::MILLISECOND;
        let plan = FaultPlan::none(29)
            .with_errors(0.2, 0.2, 0.2)
            .with_stragglers(0.3, 3.0, 2 * MILLISECOND);
        let kinds = [ReqKind::DemandRead, ReqKind::PrefetchRead, ReqKind::Write];
        let stream: Vec<(usize, Ns, Request)> = (0..600u64)
            .map(|i| {
                let r = Request::new(kinds[(i / 3 % 3) as usize], i * 7_919 % 100_000, 1 + i % 4);
                ((i % 3) as usize, i * MILLISECOND, r)
            })
            .collect();
        // A shape is the completions a request owes, and whether its
        // caller waits for it at once.
        type Shape = (fn(&Request) -> u64, bool);
        let run = |(units, waits): Shape| {
            let mut a = DiskArray::new(3, DiskParams::default());
            a.set_fault_plan(plan.clone());
            let (mut verdicts, mut times, mut tickets) = (Vec::new(), Vec::new(), Vec::new());
            for &(id, now, r) in &stream {
                let admitted = a.admit(id, now, r, units(&r));
                match admitted {
                    Ok(t) if waits => times.push(a.wait_for(t).at),
                    Ok(t) if units(&r) > 0 => tickets.push(t),
                    _ => {}
                }
                verdicts.push(admitted.map(drop));
            }
            times.extend(tickets.into_iter().map(|t| a.wait_for(t).at));
            let drained = a.drain_all();
            let stats: Vec<_> = (0..3)
                .map(|d| {
                    let s = a.stats(d);
                    let counts = (s.faults_injected, s.stragglers_injected);
                    (counts, s.straggle_extra_ns, s.busy_ns)
                })
                .collect();
            (verdicts, times, drained, stats)
        };
        let blocking: Shape = (|_| 1, true);
        let tracked: Shape = (|r| r.nblocks, false);
        let posted: Shape = (|_| 0, false);
        let [blocking, tracked, posted] = [blocking, tracked, posted].map(run);
        assert!(
            blocking.0.iter().any(Result::is_err),
            "errors were injected"
        );
        assert!(
            blocking.3.iter().all(|&((f, s), _, _)| f > 0 && s > 0),
            "every disk failed and straggled: {:?}",
            blocking.3
        );
        assert_eq!(blocking, tracked, "tracked vs blocking");
        assert!(posted.1.is_empty(), "a posted request owes no completion");
        assert_eq!(
            (&posted.0, posted.2, &posted.3),
            (&blocking.0, blocking.2, &blocking.3),
            "posted vs blocking"
        );
    }

    #[test]
    fn queue_full_errors_carry_the_array_index() {
        use crate::sched::SchedConfig;
        let mut a = DiskArray::new(3, DiskParams::default());
        a.set_sched(SchedConfig::default().with_queue_depth(1));
        a.admit(2, 0, req(10_000, 1), 1).unwrap();
        a.admit(2, 0, req(20_000, 1), 1).unwrap();
        match a.admit(2, 0, req(30_000, 1), 1) {
            Err(IoError::QueueFull { disk, .. }) => assert_eq!(disk, 2),
            other => panic!("expected QueueFull, got {other:?}"),
        }
    }
}
