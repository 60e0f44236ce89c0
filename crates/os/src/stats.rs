//! Counters the evaluation figures are built from.

use oocp_sim::stats::RunningStat;
use oocp_sim::time::Ns;

/// Counters maintained by the machine during a run.
///
/// All figures and tables of the paper's evaluation are computed from
/// these (plus the per-disk counters in the disk crate).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OsStats {
    /// Distribution of hard-fault disk waits (mean/min/max), the
    /// latency the whole scheme exists to hide.
    pub fault_wait: RunningStat,
    /// Hard faults: demand reads the application stalled on.
    pub hard_faults: u64,
    /// Soft faults: reclaims from the free list (no disk I/O).
    pub soft_faults: u64,
    /// Faults that found the page in flight from a prefetch and stalled
    /// only for the residual latency.
    pub prefetched_faults_inflight: u64,
    /// Faults on pages that had been prefetched but were flushed or
    /// dropped before first use.
    pub prefetched_faults_lost: u64,
    /// First touches that found a prefetched page resident (original
    /// faults fully eliminated).
    pub prefetched_hits: u64,
    /// First touches of demand-faulted, never-prefetched pages.
    pub non_prefetched_faults: u64,
    /// Prefetch/release system calls received by the OS.
    pub hint_syscalls: u64,
    /// Pages requested across all prefetch hints received.
    pub prefetch_pages_requested: u64,
    /// Prefetch pages that started disk I/O.
    pub prefetch_pages_issued: u64,
    /// Prefetch pages found already resident and in active use —
    /// "unnecessary prefetches issued to the system" (Figure 4(b) left).
    pub prefetch_pages_unnecessary: u64,
    /// Prefetch pages that reclaimed a free-list page (useful, no I/O).
    pub prefetch_pages_reclaimed: u64,
    /// Prefetch pages found already in flight.
    pub prefetch_pages_inflight: u64,
    /// Prefetch pages dropped because no memory was free.
    pub prefetch_pages_dropped: u64,
    /// Pages named by release hints.
    pub release_pages: u64,
    /// Release pages that actually moved a resident page to the free list.
    pub release_pages_effective: u64,
    /// Dirty-page write-backs scheduled (evictions, releases, final flush).
    pub writebacks: u64,
    /// Pages evicted by the pageout daemon's clock scan.
    pub daemon_evictions: u64,
    /// Total stall time attributable to prefetched-but-late pages.
    pub late_prefetch_stall_ns: Ns,
    /// Disk errors observed by the OS request path (before retries).
    pub io_errors_observed: u64,
    /// Retry attempts made for failed demand reads and write-backs.
    pub io_retries: u64,
    /// Time spent waiting between retry attempts (charged as idle).
    pub io_retry_wait_ns: Ns,
    /// Prefetch pages whose disk read failed; the hint was dropped
    /// silently (hints are non-binding, so no retry and no error).
    pub hints_dropped_on_error: u64,
    /// Prefetch pages dropped because the target disk's bounded request
    /// queue was full (backpressure, not a fault — no error counted).
    pub hints_dropped_queue_full: u64,
    /// Prefetch pages dropped because the issuing tenant's prefetch-slot
    /// or memory quota was exhausted. Always zero without registered
    /// tenants (the implicit solo tenant is unlimited).
    pub hints_dropped_quota: u64,
    /// Prefetch pages shed by the pressure arbiter (elevation clamp on
    /// best-effort tenants, or a brownout dropping all non-guaranteed
    /// hints). Always zero without registered tenants.
    pub hints_dropped_pressure: u64,
    /// Times a demand read or write-back blocked on a full disk queue
    /// before being accepted.
    pub queue_full_waits: u64,
    /// Time spent waiting for disk-queue slots (charged as idle).
    pub queue_full_wait_ns: Ns,
    /// Write-backs abandoned after exhausting retries (the backing
    /// store is authoritative in the simulator, so this costs nothing
    /// but is reported for the durability ledger).
    pub writebacks_abandoned: u64,
    /// Residency-bit clears lost to injected desync (the stale bit
    /// stays set until a resync rebuilds the vector).
    pub bitvec_stale_injected: u64,
    /// Bit-vector resyncs performed.
    pub bitvec_resyncs: u64,
    /// Stale bits fixed across all resyncs.
    pub bitvec_stale_fixed: u64,
    /// Intent records appended to the write-ahead writeback journal.
    pub journal_appends: u64,
    /// Times a writeback stalled synchronously because its disk's
    /// journal ring was full and the oldest record had to be forced
    /// durable first.
    pub journal_stalls: u64,
    /// Recovery: journal records replayed onto their home blocks
    /// (sealed before the crash, data write possibly lost).
    pub recovery_pages_replayed: u64,
    /// Recovery: in-flight updates discarded because their journal
    /// record was not yet durably sealed (the home block kept the old
    /// image by the write barrier).
    pub recovery_pages_discarded: u64,
    /// Recovery: home blocks whose stored checksum failed — a torn
    /// write caught mid-air by the crash.
    pub recovery_torn_detected: u64,
    /// Recovery: torn or lost pages with no journal payload to replay
    /// from. Zero whenever the journal was enabled; the negative CI
    /// gate proves it goes positive without one.
    pub recovery_unrecoverable: u64,
    /// Simulated time the recovery pass spent scanning, replaying, and
    /// verifying (charged as idle on the recovered machine).
    pub recovery_ns: Ns,
    /// Cold pages whose durable checksum the background scrubber
    /// verified.
    pub scrub_pages_verified: u64,
    /// Scrubbed pages found corrupt and repaired from committed journal
    /// state.
    pub scrub_pages_repaired: u64,
    /// Prefetch pages injected by the installed prefetch policy (over
    /// and above the compiler's hints). Zero under `CompilerOnly`.
    pub policy_injected_prefetch_pages: u64,
    /// Release pages injected by the installed prefetch policy.
    pub policy_injected_release_pages: u64,
    /// Peak readahead window / lead distance the policy reached, in
    /// pages (policy-defined; see `oocp_policy::PolicyCounters`).
    pub policy_window_peak: u64,
    /// Times the policy's distance controller retuned its lead.
    pub policy_distance_retunes: u64,
    /// Late-rate observation windows the policy completed.
    pub policy_late_rate_samples: u64,
    /// Interpreter operations retired (one per [`tick_user`] call) —
    /// the telemetry sampler's progress counter. Not gated in
    /// baselines: it measures the driver, not the paging system.
    ///
    /// [`tick_user`]: crate::Machine::tick_user
    pub user_ops: u64,
    /// Demand reads served by degraded reconstruction: the page's home
    /// disk was dead, so the row's survivors were read and XOR-ed.
    pub degraded_reads: u64,
    /// Total stall time of degraded demand reconstructions.
    pub degraded_read_ns: Ns,
    /// Prefetch pages whose home disk was dead and whose hint was
    /// rerouted into a survivor fan-out instead of being dropped.
    pub hints_rerouted_degraded: u64,
    /// Degraded demand reads that blew the hedging deadline and raced
    /// a speculative reconstruction against the straggling original.
    pub hedged_reads: u64,
    /// Hedged races the speculative reconstruction won.
    pub hedged_wins: u64,
    /// Stripe rows the online rebuild scrubber reconstructed onto the
    /// hot spare.
    pub rebuild_rows: u64,
    /// Rebuilt rows whose reconstructed block failed verification
    /// against the durable content model. Zero unless the debug
    /// parity-corruption hook fired; the CI negative gate proves the
    /// verify sweep catches it.
    pub rebuild_verify_mismatches: u64,
    /// Simulated time from death detection to rebuild completion.
    /// Zero while a rebuild is still running.
    pub rebuild_ns: Ns,
    /// Parity blocks written (one per writeback row update plus one
    /// per rebuilt parity-home row).
    pub parity_writes: u64,
}

impl OsStats {
    /// Total first-touch page-in events — the denominator of
    /// Figure 4(a), i.e. what the faults *would have been* without any
    /// prefetching ("original page faults").
    pub fn original_faults(&self) -> u64 {
        self.prefetched_hits + self.prefetched_faults() + self.non_prefetched_faults
    }

    /// Faults that had been prefetched but still stalled the application.
    pub fn prefetched_faults(&self) -> u64 {
        self.prefetched_faults_inflight + self.prefetched_faults_lost
    }

    /// Fraction of original faults covered by a prefetch (Figure 4(a)'s
    /// coverage factor). Zero when nothing faulted.
    pub fn coverage(&self) -> f64 {
        let total = self.original_faults();
        if total == 0 {
            return 0.0;
        }
        (self.prefetched_hits + self.prefetched_faults()) as f64 / total as f64
    }

    /// Fraction of prefetch pages issued to the OS that were unnecessary
    /// (Figure 4(b), left column).
    pub fn unnecessary_issued_fraction(&self) -> f64 {
        let seen = self.prefetch_pages_requested;
        if seen == 0 {
            0.0
        } else {
            self.prefetch_pages_unnecessary as f64 / seen as f64
        }
    }

    /// Fraction of prefetch pages issued to disk whose read failed.
    /// Zero when no prefetch I/O was issued.
    pub fn hint_error_fraction(&self) -> f64 {
        let issued = self.prefetch_pages_issued + self.hints_dropped_on_error;
        if issued == 0 {
            0.0
        } else {
            self.hints_dropped_on_error as f64 / issued as f64
        }
    }

    /// Mean retries per observed I/O error. Zero when no errors occurred.
    pub fn retries_per_error(&self) -> f64 {
        if self.io_errors_observed == 0 {
            0.0
        } else {
            self.io_retries as f64 / self.io_errors_observed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_math() {
        let s = OsStats {
            prefetched_hits: 75,
            prefetched_faults_inflight: 10,
            prefetched_faults_lost: 5,
            non_prefetched_faults: 10,
            ..OsStats::default()
        };
        assert_eq!(s.original_faults(), 100);
        assert_eq!(s.prefetched_faults(), 15);
        assert!((s.coverage() - 0.90).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_ratios() {
        let s = OsStats::default();
        assert_eq!(s.coverage(), 0.0);
        assert_eq!(s.unnecessary_issued_fraction(), 0.0);
        assert_eq!(s.hint_error_fraction(), 0.0);
        assert_eq!(s.retries_per_error(), 0.0);
    }

    #[test]
    fn fault_ratios_guard_and_compute() {
        let s = OsStats {
            prefetch_pages_issued: 90,
            hints_dropped_on_error: 10,
            io_errors_observed: 4,
            io_retries: 6,
            ..OsStats::default()
        };
        assert!((s.hint_error_fraction() - 0.10).abs() < 1e-12);
        assert!((s.retries_per_error() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn unnecessary_fraction() {
        let s = OsStats {
            prefetch_pages_requested: 200,
            prefetch_pages_unnecessary: 4,
            ..OsStats::default()
        };
        assert!((s.unnecessary_issued_fraction() - 0.02).abs() < 1e-12);
    }
}
