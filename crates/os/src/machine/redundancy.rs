//! Redundancy (DESIGN.md §14): surviving the death of a whole disk —
//! the death latch and the hot spare, degraded and hedged reads, the
//! parity-block write that rides on every data write-back, prefetches
//! rerouted around the hole, and the online rebuild. On a healthy array
//! the core sees one `is_none` test per demand access or hint.

use std::ops::Range;

use oocp_disk::{IoError, ReqKind, Request};
use oocp_fs::{FsError, PlacedRun};
use oocp_obs::{ISSUE_DEGRADED, ISSUE_REBUILD_ACTIVE};
use oocp_sim::time::{Ns, MILLISECOND};

use super::Machine;
use crate::error::OsError;
use crate::params::{MachineParams, Redundancy};
use crate::parity::ParityStore;
use crate::store::page_checksum;
use crate::tenant::PressureLevel;
use crate::trace::RevertCause;

/// The redundancy extension's state: the parity content model and the
/// progress of a death through detection, degraded service and rebuild.
#[derive(Default)]
pub(super) struct RedundancyState {
    /// Parity content model of the swap file (RAID-5 rotating parity;
    /// present only under [`Redundancy::Parity`], so plain machines
    /// stay bit-identical to pre-redundancy builds).
    pub(super) parity: Option<ParityStore>,
    /// The dead disk slot and its death time, while the array is
    /// holed: from detection until the rebuild completes (parity mode)
    /// or forever (no redundancy — every later demand access surfaces
    /// [`OsError::DiskLost`]).
    pub(super) dead_disk: Option<(usize, Ns)>,
    /// Sim time the death was detected (`rebuild_ns` measures from
    /// here to rebuild completion).
    death_detected_at: Ns,
    /// Rebuild watermark: stripe rows already reconstructed onto the
    /// hot spare. Rows below the watermark read normally from the
    /// spare; rows at or above it still go through degraded survivor
    /// fan-out.
    pub(super) rebuilt_rows: u64,
    /// Sim-time pacing of the scrubber: the watermark may not advance
    /// before this instant (the spare serializes one row write per
    /// average disk access).
    pub(super) rebuild_next_at: Ns,
}

impl RedundancyState {
    pub(super) fn new(params: &MachineParams, total_pages: u64) -> Self {
        let parity = (params.redundancy == Redundancy::Parity).then(|| {
            ParityStore::new(
                total_pages.div_ceil(params.ndisks as u64 - 1),
                params.page_bytes,
            )
        });
        Self {
            parity,
            ..Self::default()
        }
    }

    /// Whether `disk` is the dead slot of an array whose parity can
    /// stand in for it.
    #[inline]
    pub(super) fn reconstructs(&self, disk: usize) -> bool {
        self.parity.is_some() && self.dead_disk.is_some_and(|(d, _)| d == disk)
    }

    /// Whether the array is holed and parity is carrying it: survivors
    /// see fan-out and rebuild traffic on top of the foreground's.
    #[inline]
    pub(super) fn degraded(&self) -> bool {
        self.dead_disk.is_some() && self.parity.is_some()
    }
}

/// One stripe row as the layout places it: its data pages, each one's
/// home block, and the home of the parity block.
struct StripeRow {
    pages: Range<u64>,
    homes: Vec<(usize, u64)>,
    parity: (usize, u64),
}

impl StripeRow {
    /// The homes of the row's data blocks other than `vpage`'s.
    fn siblings(&self, vpage: u64) -> impl Iterator<Item = (usize, u64)> + '_ {
        let placed = self.pages.clone().zip(&self.homes);
        placed.filter(move |&(p, _)| p != vpage).map(|(_, &h)| h)
    }
}

impl Machine {
    /// Record a whole-disk death the first time any submission path
    /// observes it. Returns whether the machine can tolerate the loss:
    /// `true` only in parity mode for a first (or already-known) death,
    /// in which case the hot spare is installed into the dead slot at
    /// once and the rebuild watermark starts at zero — the injector
    /// stops failing the slot, and from here on the *machine* gates
    /// reads by `rebuilt_rows`. A second concurrent death (or any death
    /// without redundancy) is data loss.
    pub(super) fn note_disk_death(&mut self, disk: usize, at: Ns) -> bool {
        let red = &mut self.redundancy;
        match red.dead_disk {
            Some((d, _)) if d == disk => red.parity.is_some(),
            Some(_) => false,
            None => {
                red.dead_disk = Some((disk, at));
                red.death_detected_at = self.now;
                if red.parity.is_some() {
                    self.disks.install_spare(disk);
                    red.rebuilt_rows = 0;
                    red.rebuild_next_at = self.now;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// The dead disk slot and its death time, while the array is holed:
    /// a disk died and (in parity mode) the rebuild has not yet
    /// completed.
    pub fn dead_disk(&self) -> Option<(usize, Ns)> {
        self.redundancy.dead_disk
    }

    /// Rebuild progress as `(rows_rebuilt, total_rows)`. Total is zero
    /// for machines without a parity layout.
    pub fn rebuild_progress(&self) -> (u64, u64) {
        let total = self.fs.rows(self.swap).unwrap_or(0);
        (self.redundancy.rebuilt_rows, total)
    }

    /// Whether a read of `vpage` (whose home block is on `disk`) must
    /// go through degraded survivor reconstruction: the home disk is
    /// the dead slot, parity exists, and the page's stripe row has not
    /// yet been rebuilt onto the spare.
    #[inline]
    pub(super) fn read_goes_degraded(&self, disk: usize, vpage: u64) -> bool {
        self.redundancy.reconstructs(disk)
            && self
                .fs
                .row_of(self.swap, vpage)
                .is_ok_and(|r| r >= self.redundancy.rebuilt_rows)
    }

    /// The redundancy half of a prefetch's issue-time environment, for
    /// the whylate engine: whether the rebuild was competing for the
    /// survivors, and whether the read itself is a survivor fan-out.
    #[inline]
    pub(super) fn issue_flags(&self, vpage: u64) -> u64 {
        if !self.redundancy.degraded() {
            return 0;
        }
        let home = self.fs.place(self.swap, vpage).map(|(d, _)| d);
        if home.is_ok_and(|d| self.read_goes_degraded(d, vpage)) {
            ISSUE_REBUILD_ACTIVE | ISSUE_DEGRADED
        } else {
            ISSUE_REBUILD_ACTIVE
        }
    }

    /// Post the parity-block write that accompanies a data writeback
    /// in parity mode (RAID-5 read-modify-write; the content change
    /// lands when the data write settles, this models the traffic).
    /// Skipped when the row's parity block sits on the un-rebuilt part
    /// of the dead disk (there is nowhere to write it until the rebuild
    /// reaches that row). Queue-full refusals are dropped — the traffic
    /// is timing-only; the content model is updated at the durable
    /// landing regardless.
    pub(super) fn post_parity_write(&mut self, vpage: u64) {
        let Ok(row) = self.fs.row_of(self.swap, vpage) else {
            return;
        };
        let Ok((pd, pb)) = self.fs.parity_place(self.swap, row) else {
            return;
        };
        if let Some((dead, _)) = self.redundancy.dead_disk {
            if pd == dead && row >= self.redundancy.rebuilt_rows {
                return;
            }
        }
        let owner = self.owner_of(vpage).unwrap_or(0);
        let req = Request::new(ReqKind::Write, pb, 1).with_tenant(owner);
        match self.disks.admit(pd, self.now, req, 0) {
            Ok(_) => self.stats.parity_writes += 1,
            Err(IoError::Crashed { at }) => self.latch_crash(at),
            Err(IoError::DiskDead { disk, at }) => {
                self.note_disk_death(disk, at);
            }
            Err(_) => {}
        }
    }

    fn stripe_row(&self, row: u64) -> Result<StripeRow, FsError> {
        let pages = self.fs.row_pages(self.swap, row)?;
        let homes = pages.clone().map(|p| self.fs.place(self.swap, p));
        Ok(StripeRow {
            homes: homes.collect::<Result<_, _>>()?,
            parity: self.fs.parity_place(self.swap, row)?,
            pages,
        })
    }

    /// Fan one read per *other* block of `vpage`'s stripe row — its
    /// data siblings plus the parity block — on the real queues, and
    /// return the slowest completion: the cost of reconstructing
    /// `vpage` by XOR. Used both for degraded reads of the dead slot
    /// and for speculative reconstruction when hedging.
    fn row_fanout_read(&mut self, vpage: u64, row: u64) -> Result<Ns, OsError> {
        let row = self.stripe_row(row).map_err(OsError::Fs)?;
        let mut done = self.now;
        for (d, b) in row.siblings(vpage).chain([row.parity]) {
            done = done.max(self.demand_read(d, b, vpage)?);
        }
        Ok(done)
    }

    /// Serve a demand read whose home block is on the un-rebuilt part
    /// of the dead disk: reconstruct it from the row's survivors.
    pub(super) fn degraded_demand_read(&mut self, vpage: u64) -> Result<Ns, OsError> {
        let row = self.fs.row_of(self.swap, vpage).map_err(OsError::Fs)?;
        let done = self.row_fanout_read(vpage, row)?;
        self.stats.degraded_reads += 1;
        Ok(done)
    }

    /// Deadline after which a degraded-mode demand read hedges: the
    /// p99 of the machine's fault waits so far (the tail the hedge is
    /// cutting), or a generous constant before there is one.
    fn hedge_deadline(&self) -> Ns {
        match self.fault_hist.p99() {
            0 => 25 * MILLISECOND,
            p99 => p99,
        }
    }

    /// Hedged tail read: in degraded mode the survivors carry fan-out
    /// and rebuild traffic, so a read predicted to blow the p99
    /// deadline races a speculative alternative and takes the earlier
    /// completion. If the page's stripe row is already whole again
    /// (rebuilt onto the spare) the alternative is a full XOR
    /// reconstruction from the row's other blocks; otherwise the row
    /// is still holed — reconstruction is impossible — and the hedge
    /// is a duplicate read of the same block.
    pub(super) fn maybe_hedge(
        &mut self,
        vpage: u64,
        disk: usize,
        block: u64,
        done: Ns,
    ) -> Result<Ns, OsError> {
        let deadline = self.now.saturating_add(self.hedge_deadline());
        if done <= deadline {
            return Ok(done);
        }
        self.stats.hedged_reads += 1;
        let row = self.fs.row_of(self.swap, vpage).map_err(OsError::Fs)?;
        let alt = if row < self.redundancy.rebuilt_rows {
            self.row_fanout_read(vpage, row)?
        } else {
            self.demand_read(disk, block, vpage)?
        };
        if alt < done {
            self.stats.hedged_wins += 1;
            Ok(alt)
        } else {
            Ok(done)
        }
    }

    /// A prefetch run aimed at the dead slot goes page by page: rebuilt
    /// rows read normally from the spare, un-rebuilt rows reroute into
    /// survivor fan-outs instead of being dropped.
    pub(super) fn prefetch_degraded_run(&mut self, run: PlacedRun) {
        for i in 0..run.nblocks {
            self.prefetch_degraded_page(self.run_page(run, i), run.disk, run.start_block + i);
        }
    }

    /// Submit one prefetch page whose home block sits on the dead
    /// slot. Rebuilt rows read normally (the spare holds the block);
    /// un-rebuilt rows reroute into a survivor fan-out — the hint is
    /// still useful, it just costs `ndisks - 1` reads: the parity-
    /// block read carries the page's ticket, the sibling data reads
    /// are posted untracked to model the fan-out's queue occupancy.
    pub(super) fn prefetch_degraded_page(&mut self, vpage: u64, disk: usize, block: u64) {
        let Ok(row) = self.fs.row_of(self.swap, vpage) else {
            self.revert_prefetch_page(vpage, RevertCause::IoError);
            return;
        };
        let outcome = if row < self.redundancy.rebuilt_rows {
            let req = self.prefetch_request(block, 1);
            self.disks.admit(disk, self.now, req, 1)
        } else {
            match self.stripe_row(row) {
                Ok(row) => {
                    for (d, b) in row.siblings(vpage) {
                        self.post_background(d, ReqKind::PrefetchRead, b);
                    }
                    let (pd, pb) = row.parity;
                    let req = self.prefetch_request(pb, 1);
                    let r = self.disks.admit(pd, self.now, req, 1);
                    if r.is_ok() {
                        self.stats.hints_rerouted_degraded += 1;
                    }
                    r
                }
                Err(_) => Err(IoError::EmptyRequest),
            }
        };
        match outcome {
            Ok(ticket) => {
                self.pages[vpage as usize].ticket = Some(ticket);
            }
            Err(e) => {
                let home = PlacedRun {
                    disk,
                    start_block: block,
                    nblocks: 1,
                };
                self.drop_prefetch_run(home, e);
            }
        }
    }

    /// Test hook: flip bits in one stripe row's parity content without
    /// updating anything else — latent parity corruption that the
    /// rebuild verify sweep must catch. Returns `false` without a
    /// parity layout.
    pub fn corrupt_parity_row(&mut self, row: u64) -> bool {
        self.ensure_durable_snapshot();
        let ps = self.redundancy.parity.as_mut().filter(|ps| row < ps.rows());
        ps.map(|ps| ps.corrupt_row(row)).is_some()
    }

    // ------------------------------------------------------------------
    // Online rebuild (reconstructing the dead disk onto the hot spare)
    // ------------------------------------------------------------------

    /// Advance the online rebuild, paced in simulated time. Called
    /// opportunistically from the machine's entry points (demand
    /// touches and hint calls), so rebuild traffic contends with
    /// foreground I/O on the survivors. Two bounds throttle the
    /// scrubber:
    ///
    /// * the hot spare physically serializes one row write per average
    ///   access, so the watermark never advances faster than one row
    ///   per `avg_access_ns` of simulated time (stretched 4x under
    ///   elevated pressure — the scrubber yields the spindles);
    /// * the same pressure levels that shed prefetch hints cap the
    ///   per-entry catch-up batch, and brownouts pause it entirely.
    pub(super) fn pump_rebuild(&mut self) {
        let (batch, cost_mul) = match self.pressure_level() {
            PressureLevel::Nominal => (8, 1),
            PressureLevel::Elevated => (2, 4),
            PressureLevel::Brownout => (0, 0),
        };
        self.advance_rebuild(batch, Some(self.params.disk.avg_access_ns() * cost_mul));
    }

    /// Drive the rebuild to completion regardless of pressure (harness
    /// hook: the workload is done and the scrubber gets the array to
    /// itself). No-op when the array is healthy.
    pub fn finish_rebuild(&mut self) {
        self.advance_rebuild(u64::MAX, None);
    }

    /// Reconstruct up to `batch` more rows onto the spare and close the
    /// rebuild once the watermark reaches the end. A `row_cost` paces
    /// it: no row before the scrubber's next slot, each row pushing the
    /// slot out by that much.
    fn advance_rebuild(&mut self, batch: u64, row_cost: Option<Ns>) {
        let Some((dead, _)) = self.redundancy.dead_disk else {
            return;
        };
        if self.redundancy.parity.is_none() {
            return;
        }
        self.ensure_durable_snapshot();
        let rows = self.fs.rows(self.swap).unwrap_or(0);
        let mut done = 0;
        while done < batch
            && self.redundancy.rebuilt_rows < rows
            && self.durability.crashed.is_none()
            && (row_cost.is_none() || self.now >= self.redundancy.rebuild_next_at)
        {
            self.rebuild_row(self.redundancy.rebuilt_rows, dead);
            let red = &mut self.redundancy;
            red.rebuilt_rows += 1;
            if let Some(cost) = row_cost {
                red.rebuild_next_at = red.rebuild_next_at.saturating_add(cost);
            }
            done += 1;
        }
        if self.redundancy.rebuilt_rows >= rows {
            self.stats.rebuild_ns = self.now.saturating_sub(self.redundancy.death_detected_at);
            self.redundancy.dead_disk = None;
        }
    }

    /// Reconstruct one stripe row's lost block onto the hot spare:
    /// post one background read per survivor block, verify the
    /// reconstruction against the durable content model's checksums,
    /// and post the write to the spare. A mismatch (latent parity
    /// corruption) is counted and the row's parity re-derived from the
    /// durable data pages, whose per-page checksums are authoritative.
    fn rebuild_row(&mut self, row: u64, dead: usize) {
        let Ok(StripeRow {
            pages,
            homes,
            parity: (pd, pb),
        }) = self.stripe_row(row)
        else {
            return;
        };
        // Survivor reads, prefetch class: the foreground's demand
        // reads keep priority over reconstruction traffic.
        let mut lost: Option<(u64, u64)> = None;
        for (p, (d, b)) in pages.clone().zip(homes) {
            if d == dead {
                lost = Some((p, b));
                continue;
            }
            self.post_background(d, ReqKind::PrefetchRead, b);
        }
        if pd != dead {
            self.post_background(pd, ReqKind::PrefetchRead, pb);
        }
        let (Some(ps), Some(d)) = (&mut self.redundancy.parity, &self.durability.store) else {
            return;
        };
        let durable = |p| d.page(p, &self.data);
        // The authoritative parity image of this row: XOR of its
        // durable data pages (each protected by its own checksum).
        let mut xor = vec![0u8; self.params.page_bytes as usize];
        for p in pages.clone() {
            for (dst, src) in xor.iter_mut().zip(durable(p)) {
                *dst ^= src;
            }
        }
        let mismatch = if pd == dead {
            // The row lost its parity block: verify the content model's
            // row checksum against the recomputation.
            page_checksum(&xor) != page_checksum(ps.row(row))
        } else if let Some((lp, _)) = lost {
            // The row lost a data page: reconstruct it from the
            // survivors + parity and check it against the page's stored
            // checksum.
            let rec = ps.reconstruct(row, pages.clone(), lp, durable);
            page_checksum(&rec) != d.stored_checksum(lp)
        } else {
            // Short final row whose dead-slot block holds neither data
            // nor parity: nothing to reconstruct.
            false
        };
        if mismatch {
            self.stats.rebuild_verify_mismatches += 1;
        }
        if mismatch || pd == dead {
            // Adopt the authoritative recomputation as the row's parity
            // content: heals latent corruption, and is the freshly
            // rebuilt parity block when the parity home was the dead
            // slot (a byte-identical no-op when already clean).
            let cur = ps.row(row).to_vec();
            ps.update(row, &cur, &xor);
        }
        // The write that lands the reconstructed block on the spare.
        let wb = if pd == dead {
            self.stats.parity_writes += 1;
            Some(pb)
        } else {
            lost.map(|(_, b)| b)
        };
        if let Some(b) = wb {
            self.post_background(dead, ReqKind::Write, b);
        }
        self.stats.rebuild_rows += 1;
    }

    /// Post one background (non-stalling) request, latching crash or
    /// death signals; queue-full refusals are dropped — background
    /// traffic is timing-only.
    fn post_background(&mut self, disk: usize, kind: ReqKind, block: u64) {
        match self
            .disks
            .admit(disk, self.now, Request::new(kind, block, 1), 0)
        {
            Ok(_) | Err(IoError::QueueFull { .. }) => {}
            Err(IoError::Crashed { at }) => self.latch_crash(at),
            Err(IoError::DiskDead { disk: d, at }) => {
                self.note_disk_death(d, at);
            }
            Err(_) => {}
        }
    }
}
