//! Durability (DESIGN.md §9): what has durably landed on the media, as
//! opposed to what memory holds — the journaled and plain write-back
//! protocols, the crash latch and its resolution, the zombie touch,
//! [`Machine::recover`] and the scrubber. Armed by a scheduled crash
//! point, a recovery, or parity mode; otherwise nothing here runs.

use std::collections::VecDeque;

use oocp_disk::{CrashPoint, CrashSpec, DiskArray, ReqKind, Request, Ticket};
use oocp_fs::WriteJournal;
use oocp_obs::MachineBucket;
use oocp_sim::rng::SimRng;
use oocp_sim::time::Ns;

use super::{Machine, Page, Residency};
use crate::error::OsError;
use crate::params::{MachineParams, Redundancy};
use crate::store::{DurableStore, SECTOR_BYTES};

/// One journaled writeback whose commit protocol is in flight: the
/// journal slot it reserved, a snapshot of the page image being
/// written, and the tickets of the protocol's four writes (descriptor,
/// payload, in-place data, commit mark). A ticket is `None` when the
/// submission itself was refused (crash or exhausted retries) — the
/// write never reached the media, so its effective completion time is
/// "never".
struct WalRecord {
    seq: u64,
    disk: usize,
    vpage: u64,
    payload: Vec<u8>,
    desc: Option<Ticket>,
    pay: Option<Ticket>,
    data: Option<Ticket>,
    commit: Option<Ticket>,
}

impl WalRecord {
    /// The record as a scan of the journal rings finds it.
    fn into_durable(self, committed: bool) -> DurableRecord {
        DurableRecord {
            seq: self.seq,
            disk: self.disk,
            vpage: self.vpage,
            payload: self.payload,
            committed,
        }
    }
}

/// An unjournaled durable write in flight: parity mode with no crash
/// scheduled, or durability mode with the journal disabled — the
/// configuration the negative CI gate uses to prove torn writes lose
/// data without WAL protection.
struct PlainWrite {
    vpage: u64,
    payload: Vec<u8>,
    data: Ticket,
}

/// A journal record whose journal blocks were durable when the power
/// died — exactly what a recovery scan of the rings can see.
#[derive(Clone, Debug)]
pub struct DurableRecord {
    /// Record sequence number (per-disk monotone).
    pub seq: u64,
    /// Disk whose ring holds the record.
    pub disk: usize,
    /// The page the record describes.
    pub vpage: u64,
    /// The full page image from the journal's payload block.
    pub payload: Vec<u8>,
    /// Whether the commit mark was durable too (the in-place data
    /// write is then guaranteed durable by the write barrier).
    pub committed: bool,
}

/// What [`Machine::recover`] found and did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Simulated time of the power loss (0 if the machine never
    /// crashed and recovery was a no-op).
    pub crashed_at: Ns,
    /// Sealed journal records the ring scan found.
    pub scanned_records: u64,
    /// Pages replayed from journal payloads onto their home blocks
    /// (uncommitted records, plus any page whose image failed its
    /// checksum).
    pub pages_replayed: u64,
    /// In-flight updates discarded because their intent record was not
    /// durably sealed — the home block kept its last durable version.
    pub pages_discarded: u64,
    /// Home blocks whose stored checksum failed: torn writes caught
    /// mid-air by the crash.
    pub torn_detected: u64,
    /// Torn/lost pages with no journal payload to repair from. Always
    /// zero with the journal enabled; the negative gate proves it goes
    /// positive without one.
    pub unrecoverable: u64,
    /// The unrecoverable pages themselves.
    pub unrecoverable_pages: Vec<u64>,
    /// Simulated time the recovery pass took (scan + replay + verify).
    pub recovery_ns: Ns,
}

/// The durability extension's state: the durable content model, the
/// journal and the writes in flight through it, and the crash latch.
#[derive(Default)]
pub(super) struct Durability {
    /// Durable (on-media) page images + checksums. Present only in
    /// durability mode (a crash is scheduled, parity needs it, or this
    /// machine came out of a recovery), so default runs pay nothing.
    pub(super) store: Option<DurableStore>,
    /// Per-disk write-ahead journal rings (durability mode with
    /// `params.journal`).
    journal: Option<WriteJournal>,
    /// Journaled writebacks whose commit protocol is in flight.
    wal_pending: Vec<WalRecord>,
    /// Unjournaled durable writes in flight (no journal), in issue
    /// order. [`Machine::retire_landed`] lands them from the front
    /// as their disk writes complete, so what is here is what the disks
    /// still owe — not the run's history.
    plain_pending: VecDeque<PlainWrite>,
    /// Page buffers of retired plain writes, kept for the next payload:
    /// a steady-state write-back allocates nothing.
    spare_payloads: Vec<Vec<u8>>,
    /// `t` of a scheduled [`CrashPoint::AtTime`]. That crash latches at
    /// the first submission *after* `t`, so until then the clock can be
    /// past `t` with the power still nominally on — and a write that
    /// completes in that gap was, in truth, in flight when it died.
    pub(super) crash_at_time: Option<Ns>,
    /// Journal records durable at crash time, as a recovery scan would
    /// find them.
    wal_durable: Vec<DurableRecord>,
    /// Simulated time of the power loss, once it happened. From then on
    /// the machine is a "zombie": accesses are served from the
    /// in-memory image with no disk and no time, so the interpreter can
    /// run to completion and the harness can recover. Only a scheduled
    /// crash point sets it, and scheduling one creates `store`.
    pub(super) crashed: Option<Ns>,
    /// Whether crash resolution (freezing the in-flight writes into
    /// durable state) has run.
    pub(super) crash_resolved: bool,
    /// Whether in-flight writes may tear at the crash.
    torn_writes: bool,
    /// Seeded stream deciding how many sectors of each in-flight write
    /// land (the torn-write model).
    crash_rng: Option<SimRng>,
    /// Updates lost at the crash: writebacks whose intent record was
    /// never sealed (journaled) or whose write never landed (plain).
    crash_discarded: Vec<u64>,
    /// Dirty pages whose final contents never became durable:
    /// abandoned writebacks plus everything cut off by a crash.
    pub(super) flush_failures: Vec<u64>,
}

impl Durability {
    pub(super) fn new(params: &MachineParams, total_pages: u64) -> Self {
        // Parity mode keeps the durable content model from day one:
        // parity is defined over *durable* page images, so the store
        // must exist even when no crash is scheduled.
        let store = (params.redundancy == Redundancy::Parity)
            .then(|| DurableStore::new(total_pages, params.page_bytes));
        Self {
            store,
            ..Self::default()
        }
    }

    /// Live journal slots across the rings of all `ndisks` disks.
    pub(super) fn journal_in_use(&self, ndisks: usize) -> u64 {
        match &self.journal {
            Some(j) => (0..ndisks).map(|d| j.in_use(d)).sum(),
            None => 0,
        }
    }

    /// An update the crash lost: its home block keeps the last durable
    /// image.
    fn discard_at_crash(&mut self, vpage: u64) {
        self.crash_discarded.push(vpage);
        self.flush_failures.push(vpage);
    }

    /// A write caught mid-air by the crash: an arbitrary sector prefix
    /// of the `per_page` sectors landed (possibly none, possibly all).
    /// Returns whether all of it did.
    fn tear(&mut self, vpage: u64, payload: &[u8], per_page: u64) -> bool {
        let k = self
            .crash_rng
            .as_mut()
            .expect("torn writes need the crash rng")
            .next_below(per_page + 1);
        if let Some(d) = &mut self.store {
            d.tear_page(vpage, payload, k);
        }
        k >= per_page
    }
}

impl Machine {
    /// A crash point is scheduled. Durability mode: from here on the
    /// simulator distinguishes the in-memory image from what has
    /// durably landed.
    pub(super) fn arm_crash(&mut self, spec: CrashSpec, seed: u64) {
        self.durability.torn_writes = spec.torn_writes;
        self.durability.crash_at_time = match spec.point {
            CrashPoint::AtTime(t) => Some(t),
            CrashPoint::AtOp(_) => None,
        };
        self.durability.crash_rng = Some(SimRng::new(seed ^ 0x70B5_C4A5_11ED));
        if self.durability.store.is_none() {
            self.durability.store = Some(DurableStore::new(
                self.total_pages(),
                self.params.page_bytes,
            ));
        }
        if self.params.journal && self.durability.journal.is_none() {
            self.durability.journal = Some(
                WriteJournal::create(&mut self.fs, self.params.journal_blocks_per_disk)
                    .expect("disks must have room for the writeback journal"),
            );
        }
    }

    /// Simulated time of the power loss, if one has happened.
    pub fn crashed_at(&self) -> Option<Ns> {
        self.durability.crashed
    }

    /// A submission path saw the power go out. Latching is all it has
    /// to do; the heavy classification is [`Machine::resolve_crash`]'s.
    pub(super) fn latch_crash(&mut self, at: Ns) {
        self.durability.crashed = Some(at);
    }

    /// A write-back that will never land: counted, and the page is
    /// reported by [`Machine::try_finish`]'s `FlushError`.
    pub(super) fn abandon_writeback(&mut self, vpage: u64) {
        self.stats.writebacks_abandoned += 1;
        self.durability.flush_failures.push(vpage);
    }

    /// Take the lazy durable-baseline snapshot if it has not been taken
    /// yet (first timed access in durability mode).
    pub(super) fn ensure_durable_snapshot(&mut self) {
        if let Some(d) = &mut self.durability.store {
            d.ensure_snapshot(&self.data);
            // Parity is defined over the durable images; derive it
            // once, then keep it incrementally consistent at every
            // durable landing ([`Machine::land_durable`]).
            if let Some(ps) = &mut self.redundancy.parity {
                if !ps.is_synced() {
                    let k = self.fs.ndisks() as u64 - 1;
                    ps.resync(k, d.images(), self.pages.len() as u64);
                }
            }
        }
    }

    /// The durability-mode arm of `writeback`: the write goes through
    /// the write-ahead journal (or, with the journal disabled, as a
    /// bare tracked write), so crash resolution can decide exactly what
    /// landed.
    pub(super) fn writeback_durable(&mut self, vpage: u64, disk: usize, block: u64) {
        self.ensure_durable_snapshot();
        self.retire_landed();
        let start = (vpage * self.params.page_bytes) as usize;
        let mut payload = self.durability.spare_payloads.pop().unwrap_or_default();
        payload.clear();
        payload.extend_from_slice(&self.data[start..start + self.params.page_bytes as usize]);
        if self.durability.journal.is_some() {
            let t0 = self.prof_start();
            self.writeback_journaled(vpage, disk, block, payload);
            self.prof_end(t0, MachineBucket::Journal);
        } else {
            self.writeback_plain(vpage, disk, block, payload);
        }
    }

    /// The WAL commit protocol for one writeback. All four writes are
    /// issued up front on the page's disk; ordering is enforced
    /// *logically* by effective completion times (each stage's
    /// effective time is the max of its own completion and the prior
    /// stage's), which models a per-disk write barrier without
    /// serializing the physical queue:
    ///
    /// 1. descriptor + payload into the journal slot  (seal),
    /// 2. the in-place data write to the home block   (apply),
    /// 3. the descriptor rewritten with its commit mark (commit).
    fn writeback_journaled(&mut self, vpage: u64, disk: usize, block: u64, payload: Vec<u8>) {
        let slot = loop {
            let j = self
                .durability
                .journal
                .as_mut()
                .expect("journaled writeback");
            match j.reserve(disk) {
                Some(slot) => break slot,
                None => {
                    if !self.force_retire_oldest(disk) {
                        self.abandon_writeback(vpage);
                        return;
                    }
                }
            }
        };
        self.stats.journal_appends += 1;
        let issue = |m: &mut Self, b: u64| {
            m.submit_tracked_with_retry(disk, Request::new(ReqKind::Write, b, 1), vpage)
                .ok()
        };
        let desc = issue(self, slot.desc_block);
        let pay = issue(self, slot.payload_block);
        let data = issue(self, block);
        let commit = issue(self, slot.desc_block);
        let complete = desc.is_some() && pay.is_some() && data.is_some() && commit.is_some();
        self.durability.wal_pending.push(WalRecord {
            seq: slot.seq,
            disk,
            vpage,
            payload,
            desc,
            pay,
            data,
            commit,
        });
        if complete {
            self.note_writeback(vpage);
        } else if self.durability.crashed.is_none() {
            // Retries exhausted mid-protocol with the power still on:
            // the update may never land, so report it as unflushed.
            self.abandon_writeback(vpage);
        }
    }

    /// Durable writeback without WAL protection: one bare tracked
    /// write. A crash catching it mid-air can tear the home block with
    /// no payload to repair from — the unrecoverable case.
    fn writeback_plain(&mut self, vpage: u64, disk: usize, block: u64, payload: Vec<u8>) {
        match self.submit_tracked_with_retry(disk, Request::new(ReqKind::Write, block, 1), vpage) {
            Ok(data) => {
                self.note_writeback(vpage);
                self.durability.plain_pending.push_back(PlainWrite {
                    vpage,
                    payload,
                    data,
                });
            }
            // Never accepted: the home block keeps the old image; the
            // update is simply lost.
            Err(OsError::Crashed { .. }) => self.durability.discard_at_crash(vpage),
            Err(_) => self.abandon_writeback(vpage),
        }
    }

    /// A durable write lands when its disk write completes: land, from
    /// the front, every plain write that has. Issue order, so a page
    /// written twice ends with the later image and the parity XOR chain
    /// is the one a single pass at exit would have produced.
    ///
    /// A write may land only once [`Machine::resolve_crash`] could no
    /// longer call it in flight (tear or discard it, spending a
    /// `crash_rng` draw): complete by `now`, and by `t` too when a crash
    /// is scheduled `AtTime(t)` — see `crash_at_time`.
    fn retire_landed(&mut self) {
        let by = self
            .now
            .min(self.durability.crash_at_time.unwrap_or(Ns::MAX));
        while let Some(w) = self.durability.plain_pending.front() {
            if self.disks.poll(w.data, by).is_none() {
                break;
            }
            let w = self
                .durability
                .plain_pending
                .pop_front()
                .expect("just seen");
            self.land_durable(w.vpage, &w.payload);
            self.durability.spare_payloads.push(w.payload);
        }
    }

    /// Land a page image in the durable store, first folding the
    /// change into its stripe row's parity content (the XOR identity
    /// `parity ^= old ^ new` needs the *old* durable image, so the
    /// order matters).
    fn land_durable(&mut self, vpage: u64, payload: &[u8]) {
        if self.redundancy.parity.is_some() {
            if let Ok(row) = self.fs.row_of(self.swap, vpage) {
                if let (Some(ps), Some(d)) = (&mut self.redundancy.parity, &self.durability.store) {
                    if ps.is_synced() {
                        ps.update(row, d.page(vpage), payload);
                    }
                }
            }
        }
        if let Some(d) = &mut self.durability.store {
            d.write_page(vpage, payload);
        }
    }

    /// Synchronously make the oldest journal record on `disk` durable
    /// and reclaim its slot (the ring is full). Returns `false` if
    /// there is nothing to retire.
    fn force_retire_oldest(&mut self, disk: usize) -> bool {
        let journal = self.durability.journal.as_ref();
        let Some(seq) = journal.and_then(|j| j.oldest_live(disk)) else {
            return false;
        };
        let Some(idx) = self
            .durability
            .wal_pending
            .iter()
            .position(|r| r.disk == disk && r.seq == seq)
        else {
            // Already resolved elsewhere; just reclaim the slot.
            let journal = self.durability.journal.as_mut();
            journal.expect("journal").retire(disk, seq);
            return true;
        };
        let rec = self.durability.wal_pending.remove(idx);
        let done = [rec.desc, rec.pay, rec.data, rec.commit]
            .into_iter()
            .flatten()
            .map(|t| self.disks.wait_for(t))
            .max()
            .unwrap_or(self.now);
        self.stall_until(done);
        self.stats.journal_stalls += 1;
        if rec.data.is_some() {
            self.land_durable(rec.vpage, &rec.payload);
        }
        let journal = self.durability.journal.as_mut();
        journal.expect("journal").retire(disk, seq);
        self.durability.wal_durable.push(rec.into_durable(true));
        true
    }

    /// Post-crash touch of pages `first..=last`: pure metadata
    /// bookkeeping, no disk, no time, no fault statistics — the power is
    /// out, so accesses are served from the in-memory image and the
    /// interpreter can run to completion for the harness to recover.
    /// Keeps frame counters consistent so a later [`Machine::recover`]
    /// starts from sane accounting.
    pub(super) fn touch_crashed(&mut self, first: u64, last: u64, write: bool) {
        for vpage in first..=last {
            match self.pages[vpage as usize].residency() {
                Residency::OnFreeList => self.free_list.remove(vpage),
                Residency::Active => {}
                Residency::InFlight(_) => {
                    self.inflight -= 1;
                    self.note_tenant_inflight(vpage, -1);
                    self.resident += 1;
                }
                Residency::Unmapped => self.resident += 1,
            }
            let dirty = self.pages[vpage as usize].has(Page::DIRTY);
            self.pages[vpage as usize].activate(dirty || write);
        }
    }

    /// `try_finish` on a machine whose power is out.
    pub(super) fn finish_crashed(&mut self) {
        self.resolve_crash();
        // Every page still dirty in memory never made it to disk.
        for vpage in 0..self.total_pages() {
            if self.pages[vpage as usize].has(Page::DIRTY) {
                self.durability.flush_failures.push(vpage);
            }
        }
        self.close_ledger();
    }

    /// Power stayed on to the end: every accepted durable write still
    /// in flight lands in full. Apply them to the durable store in
    /// issue order and retire their journal slots.
    pub(super) fn settle_pending_durable(&mut self, drain: Ns) {
        if self.durability.store.is_none() {
            return;
        }
        for rec in std::mem::take(&mut self.durability.wal_pending) {
            for t in [rec.desc, rec.pay, rec.data, rec.commit]
                .into_iter()
                .flatten()
            {
                let _ = self.disks.poll(t, drain);
            }
            if rec.data.is_some() {
                self.land_durable(rec.vpage, &rec.payload);
            }
            if let Some(j) = &mut self.durability.journal {
                j.retire(rec.disk, rec.seq);
            }
            // Keep the committed record as scrubber repair state (the
            // simulator's stand-in for the journal's retired history).
            self.durability.wal_durable.push(rec.into_durable(true));
        }
        for w in std::mem::take(&mut self.durability.plain_pending) {
            let _ = self.disks.poll(w.data, drain);
            self.land_durable(w.vpage, &w.payload);
        }
    }

    /// Freeze the in-flight writes into durable on-media state as of
    /// the power loss. Deferred (and idempotent) so submission paths
    /// only have to latch the crash; the heavy classification runs once,
    /// from [`Machine::try_finish`] or [`Machine::recover`].
    ///
    /// The per-disk write barrier makes each protocol stage's
    /// *effective* completion the max of its own completion and the
    /// prior stage's, so classification reduces to comparing effective
    /// times against the crash instant `T`:
    ///
    /// * seal after `T` — the intent never became durable; the home
    ///   block kept its old image (barrier): the update is discarded.
    /// * seal at/before `T`, data write still in flight — the home
    ///   block may be torn; the sealed journal payload can repair it.
    /// * data write done by `T` — the new image is durable.
    fn resolve_crash(&mut self) {
        let Some(t_crash) = self.durability.crashed else {
            return;
        };
        if self.durability.crash_resolved {
            return;
        }
        self.durability.crash_resolved = true;
        let drain = self.disks.drain_all();
        let per_page = self.params.page_bytes / SECTOR_BYTES;
        let poll = |disks: &mut DiskArray, t: Option<Ticket>| -> Ns {
            t.and_then(|t| disks.poll(t, drain)).unwrap_or(Ns::MAX)
        };
        let dur = &mut self.durability;
        for rec in std::mem::take(&mut dur.wal_pending) {
            let desc_done = poll(&mut self.disks, rec.desc);
            let pay_done = poll(&mut self.disks, rec.pay);
            let data_done = poll(&mut self.disks, rec.data);
            let commit_done = poll(&mut self.disks, rec.commit);
            let sealed_eff = desc_done.max(pay_done);
            let applied_eff = data_done.max(sealed_eff);
            let committed_eff = commit_done.max(applied_eff);
            if sealed_eff > t_crash {
                // Intent never sealed: the barrier kept the home block's
                // old image intact. The update is simply lost.
                dur.discard_at_crash(rec.vpage);
                continue;
            }
            if applied_eff <= t_crash {
                // Data durably landed before the lights went out.
                if let Some(d) = &mut dur.store {
                    d.write_page(rec.vpage, &rec.payload);
                }
            } else if dur.torn_writes {
                dur.tear(rec.vpage, &rec.payload, per_page);
            }
            // Either way the sealed record is what a recovery scan of
            // the rings will find.
            dur.wal_durable
                .push(rec.into_durable(committed_eff <= t_crash));
        }
        for w in std::mem::take(&mut dur.plain_pending) {
            let done = self.disks.poll(w.data, drain).unwrap_or(Ns::MAX);
            if done <= t_crash {
                if let Some(d) = &mut dur.store {
                    d.write_page(w.vpage, &w.payload);
                }
                continue;
            }
            let landed_fully = dur.torn_writes && dur.tear(w.vpage, &w.payload, per_page);
            if !landed_fully {
                dur.discard_at_crash(w.vpage);
            }
        }
    }

    /// Recover from a simulated power loss: scan the journal rings,
    /// replay committed-but-unapplied intents, discard torn and
    /// uncommitted updates (falling back to the last durable version),
    /// verify every page's stored checksum, resync the residency bit
    /// vector, and hand back a clean machine whose memory image is
    /// exactly the durable state. Consumes the crashed machine.
    ///
    /// On a machine that never crashed this is a no-op returning `self`
    /// and a default report.
    pub fn recover(mut self) -> (Machine, RecoveryReport) {
        let Some(t_crash) = self.durability.crashed else {
            return (self, RecoveryReport::default());
        };
        self.resolve_crash();
        let mut durable = self
            .durability
            .store
            .take()
            .expect("crash implies durability mode");
        let wal_durable = std::mem::take(&mut self.durability.wal_durable);
        let discarded = std::mem::take(&mut self.durability.crash_discarded);
        let total = self.total_pages();
        let mut report = RecoveryReport {
            crashed_at: t_crash,
            scanned_records: wal_durable.len() as u64,
            pages_discarded: discarded.len() as u64,
            ..RecoveryReport::default()
        };

        // A fresh machine: same geometry, same (deterministic) swap
        // layout, clock restarted at zero — the reboot.
        let mut m = Machine::try_new(self.params, total * self.params.page_bytes)
            .expect("the crashed machine's geometry was valid");
        if self.params.journal {
            m.durability.journal = Some(
                WriteJournal::create(&mut m.fs, self.params.journal_blocks_per_disk)
                    .expect("journal fit before the crash, so it fits now"),
            );
        }

        // Phase 1: sequential scan of every journal ring (one read per
        // disk covering the whole ring extent).
        if let Some(j) = &m.durability.journal {
            let mut done = 0;
            for d in 0..m.fs.ndisks() {
                let ext = j.extent(d);
                if let Ok(t) = m.disks.try_submit(
                    d,
                    m.now,
                    Request::new(ReqKind::DemandRead, ext.start, ext.len),
                ) {
                    done = done.max(t);
                }
            }
            m.stall_until(done);
        }

        // Phase 2: replay. Uncommitted sealed records must be replayed
        // (their data write may or may not have landed — the journal
        // payload is authoritative either way); committed records are
        // guaranteed applied and only need replay if verification says
        // otherwise (it never does — this is an invariant, not a
        // branch we expect to take).
        let mut replay_done = m.now;
        for rec in &wal_durable {
            if !durable.verify(rec.vpage) {
                report.torn_detected += 1;
            }
            if !rec.committed || !durable.verify(rec.vpage) {
                durable.write_page(rec.vpage, &rec.payload);
                report.pages_replayed += 1;
                if let Ok((disk, block)) = m.fs.place(m.swap, rec.vpage) {
                    if let Ok(t) =
                        m.disks
                            .try_submit(disk, m.now, Request::new(ReqKind::Write, block, 1))
                    {
                        replay_done = replay_done.max(t);
                    }
                }
            }
        }
        m.stall_until(replay_done);

        // Phase 3: full-surface verification sweep (one sequential read
        // per disk over the swap area), catching torn home blocks that
        // had no journal record — with the journal disabled, or plain
        // writes torn mid-air. No payload to repair from makes the page
        // unrecoverable: it reverts to whatever the torn image holds.
        let mut scan_done = m.now;
        let ndisks = m.fs.ndisks() as u64;
        let parity_rows = m.fs.rows(m.swap).unwrap_or(0);
        for d in 0..m.fs.ndisks() {
            // One sequential read per disk covering its swap extent:
            // plain striping puts every `ndisks`-th page on disk `d`;
            // the rotating-parity layout gives every disk exactly one
            // block (data or parity) per stripe row.
            let (disk, block, nblocks) = if parity_rows > 0 {
                // Row 0 places data page `o` on disk `o` and parity on
                // disk `ndisks - 1`, so each disk's extent start is
                // recoverable from the row-0 placements.
                let start = if d as u64 == ndisks - 1 {
                    m.fs.parity_place(m.swap, 0).map(|(_, b)| b)
                } else if (d as u64) < total {
                    m.fs.place(m.swap, d as u64).map(|(_, b)| b)
                } else {
                    continue;
                };
                match start {
                    Ok(b) => (d, b, parity_rows),
                    Err(_) => continue,
                }
            } else {
                let pages_on_disk = (total.saturating_sub(d as u64)).div_ceil(ndisks);
                if pages_on_disk == 0 {
                    continue;
                }
                match m.fs.place(m.swap, d as u64) {
                    Ok((disk, block)) => (disk, block, pages_on_disk),
                    Err(_) => continue,
                }
            };
            if let Ok(t) = m.disks.try_submit(
                disk,
                m.now,
                Request::new(ReqKind::DemandRead, block, nblocks),
            ) {
                scan_done = scan_done.max(t);
            }
        }
        m.stall_until(scan_done);
        for vpage in 0..total {
            if durable.verify(vpage) {
                continue;
            }
            report.torn_detected += 1;
            // Last committed journal payload for this page, if any.
            if let Some(rec) = wal_durable.iter().rev().find(|r| r.vpage == vpage) {
                durable.write_page(vpage, &rec.payload);
                report.pages_replayed += 1;
            } else {
                report.unrecoverable += 1;
                report.unrecoverable_pages.push(vpage);
            }
        }

        // Adopt the durable image as the reborn machine's memory state.
        m.data.copy_from_slice(durable.images());
        m.resync_bits();
        report.recovery_ns = m.now();
        m.stats.recovery_pages_replayed = report.pages_replayed;
        m.stats.recovery_pages_discarded = report.pages_discarded;
        m.stats.recovery_torn_detected = report.torn_detected;
        m.stats.recovery_unrecoverable = report.unrecoverable;
        m.stats.recovery_ns = report.recovery_ns;
        // The recovered machine keeps durability tracking (it has a
        // durable store with a settled baseline) but no scheduled
        // crash: the re-run is an ordinary one.
        m.durability.store = Some(durable);
        m.durability.wal_durable = wal_durable;
        // Parity is re-derived wholesale from the recovered durable
        // image (replay may have changed any subset of rows, and a
        // crash mid-rebuild leaves no trustworthy incremental state).
        // The reboot replaced the hardware, so the array is whole.
        if let Some(ps) = &mut m.redundancy.parity {
            let k = m.fs.ndisks() as u64 - 1;
            let store = m.durability.store.as_ref().expect("just set");
            ps.resync(k, store.images(), total);
        }
        (m, report)
    }

    /// Background scrubber: verify the stored checksums of up to
    /// `max_pages` cold (unmapped) pages against the durable store and
    /// repair any corruption from committed journal state. Returns
    /// `(verified, repaired)`. A no-op outside durability mode or after
    /// a crash.
    pub fn scrub(&mut self, max_pages: u64) -> (u64, u64) {
        if self.durability.crashed.is_some() || self.durability.store.is_none() {
            return (0, 0);
        }
        self.ensure_durable_snapshot();
        let (mut verified, mut repaired) = (0, 0);
        for vpage in 0..self.total_pages() {
            if verified >= max_pages {
                break;
            }
            if self.pages[vpage as usize].residency() != Residency::Unmapped {
                continue;
            }
            // Model the verification read; the scrubber runs in the
            // background, so nothing stalls on it.
            if let Ok((disk, block)) = self.fs.place(self.swap, vpage) {
                let _ = self.disks.try_post(
                    disk,
                    self.now,
                    Request::new(ReqKind::DemandRead, block, 1),
                );
            }
            verified += 1;
            let ok = self
                .durability
                .store
                .as_ref()
                .map(|d| d.verify(vpage))
                .unwrap_or(true);
            if ok {
                continue;
            }
            if let Some(rec) = self
                .durability
                .wal_durable
                .iter()
                .rev()
                .find(|r| r.vpage == vpage && r.committed)
            {
                let payload = rec.payload.clone();
                // Plain `write_page`, not `land_durable`: the current
                // image is corrupt, so it cannot serve as the parity
                // XOR's "old" term. Restoring the committed content
                // restores the parity invariant as a side effect.
                if let Some(d) = &mut self.durability.store {
                    d.write_page(vpage, &payload);
                }
                if let Ok((disk, block)) = self.fs.place(self.swap, vpage) {
                    let _ =
                        self.disks
                            .try_post(disk, self.now, Request::new(ReqKind::Write, block, 1));
                }
                repaired += 1;
            }
        }
        self.stats.scrub_pages_verified += verified;
        self.stats.scrub_pages_repaired += repaired;
        (verified, repaired)
    }

    /// Test hook: flip bits in a durable page image without updating
    /// its stored checksum (latent media corruption for scrubber
    /// tests). Returns `false` outside durability mode.
    pub fn corrupt_durable_page(&mut self, vpage: u64) -> bool {
        self.ensure_durable_snapshot();
        match &mut self.durability.store {
            Some(d) => {
                d.corrupt(vpage);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
impl Durability {
    /// Page buffers the write-back path holds: one per durable write
    /// in flight, plus the spares kept for the next ones.
    pub(super) fn payload_buffers(&self) -> usize {
        self.wal_pending.len() + self.plain_pending.len() + self.spare_payloads.len()
    }

    /// What crash resolution decided: the updates it discarded, in
    /// order, and where it left the torn-write stream (its next draw).
    pub(super) fn crash_verdict(&mut self) -> (Vec<u64>, Option<u64>) {
        let next_draw = self.crash_rng.as_mut().map(|r| r.next_below(u64::MAX));
        (self.crash_discarded.clone(), next_draw)
    }
}
