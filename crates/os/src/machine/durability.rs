//! Durability (DESIGN.md §9): what has durably landed on the media, as
//! opposed to what memory holds — one queue of durable write-backs in
//! flight, journaled or plain, the records the journal rings hold, the
//! crash latch and its resolution, [`Machine::recover`] and the
//! scrubber. Armed by a scheduled crash point, a recovery, or
//! parity mode; otherwise nothing here runs.

use std::collections::{BTreeSet, VecDeque};

use oocp_disk::{CrashPoint, CrashSpec, ReqKind, Request, Ticket};
use oocp_fs::WriteJournal;
use oocp_obs::MachineBucket;
use oocp_sim::rng::SimRng;
use oocp_sim::time::Ns;

use super::{Machine, Page, Residency};
use crate::error::OsError;
use crate::params::{MachineParams, Redundancy};
use crate::store::{DurableStore, SECTOR_BYTES};

/// A durable write-back in flight: the tracked write of a page to its
/// home block and, through the write-ahead journal, the ring slot it
/// reserved and the protocol's other writes. Without the journal it is
/// a bare write (parity mode with no crash scheduled, or durability
/// mode with the journal disabled — the configuration the negative CI
/// gate uses to prove torn writes lose data without WAL protection).
///
/// The write carries the page's live image, not a copy of it: while it
/// is in flight the page carries [`Page::SHARED`], so whatever is about
/// to change its bytes first calls [`Machine::unshare`], which gives the
/// write its own copy of them (`copy`). Until then the live page *is*
/// the payload, of the home block and of the journal slot alike.
struct DurableWrite {
    vpage: u64,
    copy: Option<Vec<u8>>,
    /// The in-place data write. A ticket is `None` when the submission
    /// itself was refused (crash or exhausted retries): the write never
    /// reached the media, so its effective completion time is "never".
    /// A bare write is queued only once accepted.
    data: Option<Ticket>,
    /// A journaled write's part, boxed so that a bare write — each
    /// write-back of a parity run — stays small.
    journal: Option<Box<JournalWrite>>,
}

/// The journal's part of a write-back: the slot it reserved (its disk
/// and the record's sequence number) and the descriptor, payload and
/// commit-mark tickets.
struct JournalWrite {
    slot: (usize, u64),
    tickets: [Option<Ticket>; 3],
}

impl DurableWrite {
    /// The journal slot of a journaled write.
    fn slot(&self) -> Option<(usize, u64)> {
        self.journal.as_ref().map(|j| j.slot)
    }

    /// The tickets in protocol order: descriptor, payload, in-place
    /// data, commit mark.
    fn tickets(&self) -> [Option<Ticket>; 4] {
        let [desc, pay, commit] = self.journal.as_ref().map_or([None; 3], |j| j.tickets);
        [desc, pay, self.data, commit]
    }
}

/// A journal record whose journal blocks became durable: what a scan of
/// the rings finds in its slot until a later record on the same disk
/// takes the slot.
struct RingRecord {
    /// Record sequence number (per-disk monotone).
    seq: u64,
    vpage: u64,
    /// The full page image from the journal's payload block.
    payload: Vec<u8>,
    /// Whether the commit mark was durable too (the in-place data write
    /// is then guaranteed durable by the write barrier).
    committed: bool,
}

/// The write-ahead journal: the rings' geometry and accounting, and
/// what their slots hold.
struct Journal {
    rings: WriteJournal,
    /// Per slot (`disk * slots + seq % slots`), the last record sealed
    /// into it: the retired history is what the rings hold.
    records: Vec<Option<RingRecord>>,
}

impl Journal {
    /// Seal `w`'s record into its slot, over the record the slot held.
    /// Its payload is the write's copy if the hook took one, and
    /// otherwise the live page, copied into the slot's own buffer.
    fn seal(&mut self, w: DurableWrite, live: &[u8], committed: bool) {
        let (disk, seq) = w.slot().expect("a journaled write");
        let slots = self.rings.slots(disk);
        let slot = &mut self.records[(disk as u64 * slots + seq % slots) as usize];
        let payload = w.copy.unwrap_or_else(|| {
            let mut buf = slot.take().map(|r| r.payload).unwrap_or_default();
            buf.clear();
            buf.extend_from_slice(live);
            buf
        });
        *slot = Some(RingRecord {
            seq,
            vpage: w.vpage,
            payload,
            committed,
        });
    }

    /// The records a scan of the rings finds, each disk's in the order
    /// they were sealed. A page's records are all on its home disk, and
    /// replaying one disk's touches neither another disk's queue nor its
    /// pages, so the order across disks is immaterial.
    fn scan(self) -> Vec<RingRecord> {
        let mut found: Vec<RingRecord> = self.records.into_iter().flatten().collect();
        found.sort_by_key(|r| r.seq);
        found
    }
}

/// What [`Machine::recover`] found and did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Simulated time of the power loss (0 if the machine never
    /// crashed and recovery was a no-op).
    pub crashed_at: Ns,
    /// Sealed journal records a scan of the rings found: at most one
    /// per ring slot.
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
/// journal, the writes in flight, and the crash latch.
#[derive(Default)]
pub(super) struct Durability {
    /// Durable (on-media) pages, a view of the live ones. Present only
    /// in durability mode (a crash is scheduled, parity needs it, or
    /// this machine came out of a recovery), so default runs pay nothing.
    pub(super) store: Option<DurableStore>,
    /// Per-disk write-ahead journal rings (durability mode with
    /// `params.journal`).
    journal: Option<Journal>,
    /// Durable writes in flight, in issue order: what the disks still
    /// owe, and, for a journaled write, a ring slot not yet retired —
    /// not the run's history.
    pending: VecDeque<DurableWrite>,
    /// Page buffers of landed copies, kept for the next copy the
    /// copy-on-write hook takes: it allocates nothing once the run has
    /// taken as many as it ever holds at once.
    spare_payloads: Vec<Vec<u8>>,
    /// `t` of a scheduled [`CrashPoint::AtTime`]. That crash latches at
    /// the first submission *after* `t`, so until then the clock can be
    /// past `t` with the power still nominally on — and a write that
    /// completes in that gap was, in truth, in flight when it died.
    pub(super) crash_at_time: Option<Ns>,
    /// Simulated time of the power loss, once it happened. The call
    /// during which it latches completes in memory, and the run ends
    /// there: the machine takes no further access or hint, only
    /// [`Machine::try_finish`]'s report and [`Machine::recover`]. Only a
    /// scheduled crash point sets it, and scheduling one creates `store`.
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
    /// Dirty pages whose final contents never became durable, each once:
    /// abandoned writebacks plus everything cut off by a crash.
    pub(super) flush_failures: BTreeSet<u64>,
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
        let in_use = |j: &Journal| (0..ndisks).map(|d| j.rings.in_use(d)).sum();
        self.journal.as_ref().map_or(0, in_use)
    }

    /// An update the crash lost: its home block keeps the last durable
    /// image.
    fn discard_at_crash(&mut self, vpage: u64) {
        self.crash_discarded.push(vpage);
        self.flush_failures.insert(vpage);
    }

    /// A copy of page `vpage` of `data`, in a recycled buffer.
    fn copy_page(&mut self, data: &[u8], vpage: u64, page_bytes: u64) -> Vec<u8> {
        let mut copy = self.spare_payloads.pop().unwrap_or_default();
        copy.clear();
        copy.extend_from_slice(live_page(data, vpage, page_bytes));
        copy
    }

    /// A write the crash found: all of it landed if `done` by then, else
    /// an arbitrary sector prefix if writes tear (possibly none, possibly
    /// all), else none. Returns whether all of it did.
    fn land_or_tear(&mut self, vpage: u64, payload: &[u8], done: bool, live: &[u8]) -> bool {
        let per_page = payload.len() as u64 / SECTOR_BYTES;
        let k = match &mut self.crash_rng {
            _ if done => per_page,
            Some(rng) if self.torn_writes => rng.next_below(per_page + 1),
            _ => 0,
        };
        let d = self.store.as_mut().expect("crash mode");
        d.tear_page(vpage, payload, k, live);
        k >= per_page
    }
}

/// Page `vpage` of the address space image `data`.
fn live_page(data: &[u8], vpage: u64, page_bytes: u64) -> &[u8] {
    &data[(vpage * page_bytes) as usize..][..page_bytes as usize]
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
        let (total, page_bytes) = (self.total_pages(), self.params.page_bytes);
        let store = &mut self.durability.store;
        store.get_or_insert_with(|| DurableStore::new(total, page_bytes));
        self.open_journal();
    }

    /// Claim the write-ahead journal's rings, empty, if write-backs go
    /// through the journal and it has none yet.
    fn open_journal(&mut self) {
        if self.params.journal && self.durability.journal.is_none() {
            let rings = WriteJournal::create(&mut self.fs, self.params.journal_blocks_per_disk)
                .expect("disks must have room for the writeback journal");
            let slots = self.fs.ndisks() as u64 * rings.slots(0);
            let records = (0..slots).map(|_| None).collect();
            self.durability.journal = Some(Journal { rings, records });
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
        self.durability.flush_failures.insert(vpage);
    }

    /// Take the lazy durable-baseline snapshot if it has not been taken
    /// yet (first timed access in durability mode).
    pub(super) fn ensure_durable_snapshot(&mut self) {
        if let Some(d) = &mut self.durability.store {
            d.ensure_snapshot(&self.data);
            // Parity is defined over the durable images; derive it
            // once, then keep it incrementally consistent at every
            // durable landing ([`Machine::land_durable`]).
            if let Some(ps) = self.redundancy.parity.as_mut().filter(|ps| !ps.is_synced()) {
                let k = self.fs.ndisks() as u64 - 1;
                ps.resync(k, self.pages.len() as u64, |p| d.page(p, &self.data));
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
        if self.durability.journal.is_some() {
            let t0 = self.prof_start();
            self.writeback_journaled(vpage, disk, block);
            self.prof_end(t0, MachineBucket::Journal);
        } else {
            self.writeback_plain(vpage, disk, block);
        }
    }

    /// The copy-on-write hook: `vpage`'s bytes are about to change. If
    /// a write in flight still carries them as the live page, it
    /// gets its own copy of them first, and so does the durable store
    /// if the page is its durable image. Every writer of the image that
    /// can meet such a page calls it: a timed store past the fast path,
    /// the one the power dies under included
    /// ([`Machine::touch_then_unshare`]), and an untimed `poke_*`. A
    /// machine with a durable store has no fast path, and grants no
    /// strip.
    #[inline]
    pub(super) fn unshare(&mut self, vpage: u64) {
        if self.pages[vpage as usize].has(Page::SHARED) {
            self.copy_shared_write(vpage);
        }
        if let Some(d) = self.durability.store.as_mut().filter(|d| !d.holds(vpage)) {
            d.unshare(vpage, &self.data);
        }
    }

    /// An untimed write (`poke_*`): through the hook once the durable
    /// store shares the live image, out of line, so that the pokes of a
    /// program's set-up stay a bare store.
    #[inline]
    pub(super) fn poke(&mut self, addr: u64, bytes: [u8; 8]) {
        if matches!(&self.durability.store, Some(d) if d.taken()) {
            self.poke_shared(addr, bytes);
        } else {
            self.write_word(addr, bytes);
        }
    }

    #[cold]
    #[inline(never)]
    fn poke_shared(&mut self, addr: u64, bytes: [u8; 8]) {
        self.unshare_pages(addr, 8);
        self.write_word(addr, bytes);
    }

    /// [`Machine::touch`] for a store on a machine that can share a page
    /// (it has a durable store): the access, then the hook on each page
    /// of it, whose bytes `store_*` changes next. After the access, not
    /// before it: its faults can write the page back, which shares it
    /// again. The hook runs also after an access the power died under,
    /// since its store still writes. A call of its own, so that the
    /// demand path of every other access runs the code it ran without
    /// the hook.
    #[inline(never)]
    pub(super) fn touch_then_unshare(&mut self, addr: u64, len: u64) -> Result<u64, OsError> {
        let faults = self.try_touch(addr, len, true);
        self.unshare_pages(addr, len);
        faults
    }

    fn unshare_pages(&mut self, addr: u64, len: u64) {
        for vpage in self.page_of(addr)..=self.page_of(addr + len.max(1) - 1) {
            self.unshare(vpage);
        }
    }

    #[cold]
    #[inline(never)]
    fn copy_shared_write(&mut self, vpage: u64) {
        self.pages[vpage as usize].flags &= !Page::SHARED;
        let dur = &mut self.durability;
        let copy = dur.copy_page(&self.data, vpage, self.params.page_bytes);
        let mut writes = dur.pending.iter_mut().rev();
        let w = writes.find(|w| w.vpage == vpage && w.copy.is_none());
        w.expect("a shared page has a write in flight that carries it")
            .copy = Some(copy);
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
    fn writeback_journaled(&mut self, vpage: u64, disk: usize, block: u64) {
        let slot = loop {
            let j = self.durability.journal.as_mut();
            match j.expect("journaled writeback").rings.reserve(disk) {
                Some(slot) => break slot,
                None => self.force_retire_oldest(disk),
            }
        };
        self.stats.journal_appends += 1;
        let issue = |m: &mut Self, b: u64| {
            m.retry_ladder(disk, Request::new(ReqKind::Write, b, 1), 1, vpage)
                .ok()
        };
        let blocks = [slot.desc_block, slot.payload_block, block, slot.desc_block];
        let [desc, pay, data, commit] = blocks.map(|b| issue(self, b));
        let slot = (disk, slot.seq);
        let tickets = [desc, pay, commit];
        self.queue_write(vpage, data, Some(Box::new(JournalWrite { slot, tickets })));
        if data.is_some() && tickets.iter().all(Option::is_some) {
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
    fn writeback_plain(&mut self, vpage: u64, disk: usize, block: u64) {
        match self.retry_ladder(disk, Request::new(ReqKind::Write, block, 1), 1, vpage) {
            Ok(data) => {
                self.note_writeback(vpage);
                self.queue_write(vpage, Some(data), None);
            }
            // Never accepted: the home block keeps the old image; the
            // update is simply lost.
            Err(OsError::Crashed { .. }) => self.durability.discard_at_crash(vpage),
            Err(_) => self.abandon_writeback(vpage),
        }
    }

    /// Queue a write that shares the page's image ([`DurableWrite`]). A
    /// page shares its bytes with one write at most: an older one still
    /// sharing them (the page was dirtied by an access whose store has
    /// not come yet) takes its copy now.
    fn queue_write(
        &mut self,
        vpage: u64,
        data: Option<Ticket>,
        journal: Option<Box<JournalWrite>>,
    ) {
        if self.pages[vpage as usize].has(Page::SHARED) {
            self.copy_shared_write(vpage);
        }
        self.pages[vpage as usize].flags |= Page::SHARED;
        let w = DurableWrite {
            vpage,
            copy: None,
            data,
            journal,
        };
        self.durability.pending.push_back(w);
    }

    /// A plain write lands when its disk write completes: land, from
    /// the front, every one that has. Issue order, so a page written
    /// twice ends with the later image and the parity XOR chain is the
    /// one a single pass at exit would have produced. A journaled write
    /// stays until its ring slot retires ([`Machine::force_retire_oldest`]).
    ///
    /// A write may land only once [`Machine::resolve_crash`] could no
    /// longer call it in flight (tear or discard it, spending a
    /// `crash_rng` draw): complete by `now`, and by `t` too when a crash
    /// is scheduled `AtTime(t)` — see `crash_at_time`.
    fn retire_landed(&mut self) {
        let by = self
            .now
            .min(self.durability.crash_at_time.unwrap_or(Ns::MAX));
        while let Some(w) = self.durability.pending.front() {
            let plain = w.data.filter(|_| w.journal.is_none());
            if plain.and_then(|t| self.disks.poll(t, by)).is_none() {
                break;
            }
            let w = self.durability.pending.pop_front().expect("just seen");
            self.land_write(w);
        }
    }

    /// Land a write whose disk writes are done: from its copy if the
    /// hook took one, and from the live page otherwise, which from here
    /// on carries no write; a data write the disks refused lands
    /// nothing. A journaled write's record, committed, takes its ring
    /// slot (with the copy as its payload), and the slot retires. Each
    /// write retires into its slot this way, and that slot is the
    /// record a recovery scan or the scrubber reads until a later
    /// record on the disk takes it: the journal keeps what its rings
    /// hold, not the run's history.
    fn land_write(&mut self, w: DurableWrite) {
        if w.copy.is_none() {
            self.pages[w.vpage as usize].flags &= !Page::SHARED;
        }
        if w.data.is_some() {
            self.land_durable(w.vpage, w.copy.as_deref());
        }
        let live = live_page(&self.data, w.vpage, self.params.page_bytes);
        let dur = &mut self.durability;
        match (w.slot(), &mut dur.journal) {
            (Some((disk, seq)), Some(j)) => {
                j.seal(w, live, true);
                j.rings.retire(disk, seq);
            }
            _ => dur.spare_payloads.extend(w.copy),
        }
    }

    /// Land a page image — `copy`, or the live page when `None` — in
    /// the durable store, first folding the change into its stripe
    /// row's parity content (the XOR identity `parity ^= old ^ new`
    /// needs the *old* durable image, so the order matters).
    ///
    /// A copy lands as the store's own bytes, the live page as itself —
    /// unless it is dirty again: after the snapshot, a `DIRTY` page has
    /// its own durable copy.
    fn land_durable(&mut self, vpage: u64, copy: Option<&[u8]>) {
        let live = &self.data;
        let payload = copy.unwrap_or_else(|| live_page(live, vpage, self.params.page_bytes));
        let d = self.durability.store.as_mut().expect("a store");
        if let Some(ps) = &mut self.redundancy.parity {
            if let (Ok(row), true) = (self.fs.row_of(self.swap, vpage), ps.is_synced()) {
                ps.update(row, d.page(vpage, live), payload);
            }
        }
        let dirty = self.pages[vpage as usize].has(Page::DIRTY);
        if copy.is_some() || dirty {
            d.write_page(vpage, payload, live);
        } else {
            d.share(vpage, live);
        }
        debug_assert!(!dirty || d.holds(vpage), "a dirty page keeps its copy");
        self.note_landing();
    }

    /// A durable landing; tests check the store's footprint here.
    #[cfg(not(test))]
    #[inline(always)]
    fn note_landing(&self) {}

    /// Synchronously make the oldest journal record on `disk` durable
    /// and reclaim its slot (the ring is full).
    fn force_retire_oldest(&mut self, disk: usize) {
        let dur = &mut self.durability;
        let journal = dur.journal.as_ref().expect("journaled writeback");
        let oldest = Some((disk, journal.rings.oldest_live(disk).expect("a full ring")));
        let at = dur.pending.iter().position(|w| w.slot() == oldest);
        let at = at.expect("the oldest record of a ring is in flight");
        let w = dur.pending.remove(at).expect("just found");
        let done = w.tickets().into_iter().flatten();
        let done = done.map(|t| self.disks.wait_for(t).at).max();
        self.stall_until(done.unwrap_or(self.now));
        self.stats.journal_stalls += 1;
        self.land_write(w);
    }

    /// `try_finish` on a machine whose power is out: resolve the crash,
    /// and report every page dirty at it, which never made it to disk.
    pub(super) fn finish_crashed(&mut self) {
        self.resolve_crash();
        for vpage in 0..self.total_pages() {
            if self.pages[vpage as usize].has(Page::DIRTY) {
                self.durability.flush_failures.insert(vpage);
            }
        }
    }

    /// Power stayed on to the end: every accepted durable write still
    /// in flight lands in full. Apply them to the durable store in
    /// issue order and retire their journal slots (into the rings'
    /// records, [`Machine::land_write`]).
    pub(super) fn settle_pending_durable(&mut self, drain: Ns) {
        while let Some(w) = self.durability.pending.pop_front() {
            for t in w.tickets().into_iter().flatten() {
                let _ = self.disks.poll(t, drain);
            }
            self.land_write(w);
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
        let mut poll = |t: Option<Ticket>| -> Ns {
            t.and_then(|t| self.disks.poll(t, drain))
                .map_or(Ns::MAX, |c| c.at)
        };
        for w in std::mem::take(&mut self.durability.pending) {
            let [desc, pay, data, commit] = w.tickets().map(&mut poll);
            // A bare write has no intent record to seal.
            let sealed_eff = if w.journal.is_some() {
                desc.max(pay)
            } else {
                0
            };
            let applied_eff = data.max(sealed_eff);
            let committed_eff = commit.max(applied_eff);
            if w.copy.is_none() {
                self.pages[w.vpage as usize].flags &= !Page::SHARED;
            }
            let dur = &mut self.durability;
            if sealed_eff > t_crash {
                // Intent never sealed: the barrier kept the home block's
                // old image intact. The update is simply lost.
                dur.discard_at_crash(w.vpage);
                continue;
            }
            let live = live_page(&self.data, w.vpage, self.params.page_bytes);
            let payload = w.copy.as_deref().unwrap_or(live);
            let landed = dur.land_or_tear(w.vpage, payload, applied_eff <= t_crash, &self.data);
            match (w.slot(), &mut dur.journal) {
                // Landed before the lights went out, or torn mid-air.
                // Either way the sealed record is what a recovery scan
                // of the rings will find.
                (Some(_), Some(j)) => j.seal(w, live, committed_eff <= t_crash),
                _ if !landed => dur.discard_at_crash(w.vpage),
                _ => {}
            }
        }
    }

    /// Recover from a simulated power loss: scan the journal rings,
    /// replay committed-but-unapplied intents, discard torn and
    /// uncommitted updates (falling back to the last durable version),
    /// verify every page's stored checksum, resync the residency bit
    /// vector, and hand back a clean machine whose memory image is
    /// exactly the durable state: the crashed machine's live image with
    /// the store's copies written over it. Consumes the crashed machine.
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
        let journal = self.durability.journal.take();
        let records = journal.map_or_else(Vec::new, Journal::scan);
        let discarded = std::mem::take(&mut self.durability.crash_discarded);
        let total = self.total_pages();
        let mut report = RecoveryReport {
            crashed_at: t_crash,
            scanned_records: records.len() as u64,
            pages_discarded: discarded.len() as u64,
            ..RecoveryReport::default()
        };

        // A fresh machine: same geometry, same (deterministic) swap
        // layout, clock restarted at zero — the reboot.
        let mut m = Machine::try_new(self.params, total * self.params.page_bytes)
            .expect("the crashed machine's geometry was valid");
        std::mem::swap(&mut m.data, &mut self.data);
        m.open_journal();

        // Phase 1: sequential scan of every journal ring (one read per
        // disk covering the whole ring extent).
        if let Some(j) = &m.durability.journal {
            let mut done = 0;
            for d in 0..m.fs.ndisks() {
                let ext = j.rings.extent(d);
                let scan = Request::new(ReqKind::DemandRead, ext.start, ext.len);
                if let Ok(t) = m.disks.admit(d, m.now, scan, 1) {
                    done = done.max(m.disks.wait_for(t).at);
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
        for rec in &records {
            let torn = !durable.verify(rec.vpage, &m.data);
            report.torn_detected += torn as u64;
            if !rec.committed || torn {
                durable.write_page(rec.vpage, &rec.payload, &m.data);
                report.pages_replayed += 1;
                if let Ok((disk, block)) = m.fs.place(m.swap, rec.vpage) {
                    let replay = Request::new(ReqKind::Write, block, 1);
                    if let Ok(t) = m.disks.admit(disk, m.now, replay, 1) {
                        replay_done = replay_done.max(m.disks.wait_for(t).at);
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
            let scan = Request::new(ReqKind::DemandRead, block, nblocks);
            if let Ok(t) = m.disks.admit(disk, m.now, scan, 1) {
                scan_done = scan_done.max(m.disks.wait_for(t).at);
            }
        }
        m.stall_until(scan_done);
        for vpage in 0..total {
            if durable.verify(vpage, &m.data) {
                continue;
            }
            report.torn_detected += 1;
            // The last record the rings hold for this page, if any.
            if let Some(rec) = records.iter().rev().find(|r| r.vpage == vpage) {
                durable.write_page(vpage, &rec.payload, &m.data);
                report.pages_replayed += 1;
            } else {
                report.unrecoverable += 1;
                report.unrecoverable_pages.push(vpage);
            }
        }

        // Adopt the durable image as the reborn machine's memory state.
        durable.adopt(&mut m.data);
        m.resync_bits();
        report.recovery_ns = m.now();
        m.stats.recovery_pages_replayed = report.pages_replayed;
        m.stats.recovery_pages_discarded = report.pages_discarded;
        m.stats.recovery_torn_detected = report.torn_detected;
        m.stats.recovery_unrecoverable = report.unrecoverable;
        m.stats.recovery_ns = report.recovery_ns;
        // Parity is re-derived wholesale from the recovered durable
        // image (replay may have changed any subset of rows, and a
        // crash mid-rebuild leaves no trustworthy incremental state).
        // The reboot replaced the hardware, so the array is whole.
        if let Some(ps) = &mut m.redundancy.parity {
            let k = m.fs.ndisks() as u64 - 1;
            ps.resync(k, total, |p| durable.page(p, &m.data));
        }
        // The recovered machine keeps durability tracking (it has a
        // durable store with a settled baseline) but no scheduled
        // crash: the re-run is an ordinary one, from empty rings.
        m.durability.store = Some(durable);
        (m, report)
    }

    /// Background scrubber: verify the stored checksums of up to
    /// `max_pages` cold (unmapped) pages against the durable store and
    /// repair any corruption from the last committed record the rings
    /// hold for the page. Returns `(verified, repaired)`. A no-op
    /// outside durability mode.
    pub fn scrub(&mut self, max_pages: u64) -> (u64, u64) {
        if self.durability.store.is_none() {
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
                let verify = Request::new(ReqKind::DemandRead, block, 1);
                let _ = self.disks.admit(disk, self.now, verify, 0);
            }
            verified += 1;
            let dur = &mut self.durability;
            let d = dur.store.as_mut().expect("checked above");
            if d.verify(vpage, &self.data) {
                continue;
            }
            let records = dur.journal.iter().flat_map(|j| j.records.iter().flatten());
            let committed = records.filter(|r| r.vpage == vpage && r.committed);
            if let Some(rec) = committed.max_by_key(|r| r.seq) {
                // Plain `write_page`, not `land_durable`: the current
                // image is corrupt, so it cannot serve as the parity
                // XOR's "old" term. Restoring the committed content
                // restores the parity invariant as a side effect.
                d.write_page(vpage, &rec.payload, &self.data);
                if let Ok((disk, block)) = self.fs.place(self.swap, vpage) {
                    let repair = Request::new(ReqKind::Write, block, 1);
                    let _ = self.disks.admit(disk, self.now, repair, 0);
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
        let store = self.durability.store.as_mut();
        store.map(|d| d.corrupt(vpage, &self.data)).is_some()
    }
}

#[cfg(test)]
thread_local! {
    /// While a test on this thread watches the durable store's copies
    /// (`Some`), the most it held at a landing.
    pub(super) static COPIES_PEAK: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
    /// While a test on this thread watches a journaled machine's page
    /// buffers (`Some`), the most it held at a landing, ring records
    /// included.
    pub(super) static JOURNALED_PEAK: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

#[cfg(test)]
impl Machine {
    /// At every landing, while this thread's test watches: the durable
    /// store holds no more copies than there are resident dirty pages
    /// plus writes in flight, and a journaled machine's page buffers and
    /// ring records are no more than its ring slots plus writes in
    /// flight.
    fn note_landing(&self) {
        let dur = &self.durability;
        let in_flight = dur.pending.len();
        if let Some(peak) = COPIES_PEAK.get() {
            let copies = dur.store.as_ref().map_or(0, DurableStore::copies);
            let dirty = self.pages.iter().filter(|p| p.has(Page::DIRTY)).count();
            assert!(
                copies <= dirty + in_flight,
                "{copies} durable copies, {dirty} dirty pages, {in_flight} writes in flight"
            );
            COPIES_PEAK.set(Some(peak.max(copies)));
        }
        if let (Some(peak), Some(j)) = (JOURNALED_PEAK.get(), &dur.journal) {
            let records = j.records.iter().flatten().count();
            let held = dur.payload_buffers() + records;
            assert!(
                held <= j.records.len() + in_flight,
                "{held} page buffers ({records} ring records), {} ring slots, {in_flight} writes \
                 in flight",
                j.records.len()
            );
            JOURNALED_PEAK.set(Some(peak.max(held)));
        }
    }
}

#[cfg(test)]
impl Durability {
    /// Page copies the write-back path holds: one per write in flight
    /// the hook unshared, plus the spares kept for the next ones.
    pub(super) fn payload_buffers(&self) -> usize {
        let copies = self.pending.iter().filter(|w| w.copy.is_some());
        copies.count() + self.spare_payloads.len()
    }

    /// What crash resolution decided: the updates it discarded, in
    /// order, and where it left the torn-write stream (its next draw).
    pub(super) fn crash_verdict(&mut self) -> (Vec<u64>, Option<u64>) {
        let next_draw = self.crash_rng.as_mut().map(|r| r.next_below(u64::MAX));
        (self.crash_discarded.clone(), next_draw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocp_fs::FileSystem;

    #[test]
    fn a_scan_finds_each_disks_records_in_the_order_they_were_sealed() {
        // Two slots a disk. On disk 0 record 2 takes record 0's slot, and
        // record 3, never sealed, leaves record 1 in the other.
        let mut fs = FileSystem::new(2, 1000);
        let rings = WriteJournal::create(&mut fs, 4).unwrap();
        let records = (0..4).map(|_| None).collect();
        let mut j = Journal { rings, records };
        for (disk, seq, vpage) in [(0, 0, 10), (1, 0, 11), (0, 1, 12), (0, 2, 14), (1, 1, 13)] {
            let journal = Some(Box::new(JournalWrite {
                slot: (disk, seq),
                tickets: [None; 3],
            }));
            let w = DurableWrite {
                vpage,
                copy: None,
                data: None,
                journal,
            };
            j.seal(w, &[vpage as u8; 8], true);
        }
        let found: Vec<u64> = j.scan().iter().map(|r| r.vpage).collect();
        assert_eq!(found, [11, 12, 13, 14]);
    }
}
