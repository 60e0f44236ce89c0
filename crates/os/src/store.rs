//! The durable page store: what is actually *on the platters*.
//!
//! The machine's `data` vector is the live in-memory image of the
//! address space; fault-free runs treat it as authoritative and never
//! model on-disk bytes separately. Crash simulation needs the
//! distinction: after a power loss, only what had durably landed
//! survives. [`DurableStore`] holds that distinction, updated exactly
//! when the crash model decides a write landed (fully or torn), without
//! a second image: only a page whose durable image differs from its
//! live page has bytes of its own in the store.
//!
//! Every persisted page carries a 64-bit checksum "stored with the
//! sector metadata" ([`page_checksum`]: FNV-1a's step taken a word at a
//! time). A torn write lands a sector prefix of the new image while
//! keeping the *old* checksum, so corruption is detectable on read —
//! the hook both recovery and the background scrubber hang off.

/// Sector size of the torn-write model: a 4 KB page is eight 512-byte
/// sectors, and a torn write lands an arbitrary prefix of them.
pub const SECTOR_BYTES: u64 = 512;

/// The checksum persisted beside each page: FNV-1a's xor-then-multiply
/// step, fed one little-endian 64-bit word at a time (a byte at a time
/// over a tail shorter than a word) instead of one byte — an eighth of
/// the multiplies, which are a serial dependency chain — with the high
/// half folded down after each. The fold is what the wider step needs:
/// a multiply only ever carries a bit upward, so without it a flipped
/// sign bit would stay a flipped bit 63 to the end and a second one
/// would cancel it.
///
/// Every step is a bijection of the running value and of the word, so
/// two images that differ in exactly one word never collide. The value
/// is only ever compared with another one computed here; nothing
/// prints or stores it outside the run.
pub fn page_checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let step = |h: u64, w: u64| {
        let h = (h ^ w).wrapping_mul(PRIME);
        h ^ (h >> 32)
    };
    let mut words = bytes.chunks_exact(8);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in &mut words {
        h = step(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    for &b in words.remainder() {
        h = step(h, b as u64);
    }
    h
}

/// `slots` entry of a page whose durable image is its live page.
const SHARED: u32 = u32::MAX;

/// The store's copies are taken this many pages at a time and reused
/// once given back: no allocation per page.
const CHUNK_PAGES: u32 = 64;

/// Durable (on-media) image of the whole address space, as a view of
/// the live image: after the snapshot a page's durable image is its
/// live page (*shared*) until [`DurableStore::unshare`], called before
/// the live page changes, gives it a copy of its own (*diverged*).
#[derive(Default)]
pub struct DurableStore {
    page_bytes: u64,
    /// One per page once the snapshot is taken; empty before.
    checksums: Vec<u64>,
    /// Per page, [`SHARED`] or the slot of its copy in `chunks`.
    slots: Vec<u32>,
    chunks: Vec<Box<[u8]>>,
    /// The slots of `chunks` that hold no copy.
    free: Vec<u32>,
}

impl DurableStore {
    /// A store for `total_pages` pages. It holds nothing until
    /// [`DurableStore::ensure_snapshot`], and nothing may be read or
    /// written before that.
    pub fn new(total_pages: u64, page_bytes: u64) -> Self {
        Self {
            page_bytes,
            slots: vec![SHARED; total_pages as usize],
            ..Self::default()
        }
    }

    /// Adopt `live` as the durable baseline, once, every page shared.
    /// Called on the first timed access so everything the workload's
    /// `init()` wrote untimed is treated as already on disk — the state
    /// a real system would have loaded the input from.
    pub fn ensure_snapshot(&mut self, live: &[u8]) {
        if self.checksums.is_empty() {
            let pages = live.chunks_exact(self.page_bytes as usize);
            self.checksums = pages.map(page_checksum).collect();
        }
    }

    /// The bytes of page `i` of an image (or of slot `i` of a chunk).
    fn range(&self, i: u64) -> std::ops::Range<usize> {
        let start = (i * self.page_bytes) as usize;
        start..start + self.page_bytes as usize
    }

    /// The durable image of one page: its copy, or its page of `live`.
    pub fn page<'a>(&'a self, vpage: u64, live: &'a [u8]) -> &'a [u8] {
        match self.slots[vpage as usize] {
            SHARED => &live[self.range(vpage)],
            s => &self.chunks[(s / CHUNK_PAGES) as usize][self.range((s % CHUNK_PAGES).into())],
        }
    }

    /// The copy-on-write hook, which hands out the store's own bytes of
    /// `vpage`: page `vpage` of `live` is about to change, so a shared
    /// page first takes a copy of it. Only after the snapshot.
    pub(crate) fn unshare(&mut self, vpage: u64, live: &[u8]) -> &mut [u8] {
        let shared = self.slots[vpage as usize] == SHARED;
        if shared {
            if self.free.is_empty() {
                let first = self.chunks.len() as u32 * CHUNK_PAGES;
                self.free.extend((first..first + CHUNK_PAGES).rev());
                let bytes = CHUNK_PAGES as usize * self.page_bytes as usize;
                self.chunks.push(vec![0; bytes].into());
            }
            self.slots[vpage as usize] = self.free.pop().expect("a free slot");
        }
        let s = self.slots[vpage as usize];
        let (r, at) = (self.range(vpage), self.range((s % CHUNK_PAGES).into()));
        let copy = &mut self.chunks[(s / CHUNK_PAGES) as usize][at];
        if shared {
            copy.copy_from_slice(&live[r]);
        }
        copy
    }

    /// Whether the snapshot has been taken.
    pub(crate) fn taken(&self) -> bool {
        !self.checksums.is_empty()
    }

    /// Whether the store holds its own image of `vpage`, or none yet.
    pub(crate) fn holds(&self, vpage: u64) -> bool {
        !self.taken() || self.slots[vpage as usize] != SHARED
    }

    /// The stored checksum of one page.
    pub fn stored_checksum(&self, vpage: u64) -> u64 {
        self.checksums[vpage as usize]
    }

    /// A full, atomic durable landing of a copy, with a fresh checksum.
    pub fn write_page(&mut self, vpage: u64, bytes: &[u8], live: &[u8]) {
        self.unshare(vpage, live).copy_from_slice(bytes);
        self.checksums[vpage as usize] = page_checksum(bytes);
    }

    /// A full, atomic landing of the live page itself: shared again.
    pub(crate) fn share(&mut self, vpage: u64, live: &[u8]) {
        let slot = std::mem::replace(&mut self.slots[vpage as usize], SHARED);
        self.free.extend((slot != SHARED).then_some(slot));
        self.checksums[vpage as usize] = page_checksum(&live[self.range(vpage)]);
    }

    /// A torn landing: the first `sectors` 512-byte sectors of `bytes`
    /// land over the old image, the rest keep their old content, and —
    /// crucially — the *old* stored checksum survives, so any partial
    /// landing (`1..sectors_per_page`) is detectable by verification.
    /// `sectors == 0` lands nothing; a full count degenerates to
    /// [`DurableStore::write_page`].
    pub fn tear_page(&mut self, vpage: u64, bytes: &[u8], sectors: u64, live: &[u8]) {
        let per_page = self.page_bytes / SECTOR_BYTES;
        if sectors == 0 {
            return;
        }
        if sectors >= per_page {
            self.write_page(vpage, bytes, live);
            return;
        }
        let torn = (sectors * SECTOR_BYTES) as usize;
        self.unshare(vpage, live)[..torn].copy_from_slice(&bytes[..torn]);
        // Old checksum kept: now inconsistent with the image.
    }

    /// Whether the stored checksum matches the current image.
    pub fn verify(&self, vpage: u64, live: &[u8]) -> bool {
        page_checksum(self.page(vpage, live)) == self.checksums[vpage as usize]
    }

    /// Flip bits in a durable page without touching its checksum —
    /// latent media corruption, for scrubber tests.
    pub fn corrupt(&mut self, vpage: u64, live: &[u8]) {
        let page = self.unshare(vpage, live);
        page[0] ^= 0xFF;
        page[1] ^= 0xA5;
    }

    /// Make `live` the durable image (recovery's reboot): each copy is
    /// written over its live page and given back; every page is shared.
    pub(crate) fn adopt(&mut self, live: &mut [u8]) {
        for vpage in 0..self.slots.len() as u64 {
            if self.slots[vpage as usize] != SHARED {
                let r = self.range(vpage);
                live[r].copy_from_slice(self.page(vpage, &[]));
                self.free
                    .push(std::mem::replace(&mut self.slots[vpage as usize], SHARED));
            }
        }
    }
}

#[cfg(test)]
impl DurableStore {
    /// Pages the store holds a copy of: the diverged ones.
    pub(crate) fn copies(&self) -> usize {
        self.chunks.len() * CHUNK_PAGES as usize - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ZERO: [u8; 4096] = [0; 4096];

    /// A one-page store whose baseline is a zero page.
    fn zero_page() -> DurableStore {
        let mut s = DurableStore::new(1, 4096);
        s.ensure_snapshot(&ZERO);
        s
    }

    #[test]
    fn snapshot_is_taken_once() {
        let mut s = DurableStore::new(2, 4096);
        assert!(
            !s.taken() && s.holds(0),
            "nothing to share before the snapshot"
        );
        let mut data = vec![7u8; 2 * 4096];
        s.ensure_snapshot(&data);
        assert!(s.taken() && !s.holds(0), "the store shares every live page");
        assert_eq!(s.page(0, &data)[0], 7);
        assert!(s.verify(0, &data) && s.verify(1, &data));
        s.unshare(0, &data);
        data[0] = 9;
        s.ensure_snapshot(&data);
        assert_eq!(s.page(0, &data)[0], 7, "second snapshot is a no-op");
        assert!(s.verify(0, &data) && !s.verify(1, &[9; 2 * 4096]));
    }

    #[test]
    fn full_write_verifies_and_partial_tear_does_not() {
        let mut s = zero_page();
        let new = vec![0xABu8; 4096];
        s.write_page(0, &new, &ZERO);
        assert!(s.verify(0, &ZERO));
        let newer = vec![0xCDu8; 4096];
        s.tear_page(0, &newer, 3, &ZERO);
        assert!(
            !s.verify(0, &ZERO),
            "torn page must fail its stored checksum"
        );
        assert_eq!(s.page(0, &ZERO)[3 * 512 - 1], 0xCD);
        assert_eq!(s.page(0, &ZERO)[3 * 512], 0xAB, "tail keeps old image");
        // A zero-sector tear lands nothing; a full tear is atomic.
        let mut s = zero_page();
        s.write_page(0, &new, &ZERO);
        s.tear_page(0, &newer, 0, &ZERO);
        assert!(s.verify(0, &ZERO) && s.page(0, &ZERO)[0] == 0xAB);
        s.tear_page(0, &newer, 8, &ZERO);
        assert!(s.verify(0, &ZERO) && s.page(0, &ZERO)[0] == 0xCD);
        // A tear of a shared page tears a copy of it, not the live page.
        let (mut s, live) = (zero_page(), vec![0x11u8; 4096]);
        s.share(0, &live);
        s.tear_page(0, &newer, 1, &live);
        assert_eq!((s.page(0, &live)[511], s.page(0, &live)[512]), (0xCD, 0x11));
        assert_eq!((live[0], s.copies()), (0x11, 1));
    }

    #[test]
    fn copies_are_taken_before_a_change_and_given_back_by_a_live_landing() {
        let mut live = vec![0u8; 3 * 4096];
        let mut s = DurableStore::new(3, 4096);
        s.ensure_snapshot(&live);
        // Pages 0 and 2 change after their hooks: the store keeps the
        // old images.
        for p in [0, 2] {
            s.unshare(p, &live);
            s.unshare(p, &live);
            live[p as usize * 4096] = 1 + p as u8;
        }
        assert_eq!(s.copies(), 2, "one copy per diverged page");
        assert!(s.page(0, &live)[0] == 0 && s.page(2, &live)[0] == 0);
        assert_eq!(s.page(1, &live).as_ptr(), live[4096..].as_ptr(), "shared");
        // Page 0's new image lands from the live page: the copy goes,
        // and its slot serves the next page that diverges.
        let slot = s.page(0, &live).as_ptr();
        s.share(0, &live);
        assert!(s.verify(0, &live) && !s.holds(0) && s.copies() == 1);
        s.unshare(1, &live);
        assert_eq!((s.copies(), s.page(1, &live).as_ptr()), (2, slot));
        // Recovery writes the copies over the live image and shares all.
        s.corrupt(1, &live);
        s.adopt(&mut live);
        assert_eq!((live[0], live[4096], live[2 * 4096]), (1, 0xFF, 0));
        assert_eq!(s.copies(), 0);
        assert!(s.verify(0, &live) && !s.verify(1, &live) && s.verify(2, &live));
    }

    #[test]
    fn checksum_sees_every_word_and_high_bits_do_not_cancel() {
        let base: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
        let sum = page_checksum(&base);
        // Any single changed word (here: one bit of each, high and low).
        for word in 0..512 {
            for bit in [0usize, 63] {
                let mut page = base.clone();
                page[word * 8 + bit / 8] ^= 1 << (bit % 8);
                assert_ne!(page_checksum(&page), sum, "word {word} bit {bit}");
            }
        }
        // Two sign-bit flips: a word-wide xor-multiply without the fold
        // carries each to the end as a flipped bit 63, and they cancel.
        let mut page = base.clone();
        page[7] ^= 0x80;
        page[4095] ^= 0x80;
        assert_ne!(page_checksum(&page), sum);
        // A tail shorter than a word still counts.
        assert_ne!(page_checksum(&base[..4091]), page_checksum(&base[..4090]));
    }

    #[test]
    fn corruption_hook_breaks_verification() {
        let mut s = zero_page();
        assert!(s.verify(0, &ZERO));
        s.corrupt(0, &ZERO);
        assert!(!s.verify(0, &ZERO), "the copy is corrupt");
        assert_eq!(ZERO[0], 0, "the live page is not");
    }
}
