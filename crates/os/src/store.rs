//! The durable page store: what is actually *on the platters*.
//!
//! The machine's `data` vector is the live in-memory image of the
//! address space; fault-free runs treat it as authoritative and never
//! model on-disk bytes separately. Crash simulation needs the
//! distinction: after a power loss, only what had durably landed
//! survives. [`DurableStore`] holds that second copy — one page image
//! plus one stored checksum per page — updated exactly when the crash
//! model decides a write landed (fully or torn).
//!
//! Every persisted page carries a 64-bit checksum "stored with the
//! sector metadata" ([`page_checksum`]: FNV-1a's step taken a word at a
//! time). A torn write lands a sector prefix of the new
//! image while keeping the *old* checksum, so corruption is detectable
//! on read — the hook both recovery and the background scrubber hang
//! off.

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

/// Durable (on-media) image of the whole address space.
pub struct DurableStore {
    page_bytes: u64,
    images: Vec<u8>,
    checksums: Vec<u64>,
    /// Whether the initial-state snapshot has been taken (lazily, at
    /// the first timed access, so workload `init()` pokes count as the
    /// pre-existing on-disk data set).
    snapshotted: bool,
}

impl DurableStore {
    /// An all-zero store for `total_pages` pages (matching a fresh
    /// machine's zeroed backing file).
    pub fn new(total_pages: u64, page_bytes: u64) -> Self {
        let zero_sum = page_checksum(&vec![0u8; page_bytes as usize]);
        Self {
            page_bytes,
            images: vec![0u8; (total_pages * page_bytes) as usize],
            checksums: vec![zero_sum; total_pages as usize],
            snapshotted: false,
        }
    }

    /// Number of pages in the store.
    pub fn total_pages(&self) -> u64 {
        self.checksums.len() as u64
    }

    /// Adopt `data` as the durable baseline, once. Called on the first
    /// timed access so everything the workload's `init()` wrote
    /// untimed is treated as already on disk — the state a real system
    /// would have loaded the input from.
    pub fn ensure_snapshot(&mut self, data: &[u8]) {
        if self.snapshotted {
            return;
        }
        self.snapshotted = true;
        self.images.copy_from_slice(data);
        for p in 0..self.total_pages() {
            self.checksums[p as usize] = page_checksum(self.page(p));
        }
    }

    fn range(&self, vpage: u64) -> std::ops::Range<usize> {
        let start = (vpage * self.page_bytes) as usize;
        start..start + self.page_bytes as usize
    }

    /// The durable image of one page.
    pub fn page(&self, vpage: u64) -> &[u8] {
        &self.images[self.range(vpage)]
    }

    /// The stored checksum of one page.
    pub fn stored_checksum(&self, vpage: u64) -> u64 {
        self.checksums[vpage as usize]
    }

    /// A full, atomic durable landing: new image plus fresh checksum.
    pub fn write_page(&mut self, vpage: u64, bytes: &[u8]) {
        let r = self.range(vpage);
        self.images[r].copy_from_slice(bytes);
        self.checksums[vpage as usize] = page_checksum(bytes);
    }

    /// A torn landing: the first `sectors` 512-byte sectors of `bytes`
    /// land over the old image, the rest keep their old content, and —
    /// crucially — the *old* stored checksum survives, so any partial
    /// landing (`1..sectors_per_page`) is detectable by verification.
    /// `sectors == 0` lands nothing; a full count degenerates to
    /// [`DurableStore::write_page`].
    pub fn tear_page(&mut self, vpage: u64, bytes: &[u8], sectors: u64) {
        let per_page = self.page_bytes / SECTOR_BYTES;
        if sectors == 0 {
            return;
        }
        if sectors >= per_page {
            self.write_page(vpage, bytes);
            return;
        }
        let torn = (sectors * SECTOR_BYTES) as usize;
        let start = (vpage * self.page_bytes) as usize;
        self.images[start..start + torn].copy_from_slice(&bytes[..torn]);
        // Old checksum kept: now inconsistent with the image.
    }

    /// Whether the stored checksum matches the current image.
    pub fn verify(&self, vpage: u64) -> bool {
        page_checksum(self.page(vpage)) == self.checksums[vpage as usize]
    }

    /// Flip bits in a durable page without touching its checksum —
    /// latent media corruption, for scrubber tests.
    pub fn corrupt(&mut self, vpage: u64) {
        let r = self.range(vpage);
        self.images[r.start] ^= 0xFF;
        self.images[r.start + 1] ^= 0xA5;
    }

    /// Move the page images out (recovery hands them to the fresh
    /// machine as its in-memory data).
    pub fn images(&self) -> &[u8] {
        &self.images
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_taken_once() {
        let mut s = DurableStore::new(2, 4096);
        let mut data = vec![7u8; 2 * 4096];
        s.ensure_snapshot(&data);
        assert_eq!(s.page(0)[0], 7);
        assert!(s.verify(0) && s.verify(1));
        data[0] = 9;
        s.ensure_snapshot(&data);
        assert_eq!(s.page(0)[0], 7, "second snapshot is a no-op");
    }

    #[test]
    fn full_write_verifies_and_partial_tear_does_not() {
        let mut s = DurableStore::new(1, 4096);
        let new = vec![0xABu8; 4096];
        s.write_page(0, &new);
        assert!(s.verify(0));
        let newer = vec![0xCDu8; 4096];
        s.tear_page(0, &newer, 3);
        assert!(!s.verify(0), "torn page must fail its stored checksum");
        assert_eq!(s.page(0)[3 * 512 - 1], 0xCD);
        assert_eq!(s.page(0)[3 * 512], 0xAB, "tail keeps old image");
        // A zero-sector tear lands nothing; a full tear is atomic.
        let mut s = DurableStore::new(1, 4096);
        s.write_page(0, &new);
        s.tear_page(0, &newer, 0);
        assert!(s.verify(0) && s.page(0)[0] == 0xAB);
        s.tear_page(0, &newer, 8);
        assert!(s.verify(0) && s.page(0)[0] == 0xCD);
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
        let mut s = DurableStore::new(1, 4096);
        assert!(s.verify(0));
        s.corrupt(0);
        assert!(!s.verify(0));
    }
}
