//! The parity content model: what is on the rotating parity blocks.
//!
//! With `--redundancy parity` every stripe row of width `ndisks`
//! carries one XOR parity block (layout in `oocp_fs`). This store
//! holds the *content* of those blocks the way [`DurableStore`] holds
//! the data pages': one image per stripe row, equal at all times to
//! the XOR of the row's durable data pages. It is synchronized from
//! the durable snapshot (read through the store's view of the live
//! image), updated incrementally whenever a durable data page lands
//! (`new_parity = old_parity ^ old_page ^ new_page`), and fully
//! resynchronized by crash recovery — the same resync a real RAID
//! array performs after an unclean shutdown.
//!
//! The invariant `parity_row == XOR(row's durable pages)` is exactly
//! what degraded reads and the rebuild scrubber rely on; the
//! [`ParityStore::corrupt_row`] debug hook breaks it on purpose so the
//! CI negative gate can prove the rebuild verify sweep has teeth.
//!
//! [`DurableStore`]: crate::store::DurableStore

use crate::image::Image;

/// XOR images of every stripe row's parity block.
pub struct ParityStore {
    page_bytes: u64,
    rows: u64,
    /// Empty until the first resync (lazily, like the durable snapshot),
    /// which takes the rows from the thread's image pool and fills them.
    image: Image,
}

impl ParityStore {
    /// A store for `rows` stripe rows. It holds no image until the
    /// first [`ParityStore::resync`], and no row may be read or updated
    /// before that.
    pub fn new(rows: u64, page_bytes: u64) -> Self {
        Self {
            page_bytes,
            rows,
            image: Image::default(),
        }
    }

    /// Number of stripe rows covered.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Whether the initial resync has happened.
    pub fn is_synced(&self) -> bool {
        !self.image.is_empty()
    }

    fn range(&self, row: u64) -> std::ops::Range<usize> {
        let start = (row * self.page_bytes) as usize;
        start..start + self.page_bytes as usize
    }

    /// The parity image of one stripe row.
    pub fn row(&self, row: u64) -> &[u8] {
        &self.image[self.range(row)]
    }

    /// Recompute every row from the durable data images, `page(p)`
    /// being page `p`'s: row `r` is the XOR of pages
    /// `r*k .. min((r+1)*k, total_pages)` where `k = ndisks - 1` data
    /// pages per row. Short final rows XOR only the pages that exist
    /// (missing lanes contribute zero).
    pub fn resync<'a>(&mut self, k: u64, total_pages: u64, page: impl Fn(u64) -> &'a [u8]) {
        if self.image.is_empty() {
            self.image = Image::scratch((self.rows * self.page_bytes) as usize);
        }
        self.image.fill(0);
        for p in 0..total_pages {
            let row = self.range(p / k);
            for (dst, src) in self.image[row].iter_mut().zip(page(p)) {
                *dst ^= src;
            }
        }
    }

    /// Fold one durable data-page landing into its row's parity:
    /// `parity ^= old_image ^ new_image`. This is the RAID-5
    /// read-modify-write shortcut — no other lane of the row needs to
    /// be touched.
    pub fn update(&mut self, row: u64, old: &[u8], new: &[u8]) {
        let r = self.range(row);
        for ((dst, o), n) in self.image[r].iter_mut().zip(old).zip(new) {
            *dst ^= o ^ n;
        }
    }

    /// Reconstruct one lost data page of `row` by XOR-ing the row's
    /// parity with every *other* durable data page of the row — what a
    /// degraded read or the rebuild scrubber computes from the
    /// survivors, `page(p)` being page `p`'s durable image. `pages` is
    /// the row's data-page range from the fs layout; `lost` must be
    /// inside it.
    pub fn reconstruct<'a>(
        &self,
        row: u64,
        pages: std::ops::Range<u64>,
        lost: u64,
        page: impl Fn(u64) -> &'a [u8],
    ) -> Vec<u8> {
        debug_assert!(pages.contains(&lost));
        let mut out = self.row(row).to_vec();
        for p in pages.filter(|&p| p != lost) {
            for (dst, src) in out.iter_mut().zip(page(p)) {
                *dst ^= src;
            }
        }
        out
    }

    /// Flip bits in one row's parity image — latent parity corruption,
    /// the debug hook behind the CI negative gate proving the rebuild
    /// verify sweep catches what it claims to.
    pub fn corrupt_row(&mut self, row: u64) {
        let r = self.range(row);
        self.image[r.start] ^= 0xFF;
        self.image[r.start + 1] ^= 0xA5;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::page_checksum;

    fn page(fill: u8, pb: usize) -> Vec<u8> {
        vec![fill; pb]
    }

    /// Page `p` of the flat image `data`.
    fn of<'a>(data: &'a [u8], pb: u64) -> impl Fn(u64) -> &'a [u8] {
        move |p| &data[(p * pb) as usize..][..pb as usize]
    }

    #[test]
    fn resync_then_reconstruct_roundtrips() {
        let pb = 512u64;
        // 5 pages over k = 3 lanes -> 2 rows, the second short.
        let mut data = Vec::new();
        for f in [1u8, 2, 4, 8, 16] {
            data.extend(page(f, pb as usize));
        }
        let mut ps = ParityStore::new(2, pb);
        assert!(!ps.is_synced());
        ps.resync(3, 5, of(&data, pb));
        assert!(ps.is_synced());
        assert_eq!(ps.row(0)[0], 1 ^ 2 ^ 4);
        assert_eq!(ps.row(1)[0], 8 ^ 16);
        // Any single lost page of a row comes back by XOR.
        for lost in 0..5u64 {
            let row = lost / 3;
            let pages = row * 3..5.min((row + 1) * 3);
            let rec = ps.reconstruct(row, pages, lost, of(&data, pb));
            assert_eq!(
                rec,
                data[(lost * pb) as usize..][..pb as usize].to_vec(),
                "page {lost}"
            );
        }
    }

    #[test]
    fn incremental_update_matches_full_resync() {
        let pb = 512u64;
        let mut data = Vec::new();
        for f in [3u8, 5, 7, 9] {
            data.extend(page(f, pb as usize));
        }
        let mut ps = ParityStore::new(2, pb);
        ps.resync(2, 4, of(&data, pb));
        // Land a new image on page 1 and fold it in incrementally.
        let newp = page(0x55, pb as usize);
        ps.update(0, &page(5, pb as usize), &newp);
        data[(pb as usize)..2 * pb as usize].copy_from_slice(&newp);
        let mut fresh = ParityStore::new(2, pb);
        fresh.resync(2, 4, of(&data, pb));
        assert_eq!(ps.row(0), fresh.row(0));
        assert_eq!(ps.row(1), fresh.row(1));
    }

    #[test]
    fn corruption_hook_breaks_reconstruction() {
        let pb = 512u64;
        let data: Vec<u8> = [1u8, 2, 4]
            .iter()
            .flat_map(|&f| page(f, pb as usize))
            .collect();
        let mut ps = ParityStore::new(1, pb);
        ps.resync(3, 3, of(&data, pb));
        let good = ps.reconstruct(0, 0..3, 0, of(&data, pb));
        assert_eq!(good[0], 1);
        ps.corrupt_row(0);
        let bad = ps.reconstruct(0, 0..3, 0, of(&data, pb));
        assert_ne!(good, bad);
        assert_ne!(page_checksum(&good), page_checksum(&bad));
    }
}
