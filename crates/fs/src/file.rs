//! Striped files: round-robin page placement over per-disk extents.

use std::fmt;

use crate::extent::{Extent, ExtentAllocator};

/// Handle to a file created by [`FileSystem::create_file`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// Error type for file-system operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsError {
    /// Not enough contiguous space on some disk for the file's stripe.
    NoSpace {
        /// Disk on which allocation failed.
        disk: usize,
        /// Blocks that were requested on that disk.
        needed: u64,
    },
    /// A file id that does not name a live file.
    BadFile(FileId),
    /// A page index at or past the end of the file.
    BadPage {
        /// Offending file.
        file: FileId,
        /// Offending page index.
        page: u64,
    },
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NoSpace { disk, needed } => {
                write!(f, "no contiguous space for {needed} blocks on disk {disk}")
            }
            FsError::BadFile(id) => write!(f, "no such file: {id:?}"),
            FsError::BadPage { file, page } => {
                write!(f, "page {page} out of range for {file:?}")
            }
        }
    }
}

impl std::error::Error for FsError {}

/// A run of file pages placed contiguously on one disk.
///
/// Produced by [`FileSystem::place_run`]; the OS turns each run into a
/// single multi-block disk request, which is how block prefetches engage
/// several disks at once while still paying one positioning cost per disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlacedRun {
    /// Disk holding the run.
    pub disk: usize,
    /// First disk block of the run.
    pub start_block: u64,
    /// Number of blocks (= file pages) in the run.
    pub nblocks: u64,
}

struct FileMeta {
    /// Per-disk extent backing this file's stripe. Plain files:
    /// `extents[d]` holds the pages `p` with `p % ndisks == d`, in
    /// order, contiguously. Parity files: every disk's extent is
    /// `rows` blocks long and holds one block per stripe row — a data
    /// page or that row's parity, per the rotating layout.
    extents: Vec<Extent>,
    pages: u64,
    /// Whether the file carries RAID-5-style rotating parity.
    parity: bool,
    live: bool,
}

/// The striped file system: one extent allocator per disk plus file
/// metadata.
///
/// Plain files: page `p` lives on disk `p % ndisks`, at block
/// `extent[d].start + p / ndisks`. This is HFS's round-robin striping
/// with extent-based per-disk layout.
///
/// Parity files ([`FileSystem::create_parity_file`]) use RAID-5-style
/// left-symmetric rotating parity instead: each stripe *row* `r` spans
/// one block on every disk and carries `ndisks - 1` data pages plus
/// one XOR parity block on disk `ndisks - 1 - (r % ndisks)`. Data page
/// `p` has row `r = p / (ndisks-1)` and offset `o = p % (ndisks-1)`,
/// and lives on disk `(parity_disk + 1 + o) % ndisks` at block
/// `extent.start + r`. Losing any single disk loses at most one block
/// per row — reconstructible by XOR-ing the row's survivors.
pub struct FileSystem {
    disks: Vec<ExtentAllocator>,
    files: Vec<FileMeta>,
}

impl FileSystem {
    /// Create a file system over `ndisks` disks of `blocks_per_disk` each.
    ///
    /// # Panics
    ///
    /// Panics if `ndisks` is zero.
    pub fn new(ndisks: usize, blocks_per_disk: u64) -> Self {
        assert!(ndisks > 0, "file system needs at least one disk");
        Self {
            disks: (0..ndisks)
                .map(|_| ExtentAllocator::new(blocks_per_disk))
                .collect(),
            files: Vec::new(),
        }
    }

    /// Number of disks the file system stripes over.
    pub fn ndisks(&self) -> usize {
        self.disks.len()
    }

    /// Free blocks remaining on disk `d`.
    pub fn free_blocks(&self, d: usize) -> u64 {
        self.disks[d].free_blocks()
    }

    /// Allocate a raw contiguous extent of `blocks` on disk `d`,
    /// outside any file. This is how the writeback journal claims its
    /// per-disk ring area: extent-allocated like data, so journal and
    /// data blocks share one address space and can never overlap.
    pub fn alloc_raw(&mut self, d: usize, blocks: u64) -> Result<Extent, FsError> {
        self.disks[d].alloc(blocks).ok_or(FsError::NoSpace {
            disk: d,
            needed: blocks,
        })
    }

    /// Create a file of `pages` pages, striped across all disks.
    ///
    /// All-or-nothing: on failure, any partial per-disk allocations are
    /// rolled back.
    pub fn create_file(&mut self, pages: u64) -> Result<FileId, FsError> {
        let n = self.disks.len() as u64;
        let mut extents = Vec::with_capacity(self.disks.len());
        for (d, alloc) in self.disks.iter_mut().enumerate() {
            // Disk d holds pages d, d+n, d+2n, ...: ceil((pages - d) / n)
            // of them when d < pages, none otherwise.
            let count = if (d as u64) < pages {
                (pages - d as u64).div_ceil(n)
            } else {
                0
            };
            if count == 0 {
                extents.push(Extent { start: 0, len: 0 });
                continue;
            }
            match alloc.alloc(count) {
                Some(e) => extents.push(e),
                None => {
                    // Roll back previous disks' allocations.
                    for (pd, pe) in extents.into_iter().enumerate() {
                        if pe.len > 0 {
                            self.disks[pd].free(pe);
                        }
                    }
                    return Err(FsError::NoSpace {
                        disk: d,
                        needed: count,
                    });
                }
            }
        }
        let id = FileId(self.files.len() as u32);
        self.files.push(FileMeta {
            extents,
            pages,
            parity: false,
            live: true,
        });
        Ok(id)
    }

    /// Create a file of `pages` pages with rotating parity: every
    /// stripe row of width `ndisks` carries `ndisks - 1` data pages
    /// plus one XOR parity block on a rotating disk. Each disk's
    /// extent is exactly `rows = ceil(pages / (ndisks - 1))` blocks.
    ///
    /// All-or-nothing like [`FileSystem::create_file`].
    ///
    /// # Panics
    ///
    /// Panics if the array has fewer than two disks: parity needs at
    /// least one survivor to reconstruct from.
    pub fn create_parity_file(&mut self, pages: u64) -> Result<FileId, FsError> {
        let n = self.disks.len() as u64;
        assert!(n >= 2, "rotating parity needs at least two disks");
        let rows = pages.div_ceil(n - 1);
        let mut extents = Vec::with_capacity(self.disks.len());
        for (d, alloc) in self.disks.iter_mut().enumerate() {
            if rows == 0 {
                extents.push(Extent { start: 0, len: 0 });
                continue;
            }
            match alloc.alloc(rows) {
                Some(e) => extents.push(e),
                None => {
                    for (pd, pe) in extents.into_iter().enumerate() {
                        if pe.len > 0 {
                            self.disks[pd].free(pe);
                        }
                    }
                    return Err(FsError::NoSpace {
                        disk: d,
                        needed: rows,
                    });
                }
            }
        }
        let id = FileId(self.files.len() as u32);
        self.files.push(FileMeta {
            extents,
            pages,
            parity: true,
            live: true,
        });
        Ok(id)
    }

    /// Delete a file, returning its blocks to the per-disk allocators.
    pub fn delete_file(&mut self, id: FileId) -> Result<(), FsError> {
        let meta = self
            .files
            .get_mut(id.0 as usize)
            .filter(|m| m.live)
            .ok_or(FsError::BadFile(id))?;
        meta.live = false;
        let extents = std::mem::take(&mut meta.extents);
        for (d, e) in extents.into_iter().enumerate() {
            if e.len > 0 {
                self.disks[d].free(e);
            }
        }
        Ok(())
    }

    /// Physical placement of one file page: `(disk, block)`.
    pub fn place(&self, id: FileId, page: u64) -> Result<(usize, u64), FsError> {
        let meta = self.meta(id)?;
        if page >= meta.pages {
            return Err(FsError::BadPage { file: id, page });
        }
        let n = self.disks.len() as u64;
        if meta.parity {
            let row = page / (n - 1);
            let o = page % (n - 1);
            let pd = n - 1 - (row % n);
            let d = ((pd + 1 + o) % n) as usize;
            return Ok((d, meta.extents[d].start + row));
        }
        let d = (page % n) as usize;
        let block = meta.extents[d].start + page / n;
        Ok((d, block))
    }

    /// Number of stripe rows in a parity file (zero for a plain file:
    /// plain rows have no parity and nothing to reconstruct).
    pub fn rows(&self, id: FileId) -> Result<u64, FsError> {
        let meta = self.meta(id)?;
        if !meta.parity {
            return Ok(0);
        }
        Ok(meta.pages.div_ceil(self.disks.len() as u64 - 1))
    }

    /// Stripe row of a data page in a parity file.
    pub fn row_of(&self, id: FileId, page: u64) -> Result<u64, FsError> {
        let meta = self.meta(id)?;
        debug_assert!(meta.parity, "row_of is only meaningful with parity");
        if page >= meta.pages {
            return Err(FsError::BadPage { file: id, page });
        }
        Ok(page / (self.disks.len() as u64 - 1))
    }

    /// The data pages of stripe row `row` of a parity file, in order.
    /// The final row may be short when `pages % (ndisks-1) != 0`.
    pub fn row_pages(&self, id: FileId, row: u64) -> Result<std::ops::Range<u64>, FsError> {
        let meta = self.meta(id)?;
        debug_assert!(meta.parity, "row_pages is only meaningful with parity");
        let k = self.disks.len() as u64 - 1;
        let first = row * k;
        if first >= meta.pages && meta.pages > 0 {
            return Err(FsError::BadPage {
                file: id,
                page: first,
            });
        }
        Ok(first..meta.pages.min(first + k))
    }

    /// Placement of stripe row `row`'s parity block: `(disk, block)`.
    pub fn parity_place(&self, id: FileId, row: u64) -> Result<(usize, u64), FsError> {
        let meta = self.meta(id)?;
        debug_assert!(meta.parity, "parity_place needs a parity file");
        let n = self.disks.len() as u64;
        let rows = meta.pages.div_ceil(n - 1);
        if row >= rows {
            return Err(FsError::BadPage {
                file: id,
                page: row * (n - 1),
            });
        }
        let pd = (n - 1 - (row % n)) as usize;
        Ok((pd, meta.extents[pd].start + row))
    }

    /// Inverse placement: the data page stored at `(disk, block)`, or
    /// `None` when the block is outside the file or holds parity.
    /// For every in-range data page, `page_at(place(p)) == Some(p)` in
    /// both layouts.
    pub fn page_at(&self, id: FileId, disk: usize, block: u64) -> Result<Option<u64>, FsError> {
        let meta = self.meta(id)?;
        let n = self.disks.len() as u64;
        let ext = &meta.extents[disk];
        if block < ext.start || block >= ext.start + ext.len {
            return Ok(None);
        }
        let idx = block - ext.start;
        if meta.parity {
            let pd = n - 1 - (idx % n);
            let o = (disk as u64 + n - (pd + 1)) % n;
            if o == n - 1 {
                return Ok(None); // the row's parity block
            }
            let page = idx * (n - 1) + o;
            return Ok((page < meta.pages).then_some(page));
        }
        let page = idx * n + disk as u64;
        Ok((page < meta.pages).then_some(page))
    }

    /// Group a span of consecutive file pages into minimal per-disk runs.
    ///
    /// A span of `count` pages starting at `page` touches up to
    /// `min(count, ndisks)` disks; on each disk the touched blocks are
    /// contiguous thanks to the extent layout, so exactly one run per
    /// touched disk is produced. Runs are returned ordered by disk.
    pub fn place_run(&self, id: FileId, page: u64, count: u64) -> Result<Vec<PlacedRun>, FsError> {
        let mut runs = Vec::with_capacity(self.disks.len().min(count as usize));
        self.place_run_into(id, page, count, &mut runs)?;
        Ok(runs)
    }

    /// [`FileSystem::place_run`] into a buffer the caller keeps: `runs`
    /// is cleared and refilled, so a caller placing span after span
    /// allocates only until the buffer has grown to its widest span.
    pub fn place_run_into(
        &self,
        id: FileId,
        page: u64,
        count: u64,
        runs: &mut Vec<PlacedRun>,
    ) -> Result<(), FsError> {
        runs.clear();
        let meta = self.meta(id)?;
        if count == 0 {
            return Ok(());
        }
        if page + count > meta.pages {
            return Err(FsError::BadPage {
                file: id,
                page: page + count - 1,
            });
        }
        let n = self.disks.len() as u64;
        if meta.parity {
            // The rotating parity block interleaves with the data, so
            // a disk's touched data blocks need not be contiguous (the
            // disk is some rows' parity home). A disk holds one block
            // of every stripe row, so walk each disk down the span's
            // rows — blocks ascend with the row — and merge adjacent
            // ones.
            let k = n - 1;
            for d in 0..n {
                let ext = meta.extents[d as usize].start;
                for row in page / k..=(page + count - 1) / k {
                    let pd = n - 1 - row % n;
                    let o = (d + n - (pd + 1)) % n;
                    let p = row * k + o;
                    if o == k || p < page || p >= page + count {
                        continue; // the row's parity, or outside the span
                    }
                    match runs.last_mut() {
                        Some(r)
                            if r.disk == d as usize && r.start_block + r.nblocks == ext + row =>
                        {
                            r.nblocks += 1
                        }
                        _ => runs.push(PlacedRun {
                            disk: d as usize,
                            start_block: ext + row,
                            nblocks: 1,
                        }),
                    }
                }
            }
            return Ok(());
        }
        for d in 0..n {
            // Pages on disk d within [page, page+count): those congruent
            // to d mod n. First such page >= page:
            let first = page + (d + n - page % n) % n;
            if first >= page + count {
                continue;
            }
            // Count of stripe rows touched on this disk.
            let nblocks = (page + count - first).div_ceil(n);
            runs.push(PlacedRun {
                disk: d as usize,
                start_block: meta.extents[d as usize].start + first / n,
                nblocks,
            });
        }
        Ok(())
    }

    fn meta(&self, id: FileId) -> Result<&FileMeta, FsError> {
        self.files
            .get(id.0 as usize)
            .filter(|m| m.live)
            .ok_or(FsError::BadFile(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_striping() {
        let mut fs = FileSystem::new(3, 100);
        let f = fs.create_file(10).unwrap();
        for p in 0..10 {
            let (d, _) = fs.place(f, p).unwrap();
            assert_eq!(d, (p % 3) as usize);
        }
    }

    #[test]
    fn per_disk_blocks_are_contiguous() {
        let mut fs = FileSystem::new(3, 100);
        let f = fs.create_file(12).unwrap();
        // Pages 0,3,6,9 live on disk 0 at consecutive blocks.
        let blocks: Vec<u64> = (0..4).map(|i| fs.place(f, i * 3).unwrap().1).collect();
        for w in blocks.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
    }

    #[test]
    fn place_run_covers_every_page_exactly_once() {
        let mut fs = FileSystem::new(7, 1000);
        let f = fs.create_file(100).unwrap();
        for start in [0u64, 1, 5, 6, 93] {
            for count in [1u64, 2, 4, 7, 14] {
                if start + count > 100 {
                    continue;
                }
                let runs = fs.place_run(f, start, count).unwrap();
                let total: u64 = runs.iter().map(|r| r.nblocks).sum();
                assert_eq!(total, count, "start={start} count={count}");
                // Each page's individual placement must fall inside its run.
                for p in start..start + count {
                    let (d, b) = fs.place(f, p).unwrap();
                    let run = runs.iter().find(|r| r.disk == d).unwrap();
                    assert!(
                        (run.start_block..run.start_block + run.nblocks).contains(&b),
                        "page {p} not covered"
                    );
                }
            }
        }
    }

    #[test]
    fn place_run_touches_at_most_min_count_ndisks() {
        let mut fs = FileSystem::new(7, 1000);
        let f = fs.create_file(100).unwrap();
        assert_eq!(fs.place_run(f, 3, 4).unwrap().len(), 4);
        assert_eq!(fs.place_run(f, 0, 7).unwrap().len(), 7);
        assert_eq!(fs.place_run(f, 2, 21).unwrap().len(), 7);
        assert!(fs.place_run(f, 0, 0).unwrap().is_empty());
    }

    #[test]
    fn out_of_range_page_rejected() {
        let mut fs = FileSystem::new(2, 100);
        let f = fs.create_file(10).unwrap();
        assert!(matches!(fs.place(f, 10), Err(FsError::BadPage { .. })));
        assert!(matches!(
            fs.place_run(f, 8, 3),
            Err(FsError::BadPage { .. })
        ));
    }

    #[test]
    fn delete_returns_space() {
        let mut fs = FileSystem::new(2, 10);
        let before: u64 = (0..2).map(|d| fs.free_blocks(d)).sum();
        let f = fs.create_file(20).unwrap();
        assert!(fs.create_file(1).is_err() || fs.free_blocks(0) + fs.free_blocks(1) < before);
        fs.delete_file(f).unwrap();
        let after: u64 = (0..2).map(|d| fs.free_blocks(d)).sum();
        assert_eq!(before, after);
        // Deleting twice is an error.
        assert_eq!(fs.delete_file(f), Err(FsError::BadFile(f)));
    }

    #[test]
    fn create_rolls_back_on_failure() {
        let mut fs = FileSystem::new(2, 10);
        // 30 pages needs 15 blocks per disk but only 10 exist.
        let err = fs.create_file(30).unwrap_err();
        assert!(matches!(err, FsError::NoSpace { .. }));
        assert_eq!(fs.free_blocks(0), 10);
        assert_eq!(fs.free_blocks(1), 10);
        // And a fitting file still succeeds afterwards.
        assert!(fs.create_file(20).is_ok());
    }

    #[test]
    fn uneven_tail_pages_allocate_correct_counts() {
        let mut fs = FileSystem::new(3, 100);
        // 10 pages over 3 disks: disk0 gets 4 (0,3,6,9), others 3.
        let f = fs.create_file(10).unwrap();
        assert_eq!(fs.free_blocks(0), 96);
        assert_eq!(fs.free_blocks(1), 97);
        assert_eq!(fs.free_blocks(2), 97);
        let (d, _) = fs.place(f, 9).unwrap();
        assert_eq!(d, 0);
    }

    #[test]
    fn parity_rotates_and_never_collides_with_data() {
        let mut fs = FileSystem::new(4, 1000);
        let f = fs.create_parity_file(30).unwrap();
        assert!(fs.meta(f).unwrap().parity);
        let rows = fs.rows(f).unwrap();
        assert_eq!(rows, 10); // ceil(30 / 3)
        for row in 0..rows {
            let (pd, pb) = fs.parity_place(f, row).unwrap();
            // Left-symmetric rotation: parity walks backwards from
            // the last disk.
            assert_eq!(pd as u64, 4 - 1 - (row % 4));
            for p in fs.row_pages(f, row).unwrap() {
                assert_eq!(fs.row_of(f, p).unwrap(), row);
                let (d, b) = fs.place(f, p).unwrap();
                assert_ne!((d, b), (pd, pb), "page {p} shares the parity block");
            }
        }
    }

    #[test]
    fn parity_row_loses_at_most_one_block_per_disk() {
        // The whole point of the layout: a single dead disk costs each
        // row at most one block (data or parity), so XOR of the
        // survivors always reconstructs it.
        let mut fs = FileSystem::new(3, 1000);
        let f = fs.create_parity_file(20).unwrap();
        for row in 0..fs.rows(f).unwrap() {
            for dead in 0..3usize {
                let mut lost = 0;
                if fs.parity_place(f, row).unwrap().0 == dead {
                    lost += 1;
                }
                for p in fs.row_pages(f, row).unwrap() {
                    if fs.place(f, p).unwrap().0 == dead {
                        lost += 1;
                    }
                }
                assert!(lost <= 1, "row {row} loses {lost} blocks to disk {dead}");
            }
        }
    }

    #[test]
    fn page_at_inverts_place_in_both_layouts() {
        let mut fs = FileSystem::new(5, 1000);
        let plain = fs.create_file(40).unwrap();
        let par = fs.create_parity_file(40).unwrap();
        for f in [plain, par] {
            for p in 0..40 {
                let (d, b) = fs.place(f, p).unwrap();
                assert_eq!(fs.page_at(f, d, b).unwrap(), Some(p));
            }
        }
        // Parity blocks invert to None.
        for row in 0..fs.rows(par).unwrap() {
            let (pd, pb) = fs.parity_place(par, row).unwrap();
            assert_eq!(fs.page_at(par, pd, pb).unwrap(), None);
        }
        // Out-of-extent blocks invert to None, not an error.
        assert_eq!(fs.page_at(plain, 0, 999).unwrap(), None);
    }

    #[test]
    fn parity_place_run_covers_every_page_exactly_once() {
        let mut fs = FileSystem::new(4, 1000);
        let f = fs.create_parity_file(50).unwrap();
        for start in [0u64, 1, 3, 7, 44] {
            for count in [1u64, 2, 5, 6, 12] {
                if start + count > 50 {
                    continue;
                }
                let runs = fs.place_run(f, start, count).unwrap();
                let total: u64 = runs.iter().map(|r| r.nblocks).sum();
                assert_eq!(total, count, "start={start} count={count}");
                for p in start..start + count {
                    let (d, b) = fs.place(f, p).unwrap();
                    let covered = runs.iter().any(|r| {
                        r.disk == d && (r.start_block..r.start_block + r.nblocks).contains(&b)
                    });
                    assert!(covered, "page {p} not covered");
                }
            }
        }
    }

    #[test]
    fn place_run_is_the_per_disk_merge_of_single_placements() {
        // The reference: place every page on its own, then per disk, in
        // page order, merge blocks that follow one another.
        for n in [2usize, 3, 4, 7] {
            let mut fs = FileSystem::new(n, 1000);
            let files = [
                fs.create_file(60).unwrap(),
                fs.create_parity_file(60).unwrap(),
            ];
            let mut runs = Vec::new();
            for (f, start, count) in files
                .iter()
                .flat_map(|&f| (0..60).flat_map(move |s| (0..=60 - s).map(move |c| (f, s, c))))
            {
                let mut want: Vec<PlacedRun> = Vec::new();
                for d in 0..n {
                    for p in start..start + count {
                        let (pd, b) = fs.place(f, p).unwrap();
                        match want.last_mut() {
                            _ if pd != d => {}
                            Some(r) if r.disk == d && r.start_block + r.nblocks == b => {
                                r.nblocks += 1
                            }
                            _ => want.push(PlacedRun {
                                disk: d,
                                start_block: b,
                                nblocks: 1,
                            }),
                        }
                    }
                }
                // The buffer is refilled, whatever the last span left.
                fs.place_run_into(f, start, count, &mut runs).unwrap();
                assert_eq!(runs, want, "{n} disks, {f:?}, {start}+{count}");
                assert_eq!(fs.place_run(f, start, count).unwrap(), want);
            }
        }
    }

    #[test]
    fn multiple_files_do_not_overlap() {
        let mut fs = FileSystem::new(2, 100);
        let f1 = fs.create_file(10).unwrap();
        let f2 = fs.create_file(10).unwrap();
        let mut seen = std::collections::HashSet::new();
        for f in [f1, f2] {
            for p in 0..10 {
                assert!(seen.insert(fs.place(f, p).unwrap()), "overlap at {f:?}:{p}");
            }
        }
    }
}
