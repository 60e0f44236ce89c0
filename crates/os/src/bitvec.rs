//! The shared user/kernel residency bit vector.
//!
//! The paper's OS "provides applications with a single physical memory
//! page that is shared with the OS. ... The shared page is used as a bit
//! vector with each bit representing one or more contiguous pages of the
//! application's virtual memory space (a set bit indicates that the
//! corresponding page is in memory). The granularity of the bit vector is
//! determined by the run-time layer at program start-up."
//!
//! We model the single shared page faithfully: the vector's capacity is
//! one page worth of bits, and when the address space exceeds that, each
//! bit covers `granularity` contiguous pages. Coverage coarser than one
//! page makes the filter *conservative in the cheap direction*: the OS
//! clears a bit whenever any covered page leaves memory, so the run-time
//! layer may issue a redundant system call but never wrongly believes an
//! absent page to be resident for filtering purposes (within a covered
//! group, a set bit can still over-claim; the hints are non-binding, so
//! the only consequence is a later fault, never incorrect data).

/// Shared residency bit vector (one page of bits).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResidencyBits {
    words: Vec<u64>,
    granularity: u64,
    pages_covered: u64,
    /// Per-bit count of resident pages in the covered group, used to
    /// clear a coarse bit only when its last resident page leaves.
    counts: Vec<u16>,
}

impl ResidencyBits {
    /// Create a vector covering `total_pages` of virtual address space,
    /// constrained to `page_bytes * 8` bits (the single shared page).
    ///
    /// The granularity (pages per bit) is the smallest power of two that
    /// makes the space fit, exactly as the run-time layer would choose at
    /// registration time.
    pub fn new(total_pages: u64, page_bytes: u64) -> Self {
        let max_bits = page_bytes * 8;
        let mut granularity = 1u64;
        while total_pages.div_ceil(granularity) > max_bits {
            granularity *= 2;
        }
        let nbits = total_pages.div_ceil(granularity).max(1);
        Self {
            words: vec![0; nbits.div_ceil(64) as usize],
            granularity,
            pages_covered: total_pages,
            counts: vec![0; nbits as usize],
        }
    }

    /// Pages covered by each bit.
    pub fn granularity(&self) -> u64 {
        self.granularity
    }

    /// Total pages of address space covered.
    pub fn pages_covered(&self) -> u64 {
        self.pages_covered
    }

    #[inline]
    fn bit_of(&self, page: u64) -> usize {
        debug_assert!(page < self.pages_covered, "page beyond covered space");
        (page / self.granularity) as usize
    }

    /// Whether the bit covering `page` is set (run-time layer's view of
    /// "believed to be in memory").
    #[inline]
    pub fn test(&self, page: u64) -> bool {
        let b = self.bit_of(page);
        self.words[b / 64] >> (b % 64) & 1 == 1
    }

    /// OS-side: note that `page` became resident (prefetch issue or fault
    /// service sets the bit).
    pub fn note_resident(&mut self, page: u64) {
        let b = self.bit_of(page);
        if self.counts[b] == 0 {
            self.words[b / 64] |= 1 << (b % 64);
        }
        self.counts[b] = self.counts[b].saturating_add(1);
    }

    /// OS-side: note that `page` left memory (release or reclaim clears
    /// the bit once no covered page remains resident).
    pub fn note_gone(&mut self, page: u64) {
        let b = self.bit_of(page);
        debug_assert!(self.counts[b] > 0, "note_gone without note_resident");
        self.counts[b] = self.counts[b].saturating_sub(1);
        if self.counts[b] == 0 {
            self.words[b / 64] &= !(1 << (b % 64));
        }
    }

    /// Number of set bits (diagnostic).
    pub fn set_bits(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fine_granularity_when_space_fits() {
        let v = ResidencyBits::new(1000, 4096);
        assert_eq!(v.granularity(), 1);
    }

    #[test]
    fn granularity_scales_to_fit_one_page_of_bits() {
        let bits_per_page = 4096 * 8;
        let v = ResidencyBits::new(bits_per_page * 4, 4096);
        assert_eq!(v.granularity(), 4);
        // And a huge space still fits in one page of bits.
        let v = ResidencyBits::new(bits_per_page * 1000, 4096);
        assert!(v.granularity() >= 1000 / 2);
        assert!((bits_per_page * 1000).div_ceil(v.granularity()) <= bits_per_page);
    }

    #[test]
    fn set_test_clear_roundtrip() {
        let mut v = ResidencyBits::new(128, 4096);
        assert!(!v.test(37));
        v.note_resident(37);
        assert!(v.test(37));
        v.note_gone(37);
        assert!(!v.test(37));
    }

    #[test]
    fn coarse_bit_clears_only_when_group_empty() {
        // Force granularity 2 with a tiny "page" of 8 bytes = 64 bits.
        let mut v = ResidencyBits::new(128, 8);
        assert_eq!(v.granularity(), 2);
        v.note_resident(10);
        v.note_resident(11); // same bit
        assert!(v.test(10) && v.test(11));
        v.note_gone(10);
        assert!(v.test(11), "bit must stay set while page 11 is resident");
        v.note_gone(11);
        assert!(!v.test(10) && !v.test(11));
    }

    #[test]
    fn set_bits_counts_distinct_groups() {
        let mut v = ResidencyBits::new(256, 4096);
        v.note_resident(0);
        v.note_resident(1);
        v.note_resident(200);
        assert_eq!(v.set_bits(), 3);
    }
}
