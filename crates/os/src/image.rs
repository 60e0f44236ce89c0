//! The machine's flat image of its address space, recycled per thread.
//!
//! Every bin, test and benchmark cell builds machines back to back:
//! `Machine::new`, one program, drop, the next `Machine::new`. With a
//! plain `Vec` each of those frees a 12–17 MB block and asks for one
//! of nearly the same size a few thousand small allocations later.
//! glibc serves such a block from its `brk` heap once the first one
//! has been freed (the mmap threshold follows the largest freed
//! mapping, up to 32 MiB), and a block on the heap is only reusable as
//! long as nothing small and long-lived lands inside or above the hole
//! it leaves — a compiled `Program`, a result row. When that happens
//! the heap grows by a whole block and the hole stays resident: the
//! same run peaked at 36 MB or 47 MB depending on the data seed or the
//! length of `argv[0]`.
//!
//! So an image is never handed back while its thread may want another:
//! dropping one parks its buffer in a thread-local slot and the next
//! [`Image::zeroed`] on that thread takes it, zeroes the part it needs
//! and goes on. The buffer is still resident (no page faults on the
//! second set-up) and no large request reaches the allocator at all.
//! Images above [`RECYCLE_MAX`] are left alone: the allocator gives
//! those a mapping of their own whatever has been freed before, which
//! is returned at drop and comes back as untouched zero pages, and
//! zeroing them by hand would touch address space a sparse run never
//! does.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// Largest image that is recycled; the size up to which glibc moves
/// requests from mappings to its heap (`DEFAULT_MMAP_THRESHOLD_MAX`).
const RECYCLE_MAX: usize = 32 << 20;

/// Capacities are rounded up to this, so that the NAS data sets — all
/// within a few pages of one another — share one buffer.
const SIZE_CLASS: usize = 1 << 20;

thread_local! {
    /// The largest recyclable buffer dropped on this thread and not
    /// yet taken again.
    static SPARE: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// A zero-initialised byte image; derefs to `[u8]`.
pub(crate) struct Image(Vec<u8>);

impl Image {
    pub(crate) fn zeroed(bytes: usize) -> Self {
        if bytes > RECYCLE_MAX {
            return Self(vec![0u8; bytes]);
        }
        let mut buf = SPARE.with(|s| std::mem::take(&mut *s.borrow_mut()));
        if buf.capacity() >= bytes {
            buf.clear();
            buf.resize(bytes, 0);
        } else {
            // Release the short one first: the two never coexist.
            drop(buf);
            buf = vec![0u8; bytes.next_multiple_of(SIZE_CLASS)];
            buf.truncate(bytes);
        }
        Self(buf)
    }
}

impl Drop for Image {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.0);
        if buf.capacity() > RECYCLE_MAX {
            return;
        }
        // `try_with`: a machine dropped while its thread's locals are
        // being torn down just frees its image.
        let _ = SPARE.try_with(|s| {
            let mut spare = s.borrow_mut();
            if buf.capacity() > spare.capacity() {
                *spare = buf;
            }
        });
    }
}

impl Deref for Image {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for Image {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_image_is_zero_and_keeps_its_buffer() {
        let mut a = Image::zeroed(3 * 4096);
        a.fill(0xAB);
        let at = a.as_ptr();
        drop(a);
        // Smaller and equal requests reuse the parked buffer, zeroed.
        for bytes in [4096, 3 * 4096, SIZE_CLASS] {
            let b = Image::zeroed(bytes);
            assert_eq!(b.len(), bytes);
            assert_eq!(b.as_ptr(), at);
            assert!(b.iter().all(|&x| x == 0));
        }
    }

    #[test]
    fn two_live_images_do_not_share_and_the_larger_is_kept() {
        let a = Image::zeroed(4096);
        let mut b = Image::zeroed(SIZE_CLASS + 1);
        assert_ne!(a.as_ptr(), b.as_ptr());
        b[SIZE_CLASS] = 7;
        let big = b.as_ptr();
        drop(b);
        drop(a);
        let c = Image::zeroed(SIZE_CLASS + 1);
        assert_eq!(c.as_ptr(), big);
        assert_eq!(c[SIZE_CLASS], 0);
    }

    #[test]
    fn images_past_the_ceiling_are_not_parked() {
        drop(Image::zeroed(RECYCLE_MAX + 1));
        assert_eq!(SPARE.with(|s| s.borrow().capacity()), 0);
        assert_eq!(Image::zeroed(0).len(), 0);
    }
}
