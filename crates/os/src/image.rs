//! The machine's flat images — its address space, and under parity the
//! parity rows — recycled per thread.
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
//! dropping one parks its buffer in a thread-local pool, and the next
//! image asked for on that thread takes the smallest parked buffer that
//! is large enough and goes on. The buffer is still resident (no page
//! faults on the second set-up) and no large request reaches the
//! allocator at all. When no parked buffer is large enough, all of them
//! are released before the new one is allocated — none could serve the
//! request, so they never coexist with it — which keeps the pool no
//! larger than the most images that were ever live at once.
//!
//! [`Image::zeroed`] zeroes the part it needs; [`Image::scratch`] does
//! not, for the parity image, which its first use overwrites whole.
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
    /// The recyclable buffers dropped on this thread and not yet taken
    /// again.
    static SPARE: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// A byte image; derefs to `[u8]`.
#[derive(Default)]
pub(crate) struct Image(Vec<u8>);

impl Image {
    /// `bytes` zero bytes.
    pub(crate) fn zeroed(bytes: usize) -> Self {
        Self(match recycled(bytes) {
            Some(mut buf) => {
                buf.clear();
                buf.resize(bytes, 0);
                buf
            }
            None => fresh(bytes),
        })
    }

    /// `bytes` bytes holding whatever their buffer last held: for a
    /// caller that writes every byte before it reads one.
    pub(crate) fn scratch(bytes: usize) -> Self {
        Self(match recycled(bytes) {
            Some(mut buf) => {
                buf.resize(bytes, 0);
                buf
            }
            None => fresh(bytes),
        })
    }
}

/// The smallest parked buffer of at least `bytes`, or `None` after
/// releasing every parked buffer when none is that large.
fn recycled(bytes: usize) -> Option<Vec<u8>> {
    if bytes > RECYCLE_MAX {
        return None;
    }
    SPARE.with(|s| {
        let mut spare = s.borrow_mut();
        let fits = spare
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= bytes);
        match fits.min_by_key(|(_, b)| b.capacity()) {
            Some((i, _)) => Some(spare.swap_remove(i)),
            None => {
                spare.clear();
                None
            }
        }
    })
}

/// A new zeroed buffer of `bytes`, its capacity a whole size class when
/// it may be recycled.
fn fresh(bytes: usize) -> Vec<u8> {
    if bytes > RECYCLE_MAX {
        return vec![0u8; bytes];
    }
    let mut buf = vec![0u8; bytes.next_multiple_of(SIZE_CLASS)];
    buf.truncate(bytes);
    buf
}

impl Drop for Image {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.0);
        if buf.capacity() == 0 || buf.capacity() > RECYCLE_MAX {
            return;
        }
        // `try_with`: a machine dropped while its thread's locals are
        // being torn down just frees its images.
        let _ = SPARE.try_with(|s| s.borrow_mut().push(buf));
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

    fn parked() -> usize {
        SPARE.with(|s| s.borrow().len())
    }

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
        let (small, big) = (a.as_ptr(), b.as_ptr());
        drop(b);
        drop(a);
        assert_eq!(parked(), 2, "both are kept");
        // Each request takes the smallest buffer that holds it.
        let c = Image::zeroed(SIZE_CLASS + 1);
        assert_eq!(c.as_ptr(), big);
        assert_eq!(c[SIZE_CLASS], 0);
        assert_eq!(Image::zeroed(8).as_ptr(), small);
    }

    #[test]
    fn images_past_the_ceiling_are_not_parked() {
        drop(Image::zeroed(RECYCLE_MAX + 1));
        assert_eq!(parked(), 0);
        assert_eq!(Image::zeroed(0).len(), 0);
        drop(Image::default());
        assert_eq!(parked(), 0, "an empty image has no buffer to park");
    }

    #[test]
    fn copies_and_scratch_skip_the_zeroing_and_a_miss_releases_the_pool() {
        let src: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
        let mut a = Image::scratch(4096);
        a.copy_from_slice(&src);
        let at = a.as_ptr();
        drop(a);
        // The parked bytes are still there for a scratch image.
        let b = Image::scratch(4096);
        assert_eq!((b.as_ptr(), &b[..]), (at, &src[..]));
        let c = Image::zeroed(SIZE_CLASS / 2);
        assert_eq!(parked(), 0);
        drop((b, c));
        assert_eq!(parked(), 2);
        // Nothing parked holds two classes: both are released, and the
        // new buffer is the only one left once it is dropped.
        drop(Image::scratch(SIZE_CLASS + 1));
        assert_eq!(parked(), 1);
    }
}
