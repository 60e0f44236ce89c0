//! The free list (DESIGN.md §3.2): the reclaimable pages in reclaim
//! order, as a doubly linked list threaded through one link pair per
//! virtual page.
//!
//! Membership is exact. A page is on the list at most once, at the end
//! it was last pushed to, and leaves it in O(1) from any position — a
//! pop, a soft fault, or a prefetch reclaiming it in place — so the
//! list is never longer than the resident set and there is no entry
//! that could outlive its page's stay and come back to life later.

const NIL: u32 = u32::MAX;
/// `Link::next` of a page that is not on the list.
const OFF: u32 = u32::MAX - 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Link {
    prev: u32,
    next: u32,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub(super) struct FreeList {
    links: Vec<Link>,
    /// The next page to reclaim.
    head: u32,
    tail: u32,
    len: u64,
}

impl FreeList {
    /// An empty list over the pages `0..pages`.
    pub(super) fn new(pages: u64) -> Self {
        assert!(pages < OFF as u64, "page numbers must fit the list's links");
        Self {
            links: vec![
                Link {
                    prev: NIL,
                    next: OFF
                };
                pages as usize
            ],
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Pages on the list.
    #[inline]
    pub(super) fn len(&self) -> u64 {
        self.len
    }

    /// Put `page`, which is not on the list, at its front (the next
    /// reclaim) or its back (the last).
    pub(super) fn push(&mut self, page: u64, front: bool) {
        let p = page as u32;
        assert_eq!(self.links[p as usize].next, OFF, "page {page} pushed twice");
        let (prev, next) = if front {
            (NIL, self.head)
        } else {
            (self.tail, NIL)
        };
        self.links[p as usize] = Link { prev, next };
        self.relink(prev, next, p, p);
        self.len += 1;
    }

    /// Take `page`, which is on the list, off it.
    pub(super) fn remove(&mut self, page: u64) {
        let Link { prev, next } = self.links[page as usize];
        assert_ne!(next, OFF, "page {page} is not on the free list");
        self.links[page as usize].next = OFF;
        self.relink(prev, next, next, prev);
        self.len -= 1;
    }

    /// Take the front page off the list.
    pub(super) fn pop_front(&mut self) -> Option<u64> {
        let page = (self.head != NIL).then_some(self.head as u64)?;
        self.remove(page);
        Some(page)
    }

    /// Point `prev` (or the head) forward at `after` and `next` (or the
    /// tail) back at `before`.
    fn relink(&mut self, prev: u32, next: u32, after: u32, before: u32) {
        match prev {
            NIL => self.head = after,
            _ => self.links[prev as usize].next = after,
        }
        match next {
            NIL => self.tail = before,
            _ => self.links[next as usize].prev = before,
        }
    }

    /// The pages on the list, front to back.
    #[cfg(test)]
    pub(super) fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let mut at = self.head;
        std::iter::from_fn(move || {
            let page = (at != NIL).then_some(at as u64)?;
            at = self.links[at as usize].next;
            Some(page)
        })
    }
}

#[cfg(test)]
mod tests {
    use oocp_sim::rng::SimRng;

    use super::*;

    #[test]
    fn free_list_matches_a_vec_of_its_pages() {
        let mut list = FreeList::new(16);
        let mut model: Vec<u64> = Vec::new();
        let mut rng = SimRng::new(22);
        for step in 0..4000 {
            let page = rng.next_u64() % 16;
            let at = model.iter().position(|&p| p == page);
            match (rng.next_u64() % 4, at) {
                (0, _) => assert_eq!(
                    list.pop_front(),
                    (!model.is_empty()).then(|| model.remove(0))
                ),
                (_, Some(i)) => {
                    list.remove(page);
                    model.remove(i);
                }
                (1, None) => {
                    list.push(page, true);
                    model.insert(0, page);
                }
                (_, None) => {
                    list.push(page, false);
                    model.push(page);
                }
            }
            assert_eq!(list.iter().collect::<Vec<_>>(), model, "step {step}");
            assert_eq!(list.len(), model.len() as u64);
            let back = model.last().map_or(NIL, |&p| p as u32);
            assert_eq!(list.tail, back, "step {step}");
        }
    }

    #[test]
    #[should_panic(expected = "not on the free list")]
    fn removing_a_page_that_is_off_the_list_panics() {
        let mut list = FreeList::new(4);
        list.push(2, true);
        list.remove(1);
    }
}
