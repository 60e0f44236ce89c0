//! The virtual-machine interface the interpreter executes against.

/// Cost model for user-mode computation, in nanoseconds per operation.
///
/// These stand in for `gcc -O2` code on the paper's 16.7 MHz processor
/// (~60 ns/cycle). Only the *ratios* between computation cost and the
/// OS/disk costs matter for the shape of the results; the defaults are
/// calibrated so the original (non-prefetching) out-of-core runs sit in
/// the paper's 40-70% I/O-stall regime. See `EXPERIMENTS.md`.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Cost of one memory reference (address generation + access).
    pub ns_per_access: u64,
    /// Cost of one floating-point operation.
    pub ns_per_flop: u64,
    /// Cost of one integer ALU operation.
    pub ns_per_iop: u64,
    /// Loop bookkeeping per iteration (increment, compare, branch).
    pub ns_per_iter: u64,
    /// Instruction overhead of issuing one hint call from user code
    /// (argument setup; the kernel-side cost is charged by the OS).
    pub ns_per_hint_issue: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            ns_per_access: 400,
            ns_per_flop: 500,
            ns_per_iop: 150,
            ns_per_iter: 250,
            ns_per_hint_issue: 500,
        }
    }
}

impl CostModel {
    /// A 2020s out-of-order gigahertz core: fractions of a nanosecond
    /// per operation. Used with the modern machine presets.
    pub fn modern() -> Self {
        Self {
            ns_per_access: 2,
            ns_per_flop: 1,
            ns_per_iop: 1,
            ns_per_iter: 1,
            ns_per_hint_issue: 2,
        }
    }

    /// A zero-cost model (pure semantics, used by equivalence tests).
    pub fn free() -> Self {
        Self {
            ns_per_access: 0,
            ns_per_flop: 0,
            ns_per_iop: 0,
            ns_per_iter: 0,
            ns_per_hint_issue: 0,
        }
    }
}

/// The paged virtual memory a program executes against.
///
/// Implemented by the run-time layer (filtered hints over the simulated
/// OS) and by [`MemVm`] (a flat in-memory store used for semantics-only
/// runs). Addresses are byte addresses in a flat virtual address space;
/// all loads and stores are 8 bytes.
pub trait PagedVm {
    /// Page size in bytes.
    fn page_bytes(&self) -> u64;
    /// Charge `ns` of user-mode computation.
    fn tick_user(&mut self, ns: u64);
    /// Timed 8-byte floating-point load.
    fn load_f64(&mut self, addr: u64) -> f64;
    /// Timed 8-byte floating-point store.
    fn store_f64(&mut self, addr: u64, v: f64);
    /// Timed 8-byte integer load.
    fn load_i64(&mut self, addr: u64) -> i64;
    /// Timed 8-byte integer store.
    fn store_i64(&mut self, addr: u64, v: i64);
    /// Non-binding prefetch hint for `pages` pages starting at the page
    /// containing `addr`.
    fn prefetch(&mut self, addr: u64, pages: u64);
    /// Non-binding release hint.
    fn release(&mut self, addr: u64, pages: u64);
    /// Bundled prefetch + release hint (one call).
    fn prefetch_release(&mut self, pf_addr: u64, pf_pages: u64, rel_addr: u64, rel_pages: u64);

    /// Whether this VM ever parks the run driving it. The interpreter
    /// asks [`PagedVm::parked`] only of a VM that says `true`; for the
    /// rest the question is compiled out.
    const PARKS: bool = false;
    /// Asked once after every call above (`page_bytes` apart): should
    /// the run stop here, and was the call it just made carried out? The
    /// request is consumed by the asking. `tick_user` is always carried
    /// out, so behind it either answer means [`Park::After`].
    fn parked(&mut self) -> Option<Park> {
        None
    }

    /// Asked before a run of iterations of an innermost loop whose body
    /// reaches memory through `refs` and nothing else: iteration `t`
    /// makes 8-byte accesses at `addr + t·delta` of each of them. For
    /// how many consecutive iterations from the first, `want` at most,
    /// would every one of those accesses be answered without anything
    /// else changing or being told — given that they hand over no more
    /// than `lead_ns + n·iter_ns` of user time — and which bytes are
    /// they then to be made against? `0` refuses, and a VM that always
    /// refuses (the default) is never run in strips.
    #[inline]
    fn strip(
        &mut self,
        refs: &[StripRef],
        want: u64,
        lead_ns: u64,
        iter_ns: u64,
    ) -> (u64, &mut [u8]) {
        let _ = (refs, want, lead_ns, iter_ns);
        (0, &mut [])
    }

    /// What the iterations granted by the last [`PagedVm::strip`] came
    /// to: `accesses` loads and stores made directly against the bytes,
    /// and the `ticks` calls of `tick_user` around them, `ns` in all.
    fn strip_charge(&mut self, ns: u64, ticks: u64, accesses: u64) {
        let _ = (ns, ticks, accesses);
        unreachable!("no strip was granted");
    }
}

/// One reference stream of a strip: the byte address its first
/// iteration accesses, the bytes it moves per iteration, and whether the
/// loop body stores through it.
pub type StripRef = (u64, i64, bool);

/// A [`PagedVm`]'s request that the run driving it stop where it is
/// ([`crate::Vm::step`] returns `None`) until stepped again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Park {
    /// The call was carried out; resume behind it.
    After,
    /// The call was not carried out (a load's result is meaningless):
    /// resume by making it again, same arguments, nothing charged or
    /// counted twice.
    Redo,
}

/// Untimed raw access to array bytes, for initialization and result
/// verification outside the measured region.
pub trait ArrayData {
    /// Read an `f64` without touching residency or time.
    fn peek_f64(&self, addr: u64) -> f64;
    /// Write an `f64` without touching residency or time.
    fn poke_f64(&mut self, addr: u64, v: f64);
    /// Read an `i64` without touching residency or time.
    fn peek_i64(&self, addr: u64) -> i64;
    /// Write an `i64` without touching residency or time.
    fn poke_i64(&mut self, addr: u64, v: i64);
}

/// A trivial flat-memory VM: no paging, no time, but full counting of
/// accesses and hints.
///
/// Used to establish reference results for semantic-equivalence tests
/// (original program on `MemVm` vs. transformed program on the machine)
/// and to unit-test the interpreter itself.
#[derive(Clone, Debug)]
pub struct MemVm {
    data: Vec<u8>,
    page_bytes: u64,
    /// Number of timed loads+stores performed.
    pub accesses: u64,
    /// Number of prefetch hints received (including bundled).
    pub prefetches: u64,
    /// Number of release hints received (including bundled).
    pub releases: u64,
    /// Total user nanoseconds charged.
    pub user_ns: u64,
}

impl MemVm {
    /// Create a flat memory of `bytes` bytes (zero-filled).
    pub fn new(bytes: u64, page_bytes: u64) -> Self {
        Self {
            data: vec![0; bytes as usize],
            page_bytes,
            accesses: 0,
            prefetches: 0,
            releases: 0,
            user_ns: 0,
        }
    }

    /// Raw bytes (verification).
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }
}

impl PagedVm for MemVm {
    #[inline]
    fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    #[inline]
    fn tick_user(&mut self, ns: u64) {
        self.user_ns += ns;
    }

    #[inline]
    fn load_f64(&mut self, addr: u64) -> f64 {
        self.accesses += 1;
        self.peek_f64(addr)
    }

    #[inline]
    fn store_f64(&mut self, addr: u64, v: f64) {
        self.accesses += 1;
        self.poke_f64(addr, v);
    }

    #[inline]
    fn load_i64(&mut self, addr: u64) -> i64 {
        self.accesses += 1;
        self.peek_i64(addr)
    }

    #[inline]
    fn store_i64(&mut self, addr: u64, v: i64) {
        self.accesses += 1;
        self.poke_i64(addr, v);
    }

    #[inline]
    fn prefetch(&mut self, _addr: u64, _pages: u64) {
        self.prefetches += 1;
    }

    #[inline]
    fn release(&mut self, _addr: u64, _pages: u64) {
        self.releases += 1;
    }

    #[inline]
    fn prefetch_release(&mut self, _pf: u64, _pfn: u64, _rel: u64, _reln: u64) {
        self.prefetches += 1;
        self.releases += 1;
    }

    // Flat memory: every iteration qualifies.
    #[inline]
    fn strip(&mut self, _refs: &[StripRef], want: u64, _lead: u64, _iter: u64) -> (u64, &mut [u8]) {
        (want, &mut self.data)
    }

    #[inline]
    fn strip_charge(&mut self, ns: u64, _ticks: u64, accesses: u64) {
        self.user_ns += ns;
        self.accesses += accesses;
    }
}

impl ArrayData for MemVm {
    #[inline]
    fn peek_f64(&self, addr: u64) -> f64 {
        f64::from_le_bytes(
            self.data[addr as usize..addr as usize + 8]
                .try_into()
                .unwrap(),
        )
    }

    #[inline]
    fn poke_f64(&mut self, addr: u64, v: f64) {
        self.data[addr as usize..addr as usize + 8].copy_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn peek_i64(&self, addr: u64) -> i64 {
        i64::from_le_bytes(
            self.data[addr as usize..addr as usize + 8]
                .try_into()
                .unwrap(),
        )
    }

    #[inline]
    fn poke_i64(&mut self, addr: u64, v: i64) {
        self.data[addr as usize..addr as usize + 8].copy_from_slice(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memvm_roundtrips_values() {
        let mut m = MemVm::new(64, 4096);
        m.store_f64(0, 1.5);
        m.store_i64(8, -42);
        assert_eq!(m.load_f64(0), 1.5);
        assert_eq!(m.load_i64(8), -42);
        assert_eq!(m.accesses, 4);
    }

    #[test]
    fn memvm_counts_hints() {
        let mut m = MemVm::new(64, 4096);
        m.prefetch(0, 4);
        m.release(0, 1);
        m.prefetch_release(0, 1, 8, 1);
        assert_eq!(m.prefetches, 2);
        assert_eq!(m.releases, 2);
    }

    #[test]
    fn default_cost_model_is_nonzero_and_free_is_zero() {
        let d = CostModel::default();
        assert!(d.ns_per_access > 0 && d.ns_per_flop > 0);
        let f = CostModel::free();
        assert_eq!(f.ns_per_access + f.ns_per_flop + f.ns_per_iter, 0);
    }
}
