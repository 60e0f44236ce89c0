//! Tenancy (DESIGN.md §10): several programs sharing one machine —
//! registration, each tenant's view of what the core does (residency
//! bits, in-flight gauge, fault attribution), memory quotas enforced by
//! self-eviction, and the arbiter that sheds or refuses prefetch hints
//! by QoS class. With no tenant registered every hook here is one
//! `is_empty` test.

use oocp_sim::time::Ns;

use super::{Machine, Page, Residency, Segment};
use crate::bitvec::ResidencyBits;
use crate::tenant::{
    PressureLevel, QosClass, TenantId, TenantSpec, TenantStats, ELEVATED_BEST_EFFORT_SLOTS,
};
use crate::trace::TraceEvent;

/// One registered tenant: its policy, the page range it owns, its
/// clock hand, and its counters.
pub(super) struct TenantInfo {
    spec: TenantSpec,
    /// First page of the tenant's segment.
    first_page: u64,
    /// Pages in the tenant's segment.
    pages: u64,
    /// Tenant-local clock hand for quota self-eviction.
    pub(super) hand: u64,
    pub(super) stats: TenantStats,
}

/// The tenancy extension's state.
#[derive(Default)]
pub(super) struct Tenancy {
    /// Registered tenants in registration order (each owns one
    /// segment). Empty for the classic single-program machine, which
    /// behaves as one implicit guaranteed tenant with no quotas.
    pub(super) tenants: Vec<TenantInfo>,
    /// The tenant whose accesses and hints are currently executing
    /// (set by the co-scheduling hub before each slice; 0 otherwise).
    pub(super) cur: TenantId,
    /// Per-tenant residency bit vectors (same geometry as the shared
    /// one; each tracks only its owner's pages). Present only when
    /// tenants are registered.
    pub(super) bits: Vec<ResidencyBits>,
}

/// Arbitration state for one prefetch hint: the pressure level at
/// entry, the issuing tenant's policy, and (if it has a frame quota) a
/// running count of its charged frames, maintained incrementally so the
/// per-page gate stays O(1).
pub(super) struct HintArbiter {
    /// Whether any tenant is registered; without one nothing is ever
    /// refused.
    pub(super) multi: bool,
    level: PressureLevel,
    spec: TenantSpec,
    mem_used: Option<u64>,
}

impl HintArbiter {
    /// One more of the tenant's frames is on the books (a page admitted,
    /// or reclaimed from the free list).
    #[inline]
    pub(super) fn charge_frame(&mut self) {
        if let Some(u) = &mut self.mem_used {
            *u += 1;
        }
    }
}

impl Machine {
    /// Register a tenant owning a fresh segment of `bytes`. Returns the
    /// tenant id (dense, registration order) and its segment.
    ///
    /// Declares the new tenant count to the disk scheduler so its
    /// round-robin shares adjust. A machine with no registered tenants
    /// is the classic single-program machine: one implicit guaranteed
    /// tenant with no quotas and unchanged behaviour.
    ///
    /// # Panics
    ///
    /// Panics if the address space is exhausted (see
    /// [`Machine::alloc_segment`]).
    pub fn register_tenant(&mut self, spec: TenantSpec, bytes: u64) -> (TenantId, Segment) {
        let seg = self.alloc_segment(bytes);
        let id = self.tenancy.tenants.len() as TenantId;
        self.tenancy.tenants.push(TenantInfo {
            spec,
            first_page: seg.base / self.params.page_bytes,
            pages: seg.bytes / self.params.page_bytes,
            hand: 0,
            stats: TenantStats::default(),
        });
        self.tenancy.bits.push(ResidencyBits::new(
            self.total_pages(),
            self.params.page_bytes,
        ));
        self.disks.set_tenant_count(self.tenancy.tenants.len());
        (id, seg)
    }

    /// Select the tenant whose accesses and hints execute next (the
    /// co-scheduling hub calls this before each slice).
    pub fn set_tenant(&mut self, t: TenantId) {
        debug_assert!(
            (t as usize) < self.tenancy.tenants.len().max(1),
            "unknown tenant {t}"
        );
        self.tenancy.cur = t;
    }

    /// The currently selected tenant (0 without registrations).
    pub fn cur_tenant(&self) -> TenantId {
        self.tenancy.cur
    }

    /// Number of tenants sharing the machine (1 without registrations).
    pub fn tenant_count(&self) -> usize {
        self.tenancy.tenants.len().max(1)
    }

    /// A tenant's policy (the implicit solo tenant is unlimited).
    pub fn tenant_spec(&self, t: TenantId) -> TenantSpec {
        self.tenancy
            .tenants
            .get(t as usize)
            .map_or_else(TenantSpec::unlimited, |i| i.spec)
    }

    /// A tenant's counters (zeros for the implicit solo tenant — its
    /// events live in the shared [`OsStats`](crate::OsStats)).
    pub fn tenant_stats(&self, t: TenantId) -> TenantStats {
        self.tenancy
            .tenants
            .get(t as usize)
            .map(|i| i.stats)
            .unwrap_or_default()
    }

    /// A tenant's private residency bit vector (its own pages only).
    /// Falls back to the shared vector without registrations.
    #[inline]
    pub fn tenant_bits_of(&self, t: TenantId) -> &ResidencyBits {
        self.tenancy.bits.get(t as usize).unwrap_or(&self.bits)
    }

    /// Frames currently charged to a tenant: active resident pages plus
    /// in-flight prefetches inside its segment (free-list pages are
    /// reclaimable by anyone and charged to no one). For the implicit
    /// solo tenant this is the machine-wide occupancy.
    pub fn tenant_usage(&self, t: TenantId) -> u64 {
        let Some(info) = self.tenancy.tenants.get(t as usize) else {
            return self.resident + self.inflight;
        };
        let mut used = 0;
        for v in info.first_page..info.first_page + info.pages {
            let at = self.pages[v as usize].residency();
            used += matches!(at, Residency::Active | Residency::InFlight(_)) as u64;
        }
        used
    }

    /// The tenant owning `vpage`, if any segment covers it.
    pub(super) fn owner_of(&self, vpage: u64) -> Option<TenantId> {
        let tenants = &self.tenancy.tenants;
        if tenants.is_empty() {
            return None;
        }
        // Segments are allocated in ascending page order.
        let idx = tenants
            .partition_point(|i| i.first_page <= vpage)
            .checked_sub(1)?;
        let info = &tenants[idx];
        (vpage < info.first_page + info.pages).then_some(idx as TenantId)
    }

    /// Mirror a change of `vpage`'s shared residency bit into its
    /// owner's private vector (no-op without registered tenants).
    #[inline]
    pub(super) fn note_tenant_bit(&mut self, vpage: u64, resident: bool) {
        if self.tenancy.bits.is_empty() {
            return;
        }
        if let Some(t) = self.owner_of(vpage) {
            let bits = &mut self.tenancy.bits[t as usize];
            if resident {
                bits.note_resident(vpage);
            } else {
                bits.note_gone(vpage);
            }
        }
    }

    /// The tenants' half of [`Machine::resync_bits`]: rebuild every
    /// private vector from page-level residency state.
    pub(super) fn resync_tenant_bits(&mut self) {
        for t in 0..self.tenancy.bits.len() {
            let mut tv = ResidencyBits::new(self.total_pages(), self.params.page_bytes);
            let info = &self.tenancy.tenants[t];
            for v in info.first_page..info.first_page + info.pages {
                if self.pages[v as usize].has(Page::BIT_NOTED) {
                    tv.note_resident(v);
                }
            }
            self.tenancy.bits[t] = tv;
        }
    }

    /// Adjust the owner's in-flight prefetch gauge when a page enters
    /// or leaves `InFlight` (no-op without registered tenants).
    #[inline]
    pub(super) fn note_tenant_inflight(&mut self, vpage: u64, delta: i64) {
        if self.tenancy.tenants.is_empty() {
            return;
        }
        if let Some(t) = self.owner_of(vpage) {
            let g = &mut self.tenancy.tenants[t as usize].stats.inflight_prefetch;
            *g = (*g as i64 + delta) as u64;
        }
    }

    /// Attribute a demand fault and its stall to the current tenant.
    #[inline]
    pub(super) fn note_tenant_fault(&mut self, waited: Ns) {
        let cur = self.tenancy.cur as usize;
        if let Some(info) = self.tenancy.tenants.get_mut(cur) {
            info.stats.demand_faults += 1;
            info.stats.fault_wait_ns += waited;
        }
    }

    /// Memory-quota enforcement on the demand path: while the current
    /// tenant is at or over its frame quota, evict one of its *own*
    /// pages, so over-quota tenants recycle their own frames instead of
    /// taking anyone else's — and a quota-starved tenant still makes
    /// progress.
    #[inline]
    pub(super) fn enforce_memory_quota(&mut self) {
        let cur = self.tenancy.cur;
        let Some(info) = self.tenancy.tenants.get(cur as usize) else {
            return;
        };
        let Some(q) = info.spec.memory_frames else {
            return;
        };
        let q = q.max(1);
        while self.tenant_usage(cur) >= q {
            if !self.evict_own_page(cur) {
                break; // everything left is in flight; let it land
            }
        }
    }

    /// Evict one of the tenant's active resident pages, found by the
    /// clock sweep over its own segment. Returns `false` if nothing was
    /// evictable.
    fn evict_own_page(&mut self, t: TenantId) -> bool {
        let info = &self.tenancy.tenants[t as usize];
        let (first, pages, mut hand) = (info.first_page, info.pages, info.hand);
        let victim = self.clock_sweep(first, pages, &mut hand, &mut 0);
        self.tenancy.tenants[t as usize].hand = hand;
        let Some(v) = victim else {
            return false;
        };
        // Through the free list so dirty pages get their writeback,
        // then straight back off it: the frame goes to the global pool,
        // not to a neighbour's reclaim.
        self.queue_on_free_list(v, true);
        if let Some(p) = self.free_list.pop_front() {
            debug_assert_eq!(p, v);
            self.reclaim(p);
        }
        self.tenancy.tenants[t as usize].stats.quota_evictions += 1;
        self.trace_event(TraceEvent::Eviction { page: v });
        true
    }

    /// Open the arbitration of one prefetch hint from the current
    /// tenant.
    #[inline]
    pub(super) fn hint_arbiter(&self) -> HintArbiter {
        let multi = !self.tenancy.tenants.is_empty();
        let spec = self.tenant_spec(self.tenancy.cur);
        HintArbiter {
            multi,
            level: self.pressure_level(),
            spec,
            mem_used: (multi && spec.memory_frames.is_some())
                .then(|| self.tenant_usage(self.tenancy.cur)),
        }
    }

    /// The arbitration gate in front of an unmapped hint page on a
    /// multi-tenant machine. Returns whether the page was dropped, and
    /// if so has recorded why: shed under pressure, or over a quota.
    pub(super) fn arbiter_drops(&mut self, arb: &HintArbiter, vpage: u64) -> bool {
        let t = self.tenancy.cur;
        let inflight = self.tenancy.tenants[t as usize].stats.inflight_prefetch;
        // Pressure shedding, strictly QoS-ordered: brownout drops every
        // non-guaranteed hint; elevation clamps best-effort pipelining.
        let shed = match (arb.spec.qos, arb.level) {
            (QosClass::Guaranteed, _) => false,
            (_, PressureLevel::Brownout) => true,
            (QosClass::BestEffort, PressureLevel::Elevated) => {
                inflight >= ELEVATED_BEST_EFFORT_SLOTS
            }
            _ => false,
        };
        let over_slots = arb.spec.prefetch_slots.is_some_and(|q| inflight >= q);
        let over_mem = match (arb.mem_used, arb.spec.memory_frames) {
            (Some(u), Some(q)) => u >= q.max(1),
            _ => false,
        };
        if shed {
            self.drop_hint(vpage, false);
        } else if over_slots || over_mem {
            self.drop_hint(vpage, true);
        }
        shed || over_slots || over_mem
    }

    /// Drop one prefetch hint page at the arbitration gate, attributed
    /// to the current tenant's `quota` (true) or to pressure shedding
    /// (false).
    fn drop_hint(&mut self, vpage: u64, quota: bool) {
        self.stats.prefetch_pages_dropped += 1;
        let t = self.tenancy.cur;
        if quota {
            self.stats.hints_dropped_quota += 1;
            self.tenancy.tenants[t as usize].stats.hints_dropped_quota += 1;
            if let Some(mx) = &mut self.observe.metrics {
                mx.ledger.dropped_quota();
            }
            self.trace_event(TraceEvent::HintDropQuota {
                page: vpage,
                tenant: t,
            });
        } else {
            self.stats.hints_dropped_pressure += 1;
            self.tenancy.tenants[t as usize]
                .stats
                .hints_dropped_pressure += 1;
            if let Some(mx) = &mut self.observe.metrics {
                mx.ledger.dropped_pressure();
            }
            self.trace_event(TraceEvent::HintDropPressure {
                page: vpage,
                tenant: t,
            });
        }
        // Like a memory-pressure drop: keep the tag so a later fault on
        // the page classifies as "prefetched but lost" (Figure 4(a)).
        self.pages[vpage as usize].flags |= Page::PREFETCH_TAG;
    }
}
