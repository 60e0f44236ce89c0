//! Multi-tenant policy types: per-tenant quotas, QoS classes, and the
//! global pressure levels the arbiter sheds load by.
//!
//! The paper's machine hosts one application; ROADMAP item 1 asks what
//! happens when hundreds of co-scheduled programs share the free list
//! and the disk array. The types here describe *policy* only — the
//! mechanisms (per-tenant residency bits, quota-bounded frame
//! allocation, pressure-ordered hint shedding, tenant-aware disk
//! scheduling) live in [`crate::Machine`] and the disk crate. A machine
//! that never registers a tenant behaves bit-for-bit as before: the
//! implicit solo tenant is [`QosClass::Guaranteed`] with unlimited
//! quotas.

use oocp_sim::time::Ns;

/// Identifies one registered tenant (dense, starting at 0 in
/// registration order). Also used as the disk layer's request tag.
pub type TenantId = u32;

/// Service class used by the pressure arbiter to order load shedding.
///
/// Shedding is strictly class-ordered: `BestEffort` tenants lose their
/// prefetch pipelining first (clamped under [`PressureLevel::Elevated`],
/// dropped under [`PressureLevel::Brownout`]), `Burstable` tenants keep
/// hints until brownout, and `Guaranteed` tenants' hints are never shed
/// by pressure (only their own quotas bound them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum QosClass {
    /// Lowest class: first to lose prefetching under pressure.
    BestEffort,
    /// Middle class: hints survive elevation, shed under brownout.
    Burstable,
    /// Highest class: pressure never sheds its hints. The implicit solo
    /// tenant's class, so single-program runs are unaffected.
    #[default]
    Guaranteed,
}

/// Global memory-pressure level, classified from the free-frame pool
/// against the pageout watermarks (see [`crate::Machine::pressure_level`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum PressureLevel {
    /// Pool at or above the high watermark: no shedding.
    #[default]
    Nominal,
    /// Pool between the watermarks: the daemon is working to keep up;
    /// best-effort tenants' pipelining depth is clamped.
    Elevated,
    /// Pool below the low watermark: replenishment is losing. All
    /// non-guaranteed hints are dropped and the runtime layer pushes
    /// low-QoS tenants into demand-only degraded mode.
    Brownout,
}

/// Under [`PressureLevel::Elevated`], a best-effort tenant may keep at
/// most this many prefetch pages in flight; hints past the clamp are
/// dropped with reason `pressure`.
pub const ELEVATED_BEST_EFFORT_SLOTS: u64 = 4;

/// Per-tenant resource policy, fixed at registration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantSpec {
    /// Service class for pressure shedding.
    pub qos: QosClass,
    /// Maximum frames the tenant may hold (active resident + in-flight);
    /// `None` is unlimited. A demand fault over quota evicts one of the
    /// tenant's *own* pages first, so a quota-starved tenant still makes
    /// progress on its own recycled frames. Treated as at least 1.
    pub memory_frames: Option<u64>,
    /// Maximum prefetch pages the tenant may keep in flight; `None` is
    /// unlimited. Hints past the quota are dropped with reason `quota`.
    pub prefetch_slots: Option<u64>,
}

impl TenantSpec {
    /// A guaranteed tenant with unlimited quotas — the implicit solo
    /// tenant's policy.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Builder: set the QoS class.
    #[must_use]
    pub fn with_qos(mut self, qos: QosClass) -> Self {
        self.qos = qos;
        self
    }

    /// Builder: cap resident + in-flight frames.
    #[must_use]
    pub fn with_memory_frames(mut self, frames: u64) -> Self {
        self.memory_frames = Some(frames);
        self
    }

    /// Builder: cap in-flight prefetch pages.
    #[must_use]
    pub fn with_prefetch_slots(mut self, slots: u64) -> Self {
        self.prefetch_slots = Some(slots);
        self
    }
}

/// Per-tenant counters maintained by the machine (the shared [`crate::OsStats`]
/// aggregates them across tenants; these attribute the same events to
/// their owner).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Demand faults (hard) charged to this tenant.
    pub demand_faults: u64,
    /// Total demand-stall time attributed to this tenant.
    pub fault_wait_ns: Ns,
    /// Prefetch pages this tenant put in flight.
    pub prefetch_pages_issued: u64,
    /// Hint pages dropped because the tenant's prefetch-slot or memory
    /// quota was exhausted.
    pub hints_dropped_quota: u64,
    /// Hint pages shed by the pressure arbiter (elevation clamp or
    /// brownout).
    pub hints_dropped_pressure: u64,
    /// Own-page evictions forced by the memory quota on a demand fault.
    pub quota_evictions: u64,
    /// Live gauge: prefetch pages currently in flight.
    pub inflight_prefetch: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qos_orders_by_shedding_priority() {
        assert!(QosClass::BestEffort < QosClass::Burstable);
        assert!(QosClass::Burstable < QosClass::Guaranteed);
        assert_eq!(QosClass::default(), QosClass::Guaranteed);
    }

    #[test]
    fn pressure_orders_by_severity() {
        assert!(PressureLevel::Nominal < PressureLevel::Elevated);
        assert!(PressureLevel::Elevated < PressureLevel::Brownout);
    }

    #[test]
    fn spec_builders_compose() {
        let s = TenantSpec::unlimited()
            .with_qos(QosClass::BestEffort)
            .with_memory_frames(16)
            .with_prefetch_slots(8);
        assert_eq!(s.qos, QosClass::BestEffort);
        assert_eq!(s.memory_frames, Some(16));
        assert_eq!(s.prefetch_slots, Some(8));
    }
}
