//! Operating-system substrate: paged virtual memory with non-binding
//! prefetch and release hints.
//!
//! This crate models the Hurricane-side half of the paper: a paged VM
//! whose demand faults cost the full disk latency, extended with the
//! paper's two hint operations:
//!
//! * **prefetch** — a non-binding request to bring pages into memory.
//!   Already-resident pages make the hint (partially) unnecessary; pages
//!   on the free list are *reclaimed* (useful, no I/O); hints are dropped
//!   entirely when no memory is free.
//! * **release** — a hint that pages will not be referenced again soon.
//!   Released pages move to the front of the free list (dirty ones are
//!   cleaned first) but stay mapped until their frame is reused, so a
//!   premature release costs only a soft fault.
//!
//! The machine keeps the *data* of the whole virtual address space in a
//! backing store so that programs really execute; page residency is pure
//! metadata driving the timing model. Every simulated nanosecond is
//! attributed to user / system-fault / system-prefetch / idle, matching
//! the stacked bars of Figure 3(a).

pub mod bitvec;
pub mod error;
pub mod export;
mod image;
pub mod machine;
pub mod metrics;
pub mod params;
pub mod parity;
pub mod posix;
pub mod stats;
pub mod store;
pub mod tenant;
pub mod trace;

pub use bitvec::ResidencyBits;
pub use error::{ConfigError, FlushError, OsError};
pub use export::chrome_trace_json;
// Fault-injection types, re-exported so layers above the OS (the
// run-time filter, the bench harness) can build plans without a direct
// disk-crate dependency.
pub use machine::{DurableRecord, Machine, RecoveryReport, Segment, Touch};
pub use metrics::{MetricsReport, ObsMetrics};
// Observability types that appear in this crate's public API, re-
// exported for the same reason as the fault-injection types above.
pub use oocp_disk::{
    Brownout, CrashPoint, CrashSpec, DiskDeath, FaultPlan, IoError, PressureStorm, SchedConfig,
    SchedPolicy,
};
pub use oocp_obs::{
    LateCause, LatencyHist, LedgerCounts, MachineBucket, MachineProf, MetricsRegistry,
    PrefetchLedger, TimeAttribution, TimeSeriesRing, WhylateSummary,
};
// Prefetch-policy types, re-exported so the runtime and bench layers
// can select and install policies without a direct policy-crate
// dependency.
pub use oocp_policy::{
    HistoryReplay, PolicyActions, PolicyCounters, PolicyKind, PrefetchPolicy, TouchKind,
};
pub use params::{MachineParams, Redundancy};
pub use parity::ParityStore;
pub use posix::{madvise, Advice, MadviseError};
pub use stats::{FaultKind, OsStats};
pub use store::{page_checksum, DurableStore, SECTOR_BYTES};
pub use tenant::{
    PressureLevel, QosClass, TenantId, TenantSpec, TenantStats, ELEVATED_BEST_EFFORT_SLOTS,
};
pub use trace::{SpanLifecycle, Trace, TraceEvent, TraceRecord};
