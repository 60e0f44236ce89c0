//! Deterministic simulation substrate.
//!
//! This crate provides the timing machinery shared by the rest of the
//! out-of-core prefetching stack: a nanosecond clock, a time-accounting
//! ledger that attributes every simulated nanosecond to exactly one cost
//! category (user, system-fault, system-prefetch, idle), a seeded
//! pseudo-random generator, and small running-statistics helpers used
//! for sampled quantities such as free memory and disk queue depth.
//!
//! Everything here is deterministic: given the same inputs the whole
//! simulation produces bit-identical results, which the test suite relies
//! on heavily.

pub mod rng;
pub mod stats;
pub mod time;

pub use rng::SimRng;
pub use stats::RunningStat;
pub use time::{Ns, TimeBreakdown, TimeCategory};
