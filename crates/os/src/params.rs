//! Machine configuration parameters.

use oocp_disk::{DiskParams, SchedConfig};
use oocp_policy::PolicyKind;
use oocp_sim::time::{Ns, MICROSECOND, MILLISECOND};

use crate::error::ConfigError;

/// Redundancy scheme of the swap file's on-disk layout.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Redundancy {
    /// Plain round-robin striping, no redundancy: a permanent disk
    /// death loses data. The default — every pre-existing cell stays
    /// bit-identical.
    #[default]
    None,
    /// RAID-5-style rotating parity: each stripe row of width `ndisks`
    /// carries one XOR parity block on a rotating disk, so the machine
    /// survives any single whole-disk death via degraded reads and an
    /// online rebuild onto a hot spare.
    Parity,
}

impl Redundancy {
    /// Parse a `--redundancy` command-line value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(Redundancy::None),
            "parity" => Some(Redundancy::Parity),
            _ => None,
        }
    }

    /// The command-line name of this scheme.
    pub fn name(&self) -> &'static str {
        match self {
            Redundancy::None => "none",
            Redundancy::Parity => "parity",
        }
    }
}

/// Configuration of the simulated machine: memory geometry, OS overheads,
/// and the disk subsystem.
///
/// Two presets are provided: [`MachineParams::paper_platform`] mirrors the
/// paper's Table 1 Hector/Hurricane configuration (64 MB of memory of
/// which ~48 MB is available to the application, 7 disks, 4 KB pages,
/// heavily instrumented OS paths), and [`MachineParams::small`] is a
/// scaled-down configuration used by the test suite. All overheads are
/// explicit so the benchmark harness can run sensitivity sweeps.
#[derive(Clone, Copy, Debug)]
pub struct MachineParams {
    /// Page size in bytes. Must be a power of two.
    pub page_bytes: u64,
    /// Number of page frames available to the application (the paper's
    /// "~48 MB available" out of 64 MB physical).
    pub resident_limit: u64,
    /// Frames held back from prefetch allocation so a demand fault can
    /// always be serviced without waiting on hint traffic.
    pub demand_reserve: u64,
    /// Pageout daemon low watermark: replenishment starts when
    /// free + reclaimable frames drop below this.
    pub low_water: u64,
    /// Pageout daemon high watermark: replenishment stops here.
    pub high_water: u64,
    /// Kernel time to handle a hard (disk-backed) page fault, excluding
    /// the disk wait itself.
    pub fault_overhead_ns: Ns,
    /// Kernel time to handle a soft fault (reclaim from the free list).
    pub soft_fault_overhead_ns: Ns,
    /// Fixed kernel cost of a prefetch/release system call.
    pub hint_syscall_ns: Ns,
    /// Additional kernel cost per page examined inside a hint call.
    pub hint_per_page_ns: Ns,
    /// Number of disks the file system stripes across.
    pub ndisks: usize,
    /// Physical parameters of each disk.
    pub disk: DiskParams,
    /// Per-disk I/O scheduler configuration (policy, queue depth,
    /// coalescing). The default is the paper baseline: unbounded FCFS
    /// with no coalescing.
    pub sched: SchedConfig,
    /// Retries granted to a failed demand read or write-back before the
    /// error surfaces (prefetch reads never retry — they are hints).
    pub io_max_retries: u32,
    /// First retry backoff; doubles on each subsequent retry of the same
    /// request (a brownout error instead waits out the stated window).
    pub io_backoff_base_ns: Ns,
    /// Total time one request may spend waiting between retries before
    /// the error surfaces regardless of the retry count.
    pub io_retry_budget_ns: Ns,
    /// Whether dirty-page writebacks go through the write-ahead journal
    /// when the machine runs in durability mode (a crash is scheduled).
    /// Disabling it is how the negative CI gate proves a torn write
    /// without WAL protection loses data. Fault-free runs never
    /// journal regardless, so the default timings are unaffected.
    pub journal: bool,
    /// Journal ring size per disk, in blocks (two blocks per record).
    pub journal_blocks_per_disk: u64,
    /// Which prefetch policy the machine runs alongside (or instead of)
    /// the compiler's hints. The default, `CompilerOnly`, installs no
    /// policy object at all, so the machine is bit-identical to a
    /// build without the policy subsystem.
    pub policy: PolicyKind,
    /// On-disk redundancy of the swap file. The default, `None`,
    /// keeps the exact historical striping formulas and issues no
    /// parity I/O, so every pre-existing cell stays bit-identical;
    /// `Parity` survives one whole-disk death.
    pub redundancy: Redundancy,
}

impl MachineParams {
    /// The paper's Table 1 platform, scaled faithfully: 4 KB pages, 7
    /// disks, 48 MB of application-available memory, instrumentation-
    /// inflated kernel overheads.
    ///
    /// The exact Table 1 numbers are not recoverable from the paper text
    /// (the table is an image), so the overheads are set to values
    /// consistent with the prose: fault handling is hundreds of
    /// microseconds on the 16.7 MHz Hector with instrumentation enabled,
    /// a hint system call is of the same order, and the user-level filter
    /// check (see the run-time crate) is ~1% of the hint call.
    pub fn paper_platform() -> Self {
        Self {
            page_bytes: 4096,
            resident_limit: 48 * 1024 * 1024 / 4096, // 48 MB
            demand_reserve: 16,
            low_water: 64,
            high_water: 256,
            fault_overhead_ns: 500 * MICROSECOND,
            soft_fault_overhead_ns: 120 * MICROSECOND,
            hint_syscall_ns: 250 * MICROSECOND,
            hint_per_page_ns: 25 * MICROSECOND,
            ndisks: 7,
            disk: DiskParams::default(),
            sched: SchedConfig::default(),
            io_max_retries: 6,
            io_backoff_base_ns: 2 * MILLISECOND,
            io_retry_budget_ns: 2000 * MILLISECOND,
            journal: true,
            journal_blocks_per_disk: 64,
            policy: PolicyKind::CompilerOnly,
            redundancy: Redundancy::None,
        }
    }

    /// A 2020s machine: one SATA SSD, microsecond-scale kernel paths
    /// (post-Meltdown syscalls still cost ~1 us), gigahertz CPU. Used by
    /// the `modern` experiment to ask whether the paper's conclusion
    /// survives 25 years of hardware evolution.
    pub fn modern_ssd() -> Self {
        Self {
            page_bytes: 4096,
            resident_limit: 48 * 1024 * 1024 / 4096,
            demand_reserve: 16,
            low_water: 64,
            high_water: 256,
            fault_overhead_ns: 3_000,
            soft_fault_overhead_ns: 800,
            hint_syscall_ns: 1_200,
            hint_per_page_ns: 120,
            ndisks: 1,
            disk: DiskParams::ssd(),
            sched: SchedConfig::default(),
            io_max_retries: 6,
            io_backoff_base_ns: 100 * MICROSECOND,
            io_retry_budget_ns: 500 * MILLISECOND,
            journal: true,
            journal_blocks_per_disk: 64,
            policy: PolicyKind::CompilerOnly,
            redundancy: Redundancy::None,
        }
    }

    /// Like [`MachineParams::modern_ssd`] but with an NVMe drive.
    pub fn modern_nvme() -> Self {
        Self {
            disk: DiskParams::nvme(),
            ..Self::modern_ssd()
        }
    }

    /// A scaled-down machine (2 MB of application memory, 7 disks) used
    /// by unit and integration tests; identical overhead ratios to
    /// [`MachineParams::paper_platform`].
    pub fn small() -> Self {
        Self {
            resident_limit: 2 * 1024 * 1024 / 4096, // 2 MB = 512 frames
            demand_reserve: 8,
            low_water: 16,
            high_water: 64,
            ..Self::paper_platform()
        }
    }

    /// Same configuration with a different amount of application memory.
    ///
    /// Watermarks and the demand reserve are clamped so small memories
    /// stay internally consistent.
    pub fn with_memory_bytes(mut self, bytes: u64) -> Self {
        self.resident_limit = (bytes / self.page_bytes).max(8);
        self.high_water = self.high_water.min(self.resident_limit / 4);
        self.low_water = self.low_water.min(self.high_water / 2).max(1);
        self.demand_reserve = self.demand_reserve.min((self.resident_limit / 16).max(1));
        self
    }

    /// Same configuration with a different disk count.
    pub fn with_ndisks(mut self, n: usize) -> Self {
        self.ndisks = n;
        self
    }

    /// Same configuration with a different I/O scheduler.
    pub fn with_sched(mut self, sched: SchedConfig) -> Self {
        self.sched = sched;
        self
    }

    /// Same configuration with a different prefetch policy.
    pub fn with_prefetch_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Same configuration with a different redundancy scheme.
    pub fn with_redundancy(mut self, redundancy: Redundancy) -> Self {
        self.redundancy = redundancy;
        self
    }

    /// Application-available memory in bytes.
    pub fn memory_bytes(&self) -> u64 {
        self.resident_limit * self.page_bytes
    }

    /// Check internal consistency, reporting the first problem found as
    /// a typed [`ConfigError`]. The bench binaries call this on every
    /// command-line-assembled configuration and exit with the message
    /// instead of panicking.
    pub fn check(&self) -> Result<(), ConfigError> {
        if !(self.page_bytes.is_power_of_two() && self.page_bytes >= 512) {
            return Err(ConfigError::BadPageSize {
                page_bytes: self.page_bytes,
            });
        }
        if self.resident_limit < 8 {
            return Err(ConfigError::TooFewFrames {
                resident_limit: self.resident_limit,
            });
        }
        if self.demand_reserve >= self.resident_limit {
            return Err(ConfigError::ReserveTooLarge {
                demand_reserve: self.demand_reserve,
                resident_limit: self.resident_limit,
            });
        }
        if self.low_water > self.high_water {
            return Err(ConfigError::InvertedWatermarks {
                low_water: self.low_water,
                high_water: self.high_water,
            });
        }
        if self.high_water >= self.resident_limit {
            return Err(ConfigError::HighWaterTooHigh {
                high_water: self.high_water,
                resident_limit: self.resident_limit,
            });
        }
        if self.ndisks == 0 {
            return Err(ConfigError::NoDisks);
        }
        if self.disk.block_bytes != self.page_bytes {
            return Err(ConfigError::BlockSizeMismatch {
                block_bytes: self.disk.block_bytes,
                page_bytes: self.page_bytes,
            });
        }
        if self.journal && self.journal_blocks_per_disk < 2 {
            return Err(ConfigError::JournalTooSmall {
                journal_blocks_per_disk: self.journal_blocks_per_disk,
            });
        }
        if self.redundancy == Redundancy::Parity && self.ndisks < 2 {
            return Err(ConfigError::ParityNeedsTwoDisks {
                ndisks: self.ndisks,
            });
        }
        self.sched.check()?;
        Ok(())
    }

    /// Validate internal consistency; called by the machine constructor.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical configurations (zero/non-power-of-two page
    /// size, watermarks out of order, no disks, reserve exceeding
    /// memory). These are programming errors in experiment setup;
    /// callers assembling parameters from untrusted input use
    /// [`MachineParams::check`] instead.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

impl Default for MachineParams {
    fn default() -> Self {
        Self::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        MachineParams::paper_platform().validate();
        MachineParams::small().validate();
        MachineParams::default().validate();
    }

    #[test]
    fn paper_platform_matches_table1_shape() {
        let p = MachineParams::paper_platform();
        assert_eq!(p.page_bytes, 4096);
        assert_eq!(p.ndisks, 7);
        assert_eq!(p.memory_bytes(), 48 * 1024 * 1024);
    }

    #[test]
    fn default_policy_is_compiler_only() {
        assert_eq!(MachineParams::small().policy, PolicyKind::CompilerOnly);
        assert_eq!(
            MachineParams::small()
                .with_prefetch_policy(PolicyKind::Readahead)
                .policy,
            PolicyKind::Readahead
        );
    }

    #[test]
    fn with_memory_bytes_adjusts_frames() {
        let p = MachineParams::small().with_memory_bytes(8 * 1024 * 1024);
        assert_eq!(p.resident_limit, 2048);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_page_size_rejected() {
        let mut p = MachineParams::small();
        p.page_bytes = 3000;
        p.validate();
    }

    #[test]
    #[should_panic(expected = "watermark")]
    fn inverted_watermarks_rejected() {
        let mut p = MachineParams::small();
        p.low_water = p.high_water + 1;
        p.validate();
    }

    #[test]
    fn check_reports_typed_errors() {
        let mut p = MachineParams::small();
        p.resident_limit = 0;
        assert_eq!(
            p.check(),
            Err(ConfigError::TooFewFrames { resident_limit: 0 })
        );

        let mut p = MachineParams::small();
        p.sched.queue_depth = 0;
        assert!(matches!(p.check(), Err(ConfigError::Sched(_))));
        assert!(p.check().unwrap_err().to_string().contains("queue depth"));

        assert_eq!(MachineParams::paper_platform().check(), Ok(()));
    }
}
