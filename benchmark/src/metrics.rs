//! The benchmark's vocabulary: every metric's name, unit and direction,
//! and for end-to-end metrics the regression bound. `BENCHMARK.json`
//! states the same tables; a test holds the two together.

use oocp_obs::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may get worse.
    pub bound: f64,
}

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The host-time bounds are as wide as the driver's contract allows
/// because the reference box is a shared VM whose speed drifts by 10 %
/// and more over minutes (README, "Reference box"); on a quiet host
/// 0.10 would do. Memory is steady to a percent. Simulated metrics
/// repeat exactly for one seed; their bound only has to clear what
/// changing the seed does to the NAS inputs.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("host_exec_s", "s", Lower, 0.25),
    e2e("mrefs_per_s", "Mref/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("sim_total_s", "sim-s", Lower, 0.01),
    e2e("sim_speedup", "x", Higher, 0.01),
    e2e("sim_stall_elim", "share", Higher, 0.01),
    e2e("sim_fault_coverage", "share", Higher, 0.01),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// What a traced run reports. Phase spans, then the `ir` -> `rt`
/// boundary, then exact counters per crate.
pub const PER_LAYER: [PerLayer; 58] = [
    layer("nas.build_s", "s", Lower),
    layer("core.compile_s", "s", Lower),
    layer("os.machine_new_s", "s", Lower),
    layer("nas.init_s", "s", Lower),
    layer("ir.exec_s", "s", Lower),
    layer("os.finish_s", "s", Lower),
    layer("nas.verify_s", "s", Lower),
    layer("rt.load.calls", "count", Lower),
    layer("rt.load.busy_s", "s", Lower),
    layer("rt.store.calls", "count", Lower),
    layer("rt.store.busy_s", "s", Lower),
    layer("rt.tick_user.calls", "count", Lower),
    layer("rt.tick_user.busy_s", "s", Lower),
    layer("rt.prefetch.calls", "count", Lower),
    layer("rt.prefetch.busy_s", "s", Lower),
    layer("rt.release.calls", "count", Lower),
    layer("rt.release.busy_s", "s", Lower),
    layer("rt.prefetch_release.calls", "count", Lower),
    layer("rt.prefetch_release.busy_s", "s", Lower),
    layer("ir.self_s", "s", Lower),
    layer("ir.self_share", "share", Lower),
    layer("ir.memvm_exec_s", "s", Lower),
    layer("bench.trace_overhead", "x", Lower),
    layer("bench.sim_throughput", "sim-s/s", Higher),
    layer("ir.loads", "count", Lower),
    layer("ir.stores", "count", Lower),
    layer("ir.iters", "count", Lower),
    layer("ir.prefetch_stmts", "count", Lower),
    layer("ir.release_stmts", "count", Lower),
    layer("rt.prefetch_ops", "count", Lower),
    layer("rt.bit_checks", "count", Lower),
    layer("rt.pages_filtered", "count", Higher),
    layer("rt.prefetch_syscalls", "count", Lower),
    layer("rt.release_syscalls", "count", Lower),
    layer("rt.filtered_fraction", "share", Higher),
    layer("os.hard_faults", "count", Lower),
    layer("os.prefetched_hits", "count", Higher),
    layer("os.prefetched_faults_inflight", "count", Lower),
    layer("os.prefetch_pages_issued", "count", Lower),
    layer("os.prefetch_pages_dropped", "count", Lower),
    layer("os.prefetch_useful_share", "share", Higher),
    layer("os.release_pages_effective", "count", Higher),
    layer("os.writebacks", "count", Lower),
    layer("os.daemon_evictions", "count", Lower),
    layer("os.parity_writes", "count", Lower),
    layer("os.sim_user_s", "sim-s", Lower),
    layer("os.sim_sys_fault_s", "sim-s", Lower),
    layer("os.sim_sys_prefetch_s", "sim-s", Lower),
    layer("os.sim_idle_s", "sim-s", Lower),
    layer("os.sim_fault_wait_mean_ms", "sim-ms", Lower),
    layer("disk.demand_reads", "count", Lower),
    layer("disk.prefetch_reads", "count", Lower),
    layer("disk.writes", "count", Lower),
    layer("disk.busy_share", "share", Higher),
    layer("disk.demand_wait_ms_mean", "sim-ms", Lower),
    layer("disk.queue_depth_hwm", "count", Lower),
    layer("disk.coalesced_requests", "count", Higher),
    layer("bench.timer_gap_ns", "ns", Lower),
];

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Self {
            name: name.into(),
            value,
            unit: unit.to_string(),
        }
    }

    /// Whether the value depends on the host the run happened on.
    /// Everything else an untraced run prints is simulated, and must be
    /// identical whenever the seed is.
    pub fn host_dependent(&self) -> bool {
        ["s", "Mref/s", "MB", "sim-s/s", "passes"].contains(&self.unit.as_str())
    }
}

/// The `name value unit` row every mode prints.
impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {}", self.name, self.value, self.unit)
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`, the shape the result
/// line carries.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let v = Json::obj([
                    ("value", Json::F64(m.value)),
                    ("unit", Json::Str(m.unit.clone())),
                ]);
                (m.name.clone(), v)
            })
            .collect(),
    )
}

/// The declared tables, so a results file explains itself.
pub fn declared_json() -> Json {
    let row = |name: &str, unit: &str, better: Better| {
        vec![
            ("name", Json::Str(name.to_string())),
            ("unit", Json::Str(unit.to_string())),
            ("better", Json::Str(better.label().to_string())),
        ]
    };
    let e2e = END_TO_END.iter().map(|m| {
        let mut fields = row(m.name, m.unit, m.better);
        fields.push(("bound", Json::F64(m.bound)));
        Json::obj(fields)
    });
    let layers = PER_LAYER
        .iter()
        .map(|m| Json::obj(row(m.name, m.unit, m.better)));
    Json::obj([
        ("end_to_end", Json::Arr(e2e.collect())),
        ("per_layer", Json::Arr(layers.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field<'a>(j: &'a Json, key: &str) -> &'a Json {
        j.get(key).unwrap_or_else(|| panic!("missing {key}"))
    }

    /// `BENCHMARK.json` is what the outside reads; this table is what
    /// the binary reports. They must not drift apart.
    #[test]
    fn benchmark_json_states_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = oocp_obs::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let e2e = field(&doc, "end_to_end").as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name").as_str(), Some(m.name));
            assert_eq!(field(j, "unit").as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(field(j, "better").as_str(), Some(m.better.label()));
            assert_eq!(field(j, "bound").as_f64(), Some(m.bound), "{}", m.name);
        }
        let layers = field(&doc, "per_layer").as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name").as_str(), Some(m.name));
            assert_eq!(field(j, "unit").as_str(), Some(m.unit), "{}", m.name);
            assert_eq!(field(j, "better").as_str(), Some(m.better.label()));
        }
        let workloads: Vec<_> = field(&doc, "workloads")
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| field(w, "name").as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::workload::WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_bounds_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }
}
