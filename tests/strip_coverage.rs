//! How much of each NAS cell runs in strips, as a count: every program,
//! original and prefetching, runs under a wrapper `PagedVm` that
//! forwards everything to the run-time layer and counts the loads and
//! stores made one call at a time against those a strip's bulk charge
//! stood in for. Each cell's share is floored, so a strip the machine
//! or the filter starts refusing turns a cell red by name.

use oocp_bench::{Config, Mode};
use oocp_core::compile;
use oocp_ir::vm::{StripCharge, StripRefs};
use oocp_ir::{run_program, PagedVm};
use oocp_nas::{build, App};
use oocp_rt::{FilterMode, Runtime};

/// The run-time layer, its references counted by how they were made.
struct Counting {
    rt: Runtime,
    one_by_one: u64,
    in_strips: u64,
}

impl PagedVm for Counting {
    fn page_bytes(&self) -> u64 {
        self.rt.page_bytes()
    }
    fn tick_user(&mut self, ns: u64) {
        self.rt.tick_user(ns);
    }
    fn load_f64(&mut self, addr: u64) -> f64 {
        self.one_by_one += 1;
        self.rt.load_f64(addr)
    }
    fn store_f64(&mut self, addr: u64, v: f64) {
        self.one_by_one += 1;
        self.rt.store_f64(addr, v);
    }
    fn load_i64(&mut self, addr: u64) -> i64 {
        self.one_by_one += 1;
        self.rt.load_i64(addr)
    }
    fn store_i64(&mut self, addr: u64, v: i64) {
        self.one_by_one += 1;
        self.rt.store_i64(addr, v);
    }
    fn prefetch(&mut self, addr: u64, pages: u64) {
        self.rt.prefetch(addr, pages);
    }
    fn release(&mut self, addr: u64, pages: u64) {
        self.rt.release(addr, pages);
    }
    fn prefetch_release(&mut self, pf: u64, pf_pages: u64, rel: u64, rel_pages: u64) {
        self.rt.prefetch_release(pf, pf_pages, rel, rel_pages);
    }
    fn strip(&mut self, refs: StripRefs, want: u64, lead: u64, iter: u64) -> (u64, &mut [u8]) {
        self.rt.strip(refs, want, lead, iter)
    }
    fn strip_charge(&mut self, charge: StripCharge) {
        self.in_strips += charge.accesses;
        self.rt.strip_charge(charge);
    }
}

/// The share of `app`'s references, in `mode`, that ran in strips on
/// `cfg`'s machine with data at `ratio` of its memory.
fn strip_share(cfg: &Config, ratio: f64, app: App, mode: Mode) -> f64 {
    let w = build(app, cfg.bytes_for_ratio(ratio));
    let prog = match mode {
        Mode::Original => w.prog.clone(),
        _ => compile(&w.prog, &cfg.compiler_params()).0,
    };
    let (mut rt, binds) = Runtime::for_program(cfg.machine, &w.prog, FilterMode::Enabled);
    w.init(&binds, &mut rt, cfg.seed);
    let mut vm = Counting {
        rt,
        one_by_one: 0,
        in_strips: 0,
    };
    run_program(&prog, &binds, &w.param_values, cfg.cost, &mut vm);
    vm.rt.machine_mut().finish();
    assert_eq!(w.verify(&binds, &vm.rt), Ok(()), "{app:?}");
    vm.in_strips as f64 / (vm.in_strips + vm.one_by_one) as f64
}

#[test]
fn every_nas_cell_keeps_its_strip_coverage() {
    let machine = |kib: u64| {
        let mut cfg = Config::default_platform();
        cfg.machine = cfg.machine.with_memory_bytes(kib * 1024);
        cfg
    };
    let machines = [("incore", machine(512), 0.5), ("ooc", machine(128), 2.0)];
    let mut shares = Vec::new();
    let mut low = Vec::new();
    for (app, floors) in FLOORS {
        let cells = machines
            .iter()
            .flat_map(|m| [(m, Mode::Original), (m, Mode::Prefetch)]);
        for (((name, cfg, ratio), mode), floor) in cells.zip(floors) {
            let share = strip_share(cfg, *ratio, app, mode);
            let cell = format!("{name}/{app:?}.{}", mode.label());
            if share < floor {
                low.push(format!("{cell}: {share:.5} < {floor}"));
            }
            shares.push(format!("{cell} {share:.5}"));
        }
    }
    assert!(
        low.is_empty(),
        "strip coverage fell: {low:?}\nall cells: {}",
        shares.join(", ")
    );
}

/// Each application's floors: original and prefetching on an in-core
/// machine of 512 KiB with data at half of it, then on an out-of-core
/// one of 128 KiB with data at twice it.
const FLOORS: [(App, [f64; 4]); 8] = [
    (App::Buk, [0.999, 0.982, 0.981, 0.968]),
    (App::Cgm, [0.979, 0.980, 0.976, 0.979]),
    (App::Embar, [0.999, 0.999, 0.997, 0.997]),
    (App::Fft, [0.999, 0.960, 0.998, 0.958]),
    (App::Mgrid, [0.998, 0.998, 0.993, 0.993]),
    (App::Applu, [0.999, 0.999, 0.997, 0.997]),
    (App::Appsp, [0.999, 0.959, 0.732, 0.710]),
    (App::Appbt, [0.835, 0.835, 0.835, 0.834]),
];
