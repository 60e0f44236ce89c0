//! The canonical kernel set: the matrix `perfgate` captures and the
//! rows `ablations` races its prefetch policies over.

use oocp_ir::parse_program;
use oocp_nas::{build, App};

use crate::{RunOutput, RunSpec};

/// One kernel of the set: a NAS benchmark, or a sample `kernels/*.ook`
/// program. The sources are compiled in, so a binary finds them from
/// any working directory.
#[derive(Clone, Copy)]
pub enum Kernel {
    /// A NAS benchmark, run at the 2x-memory headline ratio.
    Nas(App),
    /// A sample kernel, run as bare IR.
    Ook {
        /// File stem under `kernels/`.
        stem: &'static str,
        /// The file's text.
        source: &'static str,
        /// Values of the program's `param`s, in declaration order.
        params: &'static [i64],
        /// The memory size the file's header comment documents.
        mem_mb: u64,
    },
}

macro_rules! ook {
    ($stem:literal, $params:expr, $mem_mb:expr) => {
        Kernel::Ook {
            stem: $stem,
            source: include_str!(concat!("../../../kernels/", $stem, ".ook")),
            params: &$params,
            mem_mb: $mem_mb,
        }
    };
}

impl Kernel {
    /// The full NAS suite, then every sample kernel.
    pub fn all() -> Vec<Kernel> {
        let mut v: Vec<Kernel> = App::ALL.iter().map(|&a| Kernel::Nas(a)).collect();
        v.extend([
            ook!("histogram", [500_000], 2),
            ook!("matmul", [], 1),
            ook!("stencil", [], 4),
            ook!("sumreduce", [], 2),
            ook!("transpose", [], 4),
        ]);
        v
    }

    /// `EMBAR`, `ook:stencil`, ...: the name baselines and tables use.
    pub fn name(&self) -> String {
        match self {
            Kernel::Nas(app) => app.name().to_string(),
            Kernel::Ook { stem, .. } => format!("ook:{stem}"),
        }
    }

    /// Run the kernel as `spec` describes.
    pub fn run(&self, spec: &RunSpec) -> RunOutput {
        match self {
            Kernel::Nas(app) => spec.run(&build(*app, spec.cfg.bytes_for_ratio(2.0))),
            Kernel::Ook {
                stem,
                source,
                params,
                ..
            } => {
                // `every_sample_kernel_parses` holds this.
                let prog = parse_program(source)
                    .unwrap_or_else(|e| panic!("kernels/{stem}.ook does not parse: {e}"));
                spec.run_ir(&prog, params)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sample_kernel_parses() {
        let all = Kernel::all();
        assert_eq!(all.len(), 13);
        for k in all {
            if let Kernel::Ook { stem, source, .. } = k {
                parse_program(source).unwrap_or_else(|e| panic!("kernels/{stem}.ook: {e}"));
            }
        }
    }
}
