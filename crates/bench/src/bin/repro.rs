//! `repro` — regenerate the paper's tables and figures, and run the
//! sweeps and gates.
//!
//! `repro <name> [flags]` runs one row, `repro --all [flags]` every
//! paper experiment, `repro --list` names every row; the tables are
//! `oocp_bench::experiments`. Exit status: 0 ok, 1 a run failed
//! verification or a check did not hold, 2 usage.

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(oocp_bench::experiments::repro(&argv))
}
