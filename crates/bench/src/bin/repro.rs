//! `repro` — regenerate the paper's tables and figures.
//!
//! `repro <name> [flags]` runs one experiment, `repro --all [flags]`
//! every one, `repro --list` names them; the table is
//! `oocp_bench::experiments`. Exit status: 0 ok, 1 a run failed
//! verification, 2 usage.

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(oocp_bench::experiments::repro(&argv))
}
