//! `cargo test` runs the whole benchmark end to end at 1/64 scale:
//! every workload untraced and traced, with every check on.

use std::process::Command;

#[test]
fn smoke_passes() {
    let out = Command::new(env!("CARGO_BIN_EXE_oocp-benchmark"))
        .arg("--smoke")
        .output()
        .expect("benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "smoke failed:\n{stdout}\n{stderr}");
    assert_eq!(stdout.matches(": ok (").count(), 8, "{stdout}");
}

#[test]
fn an_unknown_workload_is_a_usage_error_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_oocp-benchmark"))
        .args(["--workload", "nope"])
        .output()
        .expect("benchmark binary starts");
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown workload is a usage error"
    );
    assert!(out.stdout.is_empty(), "and prints no result");
}
