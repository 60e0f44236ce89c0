//! `dash` reads its dump through the same JSONL reader as
//! `obsreport --check-metrics`: a dump the validator refuses is refused
//! here too, by exit status and with the offending line named.

use std::process::Command;

#[test]
fn dash_refuses_an_off_grid_dump_and_names_the_line() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("dash-off-grid.jsonl");
    let header = r#"{"schema":"oocp-metrics-v1","interval_ns":100,"dropped_rows":0,"series":["os.free_frames"]}"#;
    let rows = "{\"t\":700,\"v\":[1]}\n{\"t\":850,\"v\":[2]}\n";
    std::fs::write(&path, format!("{header}\n{rows}")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dash"))
        .arg(&path)
        .output()
        .expect("dash runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("line 3: timestamp 850 is not a multiple of interval_ns 100"),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing rendered from a bad dump");
}
