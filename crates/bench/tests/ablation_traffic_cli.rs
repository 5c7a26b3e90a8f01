//! The traffic ablation runs to completion on the quick preset, whose
//! geometric arrival sampling does not cover its on/off (bursty) row.

use std::process::Command;

#[test]
fn ablation_traffic_quick_runs_every_workload() {
    let out = Command::new(env!("CARGO_BIN_EXE_ablation_traffic"))
        .args(["--quick", "--samples", "1"])
        .output()
        .expect("ablation_traffic runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stdout.contains("uniform bursty"), "stdout: {stdout}");
}
