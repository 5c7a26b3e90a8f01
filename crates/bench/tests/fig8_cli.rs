//! The experiment binaries refuse grid settings they cannot run: each bad
//! value exits with status 2 and a message naming its flag, before any
//! topology is generated, instead of panicking inside the grid. Settings
//! they can run exit 0, even when no packet is delivered.

use std::process::Command;

#[test]
fn fig8_rejects_settings_the_grid_cannot_run() {
    let cases = [
        ("samples", "0"),
        ("switches", "1"),
        ("ports", "1"),
        ("ports", "20"),
        ("rates", "-0.1"),
        ("rates", "nan"),
        ("packet-len", "1"),
        ("measure", "0"),
    ];
    for (flag, value) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_fig8"))
            .arg(format!("--{flag}"))
            .arg(value)
            .arg("--out")
            .arg(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("fig8 runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "--{flag} {value} must be a usage error; stderr: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "--{flag} {value} panicked: {stderr}"
        );
        assert!(
            stderr.contains(&format!("--{flag}")),
            "--{flag} {value}: the message must name the flag: {stderr}"
        );
    }
}

#[test]
fn fig8_at_zero_load_writes_the_csv_and_skips_the_empty_latency_chart() {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fig8_rates_0");
    let _ = std::fs::remove_dir_all(&out_dir);
    let out = Command::new(env!("CARGO_BIN_EXE_fig8"))
        .args(["--quick", "--rates", "0", "--out"])
        .arg(&out_dir)
        .output()
        .expect("fig8 runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let csv = std::fs::read_to_string(out_dir.join("fig8.csv")).expect("fig8.csv written");
    assert_eq!(
        csv.lines().count(),
        3,
        "header plus one row per algorithm: {csv}"
    );
    assert!(
        stderr.contains("skipped") && stderr.contains("latency.svg"),
        "{stderr}"
    );
    assert!(!out_dir.join("fig8_4port_latency.svg").exists());
    assert!(out_dir.join("fig8_4port_accepted.svg").exists());
}
