//! `flow_validate` refuses a `--huge` value it cannot run: each exits with
//! status 2 and a message naming the flag, before the validation grid
//! runs, instead of panicking or falling back to another size.

use std::process::Command;

#[test]
fn flow_validate_rejects_a_huge_fabric_it_cannot_build() {
    for args in [
        &["--huge", "abc"][..],
        &["--huge", "-3"],
        &["--huge", "0"],
        &["--huge", "1"],
        &["--huge"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_flow_validate"))
            .args(args)
            .output()
            .expect("flow_validate runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must be a usage error; stderr: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(
            stderr.contains("--huge"),
            "{args:?}: the message must name the flag: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran the grid anyway");
    }
}
