//! Every ablation binary (A1 and A3–A12) runs to completion on a tiny
//! quick grid and prints its row labels, and a grid-run ablation prints
//! the same bytes at any thread count.

use std::process::Command;

/// Runs `bin` on one sample and two loads and returns its stdout, failing
/// unless it exits 0.
fn run(bin: &str, extra: &[&str]) -> String {
    let out = Command::new(bin)
        .args(["--quick", "--samples", "1", "--rates", "0.05,0.3"])
        .args(extra)
        .output()
        .expect("ablation binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{bin} stderr: {stderr}");
    stdout
}

/// Asserts that `bin` exits 0 and prints every one of `labels`.
fn prints(bin: &str, extra: &[&str], labels: &[&str]) {
    let stdout = run(bin, extra);
    for label in labels {
        assert!(stdout.contains(label), "{bin} lacks {label:?}: {stdout}");
    }
}

#[test]
fn ablation_release_runs() {
    prints(
        env!("CARGO_BIN_EXE_ablation_release"),
        &[],
        &["DOWN/UP (no release)", "L-turn (no release)"],
    );
}

#[test]
fn ablation_baselines_runs() {
    prints(
        env!("CARGO_BIN_EXE_ablation_baselines"),
        &[],
        &["up*/down* (BFS)", "up*/down* (DFS)", "L-turn", "DOWN/UP"],
    );
}

#[test]
fn ablation_sim_runs() {
    prints(
        env!("CARGO_BIN_EXE_ablation_sim"),
        &[],
        &["Buffer-depth sweep", "Packet-length sweep"],
    );
}

#[test]
fn ablation_scale_runs() {
    prints(
        env!("CARGO_BIN_EXE_ablation_scale"),
        &["--sizes", "16,32"],
        &["\n16 ", "\n32 "],
    );
}

#[test]
fn ablation_vc_runs() {
    prints(
        env!("CARGO_BIN_EXE_ablation_vc"),
        &[],
        &["Virtual-channel sweep", "\n4 "],
    );
}

#[test]
fn adaptivity_runs() {
    prints(
        env!("CARGO_BIN_EXE_adaptivity"),
        &[],
        &["up*/down* (DFS)", "DOWN/UP (no release)"],
    );
}

#[test]
fn ablation_traffic_runs_every_workload() {
    prints(
        env!("CARGO_BIN_EXE_ablation_traffic"),
        &[],
        &["uniform bursty"],
    );
}

#[test]
fn ablation_topology_runs() {
    prints(
        env!("CARGO_BIN_EXE_ablation_topology"),
        &[],
        &[
            "random (saturated)",
            "random (half-filled)",
            "clustered racks",
        ],
    );
}

#[test]
fn ablation_root_runs_and_is_thread_count_invariant() {
    let bin = env!("CARGO_BIN_EXE_ablation_root");
    let single = run(bin, &["--threads", "1"]);
    for label in ["smallest id (paper)", "center"] {
        assert!(single.contains(label), "lacks {label:?}: {single}");
    }
    assert_eq!(single, run(bin, &["--threads", "2"]));
}

#[test]
fn ablation_routechoice_runs() {
    prints(
        env!("CARGO_BIN_EXE_ablation_routechoice"),
        &[],
        &[
            "adaptive random (paper)",
            "deterministic minimal",
            "level shares (deterministic)",
        ],
    );
}

#[test]
fn ablation_misroute_runs() {
    prints(
        env!("CARGO_BIN_EXE_ablation_misroute"),
        &[],
        &[
            "minimal only (paper)",
            "misroute after 32, budget 8",
            "— L-turn",
            "— DOWN/UP",
        ],
    );
}
