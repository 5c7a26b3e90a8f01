//! End-to-end tests of the `irnet` command-line tool: every subcommand is
//! exercised as a real process against files in a temp directory.

use std::path::PathBuf;
use std::process::{Command, Output};

fn irnet(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_irnet"))
        .args(args)
        .output()
        .expect("spawn irnet")
}

fn tmpfile(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("irnet-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn gen_writes_valid_topology_json() {
    let out = tmpfile("net.json");
    let r = irnet(&[
        "gen",
        "--switches",
        "24",
        "--ports",
        "4",
        "--seed",
        "3",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(r.status.success(), "{}", String::from_utf8_lossy(&r.stderr));
    let json = std::fs::read_to_string(&out).unwrap();
    let topo = irnet_topology::topology_from_json(&json).unwrap();
    assert_eq!(topo.num_nodes(), 24);
    std::fs::remove_file(out).ok();
}

#[test]
fn verify_reports_deadlock_freedom_for_every_algo() {
    for algo in [
        "downup",
        "downup-norelease",
        "lturn",
        "updown-bfs",
        "updown-dfs",
    ] {
        let r = irnet(&["verify", "--switches", "20", "--seed", "2", "--algo", algo]);
        assert!(
            r.status.success(),
            "algo {algo}: {}",
            String::from_utf8_lossy(&r.stderr)
        );
        let stdout = String::from_utf8_lossy(&r.stdout);
        assert!(
            stdout.contains("deadlock-free      : yes"),
            "algo {algo}: {stdout}"
        );
        assert!(stdout.contains("connected          : yes"));
    }
}

#[test]
fn simulate_prints_paper_metrics() {
    let r = irnet(&[
        "simulate",
        "--switches",
        "16",
        "--rate",
        "0.05",
        "--packet-len",
        "16",
        "--warmup",
        "300",
        "--measure",
        "1500",
    ]);
    assert!(r.status.success(), "{}", String::from_utf8_lossy(&r.stderr));
    let stdout = String::from_utf8_lossy(&r.stdout);
    assert!(stdout.contains("accepted traffic"));
    assert!(stdout.contains("hot spot degree"));
    assert!(!stdout.contains("deadlock watchdog"));
}

#[test]
fn sweep_emits_csv() {
    let r = irnet(&[
        "sweep",
        "--switches",
        "12",
        "--rates",
        "0.02,0.2",
        "--packet-len",
        "8",
        "--warmup",
        "200",
        "--measure",
        "800",
    ]);
    assert!(r.status.success(), "{}", String::from_utf8_lossy(&r.stderr));
    let stdout = String::from_utf8_lossy(&r.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[0], "# backend=flit");
    assert_eq!(
        lines[1],
        "offered,accepted,latency,node_util,hot_spot_pct,deadlocked"
    );
    assert_eq!(
        lines.len(),
        4,
        "expected backend line + header + 2 data rows: {stdout}"
    );
}

#[test]
fn sweep_flow_backend_emits_csv() {
    let r = irnet(&[
        "sweep",
        "--switches",
        "12",
        "--rates",
        "0.02,0.2",
        "--packet-len",
        "8",
        "--warmup",
        "200",
        "--measure",
        "800",
        "--backend",
        "flow",
    ]);
    assert!(r.status.success(), "{}", String::from_utf8_lossy(&r.stderr));
    let stdout = String::from_utf8_lossy(&r.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[0], "# backend=flow");
    assert_eq!(
        lines[1],
        "offered,accepted,latency_mean,latency_median,latency_p99,saturated"
    );
    assert_eq!(
        lines.len(),
        4,
        "expected backend line + header + 2 data rows: {stdout}"
    );
}

#[test]
fn sweep_rejects_unknown_backend() {
    let r = irnet(&["sweep", "--switches", "12", "--backend", "bogus"]);
    assert!(!r.status.success());
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert!(stderr.contains("unknown backend"), "{stderr}");
}

#[test]
fn analyze_describes_the_fabric() {
    let r = irnet(&["analyze", "--switches", "20", "--ports", "4"]);
    assert!(r.status.success());
    let stdout = String::from_utf8_lossy(&r.stdout);
    assert!(stdout.contains("diameter"));
    assert!(stdout.contains("tree levels"));
    assert!(stdout.contains("cross links"));
    // The static-analysis half: oracle verdict + audit summary.
    assert!(
        stdout.contains("feasibility         : feasible"),
        "{stdout}"
    );
    assert!(stdout.contains("audits              : passed"), "{stdout}");
    assert!(stdout.contains("prohibited turns"), "{stdout}");
}

#[test]
fn analyze_json_carries_the_versioned_schema() {
    let r = irnet(&["analyze", "--switches", "16", "--seed", "1", "--json"]);
    assert_eq!(
        r.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&r.stderr)
    );
    let stdout = String::from_utf8_lossy(&r.stdout);
    assert!(
        stdout.contains("\"schema\": \"irnet-analyze-v1\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"status\": \"feasible\""), "{stdout}");
    assert!(stdout.contains("\"passed\": true"), "{stdout}");
    assert!(stdout.contains("\"black_hole_states\": 0"), "{stdout}");
}

#[test]
fn analyze_rejects_an_infeasible_scenario_with_exit_1() {
    // Cutting the only link of a degree-1 switch partitions the fabric: the
    // oracle must return a minimized obstruction and the command exit 1.
    let topo = irnet_topology::gen::random_irregular(
        irnet_topology::gen::IrregularParams::paper(24, 4),
        3,
    )
    .unwrap();
    let (a, b) = topo.link(0);
    // Find a bridge by probing every link with the degrade API.
    let bridge = (0..topo.num_links()).find_map(|l| {
        let (a, b) = topo.link(l);
        let plan = irnet_topology::FaultPlan::scripted([irnet_topology::FaultEvent::down(
            0,
            irnet_topology::FaultKind::Link { a, b },
        )]);
        topo.degrade(&plan).is_err().then_some((a, b))
    });
    let scenario = tmpfile("infeasible.json");
    let (a, b) = bridge.unwrap_or((a, b));
    std::fs::write(
        &scenario,
        format!(r#"{{"events":[{{"cycle":100,"link":[{a},{b}]}}]}}"#),
    )
    .unwrap();
    let r = irnet(&[
        "analyze",
        "--switches",
        "24",
        "--ports",
        "4",
        "--seed",
        "3",
        "--scenario",
        scenario.to_str().unwrap(),
        "--json",
    ]);
    let stdout = String::from_utf8_lossy(&r.stdout);
    if bridge.is_some() {
        assert_eq!(r.status.code(), Some(1), "{stdout}");
        assert!(stdout.contains("\"status\": \"infeasible\""), "{stdout}");
        assert!(stdout.contains("\"kind\": \"partitioned\""), "{stdout}");
        assert!(stdout.contains("\"audit\": null"), "{stdout}");
    } else {
        // No bridge in this fabric: a single link fault stays feasible.
        assert_eq!(r.status.code(), Some(0), "{stdout}");
    }
    std::fs::remove_file(scenario).ok();
}

#[test]
fn analyze_judges_every_state_of_a_rolling_outage() {
    // Switch 61's four links go down one at a time, each back up before
    // the next fails: every state the plan passes through is connected,
    // though the four links together would cut switch 61 off.
    let r = irnet(&[
        "analyze",
        "--switches",
        "128",
        "--ports",
        "4",
        "--seed",
        "1",
        "--scenario",
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/rolling_links_128.json"
        ),
        "--json",
    ]);
    let stdout = String::from_utf8_lossy(&r.stdout);
    assert_eq!(r.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("\"status\": \"feasible\""), "{stdout}");
}

#[test]
fn analyze_grid_quick_is_clean() {
    let r = irnet(&["analyze", "--grid", "--quick"]);
    assert_eq!(
        r.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&r.stdout)
    );
    let stdout = String::from_utf8_lossy(&r.stdout);
    assert!(
        stdout.contains("analyze grid: 56 cells, 56 clean, 0 failed"),
        "{stdout}"
    );
}

#[test]
fn faults_gate_reports_infeasibility_without_repairing() {
    // A path topology cannot be generated by `gen`, so build one by hand:
    // use the 24-switch fabric and kill every link of switch 0 — the
    // cumulative degradation isolates it, which the gate must prove.
    let topo = irnet_topology::gen::random_irregular(
        irnet_topology::gen::IrregularParams::paper(24, 4),
        3,
    )
    .unwrap();
    let events: Vec<String> = topo
        .neighbors(0)
        .iter()
        .enumerate()
        .map(|(i, &(w, _))| format!(r#"{{"cycle":{},"link":[0,{w}]}}"#, 600 + 100 * i))
        .collect();
    let scenario = tmpfile("gate.json");
    std::fs::write(&scenario, format!(r#"{{"events":[{}]}}"#, events.join(","))).unwrap();
    let r = irnet(&[
        "faults",
        "--switches",
        "24",
        "--ports",
        "4",
        "--seed",
        "3",
        "--scenario",
        scenario.to_str().unwrap(),
    ]);
    assert_eq!(r.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert!(stderr.contains("feasibility gate"), "{stderr}");
    assert!(stderr.contains("provably unroutable"), "{stderr}");
    assert!(stderr.contains("skipping repair"), "{stderr}");
    // The gate fires before any repair or simulation output is produced.
    let stdout = String::from_utf8_lossy(&r.stdout);
    assert!(!stdout.contains("epoch @"), "{stdout}");
    assert!(!stdout.contains("packets delivered"), "{stdout}");
    std::fs::remove_file(scenario).ok();
}

#[test]
fn export_roundtrips_through_the_parser() {
    let out = tmpfile("tables.fwd");
    let r = irnet(&[
        "export",
        "--switches",
        "12",
        "--seed",
        "4",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(r.status.success(), "{}", String::from_utf8_lossy(&r.stderr));
    let text = std::fs::read_to_string(&out).unwrap();
    let parsed = irnet_turns::parse_exported(&text).unwrap();
    assert_eq!(parsed.num_nodes(), 12);
    std::fs::remove_file(out).ok();
}

#[test]
fn unknown_arguments_fail_with_usage() {
    let r = irnet(&["frobnicate"]);
    assert!(!r.status.success());
    assert!(String::from_utf8_lossy(&r.stderr).contains("irnet <gen"));
    let r = irnet(&["simulate", "--bogus", "1"]);
    // Unknown options are accepted syntactically but ignored; a malformed
    // known option must fail.
    let _ = r;
    let r = irnet(&["simulate", "--rate", "not-a-number"]);
    assert!(!r.status.success());
}

/// A trace entry past the replay's last clock is a malformed input: it
/// is rejected before anything is simulated, instead of stepping idle
/// clocks for minutes and wrapping the 32-bit clock.
#[test]
fn replay_rejects_an_entry_past_the_horizon_at_once() {
    let path = tmpfile("late.trace.jsonl");
    std::fs::write(
        &path,
        "{\"time\":0,\"src\":0,\"dst\":1}\n{\"time\":4294967295,\"src\":2,\"dst\":3}\n",
    )
    .unwrap();
    let started = std::time::Instant::now();
    let r = irnet(&[
        "replay",
        "--switches",
        "16",
        "--ports",
        "4",
        "--trace",
        path.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert_eq!(r.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("trace entry 1 is injected at clock 4294967295"),
        "{stderr}"
    );
    assert!(r.stdout.is_empty(), "replayed anyway");
    assert!(started.elapsed().as_secs() < 30, "the replay spun first");
    std::fs::remove_file(path).ok();
}

#[test]
fn replay_runs_a_synthetic_trace() {
    let r = irnet(&[
        "replay",
        "--switches",
        "16",
        "--trace-packets",
        "40",
        "--trace-span",
        "500",
        "--packet-len",
        "8",
    ]);
    assert!(r.status.success(), "{}", String::from_utf8_lossy(&r.stderr));
    let stdout = String::from_utf8_lossy(&r.stdout);
    assert!(stdout.contains("makespan"));
    assert!(stdout.contains("packets          : 40"));
}

#[test]
fn render_emits_svg() {
    let out = tmpfile("net.svg");
    let r = irnet(&[
        "render",
        "--switches",
        "16",
        "--rate",
        "0.1",
        "--packet-len",
        "8",
        "--warmup",
        "200",
        "--measure",
        "800",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(r.status.success(), "{}", String::from_utf8_lossy(&r.stderr));
    let svg = std::fs::read_to_string(&out).unwrap();
    assert!(svg.starts_with("<svg"));
    assert!(svg.contains("node utilization"));
    std::fs::remove_file(out).ok();
}

#[test]
fn faults_runs_a_scripted_scenario_end_to_end() {
    let scenario = tmpfile("scenario.json");
    std::fs::write(&scenario, r#"{"events":[{"cycle":600,"link":[0,1]}]}"#).unwrap();
    // Link (0, 1) may not exist in the generated fabric; pick one that does
    // by asking the topology itself.
    let topo = irnet_topology::gen::random_irregular(
        irnet_topology::gen::IrregularParams::paper(24, 4),
        3,
    )
    .unwrap();
    let (a, b) = topo.link(0);
    std::fs::write(
        &scenario,
        format!(r#"{{"events":[{{"cycle":600,"link":[{a},{b}]}}]}}"#),
    )
    .unwrap();
    let r = irnet(&[
        "faults",
        "--switches",
        "24",
        "--ports",
        "4",
        "--seed",
        "3",
        "--rate",
        "0.1",
        "--packet-len",
        "8",
        "--warmup",
        "200",
        "--measure",
        "1500",
        "--scenario",
        scenario.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&r.stdout);
    // The pipeline must complete and report both certificates per epoch;
    // a witnessed (uncertified) transition is a legitimate exit-1 outcome.
    assert!(stdout.contains("fault plan"), "{stdout}");
    assert!(stdout.contains("degraded table"), "{stdout}");
    assert!(stdout.contains("old∪new union"), "{stdout}");
    assert!(stdout.contains("reconfig epochs  : 1"), "{stdout}");
    std::fs::remove_file(scenario).ok();
}

#[test]
fn faults_runs_a_recovery_scenario_with_flap_damping() {
    let scenario = tmpfile("recovery-scenario.json");
    let topo = irnet_topology::gen::random_irregular(
        irnet_topology::gen::IrregularParams::paper(24, 4),
        3,
    )
    .unwrap();
    let (a, b) = topo.link(0);
    std::fs::write(
        &scenario,
        format!(
            r#"{{"version":2,"events":[{{"cycle":600,"link":[{a},{b}],"recovers_at":900,"flap":{{"period":500,"count":2}}}}]}}"#
        ),
    )
    .unwrap();
    let r = irnet(&[
        "faults",
        "--switches",
        "24",
        "--ports",
        "4",
        "--seed",
        "3",
        "--rate",
        "0.1",
        "--packet-len",
        "8",
        "--warmup",
        "200",
        "--measure",
        "3000",
        "--hold",
        "100",
        "--scenario",
        scenario.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&r.stdout);
    // Both directions must be planned and annotated, the damping summary
    // must show fewer admitted epochs than raw flap transitions, and the
    // conservation line must balance exactly. (A witnessed transition is
    // still a legitimate exit-1 outcome; the report always prints.)
    assert!(stdout.contains("recovers at 900"), "{stdout}");
    assert!(stdout.contains(": up —"), "{stdout}");
    assert!(stdout.contains(": down —"), "{stdout}");
    assert!(stdout.contains("flap damping"), "{stdout}");
    assert!(stdout.contains("suppressed re-admission(s)"), "{stdout}");
    assert!(stdout.contains("flit conservation: exact"), "{stdout}");
    std::fs::remove_file(scenario).ok();
}

#[test]
fn soak_report_is_byte_stable_and_passes_its_invariants() {
    let out1 = tmpfile("soak-1.json");
    let out2 = tmpfile("soak-2.json");
    fn args(out: &str) -> Vec<&str> {
        vec![
            "soak",
            "--switches",
            "32",
            "--ports",
            "4",
            "--seed",
            "2",
            "--events",
            "3",
            "--rate",
            "0.1",
            "--packet-len",
            "8",
            "--warmup",
            "400",
            "--measure",
            "3000",
            "--chaos-seed",
            "11",
            "--out",
            out,
        ]
    }
    let r1 = irnet(&args(out1.to_str().unwrap()));
    assert_eq!(
        r1.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&r1.stderr)
    );
    let stderr = String::from_utf8_lossy(&r1.stderr);
    assert!(stderr.contains("certification ok"), "{stderr}");
    assert!(stderr.contains("conservation exact"), "{stderr}");
    let r2 = irnet(&args(out2.to_str().unwrap()));
    assert_eq!(r2.status.code(), Some(0));
    let a = std::fs::read(&out1).unwrap();
    let b = std::fs::read(&out2).unwrap();
    assert!(!a.is_empty());
    assert_eq!(a, b, "soak report must be byte-stable for a fixed seed set");
    let report = String::from_utf8_lossy(&a).to_string();
    assert!(report.contains("\"kind\": \"soak_report\""), "{report}");
    assert!(report.contains("\"passed\": true"), "{report}");
    assert!(report.contains("\"conserved\": true"), "{report}");
    std::fs::remove_file(out1).ok();
    std::fs::remove_file(out2).ok();
}

#[test]
fn faults_json_is_byte_stable_with_and_without_telemetry() {
    let scenario = tmpfile("stable-scenario.json");
    let snap_path = tmpfile("faults-tel.json");
    let topo = irnet_topology::gen::random_irregular(
        irnet_topology::gen::IrregularParams::paper(24, 4),
        3,
    )
    .unwrap();
    let (a, b) = topo.link(0);
    std::fs::write(
        &scenario,
        format!(r#"{{"version":2,"events":[{{"cycle":600,"link":[{a},{b}],"recovers_at":900}}]}}"#),
    )
    .unwrap();
    let base = [
        "faults",
        "--switches",
        "24",
        "--ports",
        "4",
        "--seed",
        "3",
        "--rate",
        "0.1",
        "--packet-len",
        "8",
        "--warmup",
        "200",
        "--measure",
        "1500",
        "--repair",
        "incremental",
        "--json",
        "--scenario",
        scenario.to_str().unwrap(),
    ];
    let first = irnet(&base);
    let second = irnet(&base);
    let mut with_tel: Vec<&str> = base.to_vec();
    with_tel.extend(["--telemetry", snap_path.to_str().unwrap()]);
    let observed = irnet(&with_tel);
    let report = String::from_utf8_lossy(&first.stdout).to_string();
    assert!(report.contains("\"repair\": {"), "{report}");
    assert!(!report.contains("_seconds\""), "{report}");
    assert_eq!(
        first.stdout, second.stdout,
        "faults --json must be byte-stable"
    );
    assert_eq!(
        first.stdout, observed.stdout,
        "--telemetry must not change stdout"
    );
    let json = std::fs::read_to_string(&snap_path).unwrap();
    let snap = irnet_telemetry::Snapshot::from_json(&json).expect("valid snapshot");
    // The stage timings the report no longer carries: one span per epoch.
    assert_eq!(snap.span("repair").map(|s| s.count), Some(2));
    assert_eq!(snap.span("repair/recertify").map(|s| s.count), Some(2));
    assert_eq!(snap.span("sim/run").map(|s| s.count), Some(1));
    std::fs::remove_file(scenario).ok();
    std::fs::remove_file(snap_path).ok();
}

#[test]
fn soak_and_trace_record_their_simulator_run() {
    let soak_snap = tmpfile("soak-tel.json");
    let r = irnet(&[
        "soak",
        "--switches",
        "32",
        "--ports",
        "4",
        "--seed",
        "2",
        "--events",
        "3",
        "--rate",
        "0.1",
        "--packet-len",
        "8",
        "--warmup",
        "400",
        "--measure",
        "3000",
        "--chaos-seed",
        "11",
        "--out",
        "/dev/null",
        "--telemetry",
        soak_snap.to_str().unwrap(),
    ]);
    assert_eq!(
        r.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&r.stderr)
    );
    let trace_snap = tmpfile("trace-tel.json");
    let r = trace_link_failure(&[
        "--out",
        "/dev/null",
        "--telemetry",
        trace_snap.to_str().unwrap(),
    ]);
    assert_eq!(
        r.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&r.stderr)
    );
    for path in [&soak_snap, &trace_snap] {
        let json = std::fs::read_to_string(path).unwrap();
        let snap = irnet_telemetry::Snapshot::from_json(&json).expect("valid snapshot");
        assert_eq!(snap.span("sim/run").map(|s| s.count), Some(1), "{json}");
        assert_eq!(snap.counter("sim/runs"), Some(1), "{json}");
        assert!(snap.counter("sim/cycles").is_some_and(|c| c > 0), "{json}");
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn top_render_and_replay_record_their_simulator_run() {
    let cases: [(&str, &[&str]); 3] = [
        ("top", &[]),
        ("render", &["--out", "/dev/null"]),
        ("replay", &["--trace-packets", "40", "--packet-len", "8"]),
    ];
    for (cmd, extra) in cases {
        let snap_path = tmpfile(&format!("{cmd}-tel.json"));
        let mut args = vec![
            cmd,
            "--switches",
            "16",
            "--warmup",
            "200",
            "--measure",
            "1000",
            "--telemetry",
            snap_path.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        let r = irnet(&args);
        assert_eq!(
            r.status.code(),
            Some(0),
            "{cmd}: {}",
            String::from_utf8_lossy(&r.stderr)
        );
        let json = std::fs::read_to_string(&snap_path).unwrap();
        let snap = irnet_telemetry::Snapshot::from_json(&json).expect("valid snapshot");
        assert_eq!(snap.counter("sim/runs"), Some(1), "{cmd}: {json}");
        assert_eq!(snap.span("sim/run").map(|s| s.count), Some(1), "{cmd}");
        assert!(
            snap.counter("sim/cycles").is_some_and(|c| c > 0),
            "{cmd}: {json}"
        );
        std::fs::remove_file(snap_path).ok();
    }
}

/// `trace` on the shipped 128-switch link failure, over a window just
/// long enough to span the fault at cycle 3011.
fn trace_link_failure(extra: &[&str]) -> Output {
    let scenario = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/link_failure_128.json"
    );
    let mut args = vec![
        "trace",
        "--switches",
        "128",
        "--ports",
        "4",
        "--seed",
        "1",
        "--rate",
        "0.3",
        "--packet-len",
        "32",
        "--warmup",
        "1000",
        "--measure",
        "2500",
        "--scenario",
        scenario,
        "--events",
        "1024",
    ];
    args.extend_from_slice(extra);
    irnet(&args)
}

#[test]
fn trace_survives_the_repaired_link_failure() {
    let out = tmpfile("repaired.trace.jsonl");
    let r = trace_link_failure(&["--out", out.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert_eq!(r.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("trace: 2500 cycles"), "{stderr}");
    assert!(!stderr.contains("DEADLOCK"), "{stderr}");
    let jsonl = std::fs::read_to_string(&out).unwrap();
    assert_eq!(jsonl.lines().count(), 1024, "the ring holds --events lines");
    assert!(jsonl.lines().all(|l| l.starts_with("{\"cycle\":")));
    std::fs::remove_file(out).ok();
}

#[test]
fn trace_without_repair_reports_a_deadlock_incident() {
    let incident = tmpfile("incident.json");
    let r = trace_link_failure(&[
        "--no-repair",
        "--watchdog",
        "2000",
        "--out",
        "/dev/null",
        "--incident",
        incident.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert_eq!(r.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("DEADLOCK (watchdog fired)"), "{stderr}");
    let report = std::fs::read_to_string(&incident).unwrap();
    assert!(
        report.contains("\"kind\": \"deadlock_incident\""),
        "{report}"
    );
    assert!(report.contains("\"blocked_worms\": [\n"), "{report}");
    assert!(report.contains("\"pkt\":"), "no blocked worm in {report}");
    std::fs::remove_file(incident).ok();
}

#[test]
fn data_errors_exit_1_without_usage() {
    let r = irnet(&["simulate", "--topology", "/nonexistent/net.json"]);
    assert_eq!(r.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert!(stderr.contains("cannot read"), "{stderr}");
    assert!(
        !stderr.contains("common options"),
        "data errors must not dump the usage text: {stderr}"
    );
}

#[test]
fn verify_rejects_a_port_budget_wider_than_the_port_masks() {
    // The 21-switch star with a 20-port hub: ports 16..19 would alias onto
    // ports 0..3 of the 16-bit turn and routing masks.
    let links: Vec<String> = (1..21).map(|v| format!("[0, {v}]")).collect();
    let path = tmpfile("star-20-ports.json");
    let json = format!(
        "{{\"num_nodes\": 21, \"ports\": 20, \"links\": [{}]}}",
        links.join(", ")
    );
    std::fs::write(&path, json).unwrap();
    let r = irnet(&["verify", "--topology", path.to_str().unwrap()]);
    assert_eq!(r.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert!(stderr.contains("20-port budget exceeds"), "{stderr}");
    std::fs::remove_file(path).ok();
}

#[test]
fn usage_errors_exit_2_with_usage() {
    let r = irnet(&["simulate", "--rate", "not-a-number"]);
    assert_eq!(r.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert!(stderr.contains("invalid --rate"), "{stderr}");
    assert!(stderr.contains("common options"), "{stderr}");
}

/// Settings the simulator cannot run are usage errors that name the
/// rule, not a panic or a run over a wrapped clock.
#[test]
fn unrunnable_simulation_settings_exit_2_with_the_reason() {
    for (cmd, extra, reason) in [
        (
            "simulate",
            &["--warmup", "4294967295", "--measure", "10"][..],
            "warm-up plus measurement cycles overflow the 32-bit clock",
        ),
        (
            "simulate",
            &["--packet-len", "1"][..],
            "packets need a header and a tail flit",
        ),
        (
            "sweep",
            &["--packet-len", "1"][..],
            "packets need a header and a tail flit",
        ),
        (
            "sweep",
            &["--rates", "0.1,-0.2"][..],
            "negative injection rate",
        ),
        (
            "replay",
            &["--packet-len", "1"][..],
            "packets need a header and a tail flit",
        ),
    ] {
        let base = [cmd, "--switches", "16", "--ports", "4"];
        let args: Vec<&str> = base.iter().chain(extra).copied().collect();
        let r = irnet(&args);
        let stderr = String::from_utf8_lossy(&r.stderr);
        assert_eq!(r.status.code(), Some(2), "{cmd} {extra:?}: {stderr}");
        assert!(
            stderr.contains(&format!("invalid simulation settings: {reason}")),
            "{cmd} {extra:?}: {stderr}"
        );
        assert!(r.stdout.is_empty(), "{cmd} {extra:?} simulated anyway");
    }
}

#[test]
fn sweep_with_telemetry_is_bit_identical_and_writes_a_snapshot() {
    let snap_path = tmpfile("sweep-tel.json");
    let base = [
        "sweep",
        "--switches",
        "12",
        "--rates",
        "0.02,0.2",
        "--packet-len",
        "8",
        "--warmup",
        "200",
        "--measure",
        "800",
    ];
    let plain = irnet(&base);
    assert!(
        plain.status.success(),
        "{}",
        String::from_utf8_lossy(&plain.stderr)
    );
    let mut with_tel: Vec<&str> = base.to_vec();
    with_tel.extend(["--telemetry", snap_path.to_str().unwrap()]);
    let observed = irnet(&with_tel);
    assert!(
        observed.status.success(),
        "{}",
        String::from_utf8_lossy(&observed.stderr)
    );
    // The deterministic contract of --telemetry: primary outputs stay
    // byte-identical.
    assert_eq!(plain.stdout, observed.stdout);
    let json = std::fs::read_to_string(&snap_path).unwrap();
    let snap = irnet_telemetry::Snapshot::from_json(&json).expect("valid snapshot");
    assert_eq!(snap.counter("sim/runs"), Some(2), "one sim per load point");
    assert_eq!(snap.span("topology/gen").map(|s| s.count), Some(1));
    assert!(snap.span("construction").is_some());
    assert!(snap.counter("construction/phase3_candidates").is_some());
    assert!(snap.span("sim/run").is_some());
    std::fs::remove_file(snap_path).ok();
}

#[test]
fn stats_renders_diffs_and_exposes_prometheus() {
    let snap_path = tmpfile("stats-tel.json");
    let r = irnet(&[
        "simulate",
        "--switches",
        "12",
        "--rate",
        "0.05",
        "--warmup",
        "200",
        "--measure",
        "800",
        "--telemetry",
        snap_path.to_str().unwrap(),
    ]);
    assert!(r.status.success(), "{}", String::from_utf8_lossy(&r.stderr));
    let path = snap_path.to_str().unwrap();

    let render = irnet(&["stats", "--snapshot", path]);
    assert!(render.status.success());
    let text = String::from_utf8_lossy(&render.stdout);
    assert!(
        text.contains("telemetry snapshot (irnet-telemetry-v1)"),
        "{text}"
    );
    assert!(text.contains("sim/cycles"), "{text}");

    let prom = irnet(&["stats", "--snapshot", path, "--prometheus"]);
    assert!(prom.status.success());
    let text = String::from_utf8_lossy(&prom.stdout);
    assert!(text.contains("# TYPE irnet_sim_cycles counter"), "{text}");
    assert!(
        text.contains("irnet_span_seconds_total{path=\"construction\"}"),
        "{text}"
    );

    let diff = irnet(&["stats", "--snapshot", path, "--diff", path]);
    assert!(diff.status.success());
    assert_eq!(String::from_utf8_lossy(&diff.stdout), "no differences\n");

    let missing = irnet(&["stats", "--snapshot", "/nonexistent/snap.json"]);
    assert_eq!(missing.status.code(), Some(1));
    std::fs::remove_file(snap_path).ok();
}

#[test]
fn sweep_progress_json_emits_monotone_heartbeats() {
    let r = irnet(&[
        "sweep",
        "--switches",
        "12",
        "--rates",
        "0.02,0.1,0.2",
        "--packet-len",
        "8",
        "--warmup",
        "200",
        "--measure",
        "800",
        "--progress",
        "json",
    ]);
    assert!(r.status.success(), "{}", String::from_utf8_lossy(&r.stderr));
    let stderr = String::from_utf8_lossy(&r.stderr);
    let mut last_done = 0u64;
    let mut total = 0u64;
    let mut beats = 0;
    for line in stderr.lines().filter(|l| l.starts_with('{')) {
        let v: serde::Value = serde_json::from_str(line).expect("heartbeat line is JSON");
        let map = v.as_map().expect("heartbeat is an object");
        let field = |k: &str| map.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let kind = match field("kind") {
            Some(serde::Value::Str(s)) => s.clone(),
            other => panic!("missing kind: {other:?}"),
        };
        if kind != "progress" {
            continue;
        }
        let num = |k: &str| match field(k) {
            Some(serde::Value::U64(n)) => *n,
            Some(serde::Value::I64(n)) => u64::try_from(*n).unwrap(),
            other => panic!("missing {k}: {other:?}"),
        };
        let done = num("done");
        total = num("total");
        assert!(done >= last_done, "done must be monotone: {stderr}");
        assert!(done <= total);
        last_done = done;
        beats += 1;
    }
    assert!(beats >= 1, "no heartbeats on stderr: {stderr}");
    assert_eq!(last_done, 3, "final heartbeat must report completion");
    assert_eq!(total, 3);
}

#[test]
fn sweep_human_progress_lines_are_unchanged() {
    let r = irnet(&[
        "sweep",
        "--switches",
        "12",
        "--rates",
        "0.02,0.1",
        "--packet-len",
        "8",
        "--warmup",
        "200",
        "--measure",
        "800",
        "--progress",
    ]);
    assert!(r.status.success(), "{}", String::from_utf8_lossy(&r.stderr));
    let stderr = String::from_utf8_lossy(&r.stderr);
    let final_line = stderr
        .lines()
        .find(|l| l.starts_with("sweep[flit]: 2/2 points"))
        .unwrap_or_else(|| panic!("missing final human progress line: {stderr}"));
    assert!(final_line.contains("elapsed"), "{final_line}");
    assert!(final_line.contains("eta"), "{final_line}");
}

/// A 300-switch, 2-port fabric is a chain whose routes run up to 298
/// hops, so its tables take two-byte cost cells. `routes` must print the
/// same bytes over them as over one-byte cells.
#[test]
fn routes_over_two_byte_costs_print_the_pinned_output() {
    let snap_path = tmpfile("routes300-tel.json");
    let r = irnet(&[
        "routes",
        "--switches",
        "300",
        "--ports",
        "2",
        "--seed",
        "1",
        "--telemetry",
        snap_path.to_str().unwrap(),
    ]);
    assert!(r.status.success(), "{}", String::from_utf8_lossy(&r.stderr));
    let hops: [u32; 33] = [
        0, 106, 285, 60, 118, 286, 47, 67, 89, 291, 143, 188, 12, 181, 207, 290, 99, 25, 215, 142,
        242, 249, 159, 250, 227, 59, 43, 295, 245, 241, 212, 17, 299,
    ];
    let route: Vec<String> = hops.iter().map(u32::to_string).collect();
    let want = format!(
        "avg route length: 99.835\nmax route length: 298\nsample route 0 -> 299: {}\n",
        route.join(" -(RD_TREE)-> ")
    );
    assert_eq!(String::from_utf8_lossy(&r.stdout), want);
    // Two-byte cells: 2·n·C + 4·n·P + 2·n·(P + 1), n = 300, C = 600, P = 2.
    let json = std::fs::read_to_string(&snap_path).unwrap();
    let snap = irnet_telemetry::Snapshot::from_json(&json).expect("valid snapshot");
    assert_eq!(snap.gauges["construction/table_bytes"], 364_200.0);
    // The all-pairs route statistics are one timed pass.
    assert_eq!(snap.spans["routes/route_len"].count, 1);
    std::fs::remove_file(snap_path).ok();
}
