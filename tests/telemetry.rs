//! Telemetry integration tests: attaching the metrics registry and span
//! tree is provably non-perturbing (construction output and `SimStats`
//! stay bit-identical, on both scheduling cores, across random
//! topologies), sweep points reassemble bit-exactly with a registry
//! attached, and one fully synthetic snapshot is pinned byte-for-byte in
//! both its JSON and Prometheus expositions across all six instrumented
//! subsystems.

use irnet::prelude::*;
use irnet::telemetry;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The registry must not perturb: constructing with a live registry
    /// yields bit-identical tables, and running with telemetry yields
    /// bit-identical statistics — on both engine cores.
    #[test]
    fn telemetry_leaves_results_bit_identical(
        n in 10u32..28,
        ports in 3u32..6,
        seed in 0u64..500,
        rate_milli in 1u32..80,
    ) {
        let topo = gen::random_irregular(gen::IrregularParams::paper(n, ports), seed).unwrap();
        let plain = DownUp::new().construct(&topo).unwrap();
        let tel = Telemetry::enabled();
        let observed = tel.scope(|| DownUp::new().construct(&topo)).unwrap();
        prop_assert_eq!(plain.turn_table(), observed.turn_table());
        prop_assert_eq!(plain.routing_tables(), observed.routing_tables());
        let snap = tel.snapshot();
        for span in ["construction", "construction/phase1", "construction/phase2",
                     "construction/phase3", "construction/tables"] {
            prop_assert!(snap.span(span).is_some(), "missing span {}", span);
        }
        for core in [EngineCore::ActiveSet, EngineCore::DenseReference] {
            let cfg = SimConfig {
                packet_len: 8,
                injection_rate: f64::from(rate_milli) / 1_000.0,
                warmup_cycles: 100,
                measure_cycles: 1_200,
                engine_core: core,
                ..SimConfig::default()
            };
            let bare = Simulator::new(
                plain.comm_graph(), plain.routing_tables(), cfg, seed ^ 0x7e1).run();
            let run_tel = Telemetry::enabled();
            let run_span = run_tel.span("sim/run");
            let instrumented = Simulator::new(
                observed.comm_graph(), observed.routing_tables(), cfg, seed ^ 0x7e1).run();
            run_span.finish();
            irnet::sim::record_run_telemetry(&run_tel, &instrumented);
            prop_assert_eq!(&bare, &instrumented, "core {:?} perturbed by telemetry", core);
            let rsnap = run_tel.snapshot();
            prop_assert_eq!(rsnap.counter("sim/runs"), Some(1));
            prop_assert_eq!(rsnap.counter("sim/cycles"), Some(u64::from(bare.cycles)));
            prop_assert_eq!(rsnap.span("sim/run").map(|s| s.count), Some(1));
        }
    }

    /// Sweep points measured with a live registry reassemble the plain
    /// sweep bit-exactly — the contract the sharded grid runner and the
    /// CLI `--telemetry` flag both lean on.
    #[test]
    fn instrumented_sweep_points_match_plain_sweep(
        n in 10u32..24,
        seed in 0u64..200,
    ) {
        let topo = gen::random_irregular(gen::IrregularParams::paper(n, 4), seed).unwrap();
        let inst = Algo::DownUp { release: true }
            .construct(&topo, PreorderPolicy::M1, seed)
            .unwrap();
        let base = SimConfig {
            packet_len: 8,
            warmup_cycles: 100,
            measure_cycles: 800,
            ..SimConfig::default()
        };
        let tel = Telemetry::enabled();
        for (i, rate) in [0.02, 0.15].into_iter().enumerate() {
            let plain = sweep::run_point(&inst, &base, rate, sweep::point_seed(seed, i));
            let with = tel.scope(|| sweep::run_point(&inst, &base, rate, sweep::point_seed(seed, i)));
            prop_assert_eq!(plain.deadlocked, with.deadlocked);
            prop_assert_eq!(plain.stall_cycle, with.stall_cycle);
            prop_assert_eq!(
                plain.metrics.avg_latency.to_bits(),
                with.metrics.avg_latency.to_bits()
            );
            prop_assert_eq!(
                plain.metrics.accepted_traffic.to_bits(),
                with.metrics.accepted_traffic.to_bits()
            );
        }
        prop_assert_eq!(tel.snapshot().counter("sim/runs"), Some(2));
    }
}

/// Phase 3 reports what it decided on both construction entry points, and
/// the phases-only path stays bit-identical with a registry attached.
#[test]
fn phase3_decisions_are_recorded_on_both_entry_points() {
    let topo = gen::random_irregular(gen::IrregularParams::paper(64, 8), 3).unwrap();
    let (_, _, plain_table, plain_released) = DownUp::new().construct_phases(&topo).unwrap();
    let phases_tel = Telemetry::enabled();
    let (_, _, table, released) = phases_tel
        .scope(|| DownUp::new().construct_phases(&topo))
        .unwrap();
    assert_eq!(table, plain_table);
    assert_eq!(released, plain_released);
    assert!(!released.is_empty());
    let construct_tel = Telemetry::enabled();
    construct_tel
        .scope(|| DownUp::new().construct(&topo))
        .unwrap();
    for snap in [phases_tel.snapshot(), construct_tel.snapshot()] {
        let count = |name| snap.counter(name).unwrap();
        assert_eq!(count("construction/phase3_released"), released.len() as u64);
        assert!(count("construction/phase3_candidates") > released.len() as u64);
        assert!(snap.gauges["construction/phase3_closure_bytes"] > 0.0);
    }
}

/// Every span path `tel` recorded, with its call count, in path order.
fn span_counts(tel: &Telemetry) -> Vec<(String, u64)> {
    let snap = tel.snapshot();
    snap.spans
        .iter()
        .map(|(path, stat)| (path.clone(), stat.count))
        .collect()
}

/// `(path, count)` pairs from string literals.
fn expected(pairs: &[(&str, u64)]) -> Vec<(String, u64)> {
    pairs.iter().map(|&(p, n)| (p.to_string(), n)).collect()
}

/// Pins the exact span paths and call counts each timed entry point
/// records: the span tree is the one record of stage timings, so a stage
/// that stops being timed, or is timed twice, shows here.
#[test]
fn entry_points_record_exactly_their_span_paths() {
    let topo = gen::random_irregular(gen::IrregularParams::paper(24, 4), 5).unwrap();

    let tel = Telemetry::enabled();
    let routing = tel.scope(|| DownUp::new().construct(&topo)).unwrap();
    assert_eq!(
        span_counts(&tel),
        expected(&[
            ("construction", 1),
            ("construction/phase1", 1),
            ("construction/phase2", 1),
            ("construction/phase3", 1),
            ("construction/tables", 1),
        ])
    );

    let tel = Telemetry::enabled();
    let (tree, cg, table, _) = tel.scope(|| DownUp::new().construct_phases(&topo)).unwrap();
    assert!(
        span_counts(&tel)
            .iter()
            .all(|(path, _)| !path.starts_with("construction")),
        "construct_phases recorded {:?}",
        span_counts(&tel)
    );

    // One link that goes down and comes back: a down and an up epoch.
    let (a, b) = *topo
        .links()
        .iter()
        .find(|&&(a, b)| {
            let plan = FaultPlan::scripted([FaultEvent::down(100, FaultKind::Link { a, b })]);
            topo.degrade(&plan).is_ok()
        })
        .expect("a non-bridge link");
    let plan = FaultPlan::scripted([FaultEvent::recovering(100, FaultKind::Link { a, b }, 200)]);
    for strategy in [RepairStrategy::Full, RepairStrategy::Incremental] {
        let tel = Telemetry::enabled();
        let epochs = tel
            .scope(|| {
                plan_epochs_with(
                    &topo,
                    routing.comm_graph(),
                    routing.turn_table(),
                    routing.routing_tables(),
                    &plan,
                    DownUp::new(),
                    strategy,
                )
            })
            .unwrap();
        assert_eq!(epochs.len(), 2);
        assert_eq!(
            span_counts(&tel),
            expected(&[
                ("repair", 2),
                ("repair/classify", 2),
                ("repair/patch", 2),
                ("repair/phases", 2),
                ("repair/recertify", 2),
            ]),
            "{strategy:?}"
        );
    }

    let inst = Algo::DownUp { release: true }
        .construct(&topo, PreorderPolicy::M1, 5)
        .unwrap();
    let base = SimConfig {
        packet_len: 8,
        warmup_cycles: 100,
        measure_cycles: 400,
        ..SimConfig::default()
    };
    let tel = Telemetry::enabled();
    tel.scope(|| sweep::run_point(&inst, &base, 0.05, 1));
    assert_eq!(span_counts(&tel), expected(&[("sim/run", 1)]));

    let flow_cfg = FlowConfig {
        sat_warmup: 200,
        sat_measure: 800,
        ..FlowConfig::default()
    };
    let tel = Telemetry::enabled();
    tel.scope(|| FlowPredictor::build(&topo, &tree, &cg, &table, &base, 3, &flow_cfg));
    assert_eq!(
        span_counts(&tel),
        expected(&[("flow/decompose", 1), ("flow/rep_sim", 1)])
    );
}

/// A synthetic registry covering every instrumented subsystem with
/// deterministic values (exact binary fractions, so float rendering is
/// stable). Construction, repair (incl. fault/recovery epoch counters),
/// grid, flow, and simulation all appear.
fn synthetic_registry() -> Telemetry {
    let tel = Telemetry::enabled();
    // 1. Construction Phases 1–3 + table fill.
    tel.record_span("construction", 0.25);
    tel.record_span("construction/phase1", 0.03125);
    tel.record_span("construction/phase2", 0.0625);
    tel.record_span("construction/phase3", 0.03125);
    tel.record_span("construction/tables", 0.125);
    // 2. Repair stages + fault/recovery epoch bookkeeping.
    tel.record_span("repair", 0.5);
    tel.record_span("repair/classify", 0.125);
    tel.record_span("repair/phases", 0.125);
    tel.record_span("repair/patch", 0.125);
    tel.record_span("repair/recertify", 0.125);
    tel.counter("repair/epochs").add(2);
    tel.counter("repair/epochs_down").add(1);
    tel.counter("repair/epochs_up").add(1);
    tel.counter("repair/tree_link_faults").add(1);
    tel.counter("repair/cross_link_faults").add(1);
    tel.counter("repair/leaf_switch_faults").add(0);
    tel.counter("repair/internal_switch_faults").add(0);
    tel.counter("repair/touched_switches").add(12);
    tel.counter("repair/touched_rows").add(384);
    tel.counter("repair/patched_in_place").add(1);
    tel.counter("repair/full_rebuilds").add(1);
    tel.counter("repair/recertified_ok").add(2);
    // 3. Grid runner.
    tel.record_span("grid/run", 1.5);
    tel.counter("grid/points_run").add(8);
    tel.counter("grid/topologies_built").add(2);
    tel.counter("grid/instances_built").add(4);
    // 4. Flow predictor.
    tel.record_span("flow/decompose", 0.25);
    tel.record_span("flow/rep_sim", 0.75);
    tel.counter("flow/rep_sims").add(6);
    tel.counter("flow/rep_sim_cache_hits").add(10);
    tel.counter("flow/route_cache_hits").add(90);
    tel.counter("flow/route_cache_misses").add(10);
    tel.counter("flow/points").add(16);
    tel.gauge("flow/clusters").set(6.0);
    tel.histogram("flow/clusters_per_point").record(6);
    // 5 & 6. Simulator throughput + reconfiguration epoch swaps.
    tel.record_span("sim/run", 0.5);
    tel.counter("sim/runs").add(1);
    tel.counter("sim/cycles").add(8_000);
    tel.counter("sim/flits_delivered").add(50_000);
    tel.counter("sim/packets_delivered").add(1_500);
    tel.counter("sim/dropped_flits").add(0);
    tel.counter("sim/reconfig_epochs").add(2);
    tel.counter("sim/deadlocks").add(0);
    tel.gauge("sim/cycles_per_sec").set(16_000.0);
    tel.histogram("sim/run_cycles").record(8_000);
    tel
}

/// The synthetic snapshot round-trips through JSON and pins both
/// expositions byte-for-byte. Re-derive with
/// `PRINT_TELEMETRY_GOLDEN=1 cargo test --test telemetry golden -- --nocapture`.
#[test]
fn golden_snapshot_json_and_prometheus_are_pinned() {
    let snap = synthetic_registry().snapshot();
    let json = snap.to_json();
    let prom = snap.to_prometheus();
    if std::env::var("PRINT_TELEMETRY_GOLDEN").is_ok() {
        println!("--- golden JSON ---\n{json}\n--- golden Prometheus ---\n{prom}--- end ---");
    }
    let reparsed = telemetry::Snapshot::from_json(&json).expect("snapshot must round-trip");
    assert_eq!(reparsed.to_json(), json, "JSON round-trip must be stable");
    assert_eq!(json, GOLDEN_JSON);
    assert_eq!(prom, GOLDEN_PROMETHEUS);
}

const GOLDEN_JSON: &str = r#"{
  "schema": "irnet-telemetry-v1",
  "counters": {
    "flow/points": 16,
    "flow/rep_sim_cache_hits": 10,
    "flow/rep_sims": 6,
    "flow/route_cache_hits": 90,
    "flow/route_cache_misses": 10,
    "grid/instances_built": 4,
    "grid/points_run": 8,
    "grid/topologies_built": 2,
    "repair/cross_link_faults": 1,
    "repair/epochs": 2,
    "repair/epochs_down": 1,
    "repair/epochs_up": 1,
    "repair/full_rebuilds": 1,
    "repair/internal_switch_faults": 0,
    "repair/leaf_switch_faults": 0,
    "repair/patched_in_place": 1,
    "repair/recertified_ok": 2,
    "repair/touched_rows": 384,
    "repair/touched_switches": 12,
    "repair/tree_link_faults": 1,
    "sim/cycles": 8000,
    "sim/deadlocks": 0,
    "sim/dropped_flits": 0,
    "sim/flits_delivered": 50000,
    "sim/packets_delivered": 1500,
    "sim/reconfig_epochs": 2,
    "sim/runs": 1
  },
  "gauges": {
    "flow/clusters": 6.0,
    "sim/cycles_per_sec": 16000.0
  },
  "histograms": {
    "flow/clusters_per_point": {
      "count": 1,
      "sum": 6,
      "buckets": [
        [
          7,
          1
        ]
      ]
    },
    "sim/run_cycles": {
      "count": 1,
      "sum": 8000,
      "buckets": [
        [
          8191,
          1
        ]
      ]
    }
  },
  "spans": {
    "construction": {
      "count": 1,
      "seconds": 0.25
    },
    "construction/phase1": {
      "count": 1,
      "seconds": 0.03125
    },
    "construction/phase2": {
      "count": 1,
      "seconds": 0.0625
    },
    "construction/phase3": {
      "count": 1,
      "seconds": 0.03125
    },
    "construction/tables": {
      "count": 1,
      "seconds": 0.125
    },
    "flow/decompose": {
      "count": 1,
      "seconds": 0.25
    },
    "flow/rep_sim": {
      "count": 1,
      "seconds": 0.75
    },
    "grid/run": {
      "count": 1,
      "seconds": 1.5
    },
    "repair": {
      "count": 1,
      "seconds": 0.5
    },
    "repair/classify": {
      "count": 1,
      "seconds": 0.125
    },
    "repair/patch": {
      "count": 1,
      "seconds": 0.125
    },
    "repair/phases": {
      "count": 1,
      "seconds": 0.125
    },
    "repair/recertify": {
      "count": 1,
      "seconds": 0.125
    },
    "sim/run": {
      "count": 1,
      "seconds": 0.5
    }
  }
}
"#;

const GOLDEN_PROMETHEUS: &str = r#"# TYPE irnet_flow_points counter
irnet_flow_points_total 16
# TYPE irnet_flow_rep_sim_cache_hits counter
irnet_flow_rep_sim_cache_hits_total 10
# TYPE irnet_flow_rep_sims counter
irnet_flow_rep_sims_total 6
# TYPE irnet_flow_route_cache_hits counter
irnet_flow_route_cache_hits_total 90
# TYPE irnet_flow_route_cache_misses counter
irnet_flow_route_cache_misses_total 10
# TYPE irnet_grid_instances_built counter
irnet_grid_instances_built_total 4
# TYPE irnet_grid_points_run counter
irnet_grid_points_run_total 8
# TYPE irnet_grid_topologies_built counter
irnet_grid_topologies_built_total 2
# TYPE irnet_repair_cross_link_faults counter
irnet_repair_cross_link_faults_total 1
# TYPE irnet_repair_epochs counter
irnet_repair_epochs_total 2
# TYPE irnet_repair_epochs_down counter
irnet_repair_epochs_down_total 1
# TYPE irnet_repair_epochs_up counter
irnet_repair_epochs_up_total 1
# TYPE irnet_repair_full_rebuilds counter
irnet_repair_full_rebuilds_total 1
# TYPE irnet_repair_internal_switch_faults counter
irnet_repair_internal_switch_faults_total 0
# TYPE irnet_repair_leaf_switch_faults counter
irnet_repair_leaf_switch_faults_total 0
# TYPE irnet_repair_patched_in_place counter
irnet_repair_patched_in_place_total 1
# TYPE irnet_repair_recertified_ok counter
irnet_repair_recertified_ok_total 2
# TYPE irnet_repair_touched_rows counter
irnet_repair_touched_rows_total 384
# TYPE irnet_repair_touched_switches counter
irnet_repair_touched_switches_total 12
# TYPE irnet_repair_tree_link_faults counter
irnet_repair_tree_link_faults_total 1
# TYPE irnet_sim_cycles counter
irnet_sim_cycles_total 8000
# TYPE irnet_sim_deadlocks counter
irnet_sim_deadlocks_total 0
# TYPE irnet_sim_dropped_flits counter
irnet_sim_dropped_flits_total 0
# TYPE irnet_sim_flits_delivered counter
irnet_sim_flits_delivered_total 50000
# TYPE irnet_sim_packets_delivered counter
irnet_sim_packets_delivered_total 1500
# TYPE irnet_sim_reconfig_epochs counter
irnet_sim_reconfig_epochs_total 2
# TYPE irnet_sim_runs counter
irnet_sim_runs_total 1
# TYPE irnet_flow_clusters gauge
irnet_flow_clusters 6.0
# TYPE irnet_sim_cycles_per_sec gauge
irnet_sim_cycles_per_sec 16000.0
# TYPE irnet_flow_clusters_per_point histogram
irnet_flow_clusters_per_point_bucket{le="7"} 1
irnet_flow_clusters_per_point_bucket{le="+Inf"} 1
irnet_flow_clusters_per_point_sum 6
irnet_flow_clusters_per_point_count 1
# TYPE irnet_sim_run_cycles histogram
irnet_sim_run_cycles_bucket{le="8191"} 1
irnet_sim_run_cycles_bucket{le="+Inf"} 1
irnet_sim_run_cycles_sum 8000
irnet_sim_run_cycles_count 1
# TYPE irnet_span_seconds counter
irnet_span_seconds_total{path="construction"} 0.25
irnet_span_seconds_total{path="construction/phase1"} 0.03125
irnet_span_seconds_total{path="construction/phase2"} 0.0625
irnet_span_seconds_total{path="construction/phase3"} 0.03125
irnet_span_seconds_total{path="construction/tables"} 0.125
irnet_span_seconds_total{path="flow/decompose"} 0.25
irnet_span_seconds_total{path="flow/rep_sim"} 0.75
irnet_span_seconds_total{path="grid/run"} 1.5
irnet_span_seconds_total{path="repair"} 0.5
irnet_span_seconds_total{path="repair/classify"} 0.125
irnet_span_seconds_total{path="repair/patch"} 0.125
irnet_span_seconds_total{path="repair/phases"} 0.125
irnet_span_seconds_total{path="repair/recertify"} 0.125
irnet_span_seconds_total{path="sim/run"} 0.5
# TYPE irnet_span_calls counter
irnet_span_calls_total{path="construction"} 1
irnet_span_calls_total{path="construction/phase1"} 1
irnet_span_calls_total{path="construction/phase2"} 1
irnet_span_calls_total{path="construction/phase3"} 1
irnet_span_calls_total{path="construction/tables"} 1
irnet_span_calls_total{path="flow/decompose"} 1
irnet_span_calls_total{path="flow/rep_sim"} 1
irnet_span_calls_total{path="grid/run"} 1
irnet_span_calls_total{path="repair"} 1
irnet_span_calls_total{path="repair/classify"} 1
irnet_span_calls_total{path="repair/patch"} 1
irnet_span_calls_total{path="repair/phases"} 1
irnet_span_calls_total{path="repair/recertify"} 1
irnet_span_calls_total{path="sim/run"} 1
"#;

/// A predictor over a 256-switch fabric, built under `tel` and then
/// queried at `rates`. The fabric is above the size where the
/// decomposition goes parallel, so on a multi-core host its destinations
/// run on several threads.
fn build_256_switch_predictor(tel: &Telemetry, rates: &[f64]) {
    let topo = gen::random_irregular(gen::IrregularParams::paper(256, 4), 3).unwrap();
    let (tree, cg, table, _) = DownUp::new().construct_phases(&topo).unwrap();
    let base = SimConfig {
        packet_len: 8,
        ..SimConfig::default()
    };
    let cfg = FlowConfig {
        max_dests: 64,
        sat_warmup: 200,
        sat_measure: 800,
        ..FlowConfig::default()
    };
    tel.scope(|| {
        let mut pred = FlowPredictor::build(&topo, &tree, &cg, &table, &base, 3, &cfg);
        for &rate in rates {
            pred.point(rate);
        }
    });
}

/// The predictor's work counters are exact: destinations walked and
/// channels given a cost, summed over them, and the clocks stepped by the
/// saturation probe's four sims (1,000 clocks each) and by one query's
/// representative sims. They count work, not time, so they are the same
/// at every worker count.
#[test]
fn flow_build_counts_its_decomposition_work() {
    let tel = Telemetry::enabled();
    build_256_switch_predictor(&tel, &[0.1]);
    let snap = tel.snapshot();
    assert_eq!(snap.counter("flow/decompose_dests"), Some(64));
    assert_eq!(snap.counter("flow/decompose_channels"), Some(29_737));
    assert_eq!(snap.counter("flow/rep_sim_clocks"), Some(143_066));
}

/// The route stage's ledger is exact: over four queries of the 48 sampled
/// routes (at most 9 hops each), each route is a hit or a miss of the
/// route cache, the trie runs one convolution per node it adds, and its
/// size counts every node's 65-value row and end mark and every child-map
/// entry (16 bytes). A map by full multiset records the same hits and
/// misses; convolving each missed multiset from scratch takes 785
/// convolutions where the trie takes 597. Each query's mixture is timed
/// by one `flow/mixture` span and counts the keys it sorted.
#[test]
fn flow_queries_count_their_route_work() {
    let tel = Telemetry::enabled();
    build_256_switch_predictor(&tel, &[0.1, 0.2, 0.1, 0.05]);
    let snap = tel.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    assert_eq!(counter("flow/points"), 4);
    let (hits, misses) = (
        counter("flow/route_cache_hits"),
        counter("flow/route_cache_misses"),
    );
    assert_eq!(hits + misses, 4 * 48);
    assert_eq!((hits, misses), (49, 143));
    let convolutions = counter("flow/route_convolutions");
    assert_eq!(convolutions, 597);
    // The kernel bins one pair of runs of equal midpoints at a time:
    // 888,483 bin updates, where one per midpoint pair would take
    // 597 · 64² = 2,445,312.
    assert_eq!(counter("flow/convolve_pairs"), 888_483);
    // Each query mixes its 48 routes once, and the rank selection sorts
    // only the key-range buckets that hold one of the 65 quantiles: 864
    // keys, where sorting every midpoint would take 4 · 48 · 64 = 12,288.
    assert_eq!(snap.span("flow/mixture").map(|s| s.count), Some(4));
    assert_eq!(counter("flow/mixture_sorted_keys"), 864);
    let gauge = |name: &str| snap.gauges.get(name).copied();
    assert_eq!(gauge("flow/routes"), Some(48.0));
    assert_eq!(gauge("flow/route_hops_max"), Some(9.0));
    let bytes = ((convolutions + 1) * (65 * 8 + 1) + convolutions * 16) as f64;
    assert_eq!(gauge("flow/route_trie_bytes"), Some(bytes));
}

/// Half of `flow_build_records_the_saturation_probe_silently`, run in a
/// child process: the saturation probe's decision lands in gauges.
#[test]
#[ignore = "run as a child process by flow_build_records_the_saturation_probe_silently"]
fn flow_build_records_the_saturation_probe() {
    let tel = Telemetry::enabled();
    build_256_switch_predictor(&tel, &[]);
    let snap = tel.snapshot();
    let gauge = |name: &str| snap.gauges.get(name).copied();
    // A 144-switch ball is a truncated neighbourhood of 256 switches.
    assert_eq!(gauge("flow/sat_ball_switches"), Some(144.0));
    assert_eq!(gauge("flow/sat_whole_fabric"), Some(0.0));
    for name in ["flow/sat_peak_accepted", "flow/sat_peak_util"] {
        let v = gauge(name).unwrap_or_else(|| panic!("no gauge {name}"));
        assert!(v > 0.0 && v <= 1.0, "{name} = {v}");
    }
}

/// Building a predictor writes nothing to stderr — not even with the
/// environment variable an old debug print read set — and records the
/// saturation probe's decision as gauges instead.
#[test]
fn flow_build_records_the_saturation_probe_silently() {
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "flow_build_records_the_saturation_probe",
            "--ignored",
            "--nocapture",
        ])
        .env("FLOW_DEBUG", "1")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("1 passed"), "{stdout}");
    assert_eq!(String::from_utf8_lossy(&out.stderr), "");
}

/// The four table audits each record a child span of `analyze/audit` and
/// their work counters, pinned on one small fabric; the report is the same
/// with the registry attached.
#[test]
fn audits_record_their_spans_and_work_counters() {
    let topo = gen::random_irregular(gen::IrregularParams::paper(24, 4), 5).unwrap();
    let inst = Algo::DownUp { release: false }
        .construct(&topo, PreorderPolicy::M1, 5)
        .unwrap();
    let cert = certify(&inst.cg, &inst.table);
    let plain = audit(&inst.cg, &inst.table, &inst.tables, &cert);
    let tel = Telemetry::enabled();
    let report = tel.scope(|| audit(&inst.cg, &inst.table, &inst.tables, &cert));
    assert_eq!(format!("{report:?}"), format!("{plain:?}"));
    assert_eq!(
        span_counts(&tel),
        expected(&[
            ("analyze/audit/black_holes", 1),
            ("analyze/audit/livelock", 1),
            ("analyze/audit/minimality", 1),
            ("analyze/audit/stretch", 1),
        ])
    );
    let snap = tel.snapshot();
    let count = |name| snap.counter(name).unwrap();
    assert_eq!(count("analyze/audit_states"), 1_691);
    assert_eq!(count("analyze/audit_pairs"), 24 * 23);
    assert_eq!(count("analyze/minimality_turns"), 75);
    assert_eq!(u64::from(report.prohibited_turns), 75);
    assert_eq!(report.redundant_prohibitions, 14);
    // One 64-bit row per distinct out-channel of the 75 turns: 45 rows.
    assert_eq!(snap.gauges["analyze/minimality_closure_bytes"], 360.0);
}
