//! End-to-end integration tests spanning every crate: topology generation →
//! routing construction → verification → simulation → paper metrics.

use irnet::prelude::*;

const ALGOS: [Algo; 6] = [
    Algo::DownUp { release: true },
    Algo::DownUp { release: false },
    Algo::LTurn { release: true },
    Algo::LTurn { release: false },
    Algo::UpDownBfs,
    Algo::UpDownDfs,
];

fn quick_cfg(rate: f64) -> SimConfig {
    SimConfig {
        packet_len: 16,
        injection_rate: rate,
        warmup_cycles: 400,
        measure_cycles: 2_000,
        deadlock_threshold: 5_000,
        ..SimConfig::default()
    }
}

#[test]
fn full_pipeline_for_every_algorithm() {
    let topo = gen::random_irregular(gen::IrregularParams::paper(32, 4), 5).unwrap();
    for algo in ALGOS {
        let inst = algo.construct(&topo, PreorderPolicy::M1, 0).unwrap();
        let report = verify_routing(&inst.cg, &inst.table);
        assert!(
            report.is_ok(),
            "{algo}: {:?} {:?}",
            report.cycle,
            report.disconnected
        );
        let stats = Simulator::new(&inst.cg, &inst.tables, quick_cfg(0.05), 3).run();
        assert!(!stats.deadlocked, "{algo} deadlocked");
        assert!(stats.packets_delivered > 0, "{algo} delivered nothing");
        let m = PaperMetrics::compute(&stats, &inst.cg, &inst.tree);
        assert!(m.accepted_traffic > 0.0);
        assert!(m.avg_latency.is_finite());
        assert!((0.0..=100.0).contains(&m.hot_spot_degree));
    }
}

#[test]
fn downup_beats_updown_on_path_length_or_ties() {
    // The turn model's whole point: fewer prohibitions than naive schemes,
    // so paths should not be longer than up*/down*'s on average.
    let mut downup_sum = 0.0;
    let mut updown_sum = 0.0;
    for seed in 0..5 {
        let topo = gen::random_irregular(gen::IrregularParams::paper(40, 4), seed).unwrap();
        let d = Algo::DownUp { release: true }
            .construct(&topo, PreorderPolicy::M1, 0)
            .unwrap();
        let u = Algo::UpDownBfs
            .construct(&topo, PreorderPolicy::M1, 0)
            .unwrap();
        downup_sum += d.tables.route_len_stats(&d.cg).0;
        updown_sum += u.tables.route_len_stats(&u.cg).0;
    }
    assert!(
        downup_sum <= updown_sum * 1.05,
        "DOWN/UP paths ({downup_sum:.2}) much longer than up*/down* ({updown_sum:.2})"
    );
}

#[test]
fn downup_has_fewer_opposite_prohibited_pairs_than_updown() {
    // The paper's §1 motivation: up*/down* leaves prohibited turn pairs
    // with opposite directions on nodes; DOWN/UP's selection removes them.
    let mut updown_total = 0u32;
    let mut downup_total = 0u32;
    for seed in 0..5 {
        let topo = gen::random_irregular(gen::IrregularParams::paper(32, 8), seed).unwrap();
        let u = Algo::UpDownBfs
            .construct(&topo, PreorderPolicy::M1, 0)
            .unwrap();
        let d = Algo::DownUp { release: true }
            .construct(&topo, PreorderPolicy::M1, 0)
            .unwrap();
        updown_total += u.table.nodes_with_opposite_prohibited_pairs(&u.cg);
        downup_total += d.table.nodes_with_opposite_prohibited_pairs(&d.cg);
    }
    assert!(
        updown_total > 0,
        "up*/down* should exhibit opposite prohibited pairs"
    );
    assert!(
        downup_total <= updown_total,
        "DOWN/UP ({downup_total}) should not exceed up*/down* ({updown_total})"
    );
}

#[test]
fn simulation_respects_turn_restrictions() {
    // Indirect but strong: run at saturation on many seeds; the watchdog
    // would fire if the simulator could create a cyclic wait, and the
    // routing-table unit tests already pin candidates to allowed turns.
    for seed in 0..3 {
        let topo = gen::random_irregular(gen::IrregularParams::paper(24, 4), seed).unwrap();
        let inst = Algo::DownUp { release: true }
            .construct(&topo, PreorderPolicy::M1, 0)
            .unwrap();
        let stats = Simulator::new(&inst.cg, &inst.tables, quick_cfg(1.0), seed).run();
        assert!(!stats.deadlocked);
    }
}

#[test]
fn sweep_and_saturation_end_to_end() {
    let topo = gen::random_irregular(gen::IrregularParams::paper(24, 4), 9).unwrap();
    let inst = Algo::DownUp { release: true }
        .construct(&topo, PreorderPolicy::M1, 0)
        .unwrap();
    let curve = sweep::sweep(&inst, &quick_cfg(0.0), &[0.02, 0.1, 0.5], 4);
    assert_eq!(curve.points.len(), 3);
    let sat = curve.saturation();
    assert!(sat.metrics.accepted_traffic >= curve.points[0].metrics.accepted_traffic);
    // Latency at the lowest load is the smallest.
    assert!(curve.points[0].metrics.avg_latency <= curve.points[2].metrics.avg_latency + 1.0);
}

#[test]
fn topology_json_roundtrip_through_routing() {
    let topo = gen::random_irregular(gen::IrregularParams::paper(20, 4), 3).unwrap();
    let json = irnet::topology::topology_to_json(&topo);
    let back = irnet::topology::topology_from_json(&json).unwrap();
    let a = Algo::DownUp { release: true }
        .construct(&topo, PreorderPolicy::M1, 0)
        .unwrap();
    let b = Algo::DownUp { release: true }
        .construct(&back, PreorderPolicy::M1, 0)
        .unwrap();
    assert_eq!(a.table, b.table);
    assert_eq!(
        a.tables.route_len_stats(&a.cg),
        b.tables.route_len_stats(&b.cg)
    );
}

#[test]
fn hotspot_traffic_pattern_stresses_one_node() {
    let topo = gen::random_irregular(gen::IrregularParams::paper(24, 4), 6).unwrap();
    let inst = Algo::DownUp { release: true }
        .construct(&topo, PreorderPolicy::M1, 0)
        .unwrap();
    let mut cfg = quick_cfg(0.08);
    cfg.traffic = TrafficPattern::Hotspot {
        hot_node: 0,
        hot_fraction: 0.5,
    };
    let stats = Simulator::new(&inst.cg, &inst.tables, cfg, 2).run();
    assert!(!stats.deadlocked);
    // The hot node's input channels should be busier than average.
    let utils = stats.node_utilizations(&inst.cg);
    let hot = utils[0];
    let mean = utils.iter().sum::<f64>() / utils.len() as f64;
    assert!(hot > mean, "hot node {hot} not above mean {mean}");
}

#[test]
fn regular_topologies_run_through_the_whole_stack() {
    for topo in [
        gen::mesh(5, 5).unwrap(),
        gen::torus(4, 4).unwrap(),
        gen::hypercube(4).unwrap(),
        gen::kary_tree(21, 4).unwrap(),
    ] {
        let inst = Algo::DownUp { release: true }
            .construct(&topo, PreorderPolicy::M1, 0)
            .unwrap();
        assert!(verify_routing(&inst.cg, &inst.table).is_ok());
        let stats = Simulator::new(&inst.cg, &inst.tables, quick_cfg(0.05), 1).run();
        assert!(!stats.deadlocked);
        assert!(stats.packets_delivered > 0);
    }
}
