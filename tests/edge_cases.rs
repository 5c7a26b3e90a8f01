//! Edge-case coverage: the smallest legal networks and boundary
//! configurations, run through the complete stack.

use irnet::prelude::*;

#[test]
fn two_switch_network_end_to_end() {
    let topo = Topology::new(2, 1, [(0, 1)]).unwrap();
    for algo in [
        Algo::DownUp { release: true },
        Algo::LTurn { release: true },
        Algo::UpDownBfs,
    ] {
        let inst = algo.construct(&topo, PreorderPolicy::M1, 0).unwrap();
        assert!(verify_routing(&inst.cg, &inst.table).is_ok(), "{algo}");
        assert_eq!(inst.tables.route_len(&inst.cg, 0, 1), 1);
        let cfg = SimConfig {
            packet_len: 4,
            injection_rate: 0.2,
            warmup_cycles: 100,
            measure_cycles: 500,
            ..SimConfig::default()
        };
        let stats = Simulator::new(&inst.cg, &inst.tables, cfg, 1).run();
        assert!(!stats.deadlocked);
        assert!(
            stats.packets_delivered > 0,
            "{algo} delivered nothing on 2 switches"
        );
    }
}

#[test]
fn single_switch_network_constructs() {
    // One switch, no links: trivially valid; no traffic is possible.
    let topo = Topology::new(1, 4, []).unwrap();
    let inst = Algo::DownUp { release: true }
        .construct(&topo, PreorderPolicy::M1, 0)
        .unwrap();
    assert!(verify_routing(&inst.cg, &inst.table).is_ok());
    assert_eq!(inst.cg.num_channels(), 0);
    let cfg = SimConfig {
        packet_len: 4,
        injection_rate: 0.5,
        warmup_cycles: 10,
        measure_cycles: 100,
        ..SimConfig::default()
    };
    let stats = Simulator::new(&inst.cg, &inst.tables, cfg, 1).run();
    assert_eq!(stats.packets_delivered, 0);
    assert!(!stats.deadlocked);
}

#[test]
fn star_topology_concentrates_everything_on_the_hub() {
    let topo = gen::star(9).unwrap();
    let inst = Algo::DownUp { release: true }
        .construct(&topo, PreorderPolicy::M1, 0)
        .unwrap();
    assert!(verify_routing(&inst.cg, &inst.table).is_ok());
    // Every leaf-to-leaf route is exactly two hops through the hub.
    for s in 1..9u32 {
        for t in 1..9u32 {
            if s != t {
                assert_eq!(inst.tables.route_len(&inst.cg, s, t), 2);
            }
        }
    }
    let cfg = SimConfig {
        packet_len: 8,
        injection_rate: 0.3,
        warmup_cycles: 200,
        measure_cycles: 1_500,
        ..SimConfig::default()
    };
    let stats = Simulator::new(&inst.cg, &inst.tables, cfg, 2).run();
    assert!(!stats.deadlocked);
    let m = PaperMetrics::compute(&stats, &inst.cg, &inst.tree);
    // The hub is levels 0 of the tree; nearly all utilization sits at
    // levels 0-1 by construction.
    assert!(
        m.hot_spot_degree > 50.0,
        "hub share {:.1}%",
        m.hot_spot_degree
    );
}

#[test]
fn minimum_packet_length_of_two_flits() {
    let topo = gen::random_irregular(gen::IrregularParams::paper(12, 4), 2).unwrap();
    let inst = Algo::DownUp { release: true }
        .construct(&topo, PreorderPolicy::M1, 0)
        .unwrap();
    let cfg = SimConfig {
        packet_len: 2,
        injection_rate: 0.2,
        warmup_cycles: 200,
        measure_cycles: 1_000,
        ..SimConfig::default()
    };
    let stats = Simulator::new(&inst.cg, &inst.tables, cfg, 3).run();
    assert!(!stats.deadlocked);
    // Each delivered packet contributes two flits; partially delivered
    // packets at the window edges can add a little more.
    assert!(stats.flits_delivered >= stats.packets_delivered * 2);
    assert!(stats.flits_delivered <= (stats.packets_delivered + stats.num_nodes as u64) * 2);
    assert!(stats.packets_delivered > 0);
}

#[test]
fn deep_path_network_has_long_but_valid_routes() {
    // A 40-switch path: diameter 39, tree is the path itself.
    let links: Vec<(u32, u32)> = (0..39).map(|i| (i, i + 1)).collect();
    let topo = Topology::new(40, 2, links).unwrap();
    let inst = Algo::DownUp { release: true }
        .construct(&topo, PreorderPolicy::M1, 0)
        .unwrap();
    assert!(verify_routing(&inst.cg, &inst.table).is_ok());
    assert_eq!(inst.tables.route_len(&inst.cg, 0, 39), 39);
    assert_eq!(inst.tables.route_len_stats(&inst.cg).1, 39);
    // No cross links on a tree: zero prohibited pairs can matter.
    assert_eq!(inst.tree.max_level(), 39);
}

#[test]
fn max_port_configuration_works() {
    // Dense 8-port fabric at the paper's upper configuration.
    let topo = gen::random_irregular(gen::IrregularParams::paper(16, 8), 4).unwrap();
    assert!(topo.max_degree() <= 8);
    for policy in PreorderPolicy::ALL {
        let inst = Algo::DownUp { release: true }
            .construct(&topo, policy, 7)
            .unwrap();
        assert!(verify_routing(&inst.cg, &inst.table).is_ok());
    }
}
