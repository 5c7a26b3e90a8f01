//! Property-based tests (proptest) over random topologies: the invariants
//! every routing algorithm in the workspace must uphold on *every* input,
//! not just the sampled seeds of the unit tests.

use irnet::prelude::*;
use proptest::prelude::*;

/// Strategy: parameters for a random connected irregular network.
fn net_params() -> impl Strategy<Value = (u32, u32, u64)> {
    // (switches, ports, seed). Ports ≥ 3 keeps the generator comfortably
    // satisfiable at every size here.
    (8u32..48, 3u32..9, 0u64..10_000)
}

fn build(n: u32, ports: u32, seed: u64) -> Topology {
    gen::random_irregular(gen::IrregularParams::paper(n, ports), seed).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn coordinated_tree_invariants((n, ports, seed) in net_params()) {
        let topo = build(n, ports, seed);
        for policy in PreorderPolicy::ALL {
            let tree = CoordinatedTree::build(&topo, policy, seed).unwrap();
            // X is a permutation of 0..n with the root at 0.
            let mut xs: Vec<u32> = (0..n).map(|v| tree.x(v)).collect();
            xs.sort_unstable();
            prop_assert_eq!(xs, (0..n).collect::<Vec<_>>());
            prop_assert_eq!(tree.x(tree.root()), 0);
            prop_assert_eq!(tree.y(tree.root()), 0);
            // Parent precedes child in preorder and sits one level up; BFS
            // guarantees levels differ by at most one across any link.
            for v in 0..n {
                if let Some(p) = tree.parent(v) {
                    prop_assert!(tree.x(p) < tree.x(v));
                    prop_assert_eq!(tree.y(v), tree.y(p) + 1);
                }
            }
            for l in 0..topo.num_links() {
                let (a, b) = topo.link(l);
                let dy = tree.y(a).abs_diff(tree.y(b));
                prop_assert!(dy <= 1, "BFS cross link spans {} levels", dy);
            }
        }
    }

    #[test]
    fn comm_graph_directions_are_coordinate_consistent((n, ports, seed) in net_params()) {
        let topo = build(n, ports, seed);
        let tree = CoordinatedTree::build(&topo, PreorderPolicy::M1, 0).unwrap();
        let cg = CommGraph::build(&topo, &tree);
        for c in 0..cg.num_channels() {
            let d = cg.direction(c);
            let from = cg.channels().start(c);
            let to = cg.channels().sink(c);
            prop_assert_eq!(d.goes_left(), tree.x(to) < tree.x(from));
            prop_assert_eq!(d.goes_up(), tree.y(to) < tree.y(from));
            prop_assert_eq!(d.goes_down(), tree.y(to) > tree.y(from));
            prop_assert_eq!(d.is_tree(), tree.is_tree_link(cg.channels().link_of(c)));
        }
    }

    #[test]
    fn downup_is_deadlock_free_and_connected((n, ports, seed) in net_params()) {
        let topo = build(n, ports, seed);
        for policy in PreorderPolicy::ALL {
            let inst = Algo::DownUp { release: true }
                .construct(&topo, policy, seed).unwrap();
            let report = verify_routing(&inst.cg, &inst.table);
            prop_assert!(report.is_ok(),
                "policy {policy}: cycle={:?} disc={:?}", report.cycle, report.disconnected);
        }
    }

    #[test]
    fn baselines_are_deadlock_free_and_connected((n, ports, seed) in net_params()) {
        let topo = build(n, ports, seed);
        for algo in [Algo::LTurn { release: true }, Algo::UpDownBfs, Algo::UpDownDfs] {
            let inst = algo.construct(&topo, PreorderPolicy::M1, seed).unwrap();
            let report = verify_routing(&inst.cg, &inst.table);
            prop_assert!(report.is_ok(),
                "{algo}: cycle={:?} disc={:?}", report.cycle, report.disconnected);
        }
    }

    #[test]
    fn release_pass_only_ever_widens_the_turn_set((n, ports, seed) in net_params()) {
        let topo = build(n, ports, seed);
        let with = Algo::DownUp { release: true }
            .construct(&topo, PreorderPolicy::M1, seed).unwrap();
        let without = Algo::DownUp { release: false }
            .construct(&topo, PreorderPolicy::M1, seed).unwrap();
        // Every turn allowed without the release is still allowed with it.
        let ch = with.cg.channels();
        for v in 0..with.cg.num_nodes() {
            for &in_ch in ch.inputs(v) {
                for &out_ch in ch.outputs(v) {
                    if out_ch == ch.reverse(in_ch) { continue; }
                    if without.table.is_allowed(&without.cg, in_ch, out_ch) {
                        prop_assert!(with.table.is_allowed(&with.cg, in_ch, out_ch));
                    }
                }
            }
        }
        // And routes can only get shorter.
        prop_assert!(with.tables.route_len_stats(&with.cg).0
            <= without.tables.route_len_stats(&without.cg).0 + 1e-9);
    }

    #[test]
    fn routes_are_minimal_legal_and_turn_respecting((n, ports, seed) in net_params()) {
        let topo = build(n, ports, seed);
        let inst = Algo::DownUp { release: true }
            .construct(&topo, PreorderPolicy::M1, seed).unwrap();
        let ch = inst.cg.channels();
        for s in 0..n {
            // Sample a handful of destinations per source to keep runtime
            // bounded.
            for t in [(s + 1) % n, (s + n / 2) % n, (s + n - 1) % n] {
                if s == t { continue; }
                let path = inst.tables.route(&inst.cg, s, t);
                prop_assert_eq!(path.len() as u16, inst.tables.route_len(&inst.cg, s, t));
                let mut v = s;
                for (i, &c) in path.iter().enumerate() {
                    prop_assert_eq!(ch.start(c), v);
                    if i > 0 {
                        prop_assert!(inst.table.is_allowed(&inst.cg, path[i - 1], c),
                            "route used a prohibited turn");
                    }
                    v = ch.sink(c);
                }
                prop_assert_eq!(v, t);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Cross-layer soundness: if the direction-level realizability
    /// predicate declares a random turn rule safe (no direction cycle is
    /// realizable), then NO communication graph may contain a channel-level
    /// turn cycle under that rule. This validates `DirGraph::is_safe`
    /// against the ground-truth channel dependency graph.
    #[test]
    fn direction_level_safety_implies_channel_level_safety(
        (n, ports, seed) in net_params(),
        rule_bits in 0u64..(1u64 << 56),
        subset_of_downup in proptest::bool::ANY,
    ) {
        use irnet::downup::phase2::{movements, turn_allowed};
        use irnet::turns::DirGraph;

        // Decode 56 bits into an arbitrary turn rule over the 8 directions
        // (56 ordered pairs with d1 != d2). Fully random rules are almost
        // always unsafe (vacuous for the implication), so half the cases
        // intersect the random rule with the DOWN/UP allowed set — random
        // subsets of a safe set stay safe and exercise the meaty branch.
        let mut pair_index = std::collections::HashMap::new();
        let mut k = 0;
        for a in Direction::ALL {
            for b in Direction::ALL {
                if a != b {
                    pair_index.insert((a, b), k);
                    k += 1;
                }
            }
        }
        let allowed = |a: Direction, b: Direction| {
            a == b
                || ((rule_bits >> pair_index[&(a, b)]) & 1 == 1
                    && (!subset_of_downup || turn_allowed(a, b)))
        };

        // Direction-level analysis.
        let mut g = DirGraph::empty(Direction::COUNT);
        for a in Direction::ALL {
            for b in Direction::ALL {
                if a != b && allowed(a, b) {
                    g.add_edge(a.index(), b.index());
                }
            }
        }
        if g.is_safe(&movements()) {
            // Channel-level ground truth on a concrete random topology.
            let topo = build(n, ports, seed);
            let tree = CoordinatedTree::build(&topo, PreorderPolicy::M1, seed).unwrap();
            let cg = CommGraph::build(&topo, &tree);
            let table = TurnTable::from_direction_rule(&cg, allowed);
            let dep = ChannelDepGraph::build(&cg, &table);
            prop_assert!(dep.is_acyclic(),
                "direction-level-safe rule {rule_bits:#x} produced a channel cycle");
        }
    }

    /// Forwarding-table export round-trips bit-exactly for every algorithm.
    #[test]
    fn forwarding_export_roundtrip((n, ports, seed) in net_params()) {
        use irnet::turns::{export_tables, parse_exported};
        let topo = build(n, ports, seed);
        let inst = Algo::DownUp { release: true }
            .construct(&topo, PreorderPolicy::M1, seed).unwrap();
        let text = export_tables(&inst.cg, &inst.tables);
        let parsed = parse_exported(&text).unwrap();
        let ch = inst.cg.channels();
        for t in 0..n {
            for v in 0..n {
                if t == v { continue; }
                for slot in 0..=ch.inputs(v).len() {
                    prop_assert_eq!(parsed.mask(t, v, slot), inst.tables.candidates(t, v, slot));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The clustered generator upholds the same contract as the random one.
    #[test]
    fn clustered_generator_is_valid(
        clusters in 2u32..6,
        cluster_size in 3u32..10,
        ports in 4u32..9,
        uplinks in 1u32..3,
        seed in 0u64..1000,
    ) {
        let t = gen::clustered(
            gen::ClusteredParams { clusters, cluster_size, ports, uplinks },
            seed,
        ).unwrap();
        prop_assert_eq!(t.num_nodes(), clusters * cluster_size);
        prop_assert_eq!(t.count_reachable(0), t.num_nodes());
        prop_assert!(t.max_degree() <= ports);
        // A coordinated tree and DOWN/UP must build and verify on it.
        let inst = Algo::DownUp { release: true }
            .construct(&t, PreorderPolicy::M1, seed).unwrap();
        prop_assert!(verify_routing(&inst.cg, &inst.table).is_ok());
    }

    /// Trace replay conserves packets and respects causality for arbitrary
    /// traces.
    #[test]
    fn trace_replay_conserves_packets(
        (n, ports, seed) in net_params(),
        packets in 1u32..80,
        span in 1u32..2000,
    ) {
        use irnet::sim::{replay, Trace};
        let topo = build(n, ports, seed);
        let inst = Algo::DownUp { release: true }
            .construct(&topo, PreorderPolicy::M1, seed).unwrap();
        let trace = Trace::synthetic_uniform(n, packets, span, seed);
        let cfg = SimConfig {
            packet_len: 4,
            warmup_cycles: 0,
            measure_cycles: u32::MAX / 2,
            ..SimConfig::default()
        };
        let result = replay(&inst.cg, &inst.tables, cfg, &trace, seed, 1_000_000).unwrap();
        let makespan = result.makespan.expect("trace must drain");
        prop_assert_eq!(result.stats.packets_delivered as u32, packets);
        prop_assert_eq!(result.stats.flits_delivered as u32, packets * 4);
        // The last flit cannot be delivered before the last injection.
        let last = trace.entries().last().unwrap().time;
        prop_assert!(makespan > last);
    }

    /// Misrouting never breaks deadlock freedom (the escape set stays
    /// inside the verified turn table).
    #[test]
    fn misrouting_is_deadlock_free(
        (n, ports, seed) in net_params(),
        patience in 1u32..16,
        budget in 1u32..8,
    ) {
        let topo = build(n, ports, seed);
        let inst = Algo::DownUp { release: true }
            .construct(&topo, PreorderPolicy::M1, seed).unwrap();
        let cfg = SimConfig {
            packet_len: 8,
            injection_rate: 0.8,
            warmup_cycles: 0,
            measure_cycles: 2_000,
            deadlock_threshold: 4_000,
            misroute_patience: Some(patience),
            max_detours: budget,
            ..SimConfig::default()
        };
        let stats = Simulator::new(&inst.cg, &inst.tables, cfg, seed).run();
        prop_assert!(!stats.deadlocked);
        prop_assert!(stats.packets_delivered > 0);
    }
}

proptest! {
    // Simulation properties are costlier; fewer cases.
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn simulation_conserves_and_never_deadlocks(
        (n, ports, seed) in net_params(),
        rate in 0.01f64..0.6,
    ) {
        let topo = build(n, ports, seed);
        let inst = Algo::DownUp { release: true }
            .construct(&topo, PreorderPolicy::M1, seed).unwrap();
        let cfg = SimConfig {
            packet_len: 8,
            injection_rate: rate,
            warmup_cycles: 200,
            measure_cycles: 1_500,
            deadlock_threshold: 4_000,
            ..SimConfig::default()
        };
        let stats = Simulator::new(&inst.cg, &inst.tables, cfg, seed).run();
        prop_assert!(!stats.deadlocked);
        // Accepted traffic can never exceed offered or the ejection bound.
        prop_assert!(stats.accepted_traffic() <= rate.max(0.0) + 0.05);
        prop_assert!(stats.accepted_traffic() <= 1.0);
        // Latency, when defined, is at least the serialization latency.
        if stats.packets_delivered > 0 {
            prop_assert!(stats.avg_latency() >= cfg.packet_len as f64);
        }
    }
}

/// The arrival probabilities the Bernoulli-scan property covers: the
/// smallest positive one, the benchmark's low load, a half, the largest
/// below one, and one.
const SCAN_PS: [f64; 5] = [
    1.0 / (1u64 << 53) as f64,
    0.000_625,
    0.5,
    1.0 - 1.0 / (1u64 << 53) as f64,
    1.0,
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `ChaCha8Rng::failures_before` (the buffered scan behind per-cycle
    /// arrivals) counts the same misses as a `gen_bool` loop and leaves
    /// the stream where that loop leaves it, from an odd word offset and
    /// across refills.
    #[test]
    fn bernoulli_scan_matches_the_gen_bool_loop(
        (seed, p_index, lead, limit) in (0u64..1_000_000, 0usize..5, 0u32..40, 0u64..200),
    ) {
        use rand::{Rng, RngCore, SeedableRng};
        let p = SCAN_PS[p_index];
        let t = rand::bernoulli_threshold(p);
        let mut scan = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut looped = scan.clone();
        // An odd number of leading 32-bit draws.
        for _ in 0..2 * lead + 1 {
            prop_assert_eq!(scan.next_u32(), looped.next_u32());
        }
        for _ in 0..8 {
            let want = (0..limit).find(|_| looped.gen_bool(p)).unwrap_or(limit);
            prop_assert_eq!(scan.failures_before(t, limit), want);
            prop_assert_eq!(scan.next_u32(), looped.next_u32());
        }
    }
}
