//! Golden-value regression tests: pin exact deterministic outputs of the
//! pipeline for fixed seeds so unintended behavioural changes are caught
//! immediately. Every value here is a pure function of the seeded ChaCha8
//! RNG and the algorithms — if one of these fails after an intentional
//! change, re-derive the constants and update them alongside the change.

use irnet::prelude::*;

fn reference_topology() -> Topology {
    gen::random_irregular(gen::IrregularParams::paper(32, 4), 12345).unwrap()
}

#[test]
fn topology_generation_is_stable() {
    let t = reference_topology();
    assert_eq!(t.num_nodes(), 32);
    // Pin the link count and a structural fingerprint (sum of a*31+b over
    // links) rather than every link.
    let fingerprint: u64 = t
        .links()
        .iter()
        .map(|&(a, b)| a as u64 * 31 + b as u64)
        .sum();
    assert_eq!(
        (t.num_links(), fingerprint),
        (64, 21724),
        "random_irregular output changed for seed 12345; if intentional, \
         update this golden value"
    );
}

#[test]
fn coordinated_tree_is_stable() {
    let t = reference_topology();
    let tree = CoordinatedTree::build(&t, PreorderPolicy::M1, 0).unwrap();
    let x_fingerprint: u64 = (0..32).map(|v| tree.x(v) as u64 * (v as u64 + 1)).sum();
    let y_fingerprint: u64 = (0..32).map(|v| tree.y(v) as u64 * (v as u64 + 1)).sum();
    assert_eq!(
        (
            tree.max_level(),
            tree.leaves().len(),
            x_fingerprint,
            y_fingerprint
        ),
        golden_tree(),
        "coordinated tree changed for the reference topology"
    );
}

fn golden_tree() -> (u32, usize, u64, u64) {
    // Derived once from the reference topology; see the module docs.
    (GOLDEN.0, GOLDEN.1, GOLDEN.2, GOLDEN.3)
}

#[test]
fn downup_construction_is_stable() {
    let t = reference_topology();
    let routing = DownUp::new().construct(&t).unwrap();
    let prohibited = routing
        .turn_table()
        .num_prohibited_turns(routing.comm_graph());
    let released = routing.released_turns().len();
    let avg_len = routing
        .routing_tables()
        .route_len_stats(routing.comm_graph())
        .0;
    assert_eq!((prohibited, released), (GOLDEN.4, GOLDEN.5));
    assert!(
        (avg_len - GOLDEN_AVG_LEN).abs() < 1e-9,
        "avg route len {avg_len}"
    );
}

#[test]
fn simulation_is_stable() {
    let t = reference_topology();
    let routing = DownUp::new().construct(&t).unwrap();
    let cfg = SimConfig {
        packet_len: 16,
        injection_rate: 0.1,
        warmup_cycles: 500,
        measure_cycles: 2_000,
        ..SimConfig::default()
    };
    let stats = Simulator::new(routing.comm_graph(), routing.routing_tables(), cfg, 99).run();
    assert_eq!(
        (
            stats.packets_delivered,
            stats.flits_delivered,
            stats.latency_sum
        ),
        (GOLDEN.6, GOLDEN.7, GOLDEN.8),
        "simulator behaviour changed for the reference scenario"
    );
}

// The golden constants, produced by `cargo test --test regression --
// --nocapture` with `PRINT_GOLDEN=1` (see below) and pasted here.
const GOLDEN: (u32, usize, u64, u64, usize, usize, u64, u64, u64) = (
    4,     // tree max level
    16,    // leaves
    9168,  // X fingerprint
    1501,  // Y fingerprint
    98,    // prohibited channel pairs
    8,     // released turns
    397,   // packets delivered
    6363,  // flits delivered
    10569, // latency sum
);
const GOLDEN_AVG_LEN: f64 = 2.8901209677419355;

/// Helper: run with `PRINT_GOLDEN=1 cargo test --test regression -- print_golden --nocapture`
/// to regenerate the constants after an intentional change.
#[test]
fn print_golden() {
    if std::env::var("PRINT_GOLDEN").is_err() {
        return;
    }
    let t = reference_topology();
    let fingerprint: u64 = t
        .links()
        .iter()
        .map(|&(a, b)| a as u64 * 31 + b as u64)
        .sum();
    let tree = CoordinatedTree::build(&t, PreorderPolicy::M1, 0).unwrap();
    let xf: u64 = (0..32).map(|v| tree.x(v) as u64 * (v as u64 + 1)).sum();
    let yf: u64 = (0..32).map(|v| tree.y(v) as u64 * (v as u64 + 1)).sum();
    let routing = DownUp::new().construct(&t).unwrap();
    let cfg = SimConfig {
        packet_len: 16,
        injection_rate: 0.1,
        warmup_cycles: 500,
        measure_cycles: 2_000,
        ..SimConfig::default()
    };
    let stats = Simulator::new(routing.comm_graph(), routing.routing_tables(), cfg, 99).run();
    println!("links={} fp={fingerprint}", t.num_links());
    println!(
        "tree=({}, {}, {xf}, {yf})",
        tree.max_level(),
        tree.leaves().len()
    );
    println!(
        "construct=({}, {}) avg_len={:?}",
        routing
            .turn_table()
            .num_prohibited_turns(routing.comm_graph()),
        routing.released_turns().len(),
        routing
            .routing_tables()
            .route_len_stats(routing.comm_graph())
            .0
    );
    println!(
        "sim=({}, {}, {})",
        stats.packets_delivered, stats.flits_delivered, stats.latency_sum
    );
}

/// 64-bit FNV-1a over the links of `topos`, each link as its two endpoints
/// in little-endian bytes. Unlike the sum fingerprint above, it changes when
/// the same links come out in another order.
fn links_fnv<'a>(topos: impl IntoIterator<Item = &'a Topology>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in topos {
        for &(a, b) in t.links() {
            for byte in a.to_le_bytes().into_iter().chain(b.to_le_bytes()) {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn generator_link_order_is_stable() {
    // (switches, ports, fill, seeds, FNV-1a over the fabrics' links in seed
    // order): the paper grid's samples (`ExperimentConfig::full`), the
    // 2048-switch benchmark fabrics, a half fill and the 2-port path case.
    let cases: [(u32, u32, f64, std::ops::Range<u64>, u64); 6] = [
        (128, 4, 1.0, 1_000..1_010, 0x24c6_8775_94f4_03c5),
        (128, 8, 1.0, 1_000..1_010, 0xf5d2_7762_39e1_cdba),
        (2048, 8, 1.0, 0..3, 0x2973_b385_8202_1f95),
        (96, 6, 0.5, 4..5, 0x9a32_3a37_414c_6bf5),
        (40, 2, 1.0, 11..12, 0x4ef6_7d8e_debc_6af5),
        (1, 4, 1.0, 0..1, 0xcbf2_9ce4_8422_2325),
    ];
    for (num_nodes, ports, fill, seeds, want) in cases {
        let params = gen::IrregularParams {
            num_nodes,
            ports,
            fill,
        };
        let topos: Vec<Topology> = seeds
            .clone()
            .map(|s| gen::random_irregular(params, s).unwrap())
            .collect();
        let got = links_fnv(&topos);
        if std::env::var("PRINT_GOLDEN").is_ok() {
            println!("({num_nodes}, {ports}, {fill}, {seeds:?}) -> {got:#018x}");
            continue;
        }
        assert_eq!(
            got, want,
            "random_irregular links changed for {num_nodes}x{ports} fill {fill} seeds {seeds:?}"
        );
    }
}

#[test]
fn generator_errors_are_stable() {
    let err = |num_nodes, ports, fill| {
        gen::random_irregular(
            gen::IrregularParams {
                num_nodes,
                ports,
                fill,
            },
            3,
        )
        .unwrap_err()
        .to_string()
    };
    assert_eq!(
        err(5, 0, 1.0),
        "generator constraint violated: need at least one port per switch to \
         connect the network"
    );
    assert_eq!(
        err(6, 1, 1.0),
        "generator constraint violated: ran out of free ports while building \
         the spanning tree (2 of 6 nodes attached; ports = 1)"
    );
    assert_eq!(
        err(6, 4, 1.5),
        "generator constraint violated: fill 1.5 outside 0..=1"
    );
}

/// 64-bit FNV-1a over the first 2^20 keystream words of `ChaCha8Rng` for
/// `seed`, read as a fixed mix of `next_u64` and `next_u32` calls so that
/// `u64` draws straddle word pairs and 64-byte blocks at odd offsets.
fn keystream_fnv(seed: u64) -> u64 {
    use rand::{RngCore, SeedableRng};
    const WORDS: u32 = 1 << 20;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    let (mut words, mut call) = (0u32, 0u32);
    while words < WORDS {
        // Every 7th call (and a lone last word) is a 32-bit draw.
        if call % 7 == 3 || words == WORDS - 1 {
            eat(&rng.next_u32().to_le_bytes());
            words += 1;
        } else {
            eat(&rng.next_u64().to_le_bytes());
            words += 2;
        }
        call += 1;
    }
    h
}

#[test]
fn chacha8_keystream_is_stable() {
    let cases: [(u64, u64); 5] = [
        (0, 0x0c69_778d_f77e_7b7a),
        (1, 0xdc3d_cd92_826d_4844),
        (7, 0x05ae_2667_2584_134e),
        (12345, 0x915c_b750_a5b5_d305),
        (u64::MAX, 0x6afa_e120_bf29_135f),
    ];
    for (seed, want) in cases {
        let got = keystream_fnv(seed);
        if std::env::var("PRINT_GOLDEN").is_ok() {
            println!("keystream seed {seed} -> {got:#018x}");
            continue;
        }
        assert_eq!(got, want, "ChaCha8 keystream changed for seed {seed}");
    }
}

/// A per-cycle run on the reference topology in which switch 5 dies at
/// cycle 800 and comes back at 1800: the dead-node path of the arrival
/// draw (no draw while dead, draws again after the revival).
#[test]
fn per_cycle_run_through_a_switch_outage_is_stable() {
    let t = reference_topology();
    let builder = DownUp::new();
    let routing = builder.construct(&t).unwrap();
    let cg = routing.comm_graph();
    let plan = FaultPlan::scripted([FaultEvent::recovering(
        800,
        FaultKind::Switch { node: 5 },
        1_800,
    )]);
    let timeline = RecoveryTimeline::compute(&t, &plan, DampingPolicy::none()).unwrap();
    let epochs = plan_epochs_timeline_with(
        &t,
        cg,
        routing.turn_table(),
        routing.routing_tables(),
        &timeline,
        builder,
        RepairStrategy::Full,
        None,
    )
    .unwrap();
    let cfg = SimConfig {
        packet_len: 16,
        injection_rate: 0.1,
        warmup_cycles: 500,
        measure_cycles: 2_000,
        ..SimConfig::default()
    };
    assert_eq!(cfg.injection_sampling, InjectionSampling::PerCycle);
    let mut sim = Simulator::new(cg, routing.routing_tables(), cfg, 99);
    for e in &epochs {
        sim.schedule_reconfig(&e.epoch);
    }
    sim.advance(cfg.total_cycles());
    let samples = sim.work_counters().arrival_samples;
    let stats = sim.finish();
    let got = (
        stats.packets_generated,
        stats.packets_delivered,
        stats.flits_delivered,
        stats.latency_sum,
        stats.dropped_flits,
        stats.dropped_packets,
        stats.reconfig_epochs,
        samples,
    );
    if std::env::var("PRINT_GOLDEN").is_ok() {
        println!("switch outage -> {got:?}");
        return;
    }
    assert!(!stats.deadlocked);
    assert!(stats.flits_conserved());
    // One draw per live node per cycle: 32 x 2500, less the 1000 cycles
    // switch 5 spends dead.
    assert_eq!(samples, 32 * u64::from(cfg.total_cycles()) - 1_000);
    assert_eq!(got, (382, 374, 5_999, 9_959, 5, 8, 2, 79_000));
}
