//! Cross-backend tests for the flow-level fast path: the analytic
//! per-channel offered loads must agree with the exact flit engine about
//! *where* the traffic goes (top-k hot-channel agreement on arbitrary
//! random networks), and the signature partition on the canonical
//! 128-switch fixture is pinned as a golden value so any change to the
//! clustering key shows up in review rather than as silent drift.

use irnet::flow::{cluster_at_rate, Decomposer};
use irnet::prelude::*;
use proptest::prelude::*;

fn build_instance(n: u32, ports: u32, seed: u64) -> (Topology, Instance) {
    let topo = gen::random_irregular(gen::IrregularParams::paper(n, ports), seed).unwrap();
    let inst = Algo::DownUp { release: true }
        .construct(&topo, PreorderPolicy::M1, seed)
        .unwrap();
    (topo, inst)
}

/// Indices of the `k` largest entries of `w` (ties broken by index, so the
/// selection is deterministic).
fn top_k(w: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..w.len()).collect();
    idx.sort_by(|&a, &b| w[b].total_cmp(&w[a]).then(a.cmp(&b)));
    idx.truncate(k);
    idx
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// The decomposition's per-channel offered load must rank channels the
    /// way the exact engine actually loads them: the analytic top-k and
    /// the measured (flit-count) top-k overlap substantially. Exact rank
    /// equality is not expected — the simulator routes adaptively while
    /// the decomposition splits equally — but the hot set is the same.
    #[test]
    fn analytic_loads_rank_hot_channels_like_the_exact_engine(
        n in 14u32..30,
        ports in 4u32..8,
        seed in 0u64..5_000,
        rate in 0.05f64..0.25,
    ) {
        let (_topo, inst) = build_instance(n, ports, seed);
        let dec = Decomposer::new(&inst.cg, &inst.table).decompose(0);
        let cfg = SimConfig {
            packet_len: 8,
            injection_rate: rate,
            warmup_cycles: 500,
            measure_cycles: 6_000,
            ..SimConfig::default()
        };
        let stats = Simulator::new(&inst.cg, &inst.tables, cfg, seed).run();
        // DOWN/UP fabrics are deadlock-free by construction; a hung run
        // would only mean the watchdog misfired, so don't rank its flits.
        prop_assert!(!stats.deadlocked, "DOWN/UP run deadlocked (watchdog misfire?)");
        let measured: Vec<f64> = stats.channel_flits.iter().map(|&f| f as f64).collect();
        prop_assert_eq!(measured.len(), dec.unit_load.len());

        let nch = measured.len();
        let k = (nch / 8).max(4).min(nch);
        let hot_analytic = top_k(&dec.unit_load, k);
        let hot_measured = top_k(&measured, k);
        let overlap = hot_analytic
            .iter()
            .filter(|c| hot_measured.contains(c))
            .count();
        // At least a quarter of the hot set must agree (random k-subsets
        // of hundreds of channels would almost never hit this).
        prop_assert!(
            overlap * 4 >= k,
            "top-{} agreement too weak: {}/{} (n={} ports={} seed={} rate={:.3})",
            k, overlap, k, n, ports, seed, rate
        );

        // And the analytic hot set must carry more measured traffic than
        // an average k-subset: hot-by-prediction is not cold-in-practice.
        let total: f64 = measured.iter().sum();
        let hot_traffic: f64 = hot_analytic.iter().map(|&c| measured[c]).sum();
        prop_assert!(
            hot_traffic >= total * k as f64 / nch as f64,
            "analytic top-{} carries below-average traffic ({:.0} of {:.0})",
            k, hot_traffic, total
        );
    }
}

/// FNV-1a over each cluster's (signature, size, representative) — a
/// stable digest of the whole partition.
fn partition_digest(part: &irnet::flow::Partition) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for cl in &part.clusters {
        mix(u64::from(cl.sig.dir_class));
        mix(u64::from(cl.sig.level));
        mix(u64::from(cl.sig.port_class));
        mix(cl.sig.load_bucket as u64);
        mix(cl.members.len() as u64);
        mix(u64::from(cl.representative));
    }
    h
}

/// Golden pin: the signature partition of the canonical 128-switch/8-port
/// fixture (seed 7, mid load). If clustering semantics change — signature
/// fields, load quantization, representative choice — this fails and the
/// new digest must be pinned deliberately alongside the flow_validate
/// error numbers.
#[test]
fn signature_partition_is_pinned_on_the_128_switch_fixture() {
    let (_topo, inst) = build_instance(128, 8, 7);
    let dec = Decomposer::new(&inst.cg, &inst.table).decompose(0);
    let part = cluster_at_rate(&inst.cg, &inst.tree, &dec, 0.02);

    let members: usize = part.clusters.iter().map(|c| c.members.len()).sum();
    assert_eq!(members, inst.cg.num_channels() as usize);
    for cl in &part.clusters {
        assert!(cl.members.contains(&cl.representative));
    }

    assert_eq!(part.len(), 26);
    assert_eq!(partition_digest(&part), 0x9775_11dc_e14f_122c);
}

/// FNV-1a over the bits of every channel's unit load, then the mean hop
/// count: any change to what the decomposition computes, down to the last
/// bit of one sum, moves it.
fn decomposition_digest(dec: &irnet::flow::Decomposition) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in dec.unit_load.iter().chain([&dec.avg_hops]) {
        h ^= v.to_bits();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Golden pin: the sampled decomposition of a 512-switch, 8-port fabric
/// (Phases 1–3 only, 128 strided destinations). The decomposition must
/// stay bit-identical however it is computed.
#[test]
fn decomposition_is_pinned_on_a_512_switch_fabric() {
    let topo = gen::random_irregular(gen::IrregularParams::paper(512, 8), 0).unwrap();
    let (_tree, cg, table, _) = DownUp::new().construct_phases(&topo).unwrap();
    let dec = Decomposer::new(&cg, &table).decompose(128);
    assert_eq!(dec.dests_sampled, 128);
    assert_eq!(decomposition_digest(&dec), 0x9e9d_0228_45c7_e064);
}
