//! Differential tests for the simulator's scheduling cores: the
//! occupancy-driven active-set core (the default) must produce bit-exact
//! `SimStats` against the dense reference scan on arbitrary random
//! topologies, loads, VC counts and arrival samplers — not just the
//! seeds the unit tests pin.

use irnet::prelude::*;
use proptest::prelude::*;

/// Strategy: parameters for a small random connected irregular network.
fn net_params() -> impl Strategy<Value = (u32, u32, u64)> {
    // (switches, ports, seed).
    (6u32..24, 3u32..8, 0u64..10_000)
}

fn build(n: u32, ports: u32, seed: u64) -> Topology {
    gen::random_irregular(gen::IrregularParams::paper(n, ports), seed).unwrap()
}

fn run_core(inst: &Instance, base: SimConfig, core: EngineCore, seed: u64) -> SimStats {
    let cfg = SimConfig {
        engine_core: core,
        ..base
    };
    Simulator::new(&inst.cg, &inst.tables, cfg, seed).run()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random topology, random load, random VC count: both cores agree on
    /// every counter, including the latency histogram.
    #[test]
    fn cores_agree_on_random_networks(
        (n, ports, seed) in net_params(),
        rate in 0.001f64..0.9,
        vcs in 1u32..4,
    ) {
        let topo = build(n, ports, seed);
        let inst = Algo::DownUp { release: true }
            .construct(&topo, PreorderPolicy::M1, seed).unwrap();
        let cfg = SimConfig {
            packet_len: 8,
            injection_rate: rate,
            virtual_channels: vcs,
            warmup_cycles: 200,
            measure_cycles: 1_200,
            deadlock_threshold: 4_000,
            ..SimConfig::default()
        };
        let dense = run_core(&inst, cfg, EngineCore::DenseReference, seed);
        let active = run_core(&inst, cfg, EngineCore::ActiveSet, seed);
        prop_assert_eq!(dense, active, "n={} ports={} rate={}", n, ports, rate);
    }

    /// The geometric arrival sampler is a different RNG stream but must
    /// still be core-independent, and misrouting must not break the
    /// equivalence either.
    #[test]
    fn cores_agree_under_geometric_sampling_and_misrouting(
        (n, ports, seed) in net_params(),
        rate in 0.001f64..0.5,
        patience in 2u32..12,
    ) {
        let topo = build(n, ports, seed);
        let inst = Algo::DownUp { release: true }
            .construct(&topo, PreorderPolicy::M1, seed).unwrap();
        let cfg = SimConfig {
            packet_len: 8,
            injection_rate: rate,
            injection_sampling: InjectionSampling::Geometric,
            misroute_patience: Some(patience),
            warmup_cycles: 100,
            measure_cycles: 1_000,
            deadlock_threshold: 4_000,
            ..SimConfig::default()
        };
        let dense = run_core(&inst, cfg, EngineCore::DenseReference, seed);
        let active = run_core(&inst, cfg, EngineCore::ActiveSet, seed);
        prop_assert_eq!(dense, active, "n={} ports={} rate={}", n, ports, rate);
    }
}

/// Manual trace-style stepping (enqueue + drain) must also be
/// core-independent — it exercises `enqueue_packet`, `set_injection_rate`
/// and the drain loop rather than `run()`.
#[test]
fn cores_agree_on_manual_stepping() {
    let topo = build(14, 4, 77);
    let inst = Algo::DownUp { release: true }
        .construct(&topo, PreorderPolicy::M1, 77)
        .unwrap();
    let drive = |core: EngineCore| {
        let cfg = SimConfig {
            packet_len: 4,
            injection_rate: 0.1,
            warmup_cycles: 0,
            measure_cycles: 4_000,
            engine_core: core,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&inst.cg, &inst.tables, cfg, 5);
        for s in 0..14u32 {
            sim.enqueue_packet(s, (s + 5) % 14);
        }
        for _ in 0..800 {
            sim.tick();
        }
        sim.set_injection_rate(0.0);
        assert!(sim.drain(50_000), "network failed to drain");
        sim.finish()
    };
    let dense = drive(EngineCore::DenseReference);
    let active = drive(EngineCore::ActiveSet);
    assert_eq!(dense, active);
}

/// The paper's scale: 128 switches, 4 and 8 ports, both Fig. 8 routings
/// and 128-flit worms, at the bottom, middle and top of the Fig. 8 load
/// ladder. Long worms at saturation are where the active-set core parks
/// blocked headers, backpressured inputs and full links, so this is the
/// regime that exercises its wake-ups and blocked-cycle credits.
#[test]
fn cores_agree_at_paper_scale_with_long_worms() {
    let rates = sweep::default_rates(10);
    for ports in [4u32, 8] {
        let topo = build(128, ports, 1);
        for algo in Algo::PAPER_PAIR {
            let inst = algo.construct(&topo, PreorderPolicy::M1, 1).unwrap();
            for k in [0usize, 5, 9] {
                let cfg = SimConfig {
                    injection_rate: rates[k],
                    warmup_cycles: 300,
                    measure_cycles: 1_500,
                    ..SimConfig::default()
                };
                assert_eq!(cfg.packet_len, 128);
                let dense = run_core(&inst, cfg, EngineCore::DenseReference, 3);
                let active = run_core(&inst, cfg, EngineCore::ActiveSet, 3);
                assert!(k == 0 || active.header_block_cycles > 0, "no contention");
                assert_eq!(dense, active, "{algo:?} ports={ports} rate={}", rates[k]);
            }
        }
    }
}
