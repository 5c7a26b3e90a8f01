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

    /// Long worms on one virtual channel stream through their private
    /// paths on the active core. The warm-up boundary and the horizon are
    /// put inside skipped spans, so a settle splits its span at
    /// `warmup_cycles` and the run ends on a partial span. One-flit
    /// buffers never move a flit at every stage in one clock, so their
    /// worms are held and stepped flit by flit but never skipped.
    #[test]
    fn cores_agree_while_worms_stream(
        (n, ports, seed) in net_params(),
        rate in 0.05f64..0.6,
        packet_len in 16u32..=128,
        buffer_depth in 1u32..=4,
        geometric in proptest::bool::ANY,
        start in 400u32..1_200,
    ) {
        let topo = build(n, ports, seed);
        let inst = Algo::DownUp { release: true }
            .construct(&topo, PreorderPolicy::M1, seed).unwrap();
        let base = SimConfig {
            packet_len,
            injection_rate: rate,
            buffer_depth,
            injection_sampling: if geometric {
                InjectionSampling::Geometric
            } else {
                InjectionSampling::PerCycle
            },
            deadlock_threshold: 4_000,
            ..SimConfig::default()
        };
        let warmup = skipped_clock(&inst, base, seed, start);
        let horizon = skipped_clock(&inst, base, seed, warmup + 600);
        let cfg = SimConfig {
            warmup_cycles: warmup,
            measure_cycles: horizon - warmup,
            ..base
        };
        let dense = run_core(&inst, cfg, EngineCore::DenseReference, seed);
        let active = run_core(&inst, cfg, EngineCore::ActiveSet, seed);
        prop_assert_eq!(
            dense, active,
            "n={} ports={} rate={} len={} depth={}", n, ports, rate, packet_len, buffer_depth
        );
    }
}

/// Flit moves the active core settled without visiting them in a run of
/// `horizon` clocks.
fn streamed_by(inst: &Instance, base: SimConfig, seed: u64, horizon: u32) -> u64 {
    let cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: horizon,
        ..base
    };
    let mut sim = Simulator::new(&inst.cg, &inst.tables, cfg, seed);
    sim.run_in_place();
    sim.work_counters().streamed_moves
}

/// The first clock boundary at or after `from` with skipped clocks on
/// both sides: a run one clock longer settles more moves, and so does a
/// run ending there rather than one clock earlier. With one-flit buffers
/// nothing is ever skipped, so `from` itself.
fn skipped_clock(inst: &Instance, base: SimConfig, seed: u64, from: u32) -> u32 {
    if base.buffer_depth == 1 {
        return from;
    }
    let mut streamed = [from - 1, from, from + 1].map(|h| streamed_by(inst, base, seed, h));
    for x in from..from + 2_000 {
        if streamed[0] < streamed[1] && streamed[1] < streamed[2] {
            return x;
        }
        streamed = [
            streamed[1],
            streamed[2],
            streamed_by(inst, base, seed, x + 2),
        ];
    }
    panic!("no skipped span within 2000 clocks of {from}");
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

/// A packet queued behind a streaming worm at its source arbitrates on
/// the clock after the worm's tail leaves. On an uncontended h-hop line a
/// worm of L flits is delivered 2h + L + 1 clocks after it was queued,
/// and the second one's header first arbitrates L clocks after the first
/// one's, so both latencies are pinned exactly.
#[test]
fn a_packet_behind_a_streaming_worm_starts_when_its_tail_leaves() {
    let topo = Topology::new(4, 2, [(0, 1), (1, 2), (2, 3)]).unwrap();
    let inst = Algo::DownUp { release: true }
        .construct(&topo, PreorderPolicy::M1, 0)
        .unwrap();
    let (len, hops) = (64u32, 3u32);
    let drive = |core| {
        let cfg = SimConfig {
            engine_core: core,
            packet_len: len,
            injection_rate: 0.0,
            warmup_cycles: 0,
            measure_cycles: 1_000,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&inst.cg, &inst.tables, cfg, 1);
        sim.enqueue_packet(0, 3);
        sim.enqueue_packet(0, 3);
        assert!(!sim.run_in_place());
        (sim.work_counters().streamed_moves, sim.finish())
    };
    let (streamed, active) = drive(EngineCore::ActiveSet);
    let (_, dense) = drive(EngineCore::DenseReference);
    assert!(streamed > 0, "neither worm streamed");
    assert_eq!(active, dense);
    let first = 2 * hops + len + 1;
    assert_eq!(active.packets_delivered, 2);
    assert_eq!(active.latency_max, len + first);
    assert_eq!(active.latency_sum, u64::from(first + len + first));
}

/// `run()` streams, a `tick()` loop does not: both end in the same
/// statistics.
#[test]
fn run_matches_a_tick_loop() {
    let topo = build(16, 4, 5);
    let inst = Algo::DownUp { release: true }
        .construct(&topo, PreorderPolicy::M1, 5)
        .unwrap();
    for sampling in [InjectionSampling::PerCycle, InjectionSampling::Geometric] {
        let cfg = SimConfig {
            packet_len: 64,
            injection_rate: 0.2,
            injection_sampling: sampling,
            warmup_cycles: 500,
            measure_cycles: 2_500,
            ..SimConfig::default()
        };
        let mut streamed = Simulator::new(&inst.cg, &inst.tables, cfg, 3);
        assert!(!streamed.run_in_place());
        assert!(streamed.work_counters().streamed_moves > 0, "{sampling:?}");
        let mut ticked = Simulator::new(&inst.cg, &inst.tables, cfg, 3);
        for _ in 0..cfg.total_cycles() {
            ticked.tick();
        }
        assert_eq!(ticked.work_counters().streamed_moves, 0);
        assert_eq!(streamed.finish(), ticked.finish(), "{sampling:?}");
    }
}

/// The paper's Fig. 8 fabric size with 8 ports: 128 switches, both
/// routings, 128-flit worms, 2000 + 8000 cycles, at the bottom, middle and
/// top of the load ladder. Left out of the default run; CI runs it with
/// `cargo test --release --test engine_equiv -- --ignored`.
#[test]
#[ignore]
fn cores_agree_on_the_paper_fabric_while_worms_stream() {
    let topo = build(128, 8, 1000);
    for algo in Algo::PAPER_PAIR {
        let inst = algo.construct(&topo, PreorderPolicy::M1, 1).unwrap();
        for rate in [0.01, 0.1, 0.6] {
            let cfg = SimConfig {
                injection_rate: rate,
                injection_sampling: InjectionSampling::Geometric,
                ..SimConfig::default()
            };
            let dense = run_core(&inst, cfg, EngineCore::DenseReference, 1);
            let active = run_core(&inst, cfg, EngineCore::ActiveSet, 1);
            assert_eq!(dense, active, "{algo:?} rate={rate}");
        }
    }
}
