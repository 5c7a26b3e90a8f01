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

/// What a driver does between two chunks of a run.
#[derive(Debug, Clone, Copy)]
enum Nudge {
    /// Queue one packet, `src != dst`.
    Enqueue(u32, u32),
    /// Change the offered load.
    Rate(f64),
}

/// What a caller reads between two driver calls: the clock, the buffered
/// flits, each channel's occupancy and its flits so far.
type Snapshot = (u32, u64, Vec<u32>, Vec<u64>);

/// Runs `cfg` on `core`, applying each `(clock, nudge)` at its clock and
/// also returning to the caller at every clock in `cuts`, where it takes
/// a [`Snapshot`]. Clocks past the horizon are not visited.
fn drive(
    inst: &Instance,
    cfg: SimConfig,
    core: EngineCore,
    seed: u64,
    nudges: &[(u32, Nudge)],
    cuts: &[u32],
) -> (SimStats, Vec<Snapshot>) {
    let cfg = SimConfig {
        engine_core: core,
        ..cfg
    };
    let mut sim = Simulator::new(&inst.cg, &inst.tables, cfg, seed);
    let mut stops: Vec<u32> = cuts
        .iter()
        .chain(nudges.iter().map(|(t, _)| t))
        .copied()
        .filter(|&t| t <= cfg.total_cycles())
        .collect();
    stops.sort_unstable();
    stops.dedup();
    let mut snapshots = Vec::new();
    for stop in stops {
        if sim.advance(stop) == Halt::Stalled {
            break;
        }
        let mut occupancy = Vec::new();
        sim.channel_occupancy(&mut occupancy);
        snapshots.push((
            sim.now(),
            sim.buffered_flit_count(),
            occupancy,
            sim.channel_flits_so_far().to_vec(),
        ));
        for &(_, nudge) in nudges.iter().filter(|(t, _)| *t == stop) {
            match nudge {
                Nudge::Enqueue(src, dst) => {
                    sim.enqueue_packet(src, dst);
                }
                Nudge::Rate(rate) => sim.set_injection_rate(rate),
            }
        }
    }
    sim.advance(cfg.total_cycles());
    (sim.finish(), snapshots)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// A run advanced in uneven chunks streams inside each chunk and
    /// settles at each return. Without nudges it ends where one `run()`
    /// does; with packets enqueued and the load changed between chunks it
    /// ends where the same nudges applied with no extra chunks end. Its
    /// state at every return and its end match the dense core's, which
    /// never streams.
    #[test]
    fn chunked_advance_matches_one_run_and_the_dense_core(
        (n, ports, seed) in net_params(),
        rate in 0.05f64..0.5,
        packet_len in 16u32..=64,
        buffer_depth in 2u32..=4,
        plan_seed in 0u64..1_000_000,
    ) {
        use rand::{Rng, SeedableRng};
        let topo = build(n, ports, seed);
        let inst = Algo::DownUp { release: true }
            .construct(&topo, PreorderPolicy::M1, seed).unwrap();
        let cfg = SimConfig {
            packet_len,
            injection_rate: rate,
            buffer_depth,
            warmup_cycles: 300,
            measure_cycles: 1_500,
            deadlock_threshold: 4_000,
            ..SimConfig::default()
        };
        let mut plan = rand_chacha::ChaCha8Rng::seed_from_u64(plan_seed);
        let mut clock = 0;
        let cuts: Vec<u32> = (0..plan.gen_range(1..12usize))
            .map(|_| {
                clock += plan.gen_range(1..300u32);
                clock
            })
            .collect();
        let nudges: Vec<(u32, Nudge)> = (0..plan.gen_range(0..6usize))
            .map(|_| {
                let t = plan.gen_range(0..1_800u32);
                let nudge = if plan.gen_bool(0.5) {
                    Nudge::Rate(plan.gen_range(0..500u32) as f64 / 1_000.0)
                } else {
                    let src = plan.gen_range(0..n);
                    Nudge::Enqueue(src, (src + plan.gen_range(1..n)) % n)
                };
                (t, nudge)
            })
            .collect();
        let (chunked, _) = drive(&inst, cfg, EngineCore::ActiveSet, seed, &[], &cuts);
        prop_assert_eq!(chunked, run_core(&inst, cfg, EngineCore::ActiveSet, seed));
        let chunked = drive(&inst, cfg, EngineCore::ActiveSet, seed, &nudges, &cuts);
        let (once, _) = drive(&inst, cfg, EngineCore::ActiveSet, seed, &nudges, &[]);
        let dense = drive(&inst, cfg, EngineCore::DenseReference, seed, &nudges, &cuts);
        prop_assert_eq!(&chunked.0, &once, "n={} len={} depth={}", n, packet_len, buffer_depth);
        prop_assert_eq!(&chunked, &dense, "n={} len={} depth={}", n, packet_len, buffer_depth);
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
    sim.advance(horizon);
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
/// and `drain` rather than `run()`.
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
        sim.advance(800);
        sim.set_injection_rate(0.0);
        assert_eq!(sim.drain(50_800), Halt::Drained, "network failed to drain");
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
        assert_eq!(sim.advance(1_000), Halt::Reached);
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

/// `run()` streams on the active core, the dense core never does: both
/// end in the same statistics.
#[test]
fn run_streams_and_matches_the_dense_core() {
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
        assert_eq!(streamed.advance(cfg.total_cycles()), Halt::Reached);
        assert!(streamed.work_counters().streamed_moves > 0, "{sampling:?}");
        let dense = run_core(&inst, cfg, EngineCore::DenseReference, 3);
        assert_eq!(streamed.finish(), dense, "{sampling:?}");
    }
}

/// A replay advances to each entry's clock and then drains, so it streams
/// on the active core like `run()` and ends where the dense core's replay
/// does.
#[test]
fn replay_streams_and_matches_the_dense_core() {
    use irnet::sim::{replay, Trace};
    let topo = build(16, 4, 9);
    let inst = Algo::DownUp { release: true }
        .construct(&topo, PreorderPolicy::M1, 9)
        .unwrap();
    let trace = Trace::synthetic_uniform(16, 300, 6_000, 4);
    let run = |core| {
        let cfg = SimConfig {
            packet_len: 64,
            warmup_cycles: 0,
            measure_cycles: u32::MAX / 2,
            engine_core: core,
            ..SimConfig::default()
        };
        replay(&inst.cg, &inst.tables, cfg, &trace, 7, 1_000_000).unwrap()
    };
    let active = run(EngineCore::ActiveSet);
    let dense = run(EngineCore::DenseReference);
    assert!(active.work.streamed_moves > 0, "no worm streamed");
    assert_eq!(dense.work.streamed_moves, 0);
    assert!(active.makespan.is_some(), "the trace must drain");
    assert_eq!(active.makespan, dense.makespan);
    assert_eq!(active.stats, dense.stats);
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
