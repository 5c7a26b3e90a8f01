//! Observability integration tests: attaching a flight recorder and an
//! interval sampler is provably non-perturbing (the run's `SimStats` stay
//! bit-identical, on both scheduling cores, across random topologies), the
//! JSONL export of a tiny deterministic run is pinned byte-exactly, and
//! the shipped link-failure scenario — applied *without* repair — drives
//! the watchdog into a forensic incident with a non-empty waits-for graph.

use irnet::obs::{deadlock_incident, FlightRecorder, IntervalSampler};
use irnet::prelude::*;
use irnet::sim::SimEvent;
use proptest::prelude::*;

/// Runs `cfg` on the DOWN/UP routing of `topo`, optionally with a flight
/// recorder and a 64-cycle interval sampler attached (the observed run
/// advances from one sample to the next).
fn run_observed(
    routing: &DownUpRouting,
    cfg: SimConfig,
    seed: u64,
    observe: bool,
) -> (SimStats, u64) {
    let mut recorder = FlightRecorder::new(4_096);
    let mut sampler = IntervalSampler::new(64);
    let mut sim = Simulator::new(routing.comm_graph(), routing.routing_tables(), cfg, seed);
    if observe {
        sim.attach_recorder(&mut recorder);
    }
    let total = cfg.total_cycles();
    let mut halt = Halt::Reached;
    while halt == Halt::Reached && sim.now() < total {
        if observe {
            halt = sim.advance(sampler.due().min(total));
            sampler.maybe_sample(&sim);
        } else {
            halt = sim.advance(total);
        }
    }
    let stats = sim.finish();
    (stats, recorder.total_recorded())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Observation must not perturb: with and without recorder + sampler,
    /// the statistics of the same run are bit-identical — on both cores.
    #[test]
    fn observers_leave_stats_bit_identical(
        n in 10u32..28,
        ports in 3u32..6,
        seed in 0u64..500,
        rate_milli in 1u32..80,
    ) {
        let topo = gen::random_irregular(gen::IrregularParams::paper(n, ports), seed).unwrap();
        let routing = DownUp::new().construct(&topo).unwrap();
        for core in [EngineCore::ActiveSet, EngineCore::DenseReference] {
            let cfg = SimConfig {
                packet_len: 8,
                injection_rate: f64::from(rate_milli) / 1_000.0,
                warmup_cycles: 100,
                measure_cycles: 1_200,
                engine_core: core,
                ..SimConfig::default()
            };
            let (plain, zero) = run_observed(&routing, cfg, seed ^ 0x5eed, false);
            let (observed, events) = run_observed(&routing, cfg, seed ^ 0x5eed, true);
            prop_assert_eq!(zero, 0);
            prop_assert_eq!(&plain, &observed, "core {:?} perturbed by observers", core);
            if plain.packets_delivered > 0 {
                prop_assert!(events > 0, "delivered packets but recorded no events");
            }
        }
    }
}

/// A recorder that only tallies event kinds — immune to ring eviction, so
/// it can assert on events from early in a long run.
#[derive(Default)]
struct KindCounter {
    epoch_swaps: u64,
    drops: u64,
    ejects: u64,
}

impl Recorder for KindCounter {
    fn record(&mut self, event: &SimEvent) {
        match event {
            SimEvent::EpochSwap { .. } => self.epoch_swaps += 1,
            SimEvent::Drop { .. } => self.drops += 1,
            SimEvent::Eject { .. } => self.ejects += 1,
            _ => {}
        }
    }
}

/// The full-rebuild repair epochs of `plan`, starting from `routing`.
fn full_repair(
    topo: &Topology,
    routing: &DownUpRouting,
    plan: &FaultPlan,
    builder: DownUp,
) -> Vec<ReconfigEpoch> {
    plan_epochs_with(
        topo,
        routing.comm_graph(),
        routing.turn_table(),
        routing.routing_tables(),
        plan,
        builder,
        RepairStrategy::Full,
    )
    .expect("a connectivity-preserving plan must be repairable")
    .into_iter()
    .map(|e| e.epoch)
    .collect()
}

/// The fault golden run of `tests/faults.rs`, re-run here with a recorder
/// attached: the recording must capture the epoch swap and the cut worm
/// without moving a single counter on either core.
#[test]
fn recorder_is_non_perturbing_through_the_golden_fault_scenario() {
    let topo = gen::random_irregular(gen::IrregularParams::paper(128, 4), 1).unwrap();
    let builder = DownUp::new().seed(1);
    let routing = builder.construct(&topo).unwrap();
    let plan = FaultPlan::scripted([FaultEvent::down(3011, FaultKind::Link { a: 7, b: 80 })]);
    let cg = routing.comm_graph();
    let epochs = full_repair(&topo, &routing, &plan, builder);
    for core in [EngineCore::ActiveSet, EngineCore::DenseReference] {
        let cfg = SimConfig {
            packet_len: 32,
            injection_rate: 0.3,
            warmup_cycles: 1_000,
            measure_cycles: 6_000,
            engine_core: core,
            ..SimConfig::default()
        };
        let run = |observe: bool| {
            let mut recorder = KindCounter::default();
            let mut sim = Simulator::new(cg, routing.routing_tables(), cfg, 7);
            for e in &epochs {
                sim.schedule_reconfig(e);
            }
            if observe {
                sim.attach_recorder(&mut recorder);
            }
            sim.advance(cfg.total_cycles());
            (sim.finish(), recorder)
        };
        let (plain, _) = run(false);
        let (observed, counts) = run(true);
        assert_eq!(plain, observed, "core {core:?} perturbed by the recorder");
        assert_eq!(
            counts.epoch_swaps, 1,
            "the reconfiguration epoch was not recorded"
        );
        // Stats counters cover the measurement window only, while the
        // recorder sees the whole run (warm-up included) — so events
        // bound the counters from above.
        assert!(
            counts.drops >= observed.dropped_packets && observed.dropped_packets > 0,
            "the cut worm must emit a drop event ({} events, {} dropped)",
            counts.drops,
            observed.dropped_packets
        );
        assert!(
            counts.ejects >= observed.packets_delivered,
            "every measured delivery must emit an eject event"
        );
    }
}

/// A tiny fully deterministic run whose JSONL export is pinned
/// byte-exactly. Two packets are enqueued by hand at zero offered load, so
/// every recorded event is forced by the routing alone. Re-derive with
/// `PRINT_OBS_GOLDEN=1 cargo test --test observability golden -- --nocapture`.
#[test]
fn golden_jsonl_export_is_pinned() {
    let topo = gen::random_irregular(gen::IrregularParams::paper(8, 4), 3).unwrap();
    let routing = DownUp::new().construct(&topo).unwrap();
    let cfg = SimConfig {
        packet_len: 3,
        injection_rate: 0.0,
        warmup_cycles: 0,
        measure_cycles: 400,
        ..SimConfig::default()
    };
    let mut recorder = FlightRecorder::new(64);
    let mut sim = Simulator::new(routing.comm_graph(), routing.routing_tables(), cfg, 1);
    sim.attach_recorder(&mut recorder);
    sim.enqueue_packet(0, 5);
    sim.enqueue_packet(3, 1);
    assert_eq!(
        sim.drain(400),
        Halt::Drained,
        "two packets must drain on a healthy network"
    );
    drop(sim);
    let jsonl = recorder.export_jsonl();
    if std::env::var("PRINT_OBS_GOLDEN").is_ok() {
        println!("--- golden JSONL ---\n{jsonl}--- end ---");
    }
    let expected = "\
{\"cycle\":0,\"event\":\"inject\",\"pkt\":0,\"src\":0,\"dst\":5,\"len\":3}
{\"cycle\":0,\"event\":\"inject\",\"pkt\":1,\"src\":3,\"dst\":1,\"len\":3}
{\"cycle\":1,\"event\":\"vc_alloc\",\"pkt\":0,\"channel\":4,\"vc\":0}
{\"cycle\":1,\"event\":\"vc_alloc\",\"pkt\":1,\"channel\":8,\"vc\":0}
{\"cycle\":2,\"event\":\"header_advance\",\"pkt\":0,\"channel\":4,\"vc\":0}
{\"cycle\":2,\"event\":\"header_advance\",\"pkt\":1,\"channel\":8,\"vc\":0}
{\"cycle\":3,\"event\":\"vc_alloc\",\"pkt\":1,\"channel\":7,\"vc\":0}
{\"cycle\":4,\"event\":\"header_advance\",\"pkt\":1,\"channel\":7,\"vc\":0}
{\"cycle\":6,\"event\":\"eject\",\"pkt\":0,\"node\":5,\"latency\":6}
{\"cycle\":8,\"event\":\"eject\",\"pkt\":1,\"node\":1,\"latency\":8}
";
    assert_eq!(jsonl, expected);
}

/// The acceptance scenario: the shipped 128-switch link failure applied
/// WITHOUT table repair wedges worms on the dead channels; once drainable
/// traffic leaves, the watchdog fires and the incident report must carry
/// at least one blocked-worm chain (worm → held channels → wanted
/// channels) in its waits-for graph.
#[test]
fn unrepaired_link_failure_produces_a_waits_for_incident() {
    let topo = gen::random_irregular(gen::IrregularParams::paper(128, 4), 1).unwrap();
    let builder = DownUp::new().seed(1);
    let routing = builder.construct(&topo).unwrap();
    let plan = FaultPlan::scripted([FaultEvent::down(3011, FaultKind::Link { a: 7, b: 80 })]);
    let cg = routing.comm_graph();
    // The original, unrepaired tables: routes through the dead link stay
    // in force, so the worms on them wedge for good.
    let epochs: Vec<ReconfigEpoch> = full_repair(&topo, &routing, &plan, builder)
        .into_iter()
        .map(|e| ReconfigEpoch {
            tables: routing.routing_tables().clone(),
            ..e
        })
        .collect();
    let cfg = SimConfig {
        packet_len: 32,
        injection_rate: 0.3,
        warmup_cycles: 1_000,
        measure_cycles: 4_000,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(cg, routing.routing_tables(), cfg, 7);
    for e in &epochs {
        sim.schedule_reconfig(e);
    }
    let last_fault = epochs.iter().map(|e| e.cycle).max().unwrap();
    let horizon = cfg.total_cycles().saturating_add(200_000);
    let mut halt = sim.advance(last_fault + 1);
    if halt == Halt::Reached {
        // Stop offering new traffic: everything that can drain does,
        // leaving only the wedged worms — a deterministic stall.
        sim.set_injection_rate(0.0);
        halt = sim.advance(horizon);
    }
    assert_eq!(
        halt,
        Halt::Stalled,
        "the unrepaired fault must trip the watchdog"
    );
    let incident = deadlock_incident(&sim);
    assert!(
        !incident.worms.is_empty(),
        "a fired watchdog with live packets must expose blocked worms"
    );
    assert!(
        incident
            .worms
            .iter()
            .any(|w| !w.holds.is_empty() && !w.wants.is_empty()),
        "at least one worm must form a chain: held channels -> wanted channel"
    );
    assert!(
        !incident.edges.is_empty(),
        "the waits-for graph must contain at least one edge"
    );
    // DOWN/UP's tables are cycle-free even unrepaired: the stall is an
    // acyclic wait on dead resources, and the certifier proves it.
    assert!(!incident.is_circular_wait());
    assert!(incident.witness().is_none());
    // Every wedged worm is waiting on something dead or held, never on the
    // local ejection port — ejection drains unconditionally.
    let json = incident.to_json();
    assert!(json.contains("\"kind\": \"deadlock_incident\""));
    assert!(json.contains("\"blocked_worms\""));
    // (Full JSON-schema validation of the report lives in the irnet-obs
    // unit tests, which re-parse it through the vendored serde stub.)
}
