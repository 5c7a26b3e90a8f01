//! Link-recovery integration tests: the shipped 128-switch
//! fault-then-recovery scenario is pinned bit-exactly under both repair
//! strategies, degrade-then-recover-all restores the pristine routing
//! tables bit-identically, flap damping provably collapses raw flap
//! transitions into a bounded number of admitted epochs, and every
//! up-swap conserves flits exactly.

use irnet::prelude::*;
use irnet::sim::SimEvent;
use proptest::prelude::*;

/// The 128-switch, 4-port seed fixture used by the repo's golden tests.
fn paper_topology() -> Topology {
    gen::random_irregular(gen::IrregularParams::paper(128, 4), 1).unwrap()
}

/// The shipped recovery scenario: the link between switches 7 and 80 dies
/// at cycle 3011 (mid-measurement, carrying a worm) and comes back at 4511.
fn recovery_scenario() -> FaultPlan {
    FaultPlan::scripted([FaultEvent::recovering(
        3011,
        FaultKind::Link { a: 7, b: 80 },
        4511,
    )])
}

/// The shipped flap scenario: the same link, but it keeps bouncing — four
/// repeats, 600 cycles apart, after the initial 300-cycle outage.
fn flap_scenario() -> FaultPlan {
    FaultPlan::scripted([
        FaultEvent::recovering(3011, FaultKind::Link { a: 7, b: 80 }, 3311).with_flap(600, 4),
    ])
}

fn faults_cfg() -> SimConfig {
    SimConfig {
        packet_len: 32,
        injection_rate: 0.3,
        warmup_cycles: 1_000,
        measure_cycles: 6_000,
        ..SimConfig::default()
    }
}

/// Plans the damped timeline of `plan`, repairs it epoch by epoch with
/// `strategy`, certifies every transition in both directions, and runs the
/// simulation through all the swaps.
fn run_timeline(
    topo: &Topology,
    plan: &FaultPlan,
    policy: DampingPolicy,
    strategy: RepairStrategy,
    core: EngineCore,
) -> SimStats {
    let builder = DownUp::new().seed(1);
    let routing = builder.construct(topo).unwrap();
    let cg = routing.comm_graph();
    let timeline = RecoveryTimeline::compute(topo, plan, policy).unwrap();
    let epochs = plan_epochs_timeline_with(
        topo,
        cg,
        routing.turn_table(),
        routing.routing_tables(),
        &timeline,
        builder,
        strategy,
        None,
    )
    .unwrap();
    for e in &epochs {
        assert!(
            e.epoch.certify(cg).is_deadlock_free(),
            "epoch at cycle {} failed certification",
            e.epoch.cycle
        );
    }
    let cfg = SimConfig {
        engine_core: core,
        ..faults_cfg()
    };
    let mut sim = Simulator::new(cg, routing.routing_tables(), cfg, 7);
    for e in &epochs {
        sim.schedule_reconfig(&e.epoch);
    }
    // Damped re-admissions can land past the configured run (the flap
    // scenario's final up-swap does); extend the horizon so every
    // scheduled epoch is applied and its conservation check exercised.
    let last_epoch = epochs.iter().map(|e| e.epoch.cycle).max().unwrap_or(0);
    sim.advance(cfg.total_cycles().max(last_epoch.saturating_add(1_000)));
    sim.finish()
}

/// Pinned counters (delivered, dropped flits, dropped packets) for the
/// shipped recovery scenario. Re-pin from the output if an intentional
/// engine change moves them — but both strategies and both cores must
/// always agree, and the run must beat the permanent-fault golden
/// (2_227 delivered over a longer outage window is the `tests/faults.rs`
/// reference without a recovery).
const GOLDEN_RECOVERY: (u64, u64, u64) = (2_155, 10, 1);

#[test]
fn golden_recovery_scenario_is_pinned_under_both_strategies() {
    let topo = paper_topology();
    let plan = recovery_scenario();
    let mut runs = Vec::new();
    for strategy in [RepairStrategy::Full, RepairStrategy::Incremental] {
        let stats = run_timeline(
            &topo,
            &plan,
            DampingPolicy::none(),
            strategy,
            EngineCore::ActiveSet,
        );
        assert!(
            !stats.deadlocked,
            "stalled at cycle {}",
            stats.last_progress
        );
        // One down-swap, one up-swap.
        assert_eq!(stats.reconfig_epochs, 2);
        assert_eq!(
            (
                stats.packets_delivered,
                stats.dropped_flits,
                stats.dropped_packets
            ),
            GOLDEN_RECOVERY,
            "strategy {strategy:?}"
        );
        // Exact conservation across both barriers: revived channels come
        // back empty, so no flit materializes or vanishes at the up-swap.
        assert!(stats.flits_conserved(), "strategy {strategy:?}");
        runs.push(stats);
    }
    assert_eq!(runs[0], runs[1]);
}

#[test]
fn both_cores_agree_on_the_recovery_scenario() {
    let topo = paper_topology();
    let plan = recovery_scenario();
    let active = run_timeline(
        &topo,
        &plan,
        DampingPolicy::none(),
        RepairStrategy::Full,
        EngineCore::ActiveSet,
    );
    let dense = run_timeline(
        &topo,
        &plan,
        DampingPolicy::none(),
        RepairStrategy::Full,
        EngineCore::DenseReference,
    );
    assert_eq!(active, dense);
}

#[test]
fn shipped_recovery_scenario_file_matches_the_golden_plan() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/link_recovery_128.json"
    );
    let raw = std::fs::read_to_string(path).unwrap();
    let plan = FaultPlan::from_json(&raw).unwrap();
    assert_eq!(plan.schema_version(), 2);
    assert!(plan.has_recovery());
    assert_eq!(plan, recovery_scenario());
}

#[test]
fn shipped_flap_scenario_file_matches_the_golden_plan() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/flapping_link_128.json"
    );
    let raw = std::fs::read_to_string(path).unwrap();
    let plan = FaultPlan::from_json(&raw).unwrap();
    assert_eq!(plan.schema_version(), 2);
    assert_eq!(plan, flap_scenario());
}

/// Flap damping on the shipped flap scenario: ten raw transitions (five
/// downs, five ups) collapse to exactly two admitted epochs — the first
/// down and one final, exponentially held-down re-admission — so the
/// network patches its tables twice instead of ten times.
#[test]
fn flap_damping_collapses_the_shipped_flap_scenario() {
    let topo = paper_topology();
    let plan = flap_scenario();
    let timeline = RecoveryTimeline::compute(&topo, &plan, DampingPolicy::hold(500)).unwrap();
    assert_eq!(timeline.raw_transitions, 10);
    assert_eq!(timeline.steps.len(), 2);
    assert_eq!(timeline.suppressed_ups(), 4);
    assert!(timeline.steps.len() < timeline.raw_transitions as usize);
    // The surviving up-step carries the compounded hold-down: the base
    // 500-cycle hold doubled per repeat flap, capped at 8x.
    assert_eq!(timeline.steps[0].cycle, 3_011);
    assert_eq!(timeline.steps[1].cycle, 9_711);
    let d = &timeline.damping[0];
    assert_eq!((d.downs, d.ups), (5, 5));
    assert_eq!((d.admitted_downs, d.admitted_ups), (1, 1));
    assert_eq!(d.max_hold_applied, 4_000);
    // Undamped, every bounce becomes its own epoch pair.
    let raw = RecoveryTimeline::compute(&topo, &plan, DampingPolicy::none()).unwrap();
    assert_eq!(raw.steps.len(), 10);
    assert_eq!(raw.suppressed_ups(), 0);
    // And the damped scenario still simulates clean end to end.
    let stats = run_timeline(
        &topo,
        &plan,
        DampingPolicy::hold(500),
        RepairStrategy::Incremental,
        EngineCore::ActiveSet,
    );
    assert!(!stats.deadlocked);
    assert_eq!(stats.reconfig_epochs, 2);
    assert!(stats.flits_conserved());
}

/// A recorder that tallies epoch swaps and their revived counts — the
/// recovery swap must be visible to observers without perturbing the run.
#[derive(Default)]
struct SwapCounter {
    swaps: u64,
    revived_channels: u64,
}

impl Recorder for SwapCounter {
    fn record(&mut self, event: &SimEvent) {
        if let SimEvent::EpochSwap {
            revived_channels, ..
        } = event
        {
            self.swaps += 1;
            self.revived_channels += u64::from(*revived_channels);
        }
    }
}

/// The recovery scenario with a recorder attached: both the down-swap and
/// the up-swap are recorded (the latter with its revived channels), and
/// the statistics stay bit-identical to the unobserved run.
#[test]
fn recovery_swaps_are_recorded_without_perturbation() {
    let topo = paper_topology();
    let builder = DownUp::new().seed(1);
    let routing = builder.construct(&topo).unwrap();
    let cg = routing.comm_graph();
    let plan = recovery_scenario();
    let timeline = RecoveryTimeline::compute(&topo, &plan, DampingPolicy::none()).unwrap();
    let epochs = plan_epochs_timeline_with(
        &topo,
        cg,
        routing.turn_table(),
        routing.routing_tables(),
        &timeline,
        builder,
        RepairStrategy::Full,
        None,
    )
    .unwrap();
    let run = |observe: bool| {
        let mut counter = SwapCounter::default();
        let mut sim = Simulator::new(cg, routing.routing_tables(), faults_cfg(), 7);
        for e in &epochs {
            sim.schedule_reconfig(&e.epoch);
        }
        if observe {
            sim.attach_recorder(&mut counter);
        }
        sim.advance(faults_cfg().total_cycles());
        (sim.finish(), counter)
    };
    let (plain, _) = run(false);
    let (observed, counts) = run(true);
    assert_eq!(plain, observed, "the recorder perturbed the run");
    assert_eq!(counts.swaps, 2);
    // One link revived: both of its directed channels come back.
    assert_eq!(counts.revived_channels, 2);
}

/// Picks a link whose loss keeps `topo` connected, if any.
fn non_bridge_link(topo: &Topology) -> Option<(u32, u32)> {
    (0..topo.num_links()).find_map(|l| {
        let (a, b) = topo.link(l);
        let probe = FaultPlan::scripted([FaultEvent::down(1, FaultKind::Link { a, b })]);
        topo.degrade(&probe).is_ok().then_some((a, b))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Restore round-trip: degrade, then recover everything. The final
    /// epoch has no dead elements, and its turn table and routing tables
    /// are bit-identical to the pristine construction — under either
    /// repair strategy. Recovery is lossless in the routing function.
    #[test]
    fn degrade_then_recover_all_restores_pristine_tables(
        (n, ports, seed) in (12u32..40, 3u32..8, 0u64..10_000),
    ) {
        let topo = gen::random_irregular(gen::IrregularParams::paper(n, ports), seed).unwrap();
        let Some((a, b)) = non_bridge_link(&topo) else {
            // Pure tree: every link is a bridge, nothing can fail and recover.
            return;
        };
        let plan = FaultPlan::scripted([FaultEvent::recovering(
            500,
            FaultKind::Link { a, b },
            1_500,
        )]);
        let builder = DownUp::new().seed(seed);
        let routing = builder.construct(&topo).unwrap();
        let cg = routing.comm_graph();
        let timeline = RecoveryTimeline::compute(&topo, &plan, DampingPolicy::none()).unwrap();
        prop_assert_eq!(timeline.steps.len(), 2);
        for strategy in [RepairStrategy::Full, RepairStrategy::Incremental] {
            let epochs = plan_epochs_timeline_with(
                &topo,
                cg,
                routing.turn_table(),
                routing.routing_tables(),
                &timeline,
                builder,
                strategy,
                None,
            ).unwrap();
            prop_assert_eq!(epochs.len(), 2);
            let last = &epochs[1].epoch;
            prop_assert!(last.dead_channels.is_empty());
            prop_assert!(last.dead_nodes.is_empty());
            prop_assert_eq!(last.revived_channels.len(), 2);
            // Bit-identical to the pristine construction: same turn
            // table, same routing tables, hence the same routes.
            prop_assert_eq!(&last.new_table, routing.turn_table());
            prop_assert_eq!(&last.tables, routing.routing_tables());
        }
    }
}
