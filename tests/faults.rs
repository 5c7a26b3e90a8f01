//! Fault-injection integration tests: every connectivity-preserving fault
//! plan must be repairable with a certified deadlock-free routing, and the
//! scripted link-failure scenario shipped in `scenarios/` is pinned
//! bit-exactly on the 128-switch seed fixture for both scheduling cores.

use irnet::prelude::*;
use proptest::prelude::*;

/// The 128-switch, 4-port seed fixture used by the repo's golden tests.
fn paper_topology() -> Topology {
    gen::random_irregular(gen::IrregularParams::paper(128, 4), 1).unwrap()
}

/// The shipped scenario: the link between switches 7 and 80 dies at cycle
/// 3011, mid-measurement, while it is carrying a worm.
fn scripted_scenario() -> FaultPlan {
    FaultPlan::scripted([FaultEvent::down(3011, FaultKind::Link { a: 7, b: 80 })])
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

fn faults_cfg() -> SimConfig {
    SimConfig {
        packet_len: 32,
        injection_rate: 0.3,
        warmup_cycles: 1_000,
        measure_cycles: 6_000,
        ..SimConfig::default()
    }
}

/// Runs the shipped scenario end to end (repair, certify, simulate) on the
/// requested scheduling core and returns the run's statistics.
fn run_scenario(core: EngineCore) -> SimStats {
    let topo = paper_topology();
    let builder = DownUp::new().seed(1);
    let routing = builder.construct(&topo).unwrap();
    let plan = scripted_scenario();
    let cg = routing.comm_graph();
    let epochs = full_repair(&topo, &routing, &plan, builder);
    // Every epoch of the shipped scenario certifies, including the
    // old∪new transition union.
    for e in &epochs {
        assert!(
            e.certify(cg).is_deadlock_free(),
            "epoch at cycle {}",
            e.cycle
        );
    }
    let cfg = SimConfig {
        engine_core: core,
        ..faults_cfg()
    };
    let mut sim = Simulator::new(cg, routing.routing_tables(), cfg, 7);
    for e in &epochs {
        sim.schedule_reconfig(e);
    }
    sim.run()
}

/// Pinned counters for the shipped scenario. If an intentional engine
/// change moves these, re-pin from the new output — but both cores must
/// always agree, the run must survive the fault, and the cut worm must be
/// visibly accounted.
const GOLDEN: (u64, u64, u64) = (2_227, 10, 1);

#[test]
fn golden_scripted_link_failure_on_the_paper_fixture() {
    let active = run_scenario(EngineCore::ActiveSet);
    assert!(
        !active.deadlocked,
        "stalled at cycle {}",
        active.last_progress
    );
    assert_eq!(active.reconfig_epochs, 1);
    assert_eq!(
        (
            active.packets_delivered,
            active.dropped_flits,
            active.dropped_packets
        ),
        GOLDEN
    );
}

#[test]
fn both_cores_agree_on_the_golden_scenario() {
    let active = run_scenario(EngineCore::ActiveSet);
    let dense = run_scenario(EngineCore::DenseReference);
    assert_eq!(active, dense);
}

#[test]
fn delivery_recovers_after_the_epoch_barrier() {
    let topo = paper_topology();
    let routing = DownUp::new().seed(1).construct(&topo).unwrap();
    let baseline = Simulator::new(
        routing.comm_graph(),
        routing.routing_tables(),
        faults_cfg(),
        7,
    )
    .run();
    let faulted = run_scenario(EngineCore::ActiveSet);
    assert!(faulted.dropped_flits > 0, "the fault must cut a live worm");
    // Losing one link costs the cut worm and a brief barrier, not the
    // network: delivery stays within a few percent of the fault-free run.
    assert!(
        faulted.packets_delivered as f64 >= 0.9 * baseline.packets_delivered as f64,
        "delivered {} of baseline {}",
        faulted.packets_delivered,
        baseline.packets_delivered
    );
}

#[test]
fn shipped_scenario_file_matches_the_golden_plan() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/link_failure_128.json"
    );
    let raw = std::fs::read_to_string(path).unwrap();
    assert_eq!(FaultPlan::from_json(&raw).unwrap(), scripted_scenario());
}

/// Strategy: parameters for a small random connected irregular network.
fn net_params() -> impl Strategy<Value = (u32, u32, u64)> {
    // (switches, ports, seed).
    (12u32..40, 3u32..8, 0u64..10_000)
}

/// One raw fault candidate: (selector, activation cycle, switch-vs-link).
fn candidate() -> impl Strategy<Value = (u32, u32, bool)> {
    (0u32..u32::MAX, 1u32..5_000, proptest::bool::ANY)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Greedily keep every candidate fault that leaves the surviving graph
    /// connected; the resulting plan must always repair, and every epoch's
    /// rebuilt routing must certify deadlock-free on the degraded network.
    #[test]
    fn connectivity_preserving_plans_repair_and_certify(
        (n, ports, seed) in net_params(),
        count in 1usize..6,
        cands in (candidate(), candidate(), candidate(), candidate(), candidate()),
    ) {
        let candidates = [cands.0, cands.1, cands.2, cands.3, cands.4];
        let topo = gen::random_irregular(gen::IrregularParams::paper(n, ports), seed).unwrap();
        let mut kept: Vec<FaultEvent> = Vec::new();
        for &(raw, cycle, is_switch) in &candidates[..count] {
            let kind = if is_switch {
                FaultKind::Switch { node: raw % n }
            } else {
                let (a, b) = topo.link(raw % topo.num_links());
                FaultKind::Link { a, b }
            };
            let mut trial = kept.clone();
            trial.push(FaultEvent::down(cycle, kind));
            if topo.degrade(&FaultPlan::scripted(trial.clone())).is_ok() {
                kept = trial;
            }
        }
        if kept.is_empty() {
            // Every candidate alone would partition the graph; no plan to
            // test for this draw.
            continue;
        }
        let plan = FaultPlan::scripted(kept);
        let builder = DownUp::new().seed(seed);
        let routing = builder.construct(&topo).unwrap();
        let cg = routing.comm_graph();
        let epochs = full_repair(&topo, &routing, &plan, builder);
        // One epoch per timeline step. Duplicate faults at distinct cycles
        // collapse to no-op steps, so an activation cycle need not produce
        // an epoch — but at least the first fault always does.
        let timeline = RecoveryTimeline::compute(&topo, &plan, DampingPolicy::none()).unwrap();
        prop_assert!(!epochs.is_empty());
        prop_assert_eq!(epochs.len(), timeline.steps.len());
        for e in &epochs {
            prop_assert!(
                e.certify(cg).degraded.is_deadlock_free(),
                "repaired epoch at cycle {} is not deadlock-free",
                e.cycle
            );
        }
    }
}
