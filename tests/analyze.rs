//! The static routability analyzer, cross-checked from the outside: on
//! random irregular topologies a certifier-accepted routing implies the
//! feasibility oracle must answer `Feasible` with an independently
//! checkable witness; on random fault plans the timeline judge agrees with
//! the compaction and with epoch repair at every step; and the shipped
//! scenario fixtures are pinned — the infeasible plan is provably
//! unroutable only at its final event, and the rolling plan is feasible in
//! every state it passes through.

use irnet::downup::RepairError;
use irnet::prelude::*;
use proptest::prelude::*;

fn build(n: u32, ports: u32, seed: u64) -> Topology {
    gen::random_irregular(gen::IrregularParams::paper(n, ports), seed).unwrap()
}

/// The judge's verdicts on every step of `plan`'s undamped timeline.
fn judge(topo: &Topology, plan: &FaultPlan) -> (RecoveryTimeline, Vec<Feasibility>) {
    let timeline = RecoveryTimeline::compute(topo, plan, DampingPolicy::none()).unwrap();
    let verdicts = analyze_timeline(topo, &timeline);
    (timeline, verdicts)
}

/// One link outage: (link pick, down cycle, length).
fn outage() -> (
    std::ops::Range<u32>,
    std::ops::Range<u32>,
    std::ops::Range<u32>,
) {
    (0..1_000, 100..400, 1..1_500)
}

/// A shipped scenario fixture.
fn fixture(name: &str) -> FaultPlan {
    let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(path).expect("fixture must ship with the repo");
    FaultPlan::from_json(&text).expect("fixture must parse")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Certifier-acyclic implies feasible: whenever any constructor yields
    /// a routing the certifier accepts as deadlock-free, the feasibility
    /// oracle must agree the topology is routable — and its constructive
    /// witness must pass its own verifier.
    #[test]
    fn certified_routings_imply_a_feasible_verdict(
        (n, ports, seed) in (8u32..48, 3u32..9, 0u64..10_000)
    ) {
        let topo = build(n, ports, seed);
        let inst = Algo::DownUp { release: true }
            .construct(&topo, PreorderPolicy::M1, seed)
            .unwrap();
        let cert = certify(&inst.cg, &inst.table);
        prop_assert!(cert.is_deadlock_free(), "constructions must certify");

        match analyze_topology(&topo) {
            Feasibility::Feasible(witness) => {
                prop_assert!(
                    witness.check(&topo).is_ok(),
                    "witness rejected by its own verifier"
                );
            }
            Feasibility::Infeasible(o) => {
                prop_assert!(false, "certified topology judged infeasible: {o}");
            }
        }
    }

    /// The oracle agrees with `Topology::degrade` on random fault plans:
    /// degrade succeeds and stays connected iff the judge finds every step
    /// of the plan's timeline feasible.
    #[test]
    fn oracle_matches_degrade_on_random_plans(
        (n, ports, seed, faults) in (8u32..32, 3u32..7, 0u64..10_000, 1u32..10)
    ) {
        let topo = build(n, ports, seed);
        let links = faults.min(topo.num_links());
        let plan = FaultPlan::random(&topo, links, 0, (100, 500), seed ^ 0xa5a5).unwrap();
        let (_, verdicts) = judge(&topo, &plan);
        let infeasible = verdicts.iter().find(|v| !v.is_feasible());
        match topo.degrade(&plan) {
            Ok(degraded) => {
                // `degrade` succeeding means the survivors stay connected,
                // which is exactly the oracle's feasibility condition.
                prop_assert!(
                    infeasible.is_none(),
                    "degrade succeeded but oracle says {:?}",
                    infeasible.and_then(Feasibility::obstruction)
                );
                let routed = Algo::DownUp { release: true }
                    .construct(&degraded, PreorderPolicy::M1, seed)
                    .unwrap();
                prop_assert!(certify(&routed.cg, &routed.table).is_deadlock_free());
            }
            Err(_) => {
                prop_assert!(infeasible.is_some(), "degrade failed but oracle says feasible");
            }
        }
    }

    /// On random recovering plans the judge agrees, step by step, with
    /// the compaction of that step's survivors, and it finds an
    /// infeasible step exactly when epoch repair refuses the plan as
    /// infeasible, with the same obstruction.
    #[test]
    fn judge_agrees_with_degrade_and_repair_on_recovering_plans(
        (n, ports, seed) in (8u32..24, 3u32..5, 0u64..10_000),
        picks in (outage(), outage(), outage(), outage(), outage()),
    ) {
        let topo = build(n, ports, seed);
        let picks = [picks.0, picks.1, picks.2, picks.3, picks.4];
        // Most picks hit links of one victim switch, so overlapping
        // outages can cut it off.
        let victim = (seed % u64::from(n)) as u32;
        let plan = FaultPlan::scripted(picks.iter().map(|&(pick, cycle, len)| {
            let (a, b) = if pick < 800 {
                let around = topo.neighbors(victim);
                (victim, around[pick as usize % around.len()].0)
            } else {
                topo.link(pick % topo.num_links())
            };
            FaultEvent::recovering(cycle, FaultKind::Link { a, b }, cycle + len)
        }));
        let (timeline, verdicts) = judge(&topo, &plan);
        prop_assert_eq!(verdicts.len(), timeline.steps.len());
        for (step, verdict) in timeline.steps.iter().zip(&verdicts) {
            prop_assert_eq!(
                verdict.is_feasible(),
                topo.degrade_from_masks(&step.node_down, &step.link_down).is_ok(),
                "judge and compaction disagree at cycle {}", step.cycle
            );
        }
        let routing = DownUp::new().construct(&topo).unwrap();
        let repaired = plan_epochs_timeline_with(
            &topo,
            routing.comm_graph(),
            routing.turn_table(),
            routing.routing_tables(),
            &timeline,
            DownUp::new(),
            RepairStrategy::Full,
            None,
        );
        let first_obstruction = verdicts.iter().find_map(Feasibility::obstruction);
        match repaired {
            Err(RepairError::Infeasible(o)) => prop_assert_eq!(Some(&o), first_obstruction),
            Err(e) => panic!("unexpected repair error: {e}"),
            Ok(_) => prop_assert!(first_obstruction.is_none(), "repair ran an infeasible plan"),
        }
    }
}

/// The whole-table audits hold on random certified instances: no black
/// holes, no livelock-rank violations, and full all-pairs stretch
/// coverage.
#[test]
fn audits_pass_on_random_certified_instances() {
    for seed in [3u64, 17, 91] {
        let topo = build(28, 5, seed);
        let inst = Algo::DownUp { release: true }
            .construct(&topo, PreorderPolicy::M3, seed)
            .unwrap();
        let cert = certify(&inst.cg, &inst.table);
        let report = audit(&inst.cg, &inst.table, &inst.tables, &cert);
        assert!(report.passed(), "audit failed at seed {seed}: {report:?}");
        assert_eq!(report.black_hole_states, 0);
        let n = u64::from(topo.num_nodes());
        assert_eq!(report.stretch.pairs, n * (n - 1));
    }
}

/// Pins the shipped `scenarios/infeasible_128.json` fixture: the full plan
/// is provably unroutable on the 128-switch reference topology, the
/// obstruction is a partition with a concrete witness pair, and it first
/// appears at the final event, cycle 32511, which the report names: every
/// earlier state is feasible, and so is the plan without that event (the
/// scenario is minimal at its tail by construction).
#[test]
fn infeasible_fixture_is_minimal_at_its_tail() {
    let plan = fixture("infeasible_128.json");
    let topo = build(128, 4, 1);

    let (timeline, verdicts) = judge(&topo, &plan);
    let (last, earlier) = verdicts.split_last().expect("the fixture has steps");
    assert!(earlier.iter().all(Feasibility::is_feasible));
    let Feasibility::Infeasible(obstruction) = last else {
        panic!("the full fixture plan must be infeasible");
    };
    let cycle = timeline.steps.last().expect("the fixture has steps").cycle;
    assert_eq!(cycle, 32_511);
    let report = AnalysisReport {
        target: "scenarios/infeasible_128.json".to_string(),
        feasibility: last.clone(),
        infeasible_at_cycle: Some(cycle),
        audit: None,
    };
    assert!(!report.passed());
    assert!(report.to_json().contains("\"infeasible_at_cycle\": 32511"));
    match obstruction {
        Obstruction::Partitioned {
            witness_pair: (a, b),
            ..
        } => {
            assert_ne!(a, b, "witness pair must name two distinct switches");
        }
        other => panic!("expected a partition obstruction, got {other}"),
    }

    let events = plan.events();
    assert!(!events.is_empty());
    let truncated = FaultPlan::scripted(events[..events.len() - 1].iter().copied());
    let (_, verdicts) = judge(&topo, &truncated);
    assert!(
        verdicts.iter().all(Feasibility::is_feasible),
        "dropping the final event must restore feasibility"
    );
}

/// Pins the shipped `scenarios/rolling_links_128.json` fixture: switch
/// 61's four links go down one at a time, each back up before the next
/// fails, so every state the plan passes through is feasible. All four
/// down at once would isolate switch 61.
#[test]
fn rolling_fixture_is_feasible_in_every_state() {
    let plan = fixture("rolling_links_128.json");
    let topo = build(128, 4, 1);
    let (timeline, verdicts) = judge(&topo, &plan);
    assert_eq!(timeline.steps.len(), 8);
    assert!(verdicts.iter().all(Feasibility::is_feasible));
    let all_down = FaultPlan::scripted(
        plan.events()
            .iter()
            .map(|e| FaultEvent::down(e.cycle, e.kind)),
    );
    let (_, verdicts) = judge(&topo, &all_down);
    match verdicts.last() {
        Some(Feasibility::Infeasible(Obstruction::Partitioned { component, .. })) => {
            assert_eq!(component, &vec![61]);
        }
        other => panic!("switch 61 must be cut off, got {other:?}"),
    }
}
