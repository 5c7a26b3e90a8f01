//! Incremental-repair equivalence: under any connectivity-preserving
//! multi-epoch fault plan, [`plan_epochs_with`] must produce the same
//! epochs as the full-rebuild reference — identical lifted turn tables,
//! identical masked routing tables (hence identical routes), and the same
//! per-epoch transition certificates — whichever strategy runs. The
//! scripted golden scenario must deliver bit-identical flit counts when
//! the simulator swaps in incrementally repaired tables.

use irnet::prelude::*;
use irnet_core::{plan_epochs_with, RepairStrategy};
use proptest::prelude::*;

fn link_fault(cycle: u32, a: u32, b: u32) -> FaultEvent {
    FaultEvent::down(cycle, FaultKind::Link { a, b })
}

/// Builds a cumulative, non-partitioning plan from random link/switch
/// candidates: each candidate is kept only if the graph stays routable
/// with every previously kept fault still active.
fn safe_plan(topo: &Topology, candidates: &[(u32, bool)], max_epochs: usize) -> FaultPlan {
    let mut kept: Vec<FaultEvent> = Vec::new();
    for &(pick, switch) in candidates {
        if kept.len() == max_epochs {
            break;
        }
        let cycle = 100 * (kept.len() as u32 + 1);
        let event = if switch {
            FaultEvent::down(
                cycle,
                FaultKind::Switch {
                    node: pick % topo.num_nodes(),
                },
            )
        } else {
            let (a, b) = topo.links()[pick as usize % topo.links().len()];
            link_fault(cycle, a, b)
        };
        let mut trial = kept.clone();
        trial.push(event);
        if topo.degrade(&FaultPlan::scripted(trial.clone())).is_ok() {
            kept = trial;
        }
    }
    FaultPlan::scripted(kept)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn incremental_repair_is_equivalent_to_full_rebuild(
        (seed, switches, cand_seed) in (0u64..40, 16u32..40, 0u64..1_000_000),
    ) {
        let topo = gen::random_irregular(gen::IrregularParams::paper(switches, 4), seed).unwrap();
        // Expand the candidate seed into six pseudo-random fault picks
        // (splitmix64); roughly a quarter are switch faults.
        let mut state = cand_seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let candidates: Vec<(u32, bool)> = (0..6)
            .map(|_| {
                let r = next();
                ((r >> 8) as u32 & 0xfff, r & 3 == 0)
            })
            .collect();
        let plan = safe_plan(&topo, &candidates, 3);
        if plan.is_empty() {
            // Every candidate partitioned the graph — nothing to repair.
            return;
        }

        let routing = DownUp::new().construct(&topo).unwrap();
        let (_, cg, table, tables) = routing.into_parts();
        let reference = plan_epochs_with(
            &topo, &cg, &table, &tables, &plan, DownUp::new(), RepairStrategy::Full,
        ).unwrap();

        let mut per_strategy = Vec::new();
        for strategy in [RepairStrategy::Full, RepairStrategy::Incremental] {
            let epochs = plan_epochs_with(
                &topo, &cg, &table, &tables, &plan, DownUp::new(), strategy,
            ).unwrap();
            prop_assert_eq!(epochs.len(), reference.len());
            for (got, want) in epochs.iter().zip(&reference) {
                // Identical lifted turn tables on every pair (dead pairs
                // are prohibited in both), and identical masked tables —
                // which pins every route the simulator can take.
                prop_assert_eq!(&got.epoch.new_table, &want.epoch.new_table);
                prop_assert_eq!(&got.epoch.old_table, &want.epoch.old_table);
                prop_assert_eq!(&got.epoch.tables, &want.epoch.tables);
                prop_assert_eq!(&got.epoch.dead_channels, &want.epoch.dead_channels);
                prop_assert_eq!(&got.epoch.flipped_channels, &want.epoch.flipped_channels);

                // The transition certificates cannot differ between
                // strategies; the repaired steady state always certifies,
                // and the incremental O(delta) union verdict agrees with
                // the exhaustive certificate.
                let certs = got.epoch.certify(&cg);
                prop_assert!(certs.degraded.is_deadlock_free());
                if let Some(verdict) = got.spans.recertified {
                    prop_assert_eq!(verdict, certs.union.is_deadlock_free());
                }
            }
            per_strategy.push(epochs);
        }

        // Spot-check route equality under the masked tables: the same
        // (source, destination) pairs route identically under either
        // strategy's final epoch.
        let (full, incr) = (&per_strategy[0], &per_strategy[1]);
        let last_full = &full[full.len() - 1];
        let last_incr = &incr[incr.len() - 1];
        let alive = |v: u32| !last_full.epoch.dead_nodes.contains(&v);
        for s in 0..topo.num_nodes() {
            for t in 0..topo.num_nodes() {
                if s != t && alive(s) && alive(t) {
                    prop_assert_eq!(
                        last_full.epoch.tables.route(&cg, s, t),
                        last_incr.epoch.tables.route(&cg, s, t)
                    );
                }
            }
        }
    }
}

/// Single-link repairs that the in-place patch once got wrong: a channel
/// unreachable under the old turn table entered the re-settle frontier
/// late, and a neighbor committed at a stale cost never saw the decrease.
/// Each case is `(switches, ports, gen seed, failed link)`; every one is
/// patched in place and must equal the full rebuild exactly.
#[test]
fn in_place_patches_match_full_rebuild_on_pinned_cases() {
    const CASES: [(u32, u32, u64, usize); 8] = [
        (48, 4, 25, 51),
        (48, 8, 4, 66),
        (48, 8, 22, 67),
        (48, 8, 24, 159),
        (48, 8, 28, 156),
        (64, 4, 7, 114),
        (64, 4, 37, 34),
        (64, 4, 37, 116),
    ];
    for (switches, ports, seed, link) in CASES {
        let topo =
            gen::random_irregular(gen::IrregularParams::paper(switches, ports), seed).unwrap();
        let (_, cg, table, tables) = DownUp::new().construct(&topo).unwrap().into_parts();
        let (a, b) = topo.links()[link];
        let plan = FaultPlan::scripted([link_fault(100, a, b)]);
        let repair = |strategy| {
            plan_epochs_with(&topo, &cg, &table, &tables, &plan, DownUp::new(), strategy)
                .unwrap()
                .remove(0)
        };
        let (full, incr) = (
            repair(RepairStrategy::Full),
            repair(RepairStrategy::Incremental),
        );
        let case = format!("{switches}/{ports}/{seed}/{link}");
        assert!(
            incr.spans.patched_in_place,
            "{case} was not patched in place"
        );
        assert!(
            incr.epoch.tables == full.epoch.tables,
            "{case} differs from Full"
        );
    }
}

/// The shipped 128-switch scripted scenario delivers bit-identical
/// statistics when the simulator swaps in incrementally repaired tables
/// instead of fully rebuilt ones.
#[test]
fn golden_scenario_pins_are_identical_under_incremental_repair() {
    let topo = gen::random_irregular(gen::IrregularParams::paper(128, 4), 1).unwrap();
    let builder = DownUp::new().seed(1);
    let routing = builder.construct(&topo).unwrap();
    let plan = FaultPlan::scripted([FaultEvent::down(3011, FaultKind::Link { a: 7, b: 80 })]);
    let cg = routing.comm_graph();
    let cfg = SimConfig {
        packet_len: 32,
        injection_rate: 0.3,
        warmup_cycles: 1_000,
        measure_cycles: 6_000,
        ..SimConfig::default()
    };
    let mut stats = Vec::new();
    for strategy in [RepairStrategy::Full, RepairStrategy::Incremental] {
        let epochs = plan_epochs_with(
            &topo,
            cg,
            routing.turn_table(),
            routing.routing_tables(),
            &plan,
            builder,
            strategy,
        )
        .unwrap();
        let mut sim = Simulator::new(cg, routing.routing_tables(), cfg, 7);
        for e in &epochs {
            sim.schedule_reconfig(&e.epoch);
        }
        stats.push(sim.run());
    }
    assert_eq!(stats[0], stats[1]);
    // And both match the reference pins of `tests/faults.rs`.
    assert_eq!(
        (
            stats[0].packets_delivered,
            stats[0].dropped_flits,
            stats[0].dropped_packets
        ),
        (2_227, 10, 1)
    );
}

/// A 300-rung ladder (rails `0..300` and `300..600`, rung `(i, 300 + i)`)
/// plus a shortcut `(0, 150)` along the first rail. Every channel can turn
/// round within a rung square, so costs stay close to route lengths. The
/// shortcut keeps the longest route at 225 hops; without it the ends of a
/// rail are 299 hops apart. (A plain 300-switch path with the same chord
/// does not work: its wrong-way channels turn round through the chord's
/// loop and cost up to 449 even with the chord up.)
fn ladder_with_shortcut() -> Topology {
    const RUNGS: u32 = 300;
    let mut links = vec![(0, 150)];
    for i in 0..RUNGS {
        links.push((i, RUNGS + i));
        if i + 1 < RUNGS {
            links.extend([(i, i + 1), (RUNGS + i, RUNGS + i + 1)]);
        }
    }
    Topology::new(2 * RUNGS, 4, links).unwrap()
}

/// Losing the shortcut pushes a cost past 254, so the in-place patch must
/// widen the one-byte cost cells mid-pass and still equal the full
/// rebuild; its recovery brings the one-byte tables back.
#[test]
fn repairs_follow_the_cost_width_across_a_shortcut_failure() {
    let topo = ladder_with_shortcut();
    let (_, cg, table, tables) = DownUp::new().construct(&topo).unwrap().into_parts();
    let plan = FaultPlan::scripted([FaultEvent::recovering(
        100,
        FaultKind::Link { a: 0, b: 150 },
        200,
    )]);
    let repair = |strategy| {
        plan_epochs_with(&topo, &cg, &table, &tables, &plan, DownUp::new(), strategy).unwrap()
    };
    let (full, incr) = (
        repair(RepairStrategy::Full),
        repair(RepairStrategy::Incremental),
    );
    assert_eq!(incr.len(), 2);
    assert!(incr[0].spans.patched_in_place, "the failure was rebuilt");
    assert!(incr[0].epoch.tables == full[0].epoch.tables);
    // Two-byte cells cost one more byte per (destination, channel).
    let (n, c) = (topo.num_nodes() as usize, cg.num_channels() as usize);
    assert_eq!(
        incr[0].epoch.tables.heap_bytes(),
        tables.heap_bytes() + n * c
    );
    assert!(incr[1].epoch.tables == tables);
    assert!(full[1].epoch.tables == tables);
}
