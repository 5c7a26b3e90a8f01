//! Epoch repair, under either [`RepairStrategy`]: rebuild the masked
//! routing tables from scratch ([`RepairStrategy::Full`]), or patch the
//! previous epoch's tables in place ([`RepairStrategy::Incremental`]).
//!
//! A full repair re-runs Phases 1–3 on the survivors and then rebuilds
//! the masked shortest-path tables over the *original* communication
//! graph. At scale the table rebuild dominates (`BENCH_sim.json`'s
//! `construction` array times Phases 1–3 against the table fill), yet a
//! single fault typically perturbs only a tiny region of the routing
//! function.
//!
//! [`plan_epochs_timeline_with`] therefore splits each epoch into four
//! stages, each timed as a child of the epoch's `repair` span (what each
//! stage touched is surfaced as [`RepairStats`]):
//!
//! 1. **classify** — feed the timeline step's down masks through the
//!    feasibility gate + degradation (shared masks, see `irnet-analyze`)
//!    and classify each *newly* dead element against the previous epoch's
//!    coordinated tree: tree link vs cross link, leaf switch vs internal
//!    switch. Cross-link and leaf faults leave the M1/M3 BFS preorder
//!    intact, which is why their table deltas are small.
//! 2. **phases** — re-run the paper's Phases 1–3 on the compact survivors
//!    (no table build) and lift the repaired turn table back into the
//!    original channel space. Both strategies run this verbatim, so the
//!    incremental path produces *bit-identical* turn tables to the full
//!    one by construction.
//! 3. **patch** — measure the turn-table delta. When it is small, clone
//!    the previous epoch's tables and apply the exact dirty-region patch
//!    ([`RoutingTables::patch_masked`]): invalidate costs reachable from
//!    removed dependency edges, lower costs back to their fixpoint with
//!    one decrease-only relaxation, and recompute exactly the mask rows
//!    whose cost neighborhood or turn rows changed. When the delta is
//!    large (tree-link faults under M2, root changes, …) fall back to the
//!    full masked rebuild — the patch would touch everything anyway.
//! 4. **recertify** — re-certify the old∪new transition union by checking
//!    only the *added* dependency edges against the reachability closure
//!    of the old (acyclic) dependency graph (`irnet-verify`'s
//!    `union_acyclic_delta`, a release pass over the old table), instead of
//!    re-running the full Dally–Seitz certification.
//!
//! Equivalence argument: stage 2 recomputes the prohibition set exactly as
//! the full path does, so old∪new certification and the simulator-visible
//! turn tables cannot differ between strategies. Stage 3's patch is an
//! exact delta algorithm over the same shortest-path recurrence as
//! `build_masked` — `tests/incremental.rs` and the unit tests in
//! `irnet-turns` assert table equality against a fresh rebuild, and the
//! fault-injection golden pins stay bit-identical under either strategy.

use crate::builder::{ConstructError, DownUp};
use crate::repair::{lift_repair, ReconfigEpoch, RepairError};
use irnet_analyze::{analyze_and_degrade_masks, AnalyzedDegrade};
use irnet_telemetry::{Progress, Telemetry};
use irnet_topology::{
    ChannelId, CommGraph, CoordinatedTree, DampingPolicy, DegradedTopology, FaultPlan, LinkId,
    NodeId, RecoveryTimeline, Topology,
};
use irnet_turns::{RoutingTables, TurnTable};
use irnet_verify::union_acyclic_delta;

/// How [`plan_epochs_timeline_with`] repairs each epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairStrategy {
    /// Rebuild the masked routing tables from scratch every epoch with
    /// [`RoutingTables::build_masked`] — the reference the incremental
    /// patch is checked against.
    Full,
    /// Patch the previous epoch's tables in place when the measured
    /// turn-table delta is small, falling back to a full rebuild when it
    /// is not, and re-certify only the changed portion of the dependency
    /// union.
    Incremental,
}

impl RepairStrategy {
    /// Parses `"full"` / `"incremental"` (as accepted by the CLI).
    pub fn parse(s: &str) -> Option<RepairStrategy> {
        match s {
            "full" => Some(RepairStrategy::Full),
            "incremental" => Some(RepairStrategy::Incremental),
            _ => None,
        }
    }

    /// The CLI spelling of this strategy.
    pub fn name(self) -> &'static str {
        match self {
            RepairStrategy::Full => "full",
            RepairStrategy::Incremental => "incremental",
        }
    }
}

/// Touched-region and fault-classification counters of one epoch repair.
/// Its stage timings are the `repair/*` spans of
/// [`irnet_telemetry::current`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairStats {
    /// Switches whose routing-table rows were rewritten.
    pub touched_switches: u32,
    /// `(destination, node, input)` mask rows rewritten.
    pub touched_rows: u64,
    /// Newly dead links that were tree links of the previous epoch's
    /// coordinated tree.
    pub tree_link_faults: u32,
    /// Newly dead links that were cross links of the previous tree.
    pub cross_link_faults: u32,
    /// Newly dead switches that were leaves of the previous tree.
    pub leaf_switch_faults: u32,
    /// Newly dead switches that were internal nodes of the previous tree.
    pub internal_switch_faults: u32,
    /// Whether the tables were patched in place (`false` means the full
    /// masked rebuild ran — always under [`RepairStrategy::Full`], or as
    /// the large-delta fallback under [`RepairStrategy::Incremental`]).
    pub patched_in_place: bool,
    /// Outcome of the delta re-certification: `None` when it did not run
    /// ([`RepairStrategy::Full`]), `Some(true)` when the old∪new union
    /// was certified acyclic, `Some(false)` when the union carries a
    /// cycle — the same verdict the exhaustive
    /// `irnet_verify::certify_transition` union certificate reports, at
    /// delta cost.
    pub recertified: Option<bool>,
}

/// One repaired epoch plus what its repair touched.
#[derive(Debug, Clone)]
pub struct EpochRepair {
    /// The reconfiguration epoch, identical in content under either
    /// [`RepairStrategy`].
    pub epoch: ReconfigEpoch,
    /// Touched-region and fault-classification counters.
    pub spans: RepairStats,
}

/// Patch when fewer than one row in [`PATCH_DENSITY`] changed; beyond
/// that the full rebuild is competitive and the patch bookkeeping is not
/// worth it. Tree-link faults, `M2` preorder divergence, root changes,
/// and similar whole-tree reshuffles flip the direction of most channels
/// and exceed this automatically, falling back to the rebuild. (Even a
/// minimal single-link fault rewrites the rows of both dead channels and
/// of every input row at the two endpoints, so the threshold must stay
/// permissive enough for small fabrics — a localized fault touches a
/// bounded row count, a reshuffle touches a constant *fraction*.)
const PATCH_DENSITY: usize = 4;

/// Repairs the routing for every timeline step of `plan` under
/// `strategy`, chaining the epochs (epoch *k*'s old table — and, for the
/// incremental patch, its tables — are epoch *k−1*'s). Flap damping is
/// off; use [`plan_epochs_timeline_with`] with a damped timeline to apply
/// a policy.
///
/// `base_tables` are the pre-fault routing tables matching `base_table`;
/// the incremental path patches a clone of them for the first epoch.
///
/// Both strategies produce identical [`ReconfigEpoch`]s: the same lifted
/// turn tables by construction, and the same routing tables because the
/// patch is exact (asserted by `tests/incremental.rs`).
pub fn plan_epochs_with(
    topo: &Topology,
    cg: &CommGraph,
    base_table: &TurnTable,
    base_tables: &RoutingTables,
    plan: &FaultPlan,
    builder: DownUp,
    strategy: RepairStrategy,
) -> Result<Vec<EpochRepair>, RepairError> {
    let timeline =
        RecoveryTimeline::compute(topo, plan, DampingPolicy::none()).map_err(RepairError::Fault)?;
    plan_epochs_timeline_with(
        topo,
        cg,
        base_table,
        base_tables,
        &timeline,
        builder,
        strategy,
        None,
    )
}

/// Repairs the routing for every step of an already-expanded (and possibly
/// flap-damped) transition timeline under `strategy` — the one repair
/// loop, behind [`plan_epochs_with`] and every fault-aware `irnet`
/// command.
/// Down steps classify/patch as described in the module docs, while up
/// steps (any step reviving an element) always take the full masked
/// rebuild — a re-admitted link lowers distances network-wide, so the
/// delta is dense and the patch bookkeeping cannot win — and still get the
/// O(delta) union re-certification.
///
/// Every epoch is timed by span guards in [`irnet_telemetry::current`]'s
/// span tree (`repair` and its `classify`/`phases`/`patch`/`recertify`
/// children; `recertify` is opened under both strategies, so every path
/// counts one call per epoch), the [`RepairStats`] counters accumulate
/// there, and `progress`, if given, is ticked once per repaired epoch.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
pub fn plan_epochs_timeline_with(
    topo: &Topology,
    cg: &CommGraph,
    base_table: &TurnTable,
    base_tables: &RoutingTables,
    timeline: &RecoveryTimeline,
    builder: DownUp,
    strategy: RepairStrategy,
    progress: Option<&Progress>,
) -> Result<Vec<EpochRepair>, RepairError> {
    let tel = irnet_telemetry::current();
    let mut epochs: Vec<EpochRepair> = Vec::new();
    // Classification baseline for the first epoch: the pre-fault tree.
    let mut prev_tree: CoordinatedTree = builder.build_tree(topo).map_err(ConstructError::from)?;
    let mut prev_deg: Option<DegradedTopology> = None;

    for step in &timeline.steps {
        let cycle = step.cycle;

        // Stage 1: classify. The step's masks feed both the feasibility
        // gate and the degradation, and its delta lists are the newly
        // dead/revived elements — no diffing against the previous epoch
        // needed.
        let span = tel.span("repair");
        let classify = span.child("classify");
        let deg = match analyze_and_degrade_masks(topo, &step.node_down, &step.link_down)? {
            AnalyzedDegrade::Feasible { degraded, .. } => *degraded,
            AnalyzedDegrade::Infeasible(obstruction) => {
                return Err(RepairError::Infeasible(obstruction));
            }
        };
        let newly_dead_nodes: &[NodeId] = &step.failed_nodes;
        let newly_dead_links: &[LinkId] = &step.failed_links;
        let newly_dead_channels: Vec<ChannelId> = newly_dead_links
            .iter()
            .flat_map(|&l| [2 * l, 2 * l + 1])
            .collect();
        let revived_channels: Vec<ChannelId> = step
            .revived_links
            .iter()
            .flat_map(|&l| [2 * l, 2 * l + 1])
            .collect();

        // Classify against the previous epoch's compact tree. Ids map
        // through the previous degradation (identity for the first epoch).
        let map_node = |v: NodeId| -> Option<NodeId> {
            prev_deg
                .as_ref()
                .map_or(Some(v), |p| p.node_map[v as usize])
        };
        let map_link = |l: LinkId| -> Option<LinkId> {
            prev_deg
                .as_ref()
                .map_or(Some(l), |p| p.link_map[l as usize])
        };
        let mut tree_link_faults = 0u32;
        let mut cross_link_faults = 0u32;
        let mut leaf_switch_faults = 0u32;
        let mut internal_switch_faults = 0u32;
        for &v in newly_dead_nodes {
            if let Some(cv) = map_node(v) {
                if prev_tree.is_leaf(cv) {
                    leaf_switch_faults += 1;
                } else {
                    internal_switch_faults += 1;
                }
            }
        }
        for &l in newly_dead_links {
            let (a, b) = topo.links()[l as usize];
            // Links lost to a switch fault are accounted to the switch.
            if newly_dead_nodes.binary_search(&a).is_ok()
                || newly_dead_nodes.binary_search(&b).is_ok()
            {
                continue;
            }
            if let Some(cl) = map_link(l) {
                if prev_tree.is_tree_link(cl) {
                    tree_link_faults += 1;
                } else {
                    cross_link_faults += 1;
                }
            }
        }
        classify.finish();

        // Stage 2: Phases 1–3 on the survivors + lift. Shared verbatim by
        // both strategies, so the repaired turn tables are identical.
        let phases = span.child("phases");
        let (new_tree, new_cg, compact_table, _released) =
            builder.construct_phases(&deg.topology)?;
        let lifted = lift_repair(cg, &deg, &new_cg, &compact_table);
        phases.finish();

        let old_table: &TurnTable = epochs.last().map_or(base_table, |e| &e.epoch.new_table);

        // Stage 3: produce the routing tables — patch or rebuild. Up
        // steps always rebuild: `patch_masked`'s invalidation is seeded
        // from newly-*dead* resources, and a revived link improves costs
        // network-wide anyway, so the delta is dense by nature.
        let patch = span.child("patch");
        let mut patched_in_place = false;
        let (tables, touched_switches, touched_rows) = if strategy == RepairStrategy::Incremental
            && step.is_down_only()
            && patch_is_worthwhile(cg, old_table, &lifted.new_table)
        {
            let prev_tables: &RoutingTables =
                epochs.last().map_or(base_tables, |e| &e.epoch.tables);
            let mut tables = prev_tables.clone();
            let stats = tables
                .patch_masked(
                    cg,
                    old_table,
                    &lifted.new_table,
                    &lifted.dead_channel,
                    &lifted.alive_node,
                    &newly_dead_channels,
                    newly_dead_nodes,
                )
                .map_err(|e| RepairError::Construct(ConstructError::Routing(e)))?;
            patched_in_place = true;
            (tables, stats.touched_switches, stats.touched_rows)
        } else {
            let tables = RoutingTables::build_masked(
                cg,
                &lifted.new_table,
                &lifted.dead_channel,
                &lifted.alive_node,
            )
            .map_err(|e| RepairError::Construct(ConstructError::Routing(e)))?;
            let alive = lifted.alive_node.iter().filter(|&&a| a).count();
            let rows = cg.channels().num_channels() as u64 + u64::from(cg.num_nodes());
            ((tables), alive as u32, alive as u64 * rows)
        };
        patch.finish();

        // Stage 4: delta re-certification of the transition union. A
        // cyclic union is reported, not fatal — it matches the verdict
        // the exhaustive `certify_transition` union certificate carries,
        // and callers decide what to do with it (the CLI reports both).
        let recertify = span.child("recertify");
        let recertified = if strategy == RepairStrategy::Incremental {
            Some(
                union_acyclic_delta(cg, old_table, &lifted.new_table, &lifted.dead_channel).is_ok(),
            )
        } else {
            None
        };
        recertify.finish();

        let epoch = ReconfigEpoch {
            cycle,
            dead_nodes: deg.dead_nodes.clone(),
            dead_channels: deg
                .dead_links
                .iter()
                .flat_map(|&l| [2 * l, 2 * l + 1])
                .collect(),
            dead_links: deg.dead_links.clone(),
            revived_channels,
            revived_nodes: step.revived_nodes.clone(),
            old_table: old_table.clone(),
            new_table: lifted.new_table,
            flipped_channels: lifted.flipped_channels,
            tables,
        };
        let stats = RepairStats {
            touched_switches,
            touched_rows,
            tree_link_faults,
            cross_link_faults,
            leaf_switch_faults,
            internal_switch_faults,
            patched_in_place,
            recertified,
        };
        span.finish();
        record_repair_telemetry(&tel, &stats, step.is_down_only());
        epochs.push(EpochRepair {
            epoch,
            spans: stats,
        });
        if let Some(p) = progress {
            p.tick(epochs.len());
        }
        prev_tree = new_tree;
        prev_deg = Some(deg);
    }
    Ok(epochs)
}

/// Feeds one epoch's [`RepairStats`] into the registry: the epoch counts
/// plus the touched-region / classification counters.
fn record_repair_telemetry(tel: &Telemetry, stats: &RepairStats, down_only: bool) {
    if !tel.is_enabled() {
        return;
    }
    tel.counter("repair/epochs").inc();
    tel.counter(if down_only {
        "repair/epochs_down"
    } else {
        "repair/epochs_up"
    })
    .inc();
    tel.counter("repair/touched_switches")
        .add(u64::from(stats.touched_switches));
    tel.counter("repair/touched_rows").add(stats.touched_rows);
    tel.counter("repair/tree_link_faults")
        .add(u64::from(stats.tree_link_faults));
    tel.counter("repair/cross_link_faults")
        .add(u64::from(stats.cross_link_faults));
    tel.counter("repair/leaf_switch_faults")
        .add(u64::from(stats.leaf_switch_faults));
    tel.counter("repair/internal_switch_faults")
        .add(u64::from(stats.internal_switch_faults));
    tel.counter(if stats.patched_in_place {
        "repair/patched_in_place"
    } else {
        "repair/full_rebuilds"
    })
    .inc();
    if let Some(ok) = stats.recertified {
        tel.counter(if ok {
            "repair/recertified_ok"
        } else {
            "repair/recertified_cyclic"
        })
        .inc();
    }
}

/// Measures the turn-table delta and decides patch vs rebuild: patch only
/// when fewer than one mask row in [`PATCH_DENSITY`] changed. The measured
/// delta — not the fault classification — drives the decision, so
/// whole-tree reshuffles (tree-link faults, `M2` divergence, a root
/// change) fall back automatically however they arise.
fn patch_is_worthwhile(cg: &CommGraph, old: &TurnTable, new: &TurnTable) -> bool {
    let ch = cg.channels();
    let mut changed = 0usize;
    let mut total = 0usize;
    for v in 0..cg.num_nodes() {
        let inputs = ch.inputs(v).len();
        total += inputs;
        for q in 0..inputs {
            #[allow(clippy::cast_possible_truncation)]
            if old.mask(v, q as u8) != new.mask(v, q as u8) {
                changed += 1;
            }
        }
    }
    changed * PATCH_DENSITY < total
}

#[cfg(test)]
mod tests {
    use super::*;
    use irnet_topology::{gen, FaultEvent, FaultKind};

    /// The full-rebuild epochs of `plan`: the reference both strategies
    /// must reproduce.
    fn reference(
        topo: &Topology,
        cg: &CommGraph,
        table: &TurnTable,
        tables: &RoutingTables,
        plan: &FaultPlan,
    ) -> Vec<ReconfigEpoch> {
        plan_epochs_with(
            topo,
            cg,
            table,
            tables,
            plan,
            DownUp::new(),
            RepairStrategy::Full,
        )
        .unwrap()
        .into_iter()
        .map(|e| e.epoch)
        .collect()
    }

    fn base(seed: u64) -> (Topology, CommGraph, TurnTable, RoutingTables) {
        let topo = gen::random_irregular(gen::IrregularParams::paper(24, 4), seed).unwrap();
        let routing = DownUp::new().construct(&topo).unwrap();
        let (_, cg, table, tables) = routing.into_parts();
        (topo, cg, table, tables)
    }

    fn link_fault(cycle: u32, a: NodeId, b: NodeId) -> FaultEvent {
        FaultEvent::down(cycle, FaultKind::Link { a, b })
    }

    /// Up to `want` cumulative non-partitioning link faults at distinct
    /// cycles.
    fn safe_link_plan(topo: &Topology, want: usize) -> FaultPlan {
        let mut picked: Vec<(NodeId, NodeId)> = Vec::new();
        for &(a, b) in topo.links() {
            let mut events: Vec<FaultEvent> = picked
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| link_fault(100 * (i as u32 + 1), x, y))
                .collect();
            events.push(link_fault(100 * (picked.len() as u32 + 1), a, b));
            if topo.degrade(&FaultPlan::scripted(events)).is_ok() {
                picked.push((a, b));
                if picked.len() == want {
                    break;
                }
            }
        }
        FaultPlan::scripted(
            picked
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| link_fault(100 * (i as u32 + 1), x, y))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn both_strategies_match_the_reference_path() {
        for seed in [3, 5, 11] {
            let (topo, cg, table, tables) = base(seed);
            let plan = safe_link_plan(&topo, 3);
            let reference = reference(&topo, &cg, &table, &tables, &plan);
            for strategy in [RepairStrategy::Full, RepairStrategy::Incremental] {
                let got =
                    plan_epochs_with(&topo, &cg, &table, &tables, &plan, DownUp::new(), strategy)
                        .unwrap();
                assert_eq!(got.len(), reference.len());
                for (g, r) in got.iter().zip(&reference) {
                    assert_eq!(g.epoch.cycle, r.cycle);
                    assert_eq!(g.epoch.dead_links, r.dead_links);
                    assert_eq!(g.epoch.dead_nodes, r.dead_nodes);
                    assert_eq!(g.epoch.old_table, r.old_table);
                    assert_eq!(g.epoch.new_table, r.new_table);
                    assert_eq!(g.epoch.flipped_channels, r.flipped_channels);
                    assert_eq!(g.epoch.tables, r.tables, "seed {seed} {strategy:?}");
                    if strategy == RepairStrategy::Incremental {
                        assert!(g.spans.recertified.is_some());
                    } else {
                        assert_eq!(g.spans.recertified, None);
                        assert!(!g.spans.patched_in_place);
                    }
                }
            }
        }
    }

    #[test]
    fn delta_recertifier_agrees_with_the_exhaustive_certificates() {
        for seed in [2, 7, 13] {
            let (topo, cg, table, tables) = base(seed);
            let plan = safe_link_plan(&topo, 2);
            let epochs = plan_epochs_with(
                &topo,
                &cg,
                &table,
                &tables,
                &plan,
                DownUp::new(),
                RepairStrategy::Incremental,
            )
            .unwrap();
            for ep in &epochs {
                let certs = ep.epoch.certify(&cg);
                // The repaired steady state is always deadlock-free…
                assert!(certs.degraded.is_deadlock_free());
                // …and the O(delta) union verdict matches the exhaustive one.
                assert_eq!(
                    ep.spans.recertified,
                    Some(certs.union.is_deadlock_free()),
                    "seed {seed} cycle {}",
                    ep.epoch.cycle
                );
            }
        }
    }

    #[test]
    fn classification_sees_tree_and_cross_links() {
        let (topo, cg, table, tables) = base(9);
        let tree = DownUp::new().build_tree(&topo).unwrap();
        // One cross link and one tree link, failed at distinct cycles.
        let mut cross = None;
        let mut treelink = None;
        for (l, &(a, b)) in topo.links().iter().enumerate() {
            let plan = FaultPlan::scripted([link_fault(0, a, b)]);
            if topo.degrade(&plan).is_err() {
                continue;
            }
            if tree.is_tree_link(l as LinkId) {
                treelink.get_or_insert((a, b));
            } else {
                cross.get_or_insert((a, b));
            }
        }
        let (ca, cb) = cross.expect("no removable cross link");
        let epochs = plan_epochs_with(
            &topo,
            &cg,
            &table,
            &tables,
            &FaultPlan::scripted([link_fault(100, ca, cb)]),
            DownUp::new(),
            RepairStrategy::Incremental,
        )
        .unwrap();
        assert_eq!(epochs[0].spans.cross_link_faults, 1);
        assert_eq!(epochs[0].spans.tree_link_faults, 0);
        // A cross-link fault leaves the M1 preorder intact: small delta,
        // patched in place.
        assert!(epochs[0].spans.patched_in_place);
        assert!(epochs[0].spans.touched_switches <= topo.num_nodes());
        if let Some((ta, tb)) = treelink {
            let epochs = plan_epochs_with(
                &topo,
                &cg,
                &table,
                &tables,
                &FaultPlan::scripted([link_fault(100, ta, tb)]),
                DownUp::new(),
                RepairStrategy::Incremental,
            )
            .unwrap();
            assert_eq!(epochs[0].spans.tree_link_faults, 1);
            assert_eq!(epochs[0].spans.cross_link_faults, 0);
        }
    }

    #[test]
    fn switch_faults_classify_against_the_previous_tree() {
        let (topo, cg, table, tables) = base(2);
        let tree = DownUp::new().build_tree(&topo).unwrap();
        let leaf = tree
            .leaves()
            .into_iter()
            .find(|&v| {
                let plan =
                    FaultPlan::scripted([FaultEvent::down(0, FaultKind::Switch { node: v })]);
                topo.degrade(&plan).is_ok()
            })
            .expect("no removable leaf");
        let epochs = plan_epochs_with(
            &topo,
            &cg,
            &table,
            &tables,
            &FaultPlan::scripted([FaultEvent::down(40, FaultKind::Switch { node: leaf })]),
            DownUp::new(),
            RepairStrategy::Incremental,
        )
        .unwrap();
        assert_eq!(epochs[0].spans.leaf_switch_faults, 1);
        assert_eq!(epochs[0].spans.internal_switch_faults, 0);
        // The leaf's incident links are accounted to the switch, not as
        // independent link faults.
        assert_eq!(epochs[0].spans.tree_link_faults, 0);
        assert_eq!(epochs[0].spans.cross_link_faults, 0);
    }

    #[test]
    fn recovery_steps_match_under_both_strategies_and_restore_base() {
        let (topo, cg, table, tables) = base(5);
        // A safe link that fails, recovers, and flaps once more.
        let down_only = safe_link_plan(&topo, 1);
        let (a, b) = match down_only.events()[0].kind {
            FaultKind::Link { a, b } => (a, b),
            FaultKind::Switch { .. } => unreachable!("safe_link_plan only picks links"),
        };
        let plan =
            FaultPlan::scripted([
                FaultEvent::recovering(100, FaultKind::Link { a, b }, 400).with_flap(600, 1)
            ]);
        let reference = reference(&topo, &cg, &table, &tables, &plan);
        assert_eq!(reference.len(), 4, "down/up/down/up");
        for strategy in [RepairStrategy::Full, RepairStrategy::Incremental] {
            let got = plan_epochs_with(&topo, &cg, &table, &tables, &plan, DownUp::new(), strategy)
                .unwrap();
            assert_eq!(got.len(), reference.len());
            for (g, r) in got.iter().zip(&reference) {
                assert_eq!(g.epoch.cycle, r.cycle);
                assert_eq!(g.epoch.dead_links, r.dead_links);
                assert_eq!(g.epoch.revived_channels, r.revived_channels);
                assert_eq!(g.epoch.new_table, r.new_table);
                assert_eq!(g.epoch.tables, r.tables, "{strategy:?}");
            }
            // Up steps never patch in place; every step still recertifies
            // under the incremental strategy.
            for g in &got {
                if !g.epoch.is_down_only() {
                    assert!(!g.spans.patched_in_place);
                }
                if strategy == RepairStrategy::Incremental {
                    assert!(g.spans.recertified.is_some());
                }
            }
            // After the final recovery the tables are the pristine ones.
            let last = &got.last().unwrap().epoch;
            assert!(last.dead_links.is_empty());
            assert_eq!(last.new_table, table);
            assert_eq!(last.tables, tables);
        }
    }

    #[test]
    fn infeasible_epochs_error_before_any_patch() {
        let topo = Topology::new(4, 4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let routing = DownUp::new().construct(&topo).unwrap();
        let (_, cg, table, tables) = routing.into_parts();
        let plan = FaultPlan::scripted([link_fault(10, 1, 2)]);
        let err = plan_epochs_with(
            &topo,
            &cg,
            &table,
            &tables,
            &plan,
            DownUp::new(),
            RepairStrategy::Incremental,
        )
        .unwrap_err();
        assert!(matches!(err, RepairError::Infeasible(_)));
    }
}
