//! What a repair produces: the *reconfiguration epoch* record, the repair
//! error type, and the lift of a repaired turn table from the surviving
//! graph back into the original channel space.
//!
//! A fault plan partitions simulated time into epochs at its transition
//! cycles. For each epoch boundary the repair loop
//! ([`crate::plan_epochs_timeline_with`]):
//!
//! 0. runs the *feasibility-first gate* (`irnet-analyze`): a one-BFS
//!    oracle that decides whether any deadlock-free connected routing can
//!    exist on the survivors at all. Hopeless degradations surface as
//!    [`RepairError::Infeasible`] with a minimized obstruction in
//!    milliseconds, before any rebuild work is spent;
//! 1. degrades the original topology by every element down at that step
//!    (compact surviving graph + id maps, from `irnet-topology`);
//! 2. re-runs the paper's Phases 1–3 on the surviving graph — a fresh
//!    coordinated tree, the ADDG₇ prohibitions, and the `cycle_detection`
//!    release;
//! 3. *lifts* the repaired turn table back into the original channel id
//!    space (dead channels stay fully prohibited; `lift_repair`) and
//!    produces masked routing tables over the original communication
//!    graph, so a running simulator can swap tables without renumbering
//!    anything;
//! 4. records which surviving channels changed tree direction — the
//!    channels whose dependency sense flips, and the reason the UPR-style
//!    old∪new union check (in `irnet-verify`) is not vacuous.

use crate::builder::ConstructError;
use irnet_analyze::Obstruction;
use irnet_topology::{ChannelId, CommGraph, DegradedTopology, FaultError, LinkId, NodeId};
use irnet_turns::{RoutingTables, TurnTable};
use irnet_verify::{certify_transition, EpochCertificates};

/// One reconfiguration epoch: everything a live fabric needs to switch
/// from the pre-fault routing function to the repaired one. All ids are in
/// the *original* topology's channel/node space.
///
/// Since reconfiguration went bidirectional, an epoch's dead sets are the
/// elements down *at that point of the timeline* — no longer a monotone
/// superset of the previous epoch's. The `revived_*` fields carry the
/// up-direction delta so the simulator can re-enable previously-DEAD
/// resources at the barrier.
#[derive(Debug, Clone)]
pub struct ReconfigEpoch {
    /// Activation cycle of the transition this epoch applies.
    pub cycle: u32,
    /// Switches down after this epoch (original ids).
    pub dead_nodes: Vec<NodeId>,
    /// Links down after this epoch (original ids).
    pub dead_links: Vec<LinkId>,
    /// Both directed channels of every dead link.
    pub dead_channels: Vec<ChannelId>,
    /// Channels re-admitted by this epoch (previously dead, now alive).
    pub revived_channels: Vec<ChannelId>,
    /// Switches re-admitted by this epoch.
    pub revived_nodes: Vec<NodeId>,
    /// The turn table in force before this epoch.
    pub old_table: TurnTable,
    /// The repaired turn table, lifted to the original channel space;
    /// every pair touching a dead channel is prohibited.
    pub new_table: TurnTable,
    /// Surviving channels whose coordinated-tree direction changed under
    /// the repaired tree.
    pub flipped_channels: Vec<ChannelId>,
    /// Masked shortest-path routing tables over the original communication
    /// graph: dead channels appear in no candidate mask (injection
    /// included) and dead nodes are skipped as destinations.
    pub tables: RoutingTables,
}

impl ReconfigEpoch {
    /// True when this epoch only removes elements (a fault transition).
    pub fn is_down_only(&self) -> bool {
        self.revived_channels.is_empty() && self.revived_nodes.is_empty()
    }

    /// Certifies this transition on `cg`: the repaired table alone and the
    /// UPR-style old∪new union, both restricted to the channels that
    /// survive the epoch (see [`certify_transition`]).
    pub fn certify(&self, cg: &CommGraph) -> EpochCertificates {
        let mut dead = vec![false; cg.num_channels() as usize];
        for &c in &self.dead_channels {
            dead[c as usize] = true;
        }
        certify_transition(cg, &self.old_table, &self.new_table, &dead)
    }
}

/// Why an epoch could not be repaired.
#[derive(Debug)]
pub enum RepairError {
    /// The feasibility oracle proved that no deadlock-free connected
    /// routing exists on the survivors — rebuilding cannot help. Carries
    /// the minimized obstruction (reported before any rebuild is run).
    Infeasible(Obstruction),
    /// The plan names unknown links or switches.
    Fault(FaultError),
    /// DOWN/UP construction failed on the surviving graph.
    Construct(ConstructError),
}

impl std::fmt::Display for RepairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairError::Infeasible(o) => {
                write!(f, "degraded network is unroutable: {o}")
            }
            RepairError::Fault(e) => write!(f, "{e}"),
            RepairError::Construct(e) => write!(f, "repair construction failed: {e}"),
        }
    }
}

impl std::error::Error for RepairError {}

impl From<FaultError> for RepairError {
    fn from(e: FaultError) -> Self {
        RepairError::Fault(e)
    }
}

impl From<ConstructError> for RepairError {
    fn from(e: ConstructError) -> Self {
        RepairError::Construct(e)
    }
}

/// A compact repaired turn table lifted back into the original channel
/// space, plus the alive/dead masks the lift derived on the way.
pub(crate) struct Lifted {
    /// Per original channel: does it map to no surviving compact channel?
    pub dead_channel: Vec<bool>,
    /// Per original node: does it survive the degradation?
    pub alive_node: Vec<bool>,
    /// The repaired turn table in the original channel space; every pair
    /// touching a dead channel is prohibited.
    pub new_table: TurnTable,
    /// Surviving channels whose coordinated-tree direction changed.
    pub flipped_channels: Vec<ChannelId>,
}

/// Lifts `compact_table` (built on the degraded topology's communication
/// graph `new_cg`) back into the original channel space of `cg`.
///
/// Original channel `2l + d` maps to compact channel `2·link_map[l] + d`:
/// the compact renumbering is monotone, so every surviving link keeps its
/// `a < b` endpoint orientation and the direction bit is preserved.
pub(crate) fn lift_repair(
    cg: &CommGraph,
    deg: &DegradedTopology,
    new_cg: &CommGraph,
    compact_table: &TurnTable,
) -> Lifted {
    let nch = cg.num_channels();
    let map_ch = |c: ChannelId| -> Option<ChannelId> {
        deg.link_map[(c / 2) as usize].map(|nl| 2 * nl + (c & 1))
    };
    let dead_channel: Vec<bool> = (0..nch).map(|c| map_ch(c).is_none()).collect();
    let alive_node: Vec<bool> = deg.node_map.iter().map(Option::is_some).collect();

    let new_table = TurnTable::from_channel_rule(cg, |ic, oc| match (map_ch(ic), map_ch(oc)) {
        (Some(ni), Some(no)) => compact_table.is_allowed(new_cg, ni, no),
        _ => false,
    });

    let flipped_channels: Vec<ChannelId> = (0..nch)
        .filter(|&c| map_ch(c).is_some_and(|nc| cg.direction(c) != new_cg.direction(nc)))
        .collect();

    Lifted {
        dead_channel,
        alive_node,
        new_table,
        flipped_channels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{plan_epochs_with, DownUp, RepairStrategy};
    use irnet_topology::{gen, FaultEvent, FaultKind, FaultPlan, Topology};
    use irnet_turns::ChannelDepGraph;

    fn base(seed: u64) -> (Topology, CommGraph, TurnTable, RoutingTables) {
        let topo = gen::random_irregular(gen::IrregularParams::paper(24, 4), seed).unwrap();
        let routing = DownUp::new().construct(&topo).unwrap();
        let (_, cg, table, tables) = routing.into_parts();
        (topo, cg, table, tables)
    }

    /// The epochs of a full-rebuild repair of `plan`.
    fn full_repair(
        topo: &Topology,
        cg: &CommGraph,
        table: &TurnTable,
        tables: &RoutingTables,
        plan: &FaultPlan,
        builder: DownUp,
    ) -> Result<Vec<ReconfigEpoch>, RepairError> {
        let epochs =
            plan_epochs_with(topo, cg, table, tables, plan, builder, RepairStrategy::Full)?;
        Ok(epochs.into_iter().map(|e| e.epoch).collect())
    }

    fn link_fault(cycle: u32, a: NodeId, b: NodeId) -> FaultEvent {
        FaultEvent::down(cycle, FaultKind::Link { a, b })
    }

    /// A link whose removal keeps the graph connected (not a bridge).
    fn non_bridge(topo: &Topology) -> (NodeId, NodeId) {
        for &(a, b) in topo.links() {
            let plan = FaultPlan::scripted([link_fault(0, a, b)]);
            if topo.degrade(&plan).is_ok() {
                return (a, b);
            }
        }
        panic!("every link is a bridge");
    }

    #[test]
    fn repaired_epoch_is_lifted_consistently() {
        let (topo, cg, table, tables) = base(3);
        let (a, b) = non_bridge(&topo);
        let plan = FaultPlan::scripted([link_fault(500, a, b)]);
        let epochs = full_repair(&topo, &cg, &table, &tables, &plan, DownUp::new()).unwrap();
        assert_eq!(epochs.len(), 1);
        let ep = &epochs[0];
        assert_eq!(ep.cycle, 500);
        let l = topo.link_between(a, b).unwrap();
        assert_eq!(ep.dead_links, vec![l]);
        assert_eq!(ep.dead_channels, vec![2 * l, 2 * l + 1]);
        assert!(ep.dead_nodes.is_empty());
        assert_eq!(ep.old_table, table);

        // The lifted table prohibits every turn touching a dead channel.
        let ch = cg.channels();
        for c in [2 * l, 2 * l + 1] {
            let v = ch.sink(c);
            for &out in ch.outputs(v) {
                assert!(!ep.new_table.is_allowed(&cg, c, out));
            }
            let s = ch.start(c);
            for &inp in ch.inputs(s) {
                assert!(!ep.new_table.is_allowed(&cg, inp, c));
            }
        }
        // The lifted table is deadlock-free in the original space.
        assert!(ChannelDepGraph::build(&cg, &ep.new_table).is_acyclic());
        // Flipped channels are alive and really flipped in tree direction.
        for &c in &ep.flipped_channels {
            assert!(!ep.dead_channels.contains(&c));
        }
        // Masked tables route every alive pair without dead ports.
        for s in 0..topo.num_nodes() {
            for t in 0..topo.num_nodes() {
                if s != t {
                    let path = ep.tables.route(&cg, s, t);
                    assert!(path.iter().all(|&c| c / 2 != l));
                }
            }
        }
    }

    #[test]
    fn epochs_chain_old_to_new() {
        let (topo, cg, table, tables) = base(5);
        // Two link faults at different cycles, both non-bridges applied
        // cumulatively: search a pair that stays connected.
        let mut picked = Vec::new();
        for &(a, b) in topo.links() {
            let mut events: Vec<FaultEvent> = picked
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| link_fault(100 * (i as u32 + 1), x, y))
                .collect();
            events.push(link_fault(100 * (picked.len() as u32 + 1), a, b));
            if topo.degrade(&FaultPlan::scripted(events)).is_ok() {
                picked.push((a, b));
                if picked.len() == 2 {
                    break;
                }
            }
        }
        assert_eq!(picked.len(), 2, "could not find two safe faults");
        let plan = FaultPlan::scripted([
            link_fault(100, picked[0].0, picked[0].1),
            link_fault(200, picked[1].0, picked[1].1),
        ]);
        let epochs = full_repair(&topo, &cg, &table, &tables, &plan, DownUp::new()).unwrap();
        assert_eq!(epochs.len(), 2);
        assert_eq!(epochs[0].old_table, table);
        assert_eq!(epochs[1].old_table, epochs[0].new_table);
        assert_eq!(epochs[1].dead_links.len(), 2);
        assert!(epochs[0].dead_links.len() == 1);
    }

    #[test]
    fn switch_fault_kills_node_as_destination() {
        let (topo, cg, table, tables) = base(7);
        // Find a switch whose removal keeps the rest connected.
        let node = (0..topo.num_nodes())
            .find(|&v| {
                let plan =
                    FaultPlan::scripted([FaultEvent::down(0, FaultKind::Switch { node: v })]);
                topo.degrade(&plan).is_ok()
            })
            .expect("some switch is removable");
        let plan = FaultPlan::scripted([FaultEvent::down(50, FaultKind::Switch { node })]);
        let epochs = full_repair(&topo, &cg, &table, &tables, &plan, DownUp::new()).unwrap();
        let ep = &epochs[0];
        assert_eq!(ep.dead_nodes, vec![node]);
        assert_eq!(ep.dead_links.len() as u32, topo.degree(node));
        // No masks toward the dead destination.
        use irnet_turns::INJECTION_SLOT;
        for v in 0..topo.num_nodes() {
            if v != node {
                assert_eq!(ep.tables.candidates(node, v, INJECTION_SLOT), 0);
            }
        }
    }

    #[test]
    fn partition_is_rejected_by_the_feasibility_gate() {
        // A path topology: every link is a bridge, so losing one makes the
        // degradation provably unroutable. The gate catches it with a
        // minimized obstruction before any rebuild is attempted.
        let topo = Topology::new(4, 4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let routing = DownUp::new().construct(&topo).unwrap();
        let (_, cg, table, tables) = routing.into_parts();
        let plan = FaultPlan::scripted([link_fault(10, 1, 2)]);
        let err = full_repair(&topo, &cg, &table, &tables, &plan, DownUp::new()).unwrap_err();
        match err {
            RepairError::Infeasible(Obstruction::Partitioned {
                component,
                witness_pair,
                ..
            }) => {
                assert_eq!(component, vec![0, 1]);
                assert_eq!(witness_pair, (0, 2));
            }
            other => panic!("expected the gate's obstruction, got: {other}"),
        }
    }

    #[test]
    fn unknown_faults_still_surface_as_fault_errors() {
        let (topo, cg, table, tables) = base(2);
        let plan = FaultPlan::scripted([link_fault(10, 0, topo.num_nodes() - 1)]);
        if topo.link_between(0, topo.num_nodes() - 1).is_some() {
            return; // the random graph happens to have this link; skip
        }
        let err = full_repair(&topo, &cg, &table, &tables, &plan, DownUp::new()).unwrap_err();
        assert!(matches!(
            err,
            RepairError::Fault(FaultError::UnknownLink { .. })
        ));
    }

    #[test]
    fn empty_plan_yields_no_epochs() {
        let (topo, cg, table, tables) = base(1);
        let plan = FaultPlan::scripted([]);
        let epochs = full_repair(&topo, &cg, &table, &tables, &plan, DownUp::new()).unwrap();
        assert!(epochs.is_empty());
    }

    #[test]
    fn recovery_epoch_restores_the_pristine_tables() {
        let (topo, cg, table, tables) = base(3);
        let (a, b) = non_bridge(&topo);
        let plan =
            FaultPlan::scripted([FaultEvent::recovering(500, FaultKind::Link { a, b }, 1_500)]);
        let builder = DownUp::new();
        let epochs = full_repair(&topo, &cg, &table, &tables, &plan, builder).unwrap();
        assert_eq!(epochs.len(), 2);
        let l = topo.link_between(a, b).unwrap();
        let down = &epochs[0];
        assert!(down.is_down_only());
        assert_eq!(down.dead_links, vec![l]);
        let up = &epochs[1];
        assert_eq!(up.cycle, 1_500);
        assert!(!up.is_down_only());
        assert_eq!(up.revived_channels, vec![2 * l, 2 * l + 1]);
        assert!(up.dead_links.is_empty() && up.dead_nodes.is_empty());
        assert_eq!(up.old_table, down.new_table);
        // Recovering the only fault restores the pristine turn table and
        // routing tables bit-identically.
        assert_eq!(up.new_table, table);
        let pristine = builder.construct(&topo).unwrap();
        assert_eq!(&up.tables, pristine.routing_tables());
    }
}
