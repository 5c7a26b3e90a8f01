//! The feasibility oracle: does *any* deadlock-free connected routing
//! exist on this (possibly degraded) network?
//!
//! Mendlovic & Matias (arXiv:2503.04583) characterize the digraphs that
//! admit deadlock-free connected routing at all — a pure existence
//! question, independent of any concrete routing algorithm. The channel
//! digraph of a [`Topology`] is *symmetric*: every link contributes both
//! directed channels, and a fault kills both. For symmetric channel sets
//! the condition collapses to connectivity of the surviving graph, so the
//! oracle ([`analyze_faulted`] / [`analyze_topology`] / [`analyze_masks`])
//! decides it exactly, for every channel set this pipeline builds:
//!
//! * the sufficient half is constructive: a BFS-levelled up\*/down\*
//!   channel numbering — every up\*/down\*-legal turn strictly climbs it,
//!   and the tree path through the lowest common ancestor is legal for
//!   every pair — is returned as the [`Witness`];
//! * the necessary half is immediate: a disconnected survivor set leaves
//!   some pair unroutable by *any* routing, and the [`Obstruction`] is the
//!   minimized partition evidence (the smallest component; no link
//!   crosses its cut).
//!
//! All results carry stable JSON forms via the vendored serde.

use irnet_topology::{ChannelId, DegradedTopology, FaultError, FaultPlan, NodeId, Topology};
use serde::{Serialize, Value};
use std::fmt;

/// Sentinel rank/level for dead nodes and channels inside a [`Witness`].
pub const DEAD: u32 = u32::MAX;

/// The oracle's verdict for a (possibly degraded) topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Feasibility {
    /// A deadlock-free connected routing exists; `Witness` is constructive.
    Feasible(Witness),
    /// No deadlock-free connected routing exists; the obstruction proves it.
    Infeasible(Obstruction),
}

impl Feasibility {
    /// Whether the verdict is [`Feasibility::Feasible`].
    pub fn is_feasible(&self) -> bool {
        matches!(self, Feasibility::Feasible(_))
    }

    /// The obstruction, if infeasible.
    pub fn obstruction(&self) -> Option<&Obstruction> {
        match self {
            Feasibility::Feasible(_) => None,
            Feasibility::Infeasible(o) => Some(o),
        }
    }

    /// Pretty JSON form (stable schema, witness as a sketch).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }
}

/// Constructive evidence of feasibility: a BFS-levelled up\*/down\*
/// channel numbering over the surviving graph. Every up\*/down\*-legal
/// turn strictly increases `numbering`, and the spanning-tree path through
/// the lowest common ancestor is legal for every surviving pair — the
/// Dally–Seitz argument in checkable form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// BFS root (lowest-numbered surviving switch, original id).
    pub root: NodeId,
    /// Surviving switches.
    pub alive_nodes: u32,
    /// Surviving directed channels.
    pub alive_channels: u32,
    /// BFS level per original node ([`DEAD`] for dead switches).
    pub levels: Vec<u32>,
    /// Escape rank per original channel `2l + d` ([`DEAD`] for dead ones).
    pub numbering: Vec<u32>,
}

impl Witness {
    /// Independently re-checks the witness against `topo`: every
    /// up\*/down\*-legal turn between surviving channels must strictly
    /// climb the numbering, and ranks must be distinct.
    pub fn check(&self, topo: &Topology) -> Result<(), String> {
        let key = |v: NodeId| (self.levels[v as usize], v);
        let endpoints = |c: ChannelId| {
            let (a, b) = topo.link(c / 2);
            if c & 1 == 0 {
                (a, b)
            } else {
                (b, a)
            }
        };
        let alive = |c: ChannelId| self.numbering[c as usize] != DEAD;
        let goes_up = |c: ChannelId| {
            let (s, t) = endpoints(c);
            key(t) < key(s)
        };
        let mut seen = vec![false; self.numbering.len()];
        for c in 0..self.numbering.len() as u32 {
            if !alive(c) {
                continue;
            }
            let r = self.numbering[c as usize] as usize;
            if r >= seen.len() || seen[r] {
                return Err(format!(
                    "rank {r} of channel {c} is out of range or repeated"
                ));
            }
            seen[r] = true;
            let (_, mid) = endpoints(c);
            if self.levels[mid as usize] == DEAD {
                return Err(format!("alive channel {c} ends at dead switch {mid}"));
            }
            // Every legal continuation c -> c2 (no u-turn, and not a
            // down-then-up turn) must climb.
            for &(_, l) in topo.neighbors(mid) {
                for d in 0..2u32 {
                    let c2 = 2 * l + d;
                    if !alive(c2) || endpoints(c2).0 != mid || c2 == (c ^ 1) {
                        continue;
                    }
                    // Only down-then-up is illegal under up*/down*.
                    let legal = goes_up(c) || !goes_up(c2);
                    if legal && self.numbering[c as usize] >= self.numbering[c2 as usize] {
                        return Err(format!("legal turn {c} -> {c2} does not climb"));
                    }
                }
            }
        }
        Ok(())
    }
}

impl Serialize for Witness {
    fn to_value(&self) -> Value {
        // A sketch, not the full arrays: the JSON schema stays small and
        // stable while the in-memory witness keeps full detail for checks.
        Value::Map(vec![
            (
                "kind".to_string(),
                Value::Str("updown_numbering".to_string()),
            ),
            ("root".to_string(), Value::U64(u64::from(self.root))),
            (
                "alive_switches".to_string(),
                Value::U64(u64::from(self.alive_nodes)),
            ),
            (
                "alive_channels".to_string(),
                Value::U64(u64::from(self.alive_channels)),
            ),
        ])
    }
}

/// A minimized proof that no deadlock-free connected routing exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Obstruction {
    /// Every switch failed.
    NoSurvivors,
    /// The surviving graph is split; `component` is the smallest connected
    /// component (no surviving link crosses its boundary), and
    /// `witness_pair` is an unroutable (inside, outside) switch pair.
    Partitioned {
        /// Surviving switches overall.
        alive: u32,
        /// Number of connected components.
        components: u32,
        /// The smallest component, original switch ids in increasing order.
        component: Vec<NodeId>,
        /// Lowest-id switch inside the component and outside it.
        witness_pair: (NodeId, NodeId),
    },
}

impl fmt::Display for Obstruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Obstruction::NoSurvivors => write!(f, "every switch failed; nothing survives"),
            Obstruction::Partitioned {
                alive,
                components,
                component,
                witness_pair,
            } => write!(
                f,
                "survivors split into {components} components ({alive} alive); \
                 smallest component has {} switch(es), e.g. {} cannot reach {}",
                component.len(),
                witness_pair.0,
                witness_pair.1
            ),
        }
    }
}

impl Serialize for Obstruction {
    fn to_value(&self) -> Value {
        match self {
            Obstruction::NoSurvivors => Value::Map(vec![(
                "kind".to_string(),
                Value::Str("no_survivors".to_string()),
            )]),
            Obstruction::Partitioned {
                alive,
                components,
                component,
                witness_pair,
            } => Value::Map(vec![
                ("kind".to_string(), Value::Str("partitioned".to_string())),
                ("alive".to_string(), Value::U64(u64::from(*alive))),
                ("components".to_string(), Value::U64(u64::from(*components))),
                (
                    "component".to_string(),
                    Value::Seq(
                        component
                            .iter()
                            .map(|&v| Value::U64(u64::from(v)))
                            .collect(),
                    ),
                ),
                (
                    "witness_pair".to_string(),
                    Value::Seq(vec![
                        Value::U64(u64::from(witness_pair.0)),
                        Value::U64(u64::from(witness_pair.1)),
                    ]),
                ),
            ]),
        }
    }
}

impl Serialize for Feasibility {
    fn to_value(&self) -> Value {
        match self {
            Feasibility::Feasible(w) => Value::Map(vec![
                ("status".to_string(), Value::Str("feasible".to_string())),
                ("witness".to_string(), w.to_value()),
            ]),
            Feasibility::Infeasible(o) => Value::Map(vec![
                ("status".to_string(), Value::Str("infeasible".to_string())),
                ("obstruction".to_string(), o.to_value()),
            ]),
        }
    }
}

/// Runs the oracle on an intact topology. [`Topology`] construction
/// enforces connectivity, so this is always feasible — the value of the
/// call is the constructive witness (and uniformity with the faulted
/// path for callers like `irnet analyze`).
pub fn analyze_topology(topo: &Topology) -> Feasibility {
    analyze_faulted(topo, &FaultPlan::scripted([])).expect("an empty plan names no unknown element")
}

/// Runs the oracle on `topo` degraded by every event of `plan`.
///
/// Unlike [`Topology::degrade`], a partitioned or empty survivor set is a
/// *verdict* here, not an error: only plans naming unknown links or
/// switches fail. The answer costs one BFS plus a channel sort —
/// milliseconds even at thousands of switches — which is what lets the
/// repair path reject hopeless degradations before rebuilding anything.
pub fn analyze_faulted(topo: &Topology, plan: &FaultPlan) -> Result<Feasibility, FaultError> {
    let (node_dead, link_dead) = topo.fault_masks(plan)?;
    Ok(analyze_survivors(topo, &node_dead, &link_dead))
}

/// The oracle verdict together with the degradation it was computed from.
///
/// Epoch repair needs both the gate's verdict and the degradation of the
/// same survivor masks. [`analyze_and_degrade_masks`] computes both in one
/// pass: a feasible verdict hands back both the constructive witness and
/// the compact [`DegradedTopology`] the rebuild needs.
#[derive(Debug, Clone)]
pub enum AnalyzedDegrade {
    /// The survivors admit a deadlock-free connected routing; carries the
    /// oracle's witness and the compacted surviving graph with its id maps.
    Feasible {
        /// The constructive up\*/down\* numbering certifying feasibility.
        witness: Witness,
        /// The compact surviving topology plus original↔compact id maps
        /// (boxed: it dwarfs the [`Obstruction`] variant).
        degraded: Box<DegradedTopology>,
    },
    /// Provably unroutable, with the minimized obstruction.
    Infeasible(Obstruction),
}

/// Runs the oracle on explicit survivor masks (as carried by a
/// `TimelineStep` of a recovery-aware plan). This is the entry point for
/// bidirectional reconfiguration, where the live set at an epoch is *not*
/// the cumulative result of a plan prefix: the caller owns the masks and
/// the oracle only judges them.
///
/// # Panics
///
/// Panics if the mask lengths disagree with `topo`.
pub fn analyze_masks(topo: &Topology, node_dead: &[bool], link_dead: &[bool]) -> Feasibility {
    assert_eq!(node_dead.len(), topo.num_nodes() as usize);
    assert_eq!(link_dead.len(), topo.num_links() as usize);
    analyze_survivors(topo, node_dead, link_dead)
}

/// Judges explicit survivor masks (as [`analyze_masks`] does) and, when
/// feasible, compacts the survivors in the same pass.
///
/// # Errors
///
/// Infeasible masks are a verdict, not an error; the only error path is
/// the (unreachable-by-construction) compaction failure, propagated to
/// keep the contract honest.
///
/// # Panics
///
/// Panics if the mask lengths disagree with `topo`.
pub fn analyze_and_degrade_masks(
    topo: &Topology,
    node_dead: &[bool],
    link_dead: &[bool],
) -> Result<AnalyzedDegrade, FaultError> {
    match analyze_masks(topo, node_dead, link_dead) {
        Feasibility::Infeasible(o) => Ok(AnalyzedDegrade::Infeasible(o)),
        Feasibility::Feasible(witness) => {
            let degraded = Box::new(topo.degrade_from_masks(node_dead, link_dead)?);
            Ok(AnalyzedDegrade::Feasible { witness, degraded })
        }
    }
}

/// The oracle core over explicit survivor masks.
fn analyze_survivors(topo: &Topology, node_dead: &[bool], link_dead: &[bool]) -> Feasibility {
    let n = topo.num_nodes() as usize;
    let alive: u32 = node_dead.iter().filter(|&&d| !d).count() as u32;
    if alive == 0 {
        return Feasibility::Infeasible(Obstruction::NoSurvivors);
    }

    // Component labelling by repeated BFS over surviving links.
    let mut comp = vec![u32::MAX; n];
    let mut levels = vec![DEAD; n];
    let mut queue = std::collections::VecDeque::new();
    let mut components: Vec<Vec<NodeId>> = Vec::new();
    for start in 0..n {
        if node_dead[start] || comp[start] != u32::MAX {
            continue;
        }
        let id = components.len() as u32;
        let mut members = vec![start as NodeId];
        comp[start] = id;
        levels[start] = 0;
        queue.clear();
        queue.push_back(start as NodeId);
        while let Some(v) = queue.pop_front() {
            for &(w, l) in topo.neighbors(v) {
                if link_dead[l as usize] || node_dead[w as usize] || comp[w as usize] != u32::MAX {
                    continue;
                }
                comp[w as usize] = id;
                levels[w as usize] = levels[v as usize] + 1;
                members.push(w);
                queue.push_back(w);
            }
        }
        members.sort_unstable();
        components.push(members);
    }

    if components.len() > 1 {
        // Minimized obstruction: the smallest component (ties to the one
        // containing the lowest switch id). No surviving link crosses its
        // boundary, so its lowest member cannot reach the lowest outsider.
        let smallest = components
            .iter()
            .min_by_key(|c| (c.len(), c[0]))
            .expect("at least two components")
            .clone();
        let inside = smallest[0];
        let outside = (0..n as u32)
            .find(|&v| !node_dead[v as usize] && comp[v as usize] != comp[inside as usize])
            .expect("a second component exists");
        return Feasibility::Infeasible(Obstruction::Partitioned {
            alive,
            components: components.len() as u32,
            component: smallest,
            witness_pair: (inside, outside),
        });
    }

    // Connected: build the constructive up*/down* numbering. A channel is
    // "up" when its sink has the smaller (level, id) key; in any
    // up*/down*-legal path the keys first strictly fall, then strictly
    // rise, so ranking up channels by descending sink key and down
    // channels (all ranked above every up channel) by ascending sink key
    // makes every legal turn climb.
    let root = components[0][0];
    let key = |v: NodeId| (levels[v as usize], v);
    let mut numbering = vec![DEAD; 2 * topo.num_links() as usize];
    let mut up: Vec<ChannelId> = Vec::new();
    let mut down: Vec<ChannelId> = Vec::new();
    for (l, &(a, b)) in topo.links().iter().enumerate() {
        if link_dead[l] {
            continue;
        }
        for (c, s, t) in [(2 * l as u32, a, b), (2 * l as u32 + 1, b, a)] {
            if key(t) < key(s) {
                up.push(c);
            } else {
                down.push(c);
            }
        }
    }
    let endpoints = |c: ChannelId| {
        let (a, b) = topo.link(c / 2);
        if c & 1 == 0 {
            (a, b)
        } else {
            (b, a)
        }
    };
    up.sort_by_key(|&c| std::cmp::Reverse(key(endpoints(c).1)));
    down.sort_by_key(|&c| key(endpoints(c).1));
    let alive_channels = (up.len() + down.len()) as u32;
    for (rank, &c) in up.iter().chain(down.iter()).enumerate() {
        numbering[c as usize] = rank as u32;
    }
    Feasibility::Feasible(Witness {
        root,
        alive_nodes: alive,
        alive_channels,
        levels,
        numbering,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use irnet_topology::{gen, FaultEvent, FaultKind};

    fn link(cycle: u32, a: NodeId, b: NodeId) -> FaultEvent {
        FaultEvent::down(cycle, FaultKind::Link { a, b })
    }

    fn switch(cycle: u32, node: NodeId) -> FaultEvent {
        FaultEvent::down(cycle, FaultKind::Switch { node })
    }

    #[test]
    fn mask_entry_agrees_with_the_plan_entry() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(24, 4), 3).unwrap();
        let (a, b) = topo.link(0);
        let plan = irnet_topology::FaultPlan::scripted([link(5, a, b)]);
        let (nd, ld) = topo.fault_masks(&plan).unwrap();
        match (
            analyze_faulted(&topo, &plan).unwrap(),
            analyze_masks(&topo, &nd, &ld),
        ) {
            (Feasibility::Feasible(x), Feasibility::Feasible(y)) => {
                assert_eq!(x.alive_nodes, y.alive_nodes);
                assert_eq!(x.alive_channels, y.alive_channels);
            }
            (Feasibility::Infeasible(x), Feasibility::Infeasible(y)) => {
                assert_eq!(format!("{x}"), format!("{y}"));
            }
            _ => panic!("plan and mask entries disagree"),
        }
        match analyze_and_degrade_masks(&topo, &nd, &ld).unwrap() {
            AnalyzedDegrade::Feasible { degraded, .. } => {
                assert_eq!(degraded.topology.num_links(), topo.num_links() - 1);
            }
            AnalyzedDegrade::Infeasible(o) => panic!("unexpected obstruction: {o}"),
        }
    }

    #[test]
    fn intact_topologies_are_feasible_with_checkable_witness() {
        for seed in 0..6 {
            let topo = gen::random_irregular(gen::IrregularParams::paper(24, 4), seed).unwrap();
            match analyze_topology(&topo) {
                Feasibility::Feasible(w) => {
                    assert_eq!(w.alive_nodes, topo.num_nodes());
                    assert_eq!(w.alive_channels, 2 * topo.num_links());
                    w.check(&topo).unwrap();
                }
                Feasibility::Infeasible(o) => panic!("intact topology infeasible: {o}"),
            }
        }
    }

    #[test]
    fn partition_yields_minimized_component() {
        // Path 0-1-2-3: cutting (1,2) splits 2/2; the smallest component
        // is {0, 1} (ties resolved toward the lowest id).
        let topo = Topology::new(4, 4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let plan = FaultPlan::scripted([link(0, 1, 2)]);
        let verdict = analyze_faulted(&topo, &plan).unwrap();
        assert_eq!(
            verdict.obstruction(),
            Some(&Obstruction::Partitioned {
                alive: 4,
                components: 2,
                component: vec![0, 1],
                witness_pair: (0, 2),
            })
        );
    }

    #[test]
    fn all_switches_dead_is_no_survivors() {
        let topo = Topology::new(2, 4, [(0, 1)]).unwrap();
        let plan = FaultPlan::scripted([switch(0, 0), switch(0, 1)]);
        let verdict = analyze_faulted(&topo, &plan).unwrap();
        assert_eq!(verdict.obstruction(), Some(&Obstruction::NoSurvivors));
    }

    #[test]
    fn oracle_matches_degrade_on_random_plans() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(32, 4), 3).unwrap();
        for seed in 0..32 {
            let plan = FaultPlan::random(&topo, 4, 1, (0, 100), seed).unwrap();
            let verdict = analyze_faulted(&topo, &plan).unwrap();
            match topo.degrade(&plan) {
                Ok(_) => assert!(verdict.is_feasible(), "degrade ok but oracle said no"),
                Err(FaultError::Partitioned { .. } | FaultError::NoSurvivors) => {
                    assert!(!verdict.is_feasible(), "degrade failed but oracle said yes");
                }
                Err(e) => panic!("unexpected degrade error: {e}"),
            }
        }
    }

    #[test]
    fn unknown_faults_error_out() {
        let topo = Topology::new(3, 4, [(0, 1), (1, 2)]).unwrap();
        assert_eq!(
            analyze_faulted(&topo, &FaultPlan::scripted([link(0, 0, 2)])).unwrap_err(),
            FaultError::UnknownLink { a: 0, b: 2 }
        );
        assert_eq!(
            analyze_faulted(&topo, &FaultPlan::scripted([switch(0, 7)])).unwrap_err(),
            FaultError::UnknownSwitch {
                node: 7,
                num_nodes: 3
            }
        );
    }

    #[test]
    fn feasibility_json_is_stable() {
        let topo = Topology::new(4, 4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let verdict = analyze_faulted(&topo, &FaultPlan::scripted([link(0, 1, 2)])).unwrap();
        assert_eq!(
            verdict.to_json(),
            "{\n  \"status\": \"infeasible\",\n  \"obstruction\": {\n    \
             \"kind\": \"partitioned\",\n    \"alive\": 4,\n    \"components\": 2,\n    \
             \"component\": [\n      0,\n      1\n    ],\n    \
             \"witness_pair\": [\n      0,\n      2\n    ]\n  }\n}"
        );
    }
}
