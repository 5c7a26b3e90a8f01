//! The feasibility oracle: does *any* deadlock-free connected routing
//! exist on this (possibly degraded) network?
//!
//! Mendlovic & Matias (arXiv:2503.04583) characterize the digraphs that
//! admit deadlock-free connected routing at all — a pure existence
//! question, independent of any concrete routing algorithm. This module
//! implements that condition in two tiers:
//!
//! * **Topology tier** ([`analyze_faulted`] / [`analyze_topology`]): the
//!   channel digraph of a [`Topology`] is *symmetric* (every link
//!   contributes both directed channels), and for symmetric channel sets
//!   the condition collapses to connectivity of the surviving graph. The
//!   sufficient half is constructive: a BFS-levelled up\*/down\* channel
//!   numbering — every up\*/down\*-legal turn strictly climbs it, and the
//!   tree path through the lowest common ancestor is legal for every pair
//!   — is returned as the [`Witness`]. The necessary half is immediate:
//!   a disconnected survivor set leaves some pair unroutable by *any*
//!   routing, and the [`Obstruction`] is the minimized partition evidence
//!   (the smallest component; no link crosses its cut).
//! * **Digraph tier** ([`analyze_digraph`]): for arbitrary channel
//!   digraphs (asymmetric, hand-built) the oracle decides the common
//!   cases: strong connectivity is necessary; a symmetric connected
//!   digraph or one whose turn-dependency graph is already acyclic is
//!   feasible; and a directed cycle of *forced* dependencies — turns that
//!   every route between some pair must take, so they appear in the
//!   dependency graph of every connected routing — is a sound
//!   infeasibility certificate (this is exactly what kills the
//!   unidirectional ring, the classic infeasible family). Digraphs the
//!   three rules cannot decide return [`DigraphFeasibility::Open`] rather
//!   than guess.
//!
//! All results carry stable JSON forms via the vendored serde; obstruction
//! witnesses are minimized (smallest partition component, shortest forced
//! cycle) before they are reported.

use irnet_topology::{ChannelId, DegradedTopology, FaultError, FaultPlan, NodeId, Topology};
use irnet_turns::ChannelDepGraph;
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
    /// Digraph tier: `dst` is unreachable from `src` along directed arcs,
    /// so no routing — deadlock-free or not — can connect the pair.
    Unreachable {
        /// The source node.
        src: NodeId,
        /// The unreachable destination.
        dst: NodeId,
        /// Nodes reachable from `src`.
        reached: u32,
    },
    /// Digraph tier: a shortest directed cycle of *forced* dependencies —
    /// every connected routing's dependency graph contains each listed
    /// consecutive arc pair, so every connected routing deadlocks.
    ForcedCycle {
        /// The arc ids of the cycle, rotated to start at the lowest id.
        arcs: Vec<u32>,
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
            Obstruction::Unreachable { src, dst, reached } => write!(
                f,
                "node {dst} is unreachable from node {src} \
                 (only {reached} node(s) reachable)"
            ),
            Obstruction::ForcedCycle { arcs } => write!(
                f,
                "forced-dependency cycle through {} arc(s): every connected \
                 routing must take each of these consecutive turns",
                arcs.len()
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
            Obstruction::Unreachable { src, dst, reached } => Value::Map(vec![
                ("kind".to_string(), Value::Str("unreachable".to_string())),
                ("src".to_string(), Value::U64(u64::from(*src))),
                ("dst".to_string(), Value::U64(u64::from(*dst))),
                ("reached".to_string(), Value::U64(u64::from(*reached))),
            ]),
            Obstruction::ForcedCycle { arcs } => Value::Map(vec![
                ("kind".to_string(), Value::Str("forced_cycle".to_string())),
                (
                    "arcs".to_string(),
                    Value::Seq(arcs.iter().map(|&a| Value::U64(u64::from(a))).collect()),
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

// ---------------------------------------------------------------------------
// Digraph tier
// ---------------------------------------------------------------------------

/// A directed channel graph: nodes are switches, arcs are unidirectional
/// channels. This is the general object the Mendlovic–Matias condition is
/// stated over; hand-built instances feed the infeasible-family tests.
#[derive(Debug, Clone)]
pub struct Digraph {
    num_nodes: u32,
    arcs: Vec<(NodeId, NodeId)>,
}

impl Digraph {
    /// Builds a digraph over `num_nodes` nodes from directed arcs.
    /// Duplicate arcs are merged; self-loops are rejected.
    ///
    /// # Panics
    ///
    /// Panics if an arc references a node `>= num_nodes` or is a self-loop.
    pub fn new(num_nodes: u32, arcs: impl IntoIterator<Item = (NodeId, NodeId)>) -> Digraph {
        let mut arcs: Vec<(NodeId, NodeId)> = arcs.into_iter().collect();
        for &(u, v) in &arcs {
            assert!(
                u < num_nodes && v < num_nodes,
                "arc ({u}, {v}) out of range"
            );
            assert_ne!(u, v, "self-loop arc ({u}, {v})");
        }
        arcs.sort_unstable();
        arcs.dedup();
        Digraph { num_nodes, arcs }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// The arcs, sorted and deduplicated; the index is the arc id.
    pub fn arcs(&self) -> &[(NodeId, NodeId)] {
        &self.arcs
    }
}

/// The oracle's verdict for an arbitrary channel digraph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DigraphFeasibility {
    /// A deadlock-free connected routing exists; `rule` names the
    /// sufficient condition that fired.
    Feasible {
        /// `"trivial"`, `"symmetric-updown"`, or `"dependency-acyclic"`.
        rule: &'static str,
    },
    /// No deadlock-free connected routing exists.
    Infeasible(Obstruction),
    /// Neither the sufficient rules nor the obstruction search decided the
    /// instance; the oracle stays honest instead of guessing.
    Open,
}

/// Decides feasibility for an arbitrary channel digraph (consecutive-arc
/// turns, immediate reversal disallowed as in the wormhole model).
///
/// Decision ladder, each step sound:
/// 1. strong connectivity is necessary (an unreachable pair defeats every
///    routing);
/// 2. symmetric connected digraphs are feasible (up\*/down\* numbering);
/// 3. digraphs whose full turn-dependency graph is acyclic are feasible
///    (any connected routing works — shortest paths exist by step 1);
/// 4. a directed cycle of *forced* dependencies is a proof of
///    infeasibility: a dependency `a → b` is forced when every walk from
///    `tail(a)` to `head(b)` takes `a` then `b` consecutively, so it
///    appears in the dependency graph of **every** connected routing, and
///    a cycle of such edges deadlocks them all. The reported cycle is the
///    shortest one, rotated to start at the lowest arc id.
///
/// Anything the ladder cannot decide returns [`DigraphFeasibility::Open`].
pub fn analyze_digraph(g: &Digraph) -> DigraphFeasibility {
    let n = g.num_nodes;
    if n == 0 {
        return DigraphFeasibility::Infeasible(Obstruction::NoSurvivors);
    }
    if n == 1 {
        return DigraphFeasibility::Feasible { rule: "trivial" };
    }

    // 1. Strong connectivity.
    if let Some(obs) = connectivity_obstruction(g) {
        return DigraphFeasibility::Infeasible(obs);
    }

    // 2. Symmetric and connected: up*/down* always works.
    let symmetric = g
        .arcs
        .iter()
        .all(|&(u, v)| g.arcs.binary_search(&(v, u)).is_ok());
    if symmetric {
        return DigraphFeasibility::Feasible {
            rule: "symmetric-updown",
        };
    }

    // 3. The full dependency graph (every consecutive-arc turn, u-turns
    // excluded). Acyclic means even the all-allowed routing is safe.
    let na = g.arcs.len() as u32;
    let mut deps: Vec<(u32, u32)> = Vec::new();
    for (i, &(_, vi)) in g.arcs.iter().enumerate() {
        for (j, &(uj, vj)) in g.arcs.iter().enumerate() {
            if uj == vi && (vj, uj) != g.arcs[i] {
                deps.push((i as u32, j as u32));
            }
        }
    }
    let dep_graph = ChannelDepGraph::from_edges(na, &deps);
    if dep_graph.is_acyclic() {
        return DigraphFeasibility::Feasible {
            rule: "dependency-acyclic",
        };
    }

    // 4. Forced-dependency cycle.
    let forced: Vec<(u32, u32)> = deps
        .iter()
        .copied()
        .filter(|&d| dependency_is_forced(g, &deps, d))
        .collect();
    if let Some(cycle) = shortest_cycle(na, &forced) {
        return DigraphFeasibility::Infeasible(Obstruction::ForcedCycle { arcs: cycle });
    }
    DigraphFeasibility::Open
}

/// Returns a minimized unreachable-pair obstruction, or `None` when `g` is
/// strongly connected.
fn connectivity_obstruction(g: &Digraph) -> Option<Obstruction> {
    let n = g.num_nodes as usize;
    let reach_from = |src: NodeId, reverse: bool| -> Vec<bool> {
        let mut seen = vec![false; n];
        seen[src as usize] = true;
        let mut stack = vec![src];
        while let Some(v) = stack.pop() {
            for &(a, b) in &g.arcs {
                let (from, to) = if reverse { (b, a) } else { (a, b) };
                if from == v && !seen[to as usize] {
                    seen[to as usize] = true;
                    stack.push(to);
                }
            }
        }
        seen
    };
    let fwd = reach_from(0, false);
    if let Some(dst) = fwd.iter().position(|&r| !r) {
        return Some(Obstruction::Unreachable {
            src: 0,
            dst: dst as NodeId,
            reached: fwd.iter().filter(|&&r| r).count() as u32,
        });
    }
    let bwd = reach_from(0, true);
    if let Some(src) = bwd.iter().position(|&r| !r) {
        let from_src = reach_from(src as NodeId, false);
        let dst = from_src
            .iter()
            .position(|&r| !r)
            .expect("src cannot reach 0");
        return Some(Obstruction::Unreachable {
            src: src as NodeId,
            dst: dst as NodeId,
            reached: from_src.iter().filter(|&&r| r).count() as u32,
        });
    }
    None
}

/// Whether dependency `d = (a, b)` is forced: no walk from `tail(a)` to
/// `head(b)` avoids taking arc `a` immediately followed by arc `b`.
/// Checked by BFS over arc states with the single transition `d` removed.
fn dependency_is_forced(g: &Digraph, deps: &[(u32, u32)], d: (u32, u32)) -> bool {
    let s = g.arcs[d.0 as usize].0;
    let t = g.arcs[d.1 as usize].1;
    let mut seen = vec![false; g.arcs.len()];
    let mut stack: Vec<u32> = Vec::new();
    for (i, &(u, _)) in g.arcs.iter().enumerate() {
        if u == s {
            seen[i] = true;
            stack.push(i as u32);
        }
    }
    while let Some(a) = stack.pop() {
        if g.arcs[a as usize].1 == t {
            return false; // a walk reaches t without the removed transition
        }
        for &(x, y) in deps {
            if x == a && (x, y) != d && !seen[y as usize] {
                seen[y as usize] = true;
                stack.push(y);
            }
        }
    }
    true
}

/// Shortest directed cycle in the graph over `n` arc-nodes with `edges`,
/// rotated to start at its lowest node id; `None` when acyclic.
fn shortest_cycle(n: u32, edges: &[(u32, u32)]) -> Option<Vec<u32>> {
    let mut best: Option<Vec<u32>> = None;
    for start in 0..n {
        // BFS from `start` back to `start`.
        let mut parent = vec![u32::MAX; n as usize];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start);
        let mut found = false;
        'bfs: while let Some(v) = queue.pop_front() {
            for &(x, y) in edges {
                if x != v {
                    continue;
                }
                if y == start {
                    parent[start as usize] = v;
                    found = true;
                    break 'bfs;
                }
                if parent[y as usize] == u32::MAX && y != start {
                    parent[y as usize] = v;
                    queue.push_back(y);
                }
            }
        }
        if !found {
            continue;
        }
        let mut cycle = vec![start];
        let mut v = parent[start as usize];
        while v != start {
            cycle.push(v);
            v = parent[v as usize];
        }
        cycle.reverse();
        if best.as_ref().is_none_or(|b| cycle.len() < b.len()) {
            best = Some(cycle);
        }
    }
    best.map(|mut cycle| {
        // Rotate to the lowest arc id for a deterministic report.
        let pivot = cycle
            .iter()
            .enumerate()
            .min_by_key(|&(_, &a)| a)
            .map_or(0, |(i, _)| i);
        cycle.rotate_left(pivot);
        cycle
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
    fn unidirectional_ring_is_infeasible_with_forced_cycle() {
        // The classic Mendlovic–Matias infeasible family: a directed ring
        // is strongly connected, yet every routing must use every
        // consecutive arc pair, closing the dependency cycle.
        let g = Digraph::new(3, [(0, 1), (1, 2), (2, 0)]);
        match analyze_digraph(&g) {
            DigraphFeasibility::Infeasible(Obstruction::ForcedCycle { arcs }) => {
                assert_eq!(arcs, vec![0, 1, 2]);
            }
            other => panic!("expected forced cycle, got {other:?}"),
        }
    }

    #[test]
    fn ring_with_chord_escapes_the_forced_cycle() {
        // Adding one reverse chord breaks the forcing: 0 -> 2 can go
        // directly, so the dependency (0->1, 1->2) is no longer forced.
        let g = Digraph::new(3, [(0, 1), (1, 2), (2, 0), (0, 2)]);
        assert!(!matches!(
            analyze_digraph(&g),
            DigraphFeasibility::Infeasible(_)
        ));
    }

    #[test]
    fn digraph_tier_decides_the_simple_shapes() {
        // Empty and single-node.
        assert_eq!(
            analyze_digraph(&Digraph::new(0, [])),
            DigraphFeasibility::Infeasible(Obstruction::NoSurvivors)
        );
        assert_eq!(
            analyze_digraph(&Digraph::new(1, [])),
            DigraphFeasibility::Feasible { rule: "trivial" }
        );
        // Not strongly connected: one-way pair.
        match analyze_digraph(&Digraph::new(2, [(0, 1)])) {
            DigraphFeasibility::Infeasible(Obstruction::Unreachable { src, dst, .. }) => {
                assert_eq!((src, dst), (1, 0));
            }
            other => panic!("expected unreachable, got {other:?}"),
        }
        // Symmetric square.
        let square = Digraph::new(
            4,
            [
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 1),
                (2, 3),
                (3, 2),
                (3, 0),
                (0, 3),
            ],
        );
        assert_eq!(
            analyze_digraph(&square),
            DigraphFeasibility::Feasible {
                rule: "symmetric-updown"
            }
        );
    }

    #[test]
    fn feasibility_json_is_stable() {
        let g = Digraph::new(3, [(0, 1), (1, 2), (2, 0)]);
        let DigraphFeasibility::Infeasible(obs) = analyze_digraph(&g) else {
            panic!("ring must be infeasible");
        };
        let verdict = Feasibility::Infeasible(obs);
        assert_eq!(
            verdict.to_json(),
            "{\n  \"status\": \"infeasible\",\n  \"obstruction\": {\n    \
             \"kind\": \"forced_cycle\",\n    \"arcs\": [\n      0,\n      1,\n      2\n    ]\n  }\n}"
        );
    }
}
