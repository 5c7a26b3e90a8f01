use crate::phase2;
use crate::phase3::{self, ReleasedTurn};
use irnet_telemetry::{Span, Telemetry};
use irnet_topology::{
    CommGraph, CoordinatedTree, PreorderPolicy, RootPolicy, Topology, TopologyError,
};
use irnet_turns::{RoutingError, RoutingTables, TurnTable};

/// Errors from [`DownUp::construct`].
#[derive(Debug)]
pub enum ConstructError {
    /// Coordinated-tree construction failed.
    Topology(TopologyError),
    /// The turn restrictions disconnected some pair — this would indicate a
    /// bug in the algorithm and is surfaced rather than hidden.
    Routing(RoutingError),
}

impl std::fmt::Display for ConstructError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConstructError::Topology(e) => write!(f, "topology error: {e}"),
            ConstructError::Routing(e) => write!(f, "routing error: {e}"),
        }
    }
}

impl std::error::Error for ConstructError {}

impl From<TopologyError> for ConstructError {
    fn from(e: TopologyError) -> Self {
        ConstructError::Topology(e)
    }
}

impl From<RoutingError> for ConstructError {
    fn from(e: RoutingError) -> Self {
        ConstructError::Routing(e)
    }
}

/// Builder for the DOWN/UP routing. Defaults match the paper's best
/// configuration: `M1` preorder policy, Phase 3 release enabled.
#[derive(Debug, Clone, Copy)]
pub struct DownUp {
    policy: PreorderPolicy,
    root: RootPolicy,
    seed: u64,
    release: bool,
}

impl Default for DownUp {
    fn default() -> Self {
        Self::new()
    }
}

impl DownUp {
    /// A builder with the paper's defaults.
    pub fn new() -> DownUp {
        DownUp {
            policy: PreorderPolicy::M1,
            root: RootPolicy::Smallest,
            seed: 0,
            release: true,
        }
    }

    /// Selects the preorder policy (`M1`/`M2`/`M3`) for the coordinated
    /// tree.
    pub fn policy(mut self, policy: PreorderPolicy) -> DownUp {
        self.policy = policy;
        self
    }

    /// Selects how the spanning-tree root is chosen (paper: smallest id).
    pub fn root(mut self, root: RootPolicy) -> DownUp {
        self.root = root;
        self
    }

    /// Seed for the `M2` (random preorder) policy.
    pub fn seed(mut self, seed: u64) -> DownUp {
        self.seed = seed;
        self
    }

    /// Enables or disables the Phase-3 `cycle_detection` release pass
    /// (enabled by default; disabling it is the A1 ablation of DESIGN.md).
    pub fn release(mut self, release: bool) -> DownUp {
        self.release = release;
        self
    }

    /// Runs the three construction phases on `topo`, then fills the
    /// shortest-legal-path routing tables ([`fill_tables`]). Each stage is
    /// timed by a span guard in [`irnet_telemetry::current`]'s span tree:
    /// `construction` with its `phase1`/`phase2`/`phase3`/`tables`
    /// children.
    pub fn construct(self, topo: &Topology) -> Result<DownUpRouting, ConstructError> {
        let span = irnet_telemetry::current().span("construction");
        let (tree, cg, table, released) = self.phases(topo, &span)?;
        let tables = fill_tables(&cg, &table, &span)?;
        Ok(DownUpRouting {
            tree,
            cg,
            table,
            tables,
            released,
        })
    }

    /// Builds just the Phase-1 coordinated tree of `topo` under this
    /// builder's root/preorder configuration — the baseline incremental
    /// repair classifies the first epoch's faults against.
    pub(crate) fn build_tree(self, topo: &Topology) -> Result<CoordinatedTree, TopologyError> {
        let root = self.root.pick(topo);
        CoordinatedTree::build_rooted(topo, root, self.policy, self.seed)
    }

    /// Runs Phases 1–3 only — tree, communication graph, and turn table —
    /// *without* the shortest-legal-path routing-table build, which
    /// dominates construction cost at scale. Incremental repair
    /// (`crates/core/src/incremental.rs`) uses this to recompute the
    /// prohibition set cheaply and then patch the previous epoch's routing
    /// tables in place instead of rebuilding them. Records no
    /// `construction` span: its callers time it as a stage of their own.
    pub fn construct_phases(
        self,
        topo: &Topology,
    ) -> Result<(CoordinatedTree, CommGraph, TurnTable, Vec<ReleasedTurn>), ConstructError> {
        self.phases(topo, &Telemetry::disabled().span("construction"))
    }

    /// Phases 1–3, each timed as a child of `span`: the turn model, and
    /// the turns Phase 3 released. Phase 3's decisions go to
    /// [`irnet_telemetry::current`]: the counters
    /// `construction/phase3_candidates` and `construction/phase3_released`
    /// and the gauge `construction/phase3_closure_bytes`, so
    /// [`DownUp::construct_phases`] callers (the flow path, repair epochs)
    /// report them too.
    pub fn phases(
        self,
        topo: &Topology,
        span: &Span,
    ) -> Result<(CoordinatedTree, CommGraph, TurnTable, Vec<ReleasedTurn>), ConstructError> {
        // Phase 1: coordinated tree + communication graph.
        let stage = span.child("phase1");
        let tree = self.build_tree(topo)?;
        let cg = CommGraph::build(topo, &tree);
        stage.finish();
        // Phase 2: apply the 18 globally prohibited turns.
        let stage = span.child("phase2");
        let mut table = TurnTable::from_direction_rule(&cg, phase2::turn_allowed);
        stage.finish();
        // Phase 3: release redundant per-node prohibitions.
        let stage = span.child("phase3");
        let pass = self
            .release
            .then(|| phase3::cycle_detection(&cg, &mut table));
        stage.finish();
        let released = match pass {
            Some(pass) => {
                let tel = irnet_telemetry::current();
                tel.counter("construction/phase3_candidates")
                    .add(pass.candidates as u64);
                tel.counter("construction/phase3_released")
                    .add(pass.released.len() as u64);
                tel.gauge("construction/phase3_closure_bytes")
                    .set(pass.closure_bytes as f64);
                pass.released
            }
            None => Vec::new(),
        };
        Ok((tree, cg, table, released))
    }
}

/// The one routing-table fill of every constructor: the shortest legal
/// paths of `table` over `cg`, which also prove connectivity (Theorem 1).
/// Timed as the `tables` child of `span`; the tables' size is the
/// `construction/table_bytes` gauge ([`RoutingTables::heap_bytes`]) of
/// [`irnet_telemetry::current`].
pub fn fill_tables(
    cg: &CommGraph,
    table: &TurnTable,
    span: &Span,
) -> Result<RoutingTables, ConstructError> {
    let stage = span.child("tables");
    let tables = RoutingTables::build(cg, table)?;
    stage.finish();
    irnet_telemetry::current()
        .gauge("construction/table_bytes")
        .set(tables.heap_bytes() as f64);
    Ok(tables)
}

/// Per-stage construction seconds. No constructor produces it any more:
/// the span tree of [`irnet_telemetry::current`] carries these timings.
/// Kept only as the type of `irnet_metrics::Instance::spans`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSpans {
    /// Coordinated tree + communication graph construction.
    pub phase1_seconds: f64,
    /// Turn-prohibition table construction.
    pub phase2_seconds: f64,
    /// `cycle_detection` release pass (zero when release is disabled).
    pub phase3_seconds: f64,
    /// Shortest-legal-path routing-table build.
    pub tables_seconds: f64,
}

/// A fully constructed DOWN/UP routing for one topology: the coordinated
/// tree, the communication graph, the per-node turn table, and the
/// shortest-path routing tables the simulator consumes.
#[derive(Debug, Clone)]
pub struct DownUpRouting {
    tree: CoordinatedTree,
    cg: CommGraph,
    table: TurnTable,
    tables: RoutingTables,
    released: Vec<ReleasedTurn>,
}

impl DownUpRouting {
    /// The coordinated tree (Phase 1).
    pub fn tree(&self) -> &CoordinatedTree {
        &self.tree
    }

    /// The communication graph (Phase 1).
    pub fn comm_graph(&self) -> &CommGraph {
        &self.cg
    }

    /// The per-node turn permissions after Phases 2–3.
    pub fn turn_table(&self) -> &TurnTable {
        &self.table
    }

    /// The shortest-legal-path routing tables.
    pub fn routing_tables(&self) -> &RoutingTables {
        &self.tables
    }

    /// The turns Phase 3 released.
    pub fn released_turns(&self) -> &[ReleasedTurn] {
        &self.released
    }

    /// Decomposes into owned parts `(tree, comm graph, turn table,
    /// routing tables)` — used by harness code that stores the artifacts
    /// uniformly across algorithms.
    pub fn into_parts(self) -> (CoordinatedTree, CommGraph, TurnTable, RoutingTables) {
        (self.tree, self.cg, self.table, self.tables)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irnet_topology::gen;
    use irnet_turns::verify_routing;

    #[test]
    fn construct_verifies_on_random_networks() {
        for seed in 0..4 {
            for ports in [4u32, 8] {
                let topo =
                    gen::random_irregular(gen::IrregularParams::paper(32, ports), seed).unwrap();
                for policy in PreorderPolicy::ALL {
                    let routing = DownUp::new()
                        .policy(policy)
                        .seed(seed)
                        .construct(&topo)
                        .unwrap();
                    let report = verify_routing(routing.comm_graph(), routing.turn_table());
                    assert!(
                        report.is_ok(),
                        "seed {seed} ports {ports} policy {policy}: {:?} {:?}",
                        report.cycle,
                        report.disconnected
                    );
                }
            }
        }
    }

    #[test]
    fn release_never_lengthens_routes() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(32, 4), 7).unwrap();
        let with = DownUp::new().construct(&topo).unwrap();
        let without = DownUp::new().release(false).construct(&topo).unwrap();
        let cg = with.comm_graph();
        assert!(
            with.routing_tables().route_len_stats(cg).0
                <= without
                    .routing_tables()
                    .route_len_stats(without.comm_graph())
                    .0
                    + 1e-12
        );
    }

    #[test]
    fn construct_publishes_the_table_byte_ledger() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(32, 4), 1).unwrap();
        let tel = irnet_telemetry::Telemetry::enabled();
        let routing = tel.scope(|| DownUp::new().construct(&topo)).unwrap();
        let bytes = routing.routing_tables().heap_bytes() as f64;
        assert_eq!(tel.snapshot().gauges["construction/table_bytes"], bytes);
    }

    #[test]
    fn routing_is_reproducible() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(24, 4), 3).unwrap();
        let a = DownUp::new()
            .policy(PreorderPolicy::M2)
            .seed(11)
            .construct(&topo)
            .unwrap();
        let b = DownUp::new()
            .policy(PreorderPolicy::M2)
            .seed(11)
            .construct(&topo)
            .unwrap();
        assert_eq!(a.turn_table(), b.turn_table());
        assert_eq!(a.released_turns(), b.released_turns());
    }
}
