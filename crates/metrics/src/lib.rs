#![warn(missing_docs)]
//! The paper's evaluation metrics and the machinery to collect them:
//! algorithm dispatch ([`Algo`]), load sweeps ([`sweep`]), saturation
//! search, and the four table metrics ([`paper`]).
//!
//! Everything here operates on [`Instance`] — the uniform bundle of
//! artifacts (coordinated tree, communication graph, turn table, routing
//! tables) every routing constructor in the workspace produces.

pub mod direction;
pub mod fairness;
pub mod levels;
pub mod netplot;
pub mod paper;
pub mod plot;
pub mod report;
pub mod sweep;

use irnet_baselines::{lturn, updown, BaselineError};
use irnet_core::{ConstructError, DownUp, PhaseSpans};
use irnet_topology::{CommGraph, CoordinatedTree, PreorderPolicy, RootPolicy, Topology};
use irnet_turns::{RoutingTables, TurnTable};

/// A routing algorithm under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// The paper's contribution (optionally without the Phase-3 release —
    /// the A1 ablation).
    DownUp {
        /// Run the Phase-3 release pass.
        release: bool,
    },
    /// DOWN/UP with its spanning tree rooted at a graph center instead of
    /// the smallest node id (the A10 ablation).
    DownUpCenterRoot,
    /// The L-turn baseline (reconstruction; optionally without its release
    /// pass).
    LTurn {
        /// Run the per-node release pass.
        release: bool,
    },
    /// Classic BFS up\*/down\*.
    UpDownBfs,
    /// DFS up\*/down\* (Robles et al.).
    UpDownDfs,
}

impl Algo {
    /// The two algorithms the paper compares, in its order.
    pub const PAPER_PAIR: [Algo; 2] = [
        Algo::LTurn { release: true },
        Algo::DownUp { release: true },
    ];

    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Algo::DownUp { release: true } => "DOWN/UP",
            Algo::DownUp { release: false } => "DOWN/UP (no release)",
            Algo::DownUpCenterRoot => "DOWN/UP (center root)",
            Algo::LTurn { release: true } => "L-turn",
            Algo::LTurn { release: false } => "L-turn (no release)",
            Algo::UpDownBfs => "up*/down* (BFS)",
            Algo::UpDownDfs => "up*/down* (DFS)",
        }
    }

    /// Constructs the routing over `topo` using the coordinated-tree
    /// `policy` (ignored by up\*/down\*, which has no preorder component)
    /// and `seed` (used by the `M2` policy). A span guard times
    /// construction in [`irnet_telemetry::current`]'s span tree as
    /// `construction` (DOWN/UP's constructor opens it itself, with its
    /// per-phase children).
    pub fn construct(
        self,
        topo: &Topology,
        policy: PreorderPolicy,
        seed: u64,
    ) -> Result<Instance, AlgoError> {
        // DOWN/UP records its own `construction` span tree.
        let span = (!matches!(self, Algo::DownUp { .. } | Algo::DownUpCenterRoot))
            .then(|| irnet_telemetry::current().span("construction"));
        let (tree, cg, table, tables) = match self {
            Algo::DownUp { release } => DownUp::new()
                .policy(policy)
                .seed(seed)
                .release(release)
                .construct(topo)?
                .into_parts(),
            Algo::DownUpCenterRoot => DownUp::new()
                .policy(policy)
                .seed(seed)
                .root(RootPolicy::Center)
                .construct(topo)?
                .into_parts(),
            Algo::LTurn { release } => lturn::construct_with(
                topo,
                lturn::LTurnOptions {
                    policy,
                    seed,
                    release,
                },
            )?
            .into_parts(),
            Algo::UpDownBfs => updown::construct_bfs(topo)?.into_parts(),
            Algo::UpDownDfs => updown::construct_dfs(topo)?.into_parts(),
        };
        drop(span);
        Ok(Instance {
            tree,
            cg,
            table,
            tables,
            spans: None,
        })
    }
}

impl std::fmt::Display for Algo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Construction error from any algorithm.
#[derive(Debug)]
pub enum AlgoError {
    /// DOWN/UP construction failed.
    Core(ConstructError),
    /// Baseline construction failed.
    Baseline(BaselineError),
}

impl std::fmt::Display for AlgoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlgoError::Core(e) => e.fmt(f),
            AlgoError::Baseline(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for AlgoError {}

impl From<ConstructError> for AlgoError {
    fn from(e: ConstructError) -> Self {
        AlgoError::Core(e)
    }
}

impl From<BaselineError> for AlgoError {
    fn from(e: BaselineError) -> Self {
        AlgoError::Baseline(e)
    }
}

/// The uniform bundle of routing artifacts the harness simulates.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The coordinated tree the routing was built on.
    pub tree: CoordinatedTree,
    /// The communication graph.
    pub cg: CommGraph,
    /// Per-node turn permissions.
    pub table: TurnTable,
    /// Shortest-legal-path routing tables.
    pub tables: RoutingTables,
    /// Always `None`: construction timings live in the telemetry span
    /// tree. Kept only because external code builds `Instance` literals.
    #[doc(hidden)]
    pub spans: Option<PhaseSpans>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use irnet_topology::gen;
    use irnet_turns::verify_routing;

    #[test]
    fn every_algo_constructs_and_verifies() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(24, 4), 1).unwrap();
        for algo in [
            Algo::DownUp { release: true },
            Algo::DownUp { release: false },
            Algo::DownUpCenterRoot,
            Algo::LTurn { release: true },
            Algo::LTurn { release: false },
            Algo::UpDownBfs,
            Algo::UpDownDfs,
        ] {
            let inst = algo.construct(&topo, PreorderPolicy::M1, 0).unwrap();
            assert!(
                verify_routing(&inst.cg, &inst.table).is_ok(),
                "{algo} failed verification"
            );
            assert!(!algo.label().is_empty());
        }
        // A 3x3 mesh's center is its middle switch, not node 0.
        let mesh = gen::mesh(3, 3).unwrap();
        let center = Algo::DownUpCenterRoot
            .construct(&mesh, PreorderPolicy::M1, 0)
            .unwrap();
        assert_eq!(center.tree.root(), RootPolicy::Center.pick(&mesh));
        assert_eq!(center.tree.root(), 4);
    }
}
