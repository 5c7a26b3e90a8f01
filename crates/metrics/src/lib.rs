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

pub use irnet_baselines::TurnModel;
use irnet_baselines::{lturn, updown};
use irnet_core::{fill_tables, ConstructError, DownUp, PhaseSpans};
use irnet_telemetry::{Span, Telemetry};
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

    /// The routing's turn model over `topo`, using the coordinated-tree
    /// `policy` (ignored by up\*/down\*, which has no preorder component)
    /// and `seed` (used by the `M2` policy). Deadlock freedom and
    /// connectivity follow from the turn table alone, so commands that
    /// only check them build this and no routing tables. Records no
    /// `construction` span: its callers time it as a stage of their own.
    pub fn turns(
        self,
        topo: &Topology,
        policy: PreorderPolicy,
        seed: u64,
    ) -> Result<TurnModel, ConstructError> {
        self.turns_under(
            topo,
            policy,
            seed,
            &Telemetry::disabled().span("construction"),
        )
    }

    /// The routing over `topo`: its turn model ([`Algo::turns`]) plus the
    /// one table fill ([`fill_tables`]). Timed in
    /// [`irnet_telemetry::current`]'s span tree as `construction`, with a
    /// `tables` child (and DOWN/UP's `phase1`/`phase2`/`phase3`).
    pub fn construct(
        self,
        topo: &Topology,
        policy: PreorderPolicy,
        seed: u64,
    ) -> Result<Instance, ConstructError> {
        let span = irnet_telemetry::current().span("construction");
        let (tree, cg, table) = self.turns_under(topo, policy, seed, &span)?;
        let tables = fill_tables(&cg, &table, &span)?;
        Ok(Instance {
            tree,
            cg,
            table,
            tables,
            spans: None,
        })
    }

    /// [`Algo::turns`], with DOWN/UP's phases timed as children of `span`.
    fn turns_under(
        self,
        topo: &Topology,
        policy: PreorderPolicy,
        seed: u64,
        span: &Span,
    ) -> Result<TurnModel, ConstructError> {
        let downup = DownUp::new().policy(policy).seed(seed);
        let phases = |builder: DownUp| -> Result<TurnModel, ConstructError> {
            let (tree, cg, table, _) = builder.phases(topo, span)?;
            Ok((tree, cg, table))
        };
        Ok(match self {
            Algo::DownUp { release } => phases(downup.release(release))?,
            Algo::DownUpCenterRoot => phases(downup.root(RootPolicy::Center))?,
            Algo::LTurn { release } => {
                let opts = lturn::LTurnOptions {
                    policy,
                    seed,
                    release,
                };
                lturn::construct_with(topo, opts)?
            }
            Algo::UpDownBfs => updown::construct(topo, updown::TreeKind::Bfs)?,
            Algo::UpDownDfs => updown::construct(topo, updown::TreeKind::Dfs)?,
        })
    }
}

impl std::fmt::Display for Algo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
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

    const EVERY_ALGO: [Algo; 7] = [
        Algo::DownUp { release: true },
        Algo::DownUp { release: false },
        Algo::DownUpCenterRoot,
        Algo::LTurn { release: true },
        Algo::LTurn { release: false },
        Algo::UpDownBfs,
        Algo::UpDownDfs,
    ];

    #[test]
    fn every_algo_constructs_and_verifies() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(24, 4), 1).unwrap();
        for algo in EVERY_ALGO {
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

    /// `construct` is `turns` plus the one table fill, for every algorithm,
    /// and every algorithm times and sizes that fill the same way.
    #[test]
    fn construct_is_the_turn_model_plus_one_fill() {
        for ports in [4u32, 8] {
            for seed in 0..3 {
                let topo =
                    gen::random_irregular(gen::IrregularParams::paper(24, ports), seed).unwrap();
                for algo in EVERY_ALGO {
                    for policy in PreorderPolicy::ALL {
                        let what = format!("{algo} {policy} {ports}p seed {seed}");
                        let tel = Telemetry::enabled();
                        let inst = tel.scope(|| algo.construct(&topo, policy, seed)).unwrap();
                        let (tree, cg, table) = algo.turns(&topo, policy, seed).unwrap();
                        let tables = RoutingTables::build(&cg, &table).unwrap();
                        assert_eq!(inst.tree, tree, "{what}: tree");
                        assert_eq!(inst.table, table, "{what}: turn table");
                        assert_eq!(inst.tables, tables, "{what}: routing tables");
                        let snap = tel.snapshot();
                        assert_eq!(snap.span("construction").map(|s| s.count), Some(1));
                        assert_eq!(snap.span("construction/tables").map(|s| s.count), Some(1));
                        assert_eq!(
                            snap.gauges["construction/table_bytes"],
                            tables.heap_bytes() as f64,
                            "{what}: table bytes"
                        );
                    }
                }
            }
        }
    }
}
