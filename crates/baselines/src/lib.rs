#![warn(missing_docs)]
//! Baseline deadlock-free routings for irregular networks.
//!
//! * [`updown`] — the classic up\*/down\* routing (Schroeder et al.,
//!   Autonet), in its original BFS-spanning-tree form and the DFS variant of
//!   Robles/Sancho/Duato.
//! * [`lturn`] — the L-turn routing of Jouraku, Funahashi, Amano and
//!   Koibuchi, the comparison baseline of the DOWN/UP paper. Implemented as
//!   a documented reconstruction on the 2-D turn model (the original
//!   prohibited-turn figure is not retrievable offline); every constructed
//!   instance is machine-verifiable deadlock-free and connected. See
//!   DESIGN.md §5.
//!
//! All constructors produce the same artifacts as `irnet-core::DownUp`
//! (a [`irnet_turns::TurnTable`] plus [`irnet_turns::RoutingTables`]), so
//! the simulator and harness treat every algorithm uniformly.

pub mod lturn;
pub mod updown;

use irnet_topology::{CommGraph, CoordinatedTree, TopologyError};
use irnet_turns::{RoutingError, RoutingTables, TurnTable};

/// Construction failure for a baseline routing.
#[derive(Debug)]
pub enum BaselineError {
    /// Spanning-tree construction failed.
    Topology(TopologyError),
    /// The turn restrictions disconnected some pair (would indicate a bug).
    Routing(RoutingError),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::Topology(e) => write!(f, "topology error: {e}"),
            BaselineError::Routing(e) => write!(f, "routing error: {e}"),
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<TopologyError> for BaselineError {
    fn from(e: TopologyError) -> Self {
        BaselineError::Topology(e)
    }
}

impl From<RoutingError> for BaselineError {
    fn from(e: RoutingError) -> Self {
        BaselineError::Routing(e)
    }
}

/// A constructed baseline routing: the coordinated tree it was built on,
/// the communication graph, the turn table, and shortest-path tables.
#[derive(Debug, Clone)]
pub struct BaselineRouting {
    tree: CoordinatedTree,
    cg: CommGraph,
    table: TurnTable,
    tables: RoutingTables,
}

impl BaselineRouting {
    fn build(
        tree: CoordinatedTree,
        cg: CommGraph,
        table: TurnTable,
    ) -> Result<BaselineRouting, BaselineError> {
        let tables = RoutingTables::build(&cg, &table)?;
        Ok(BaselineRouting {
            tree,
            cg,
            table,
            tables,
        })
    }

    /// The spanning tree used for channel classification.
    pub fn tree(&self) -> &CoordinatedTree {
        &self.tree
    }

    /// The communication graph.
    pub fn comm_graph(&self) -> &CommGraph {
        &self.cg
    }

    /// The per-node turn permissions.
    pub fn turn_table(&self) -> &TurnTable {
        &self.table
    }

    /// Shortest-legal-path routing tables.
    pub fn routing_tables(&self) -> &RoutingTables {
        &self.tables
    }

    /// Decomposes into owned parts `(tree, comm graph, turn table,
    /// routing tables)` — used by harness code that stores the artifacts
    /// uniformly across algorithms.
    pub fn into_parts(self) -> (CoordinatedTree, CommGraph, TurnTable, RoutingTables) {
        (self.tree, self.cg, self.table, self.tables)
    }
}
