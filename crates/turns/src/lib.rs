#![warn(missing_docs)]
//! Turn-model machinery shared by every routing algorithm in the workspace.
//!
//! The crate is organised around four structures:
//!
//! * [`DirGraph`] — a tiny direction-level digraph (nodes are channel
//!   *directions*, edges are *turns*, paper Definitions 8–11) with cycle
//!   enumeration and the "realizable as a turn cycle" predicate used to
//!   reproduce and audit the paper's ADDG construction.
//! * [`TurnTable`] — per-node, per-(input port, output port) permissions:
//!   the concrete object a switch would be configured with. Built from a
//!   direction-level rule and then refined per node (the paper's Phase 3
//!   releases).
//! * [`ChannelDepGraph`] — the channel dependency graph induced by a turn
//!   table; its acyclicity is exactly deadlock freedom for wormhole routing
//!   (Dally–Seitz / Lemma 1 of the paper).
//! * [`RoutingTables`] — turn-constrained shortest-path tables: for every
//!   (destination, node, input slot) the set of minimal legal output ports.
//!   Connectivity of the routing function is checked while building.

pub mod adaptivity;
mod cdg;
mod dirgraph;
pub mod export;
mod release;
mod routing;
mod turn_table;
mod verify;

pub use adaptivity::{adaptivity, AdaptivityStats};
pub use cdg::{ChannelCycle, ChannelDepGraph, PathOracle};
pub use dirgraph::{DirGraph, Movement};
pub use export::{export_tables, parse_exported, ExportedTables};
pub use release::{release_redundant_turns, ReleasePass};
pub use routing::{
    auto_workers, lowest_port_route, Cost, CostOverflow, PatchStats, Preds, RoutingError,
    RoutingTables, INJECTION_SLOT,
};
pub use turn_table::TurnTable;
pub use verify::{verify_routing, VerifyReport};
