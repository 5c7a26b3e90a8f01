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
//! Every constructor returns its routing's [`TurnModel`], as
//! `irnet-core::DownUp::construct_phases` does for DOWN/UP: deadlock
//! freedom and connectivity follow from the turn table alone, and the
//! routing tables are derived from it by one fill
//! ([`irnet_turns::RoutingTables::build`]), so the simulator and harness
//! treat every algorithm uniformly.

pub mod lturn;
pub mod updown;

use irnet_topology::{CommGraph, CoordinatedTree};
use irnet_turns::TurnTable;

/// A routing as its turn model: the coordinated tree it was built on, the
/// communication graph, and the per-node turn permissions.
pub type TurnModel = (CoordinatedTree, CommGraph, TurnTable);
