#![warn(missing_docs)]
//! Irregular switch-based network topologies and the coordinate machinery of
//! the DOWN/UP routing paper (Sun et al., ICPP 2004).
//!
//! This crate provides the three structures every routing algorithm in the
//! workspace is built on:
//!
//! * [`Topology`] — an undirected multigraph-free graph of switches and
//!   bidirectional links (paper Definition 1), together with generators for
//!   random irregular networks and several regular families.
//! * [`CoordinatedTree`] — a BFS spanning tree whose nodes carry the 2-D
//!   coordinates `X = preorder index`, `Y = BFS level` (Definition 2), with
//!   the three preorder policies `M1`/`M2`/`M3` evaluated in the paper.
//! * [`CommGraph`] — the directed communication graph whose channels are
//!   labelled with the paper's eight directions (Definition 5).
//!
//! ```
//! use irnet_topology::{gen, CoordinatedTree, CommGraph, PreorderPolicy};
//!
//! let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 7).unwrap();
//! let tree = CoordinatedTree::build(&topo, PreorderPolicy::M1, 0).unwrap();
//! let cg = CommGraph::build(&topo, &tree);
//! assert_eq!(cg.num_channels(), 2 * topo.num_links());
//! ```

mod channel;
mod comm_graph;
mod coord_tree;
mod error;
mod fault;
mod graph;
mod io;

pub mod analysis;
pub mod gen;
pub mod recovery;

pub use channel::{ChannelId, ChannelTable};
pub use comm_graph::{CommGraph, Direction, LinkKind, Quadrant};
pub use coord_tree::{CoordinatedTree, PreorderPolicy, RootPolicy};
pub use error::TopologyError;
pub use fault::{DegradedTopology, FaultError, FaultEvent, FaultKind, FaultPlan, FlapSchedule};
pub use graph::{LinkId, NodeId, Topology, MAX_PORTS};
pub use io::{topology_from_json, topology_to_json};
pub use recovery::{
    chaos_plan, ChaosParams, DampingPolicy, Element, ElementDamping, RecoveryTimeline, TimelineStep,
};
