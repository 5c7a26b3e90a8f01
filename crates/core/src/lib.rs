#![warn(missing_docs)]
//! The **DOWN/UP routing** of Sun, Yang, Chung and Huang (ICPP 2004): an
//! efficient deadlock-free tree-based routing algorithm for irregular
//! wormhole-routed networks based on the turn model.
//!
//! Construction follows the paper's three phases:
//!
//! 1. **Phase 1** — build the coordinated tree (`X` = preorder index,
//!    `Y` = BFS level) and the eight-direction communication graph
//!    (provided by `irnet-topology`).
//! 2. **Phase 2** — derive the maximal acyclic direction dependency graph
//!    `ADDG₇` from the complete direction graph by the paper's incremental
//!    pairing procedure, yielding 18 globally prohibited turns
//!    ([`phase2::PROHIBITED_TURNS`]). See [`phase2`] for the discussion of
//!    the discrepancy between the paper's construction and its printed
//!    turn list.
//! 3. **Phase 3** — release redundant per-node prohibitions of
//!    `T(LU_CROSS → RD_TREE)` and `T(RU_CROSS → RD_TREE)` wherever the
//!    release cannot close a turn cycle (`cycle_detection`), then build
//!    turn-constrained shortest-path routing tables.
//!
//! ```
//! use irnet_topology::{gen, PreorderPolicy};
//! use irnet_core::DownUp;
//!
//! let topo = gen::random_irregular(gen::IrregularParams::paper(32, 4), 1).unwrap();
//! let routing = DownUp::new().policy(PreorderPolicy::M1).construct(&topo).unwrap();
//! assert!(irnet_turns::verify_routing(routing.comm_graph(), routing.turn_table()).is_ok());
//! ```

mod builder;
pub mod incremental;
pub mod phase2;
pub mod phase3;
pub mod repair;

pub use builder::{fill_tables, ConstructError, DownUp, DownUpRouting, PhaseSpans};
pub use incremental::{
    plan_epochs_timeline_with, plan_epochs_with, EpochRepair, RepairStats, RepairStrategy,
};
pub use repair::{ReconfigEpoch, RepairError};
