//! Static routability analysis, independent of the simulator.
//!
//! Two halves (see DESIGN.md §15):
//!
//! * The **feasibility oracle** ([`analyze_topology`], [`analyze_faulted`],
//!   [`analyze_masks`]) answers the existence question of Mendlovic &
//!   Matias (arXiv:2503.04583): does *any* deadlock-free connected routing
//!   exist on this (possibly degraded) network? [`Feasibility::Feasible`]
//!   carries a constructive up\*/down\* numbering [`Witness`];
//!   [`Feasibility::Infeasible`] carries a minimized [`Obstruction`]. The
//!   oracle costs one BFS, which lets the epoch repair loop (crates/core)
//!   and `irnet faults` reject hopeless degradations in milliseconds instead
//!   of after a failed rebuild.
//! * The **whole-table auditor** ([`audit`]) statically proves four
//!   properties of a built routing instance — no black holes, bounded
//!   stretch, load-bearing prohibitions, and rank-bounded misrouting —
//!   reporting through the stable lint codes `IRNET-E006..E009` /
//!   `W003..W004` shared with `irnet-verify`.
//!
//! [`AnalysisReport`] bundles both halves under the versioned JSON
//! [`SCHEMA`] consumed by `irnet analyze` and CI.

#![warn(missing_docs)]

mod audits;
mod feasibility;
mod report;

pub use audits::{audit, AuditReport, StretchHistogram, STRETCH_WARN};
pub use feasibility::{
    analyze_and_degrade_masks, analyze_faulted, analyze_masks, analyze_topology, AnalyzedDegrade,
    Feasibility, Obstruction, Witness, DEAD,
};
pub use report::{AnalysisReport, SCHEMA};
