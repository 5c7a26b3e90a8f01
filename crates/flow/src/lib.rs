#![warn(missing_docs)]
//! # irnet-flow — the flow-level fast path
//!
//! A Parsimon-style prediction backend that trades the exact flit engine's
//! cycle-accuracy for orders-of-magnitude reach: instead of simulating
//! every flit in the whole fabric, it
//!
//! 1. **decomposes** ([`decompose`]) the fabric analytically into
//!    per-channel offered loads by pushing equal-split fractional flow
//!    over the minimal-route DAG each destination induces — no routing
//!    tables, no flits;
//! 2. **clusters** ([`cluster`]) channels by a totally ordered
//!    `(direction class, tree level, port class, quantized load)`
//!    [`Signature`];
//! 3. **simulates one representative per cluster** ([`neighborhood`],
//!    [`predict`](mod@predict)) with the existing active-set flit engine, on a small
//!    extracted neighborhood driven to the cluster's load, yielding
//!    empirical per-hop delay distributions ([`edist`]);
//! 4. **generalizes** ([`predict`](mod@predict)) by convolving per-hop distributions
//!    along deterministically sampled routes (latency percentiles) and by
//!    scaling the bottleneck cluster's measured channel capacity
//!    (saturation throughput).
//!
//! The backend plugs in next to [`irnet_metrics::sweep`]: same instance,
//! same offered-load ladder, same seed discipline — `irnet sweep
//! --backend flow` and the `flow_validate` harness compare the two
//! directly. Fixed seed ⇒ bit-stable output: every intermediate is keyed
//! on grid coordinates or ordered signatures, never on hash order or the
//! clock.

pub mod cluster;
pub mod decompose;
pub mod edist;
pub mod neighborhood;
pub mod predict;

pub use cluster::{cluster_at_rate, load_bucket, Cluster, Partition, Signature};
pub use decompose::{Decomposer, Decomposition};
pub use edist::EDist;
pub use neighborhood::{extract, Neighborhood};
pub use predict::{predict, FlowConfig, FlowCurve, FlowPoint, FlowPredictor};
