#![warn(missing_docs)]
//! A cycle-accurate, flit-level simulator for wormhole-routed irregular
//! networks — the workspace's substitute for the IRFlexSim0.5 simulator the
//! paper evaluates on (see DESIGN.md §3).
//!
//! Timing model (paper §5):
//!
//! * a routing header is routed and arbitrated to an output channel in one
//!   clock;
//! * a data flit moves from an input channel to an output channel (through
//!   the crossbar) in one clock;
//! * a flit traverses a link in one clock.
//!
//! Switches are input-buffered with configurable FIFO depth and an optional
//! number of virtual channels per physical channel. Wormhole switching is
//! modelled faithfully: the header claims an output (virtual) channel, body
//! flits stream behind it, and the channel is released only after the tail
//! flit passes. Each node has one injection and one ejection port
//! (the attached processor), each moving at most one flit per clock and
//! reserved wormhole-style like any other channel.
//!
//! The simulator is deterministic per seed and allocates nothing on its
//! per-cycle hot path.
//!
//! Two bit-exact scheduling cores are provided (see [`EngineCore`] and
//! DESIGN.md §11): the default occupancy-driven *active-set* core, whose
//! per-cycle cost scales with the number of entries that can act rather
//! than the network size, and a dense reference scan kept for
//! differential testing. In every driver call ([`Simulator::run`],
//! [`Simulator::advance`], [`Simulator::drain`]) the active-set core also
//! streams drained worms: with one virtual channel, a worm whose
//! header has been ejected owns its whole path until its tail leaves the
//! source, so once its pipeline moves a flit at every stage per clock the
//! skipped clocks are settled in closed form, with identical statistics.
//! [`InjectionSampling::Geometric`] additionally removes the per-node
//! per-cycle RNG draw (its own RNG stream; the paper grid presets use it,
//! while the default stays the per-cycle reference stream).
//!
//! ```
//! use irnet_topology::gen;
//! use irnet_core::DownUp;
//! use irnet_sim::{SimConfig, Simulator};
//!
//! let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 3).unwrap();
//! let routing = DownUp::new().construct(&topo).unwrap();
//! let cfg = SimConfig {
//!     packet_len: 16,
//!     injection_rate: 0.05,
//!     warmup_cycles: 500,
//!     measure_cycles: 2_000,
//!     ..SimConfig::default()
//! };
//! let stats = Simulator::new(routing.comm_graph(), routing.routing_tables(), cfg, 7)
//!     .run();
//! assert!(stats.packets_delivered > 0);
//! ```

mod active;
mod config;
mod engine;
mod hist;
pub mod record;
mod stats;
pub mod trace;
mod traffic;

pub use config::{EngineCore, InjectionSampling, RouteChoice, SimConfig};
pub use engine::{Halt, Simulator, WorkCounters};
pub use hist::Histogram;
pub use record::{BlockedWorm, Recorder, SimEvent};
pub use stats::{record_run_telemetry, SimStats};
pub use trace::{replay, ReplayResult, Trace, TraceEntry, TraceError};
pub use traffic::{ArrivalProcess, TrafficPattern};
