#![warn(missing_docs)]
//! # irnet — DOWN/UP routing for irregular wormhole-routed networks
//!
//! A production-quality reproduction of *"An Efficient Deadlock-Free
//! Tree-Based Routing Algorithm for Irregular Wormhole-Routed Networks
//! Based on the Turn Model"* (Sun, Yang, Chung, Huang — ICPP 2004).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`topology`] — irregular networks, coordinated trees, communication
//!   graphs.
//! * [`turns`] — turn tables, channel dependency graphs, deadlock-freedom
//!   verification, turn-constrained shortest-path routing tables.
//! * [`downup`] — the paper's DOWN/UP routing (Phases 1–3).
//! * [`baselines`] — L-turn and up\*/down\* comparators.
//! * [`sim`] — a cycle-accurate wormhole flit simulator.
//! * [`metrics`] — the paper's evaluation metrics and sweep machinery.
//! * [`verify`] — static analysis: machine-checkable deadlock-freedom
//!   certificates and the `IRNET-*` routing lint battery.
//! * [`analyze`] — the static routability analyzer: a feasibility oracle
//!   with constructive witnesses / minimized obstructions, and whole-table
//!   property audits (reachability, stretch, minimality, livelock).
//! * [`flow`] — the flow-level fast path: analytic channel decomposition,
//!   signature clustering, representative neighborhood sims, and
//!   delay-distribution generalization (`irnet sweep --backend flow`).
//! * [`obs`] — observability: flight-recorder event tracing, interval
//!   samplers, and watchdog deadlock forensics.
//! * [`telemetry`] — the unified metrics layer: counters, gauges,
//!   histograms, and a hierarchical span tree behind one lock-light
//!   registry, with JSON snapshots, Prometheus exposition, and a
//!   structured progress/heartbeat emitter (`--telemetry`, `irnet stats`).
//!
//! ## Quickstart
//!
//! ```
//! use irnet::prelude::*;
//!
//! // A random 32-switch, 4-port irregular network.
//! let topo = gen::random_irregular(gen::IrregularParams::paper(32, 4), 1).unwrap();
//!
//! // Construct the DOWN/UP routing (coordinated tree M1, release pass on).
//! let routing = DownUp::new().construct(&topo).unwrap();
//!
//! // It is deadlock-free and fully connected — machine-checked.
//! let report = verify_routing(routing.comm_graph(), routing.turn_table());
//! assert!(report.is_ok());
//!
//! // Simulate uniform traffic at 5% load.
//! let cfg = SimConfig { packet_len: 32, injection_rate: 0.05,
//!                       warmup_cycles: 500, measure_cycles: 2_000,
//!                       ..SimConfig::default() };
//! let stats = Simulator::new(routing.comm_graph(), routing.routing_tables(), cfg, 7).run();
//! assert!(stats.accepted_traffic() > 0.0);
//! ```

pub use irnet_analyze as analyze;
pub use irnet_baselines as baselines;
pub use irnet_core as downup;
pub use irnet_flow as flow;
pub use irnet_metrics as metrics;
pub use irnet_obs as obs;
pub use irnet_sim as sim;
pub use irnet_telemetry as telemetry;
pub use irnet_topology as topology;
pub use irnet_turns as turns;
pub use irnet_verify as verify;

/// The most common imports in one place.
pub mod prelude {
    pub use irnet_analyze::{
        analyze_timeline, analyze_topology, audit, AnalysisReport, AuditReport, Feasibility,
        Obstruction, Witness,
    };
    pub use irnet_baselines::{lturn, updown, BaselineRouting};
    pub use irnet_core::{
        plan_epochs_timeline_with, plan_epochs_with, DownUp, DownUpRouting, EpochRepair,
        ReconfigEpoch, RepairStats, RepairStrategy,
    };
    pub use irnet_flow::{predict, FlowConfig, FlowCurve, FlowPoint, FlowPredictor};
    pub use irnet_metrics::paper::PaperMetrics;
    pub use irnet_metrics::sweep;
    pub use irnet_metrics::{Algo, Instance};
    pub use irnet_obs::{deadlock_incident, FlightRecorder, Incident, IntervalSampler};
    pub use irnet_sim::{
        ArrivalProcess, EngineCore, Halt, InjectionSampling, Recorder, RouteChoice, SimConfig,
        SimEvent, SimStats, Simulator, TrafficPattern,
    };
    pub use irnet_telemetry::{Progress, ProgressMode, Snapshot, Telemetry};
    pub use irnet_topology::analysis;
    pub use irnet_topology::{
        chaos_plan, chaos_plan_filtered, gen, ChaosParams, CommGraph, CoordinatedTree,
        DampingPolicy, Direction, Element, ElementDamping, FaultEvent, FaultKind, FaultPlan,
        FlapSchedule, PreorderPolicy, RecoveryTimeline, TimelineStep, Topology,
    };
    pub use irnet_turns::{
        adaptivity, verify_routing, AdaptivityStats, ChannelDepGraph, RoutingTables, TurnTable,
        VerifyReport,
    };
    pub use irnet_verify::{
        certify, certify_transition, lint, recheck, Certificate, EpochCertificates, Finding,
        LintCode, LintReport, Severity, Verdict,
    };
}
