//! The workloads and metrics `BENCHMARK.json` declares. A test keeps the
//! two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and as keyed in the result line.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Seconds of operation time one run measures.
pub const RUN_SECONDS: u64 = 16;

/// Workload names, in the order the multi-run mode interleaves them.
pub const WORKLOADS: [&str; 4] = ["fig8-128", "scale-2048", "fault-1024", "flow-2048"];

/// Host metrics every untraced run reports, on every workload.
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", 0.25),
    e2e("op_p50_ms", "ms", 0.25),
    e2e("unit_p50_ms", "ms", 0.25),
    e2e("peak_rss_mb", "MB", 0.1),
];

/// Layers whose self time the traced run attributes, as span names.
pub const LAYERS: [&str; 11] = [
    "topology.gen",
    "core.phases",
    "turns.table_fill",
    "baselines.construct",
    "sim.run",
    "metrics.paper_metrics",
    "core.repair",
    "flow.build",
    "flow.curve",
    "flow.query",
    "verify.certify",
];

use Better::{Higher, Lower};

/// Metrics every traced run reports, on every workload: each layer's share
/// of the traced self time, per-call times of the layers every workload
/// calls, and the layers' own work counters and ratios.
pub const PER_LAYER: [Metric; 27] = [
    layer("trace.coverage", "share", Higher),
    layer("trace.unit_p50_ms", "ms", Lower),
    layer("topology.gen_ms", "ms", Lower),
    layer("core.phases_ms", "ms", Lower),
    layer("verify.certify_ms", "ms", Lower),
    layer("topology.gen_pct", "%", Lower),
    layer("core.phases_pct", "%", Lower),
    layer("turns.table_fill_pct", "%", Lower),
    layer("baselines.construct_pct", "%", Lower),
    layer("sim.run_pct", "%", Lower),
    layer("metrics.paper_metrics_pct", "%", Lower),
    layer("core.repair_pct", "%", Lower),
    layer("flow.build_pct", "%", Lower),
    layer("flow.curve_pct", "%", Lower),
    layer("flow.query_pct", "%", Lower),
    layer("verify.certify_pct", "%", Lower),
    layer("turns.table_fill_calls", "count", Lower),
    layer("sim.flit_hops", "count", Lower),
    layer("sim.flit_hops_per_s", "1/s", Higher),
    layer("sim.header_block_rate", "1/cycle", Lower),
    layer("sim.deadlocked_runs", "count", Lower),
    layer("core.repair_inplace_share", "share", Higher),
    layer("core.repair_touched_rows", "count", Lower),
    layer("core.repair_full_mismatches", "count", Lower),
    layer("flow.rep_sims", "count", Lower),
    layer("flow.rep_sim_hit_share", "share", Higher),
    layer("flow.route_cache_hit_share", "share", Higher),
];

/// Looks a metric up by name in either list.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}
