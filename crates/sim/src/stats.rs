use crate::hist::Histogram;
use irnet_topology::{ChannelId, CommGraph, NodeId};
use std::sync::{Mutex, PoisonError};

/// Raw measurement counters plus derived metrics for one simulation run.
///
/// All counters cover only the measurement window (after warm-up).
/// Equality is bit-exact over every counter — the engine-equivalence
/// tests compare whole `SimStats` values across scheduling cores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimStats {
    /// Measured cycles.
    pub cycles: u32,
    /// Number of switches.
    pub num_nodes: u32,
    /// Flits delivered to their destination processors.
    pub flits_delivered: u64,
    /// Packets fully delivered (tail flit received).
    pub packets_delivered: u64,
    /// Sum of packet latencies (injection-queue entry to tail delivery),
    /// over `packets_delivered`.
    pub latency_sum: u64,
    /// Maximum single-packet latency observed.
    pub latency_max: u32,
    /// Full latency distribution (geometric buckets; supports percentile
    /// queries via [`Histogram::quantile`]).
    pub latency_hist: Histogram,
    /// Packets generated during measurement (offered, not necessarily
    /// delivered).
    pub packets_generated: u64,
    /// Flits that crossed each inter-switch physical channel's link stage,
    /// indexed by channel id.
    pub channel_flits: Vec<u64>,
    /// Flits delivered at each node (traffic *received* per destination).
    pub node_flits_delivered: Vec<u64>,
    /// Packets generated at each node during measurement.
    pub node_packets_generated: Vec<u64>,
    /// Cycles during which some header flit was blocked waiting for a free
    /// output (virtual) channel — a direct contention measure.
    pub header_block_cycles: u64,
    /// Sum over measured cycles of flits buffered in the network; divide by
    /// `cycles` for the average network occupancy.
    pub buffered_flit_cycles: u64,
    /// Whether the run was aborted by the deadlock watchdog.
    pub deadlocked: bool,
    /// Flits still buffered in the network when the run ended.
    pub flits_in_flight: u64,
    /// In-network flits destroyed by fault-driven reconfigurations,
    /// counted over the whole run (not just the measurement window).
    pub dropped_flits: u64,
    /// Packets destroyed by fault-driven reconfigurations (cut worms,
    /// unroutable survivors, traffic for dead destinations), counted over
    /// the whole run.
    pub dropped_packets: u64,
    /// Reconfiguration epochs applied during the run.
    pub reconfig_epochs: u32,
    /// Last cycle at which any flit advanced — on a deadlocked run this is
    /// the stall point the watchdog fired from.
    pub last_progress: u32,
    /// Flits that ever entered the network (whole run, warm-up included).
    pub flits_injected_total: u64,
    /// Flits handed to a local processor (whole run, warm-up included;
    /// unlike the measurement-window `flits_delivered`).
    pub flits_delivered_total: u64,
}

impl SimStats {
    /// Accepted traffic in flits per clock per node — the paper's
    /// throughput metric.
    pub fn accepted_traffic(&self) -> f64 {
        self.flits_delivered as f64 / (self.cycles as f64 * self.num_nodes as f64)
    }

    /// Average message latency in clocks — the paper's latency metric.
    /// `NaN` when no packet was delivered.
    pub fn avg_latency(&self) -> f64 {
        if self.packets_delivered == 0 {
            f64::NAN
        } else {
            self.latency_sum as f64 / self.packets_delivered as f64
        }
    }

    /// Utilization of one output channel: average flits per clock crossing
    /// it (paper §5, Table 1 definition).
    pub fn channel_utilization(&self, c: ChannelId) -> f64 {
        self.channel_flits[c as usize] as f64 / self.cycles as f64
    }

    /// The paper's *node utilization*: the sum of the utilizations of all
    /// of a node's output channels divided by the number of ports
    /// connected to other switches.
    pub fn node_utilization(&self, cg: &CommGraph, v: NodeId) -> f64 {
        let outs = cg.channels().outputs(v);
        if outs.is_empty() {
            return 0.0;
        }
        let sum: f64 = outs.iter().map(|&c| self.channel_utilization(c)).sum();
        sum / outs.len() as f64
    }

    /// Node utilization of every node.
    pub fn node_utilizations(&self, cg: &CommGraph) -> Vec<f64> {
        (0..self.num_nodes)
            .map(|v| self.node_utilization(cg, v))
            .collect()
    }

    /// Latency percentile estimate in clocks (`None` if no packet was
    /// delivered).
    pub fn latency_quantile(&self, q: f64) -> Option<u32> {
        self.latency_hist.quantile(q)
    }

    /// Average number of flits buffered in the network per measured cycle
    /// (Little's-law style occupancy).
    pub fn avg_network_occupancy(&self) -> f64 {
        self.buffered_flit_cycles as f64 / self.cycles as f64
    }

    /// Header-blocking rate: blocked header-cycles per measured cycle.
    pub fn header_block_rate(&self) -> f64 {
        self.header_block_cycles as f64 / self.cycles as f64
    }

    /// The flit conservation identity over the whole run: every injected
    /// flit was delivered, destroyed by a reconfiguration, or is still
    /// buffered. Holds across down- *and* up-transition barriers (revived
    /// channels come back empty), so `irnet soak` asserts it per run.
    pub fn flits_conserved(&self) -> bool {
        self.flits_injected_total
            == self.flits_delivered_total + self.dropped_flits + self.flits_in_flight
    }
}

/// Serializes the `sim/cycles_per_sec` updates of concurrent runs, so the
/// last run to record reads every earlier run's cycles and seconds.
static RATE_UPDATE: Mutex<()> = Mutex::new(());

/// Feeds one finished run's throughput into a telemetry registry:
/// delivered-work counters, the `sim/cycles_per_sec` throughput gauge, and
/// a log2 histogram of run lengths. The caller times the run with a
/// `sim/run` span guard and calls this once the guard has finished, so the
/// gauge is the aggregate over the registry, Σ `sim/cycles` / Σ `sim/run`
/// seconds, rather than the last run's rate.
/// Strictly post-run — the simulator's hot path never sees the registry,
/// so attaching telemetry cannot perturb a run (proptest-pinned in
/// `tests/telemetry.rs`).
pub fn record_run_telemetry(tel: &irnet_telemetry::Telemetry, stats: &SimStats) {
    if !tel.is_enabled() {
        return;
    }
    tel.counter("sim/runs").inc();
    tel.counter("sim/flits_delivered")
        .add(stats.flits_delivered);
    tel.counter("sim/packets_delivered")
        .add(stats.packets_delivered);
    tel.counter("sim/dropped_flits").add(stats.dropped_flits);
    tel.counter("sim/reconfig_epochs")
        .add(u64::from(stats.reconfig_epochs));
    if stats.deadlocked {
        tel.counter("sim/deadlocks").inc();
    }
    tel.histogram("sim/run_cycles")
        .record(u64::from(stats.cycles));
    let cycles = tel.counter("sim/cycles");
    let _serial = RATE_UPDATE.lock().unwrap_or_else(PoisonError::into_inner);
    cycles.add(u64::from(stats.cycles));
    let seconds = tel.span_stat("sim/run").map_or(0.0, |s| s.seconds);
    if seconds > 0.0 {
        tel.gauge("sim/cycles_per_sec")
            .set(cycles.get() as f64 / seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> SimStats {
        SimStats {
            cycles: 1000,
            num_nodes: 4,
            flits_delivered: 2000,
            packets_delivered: 100,
            latency_sum: 25_000,
            latency_max: 900,
            latency_hist: {
                let mut h = Histogram::new();
                for i in 0..100 {
                    h.record(200 + 2 * i);
                }
                h
            },
            packets_generated: 120,
            channel_flits: vec![500, 250, 0, 1000],
            node_flits_delivered: vec![500, 500, 500, 500],
            node_packets_generated: vec![30, 30, 30, 30],
            header_block_cycles: 150,
            buffered_flit_cycles: 12_000,
            deadlocked: false,
            flits_in_flight: 0,
            dropped_flits: 0,
            dropped_packets: 0,
            reconfig_epochs: 0,
            last_progress: 0,
            flits_injected_total: 2400,
            flits_delivered_total: 2400,
        }
    }

    #[test]
    fn derived_metrics() {
        let s = stats();
        assert!((s.accepted_traffic() - 0.5).abs() < 1e-12);
        assert!((s.avg_latency() - 250.0).abs() < 1e-12);
        assert!((s.channel_utilization(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn latency_is_nan_without_deliveries() {
        let mut s = stats();
        s.packets_delivered = 0;
        assert!(s.avg_latency().is_nan());
    }

    #[test]
    fn occupancy_and_blocking_rates() {
        let s = stats();
        assert!((s.avg_network_occupancy() - 12.0).abs() < 1e-12);
        assert!((s.header_block_rate() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn conservation_balances_all_four_counters() {
        let mut s = stats();
        assert!(s.flits_conserved());
        s.dropped_flits = 64;
        assert!(!s.flits_conserved());
        s.flits_injected_total += 64;
        assert!(s.flits_conserved());
        s.flits_in_flight = 3;
        s.flits_injected_total += 3;
        assert!(s.flits_conserved());
    }

    #[test]
    fn latency_quantiles_come_from_the_histogram() {
        let s = stats();
        let p50 = s.latency_quantile(0.5).unwrap();
        assert!((190..=310).contains(&p50), "median {p50}");
        assert!(s.latency_quantile(0.99).unwrap() >= p50);
    }

    #[test]
    fn cycles_per_sec_aggregates_over_the_registry() {
        // Two runs of different lengths and rates: 1000 cycles in 0.5 s
        // (2000/s), then 3000 cycles in 0.5 s (6000/s). The gauge is the
        // aggregate 4000 cycles / 1 s, not the last run's 6000/s.
        let tel = irnet_telemetry::Telemetry::enabled();
        let mut s = stats();
        tel.record_span("sim/run", 0.5);
        record_run_telemetry(&tel, &s);
        let snap = tel.snapshot();
        assert_eq!(snap.gauges.get("sim/cycles_per_sec"), Some(&2000.0));
        s.cycles = 3000;
        tel.record_span("sim/run", 0.5);
        record_run_telemetry(&tel, &s);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("sim/runs"), Some(2));
        assert_eq!(snap.counter("sim/cycles"), Some(4000));
        assert_eq!(snap.gauges.get("sim/cycles_per_sec"), Some(&4000.0));
    }
}
