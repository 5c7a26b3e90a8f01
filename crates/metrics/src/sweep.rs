//! Offered-load sweeps and saturation search — the mechanics behind
//! Figure 8 and the at-saturation measurements of Tables 1–4.

use crate::paper::PaperMetrics;
use crate::Instance;
use irnet_sim::{SimConfig, Simulator};
use serde::Serialize;

/// One measured operating point.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// Offered load (flits/node/clock).
    pub offered: f64,
    /// The paper metrics at this load.
    pub metrics: PaperMetrics,
    /// Whether the deadlock watchdog aborted this operating point. A
    /// deadlocked point's metrics cover only the cycles before the stall —
    /// callers must not fold them into averages silently.
    pub deadlocked: bool,
    /// Last cycle at which any flit advanced (the stall point when
    /// `deadlocked`, otherwise just the final progress cycle).
    pub stall_cycle: u32,
}

/// A full latency/throughput curve for one routing instance.
#[derive(Debug, Clone, Serialize)]
pub struct SweepCurve {
    /// One point per offered load, in sweep order.
    pub points: Vec<SweepPoint>,
}

impl SweepCurve {
    /// The point with the highest accepted traffic — the paper's
    /// "maximal throughput" operating point used for Tables 1–4.
    pub fn saturation(&self) -> &SweepPoint {
        self.points
            .iter()
            .max_by(|a, b| {
                a.metrics
                    .accepted_traffic
                    .partial_cmp(&b.metrics.accepted_traffic)
                    .expect("accepted traffic is never NaN")
            })
            .expect("sweep has at least one point")
    }

    /// Maximum accepted traffic (throughput) over the sweep.
    pub fn max_throughput(&self) -> f64 {
        self.saturation().metrics.accepted_traffic
    }
}

/// Runs `inst` at each offered load in `rates` and collects the curve.
///
/// Each point uses a distinct derived seed so the Bernoulli processes are
/// independent but reproducible.
pub fn sweep(inst: &Instance, base: &SimConfig, rates: &[f64], seed: u64) -> SweepCurve {
    let points = rates
        .iter()
        .enumerate()
        .map(|(i, &rate)| run_point(inst, base, rate, point_seed(seed, i)))
        .collect();
    SweepCurve { points }
}

/// The simulation seed [`sweep`] derives for the `rate_index`-th point of a
/// curve whose base seed is `seed`.
///
/// Exposed so a single load point is runnable as an independent task: the
/// grid runner shards work at `(cell, sample, load point)` granularity and
/// must reproduce `sweep`'s per-point RNG streams bit-exactly regardless of
/// which shard executes the point.
#[inline]
pub fn point_seed(seed: u64, rate_index: usize) -> u64 {
    seed.wrapping_add(rate_index as u64)
}

/// Runs one operating point. A `sim/run` span guard times the run in
/// [`irnet_telemetry::current`]'s span tree, and its throughput counters
/// land in `sim/*` (see [`irnet_sim::record_run_telemetry`]). Strictly
/// observational — the simulator never reads the registry, so the
/// point's result is bit-identical with or without telemetry.
pub fn run_point(inst: &Instance, base: &SimConfig, rate: f64, seed: u64) -> SweepPoint {
    let cfg = SimConfig {
        injection_rate: rate,
        ..*base
    };
    let tel = irnet_telemetry::current();
    let span = tel.span("sim/run");
    let stats = Simulator::new(&inst.cg, &inst.tables, cfg, seed).run();
    span.finish();
    irnet_sim::record_run_telemetry(&tel, &stats);
    SweepPoint {
        offered: rate,
        deadlocked: stats.deadlocked,
        stall_cycle: stats.last_progress,
        metrics: PaperMetrics::compute(&stats, &inst.cg, &inst.tree),
    }
}

/// The default offered-load ladder used by the reproduction harness: a
/// geometric ramp that comfortably brackets saturation for 4- and 8-port
/// 128-switch networks.
pub fn default_rates(steps: usize) -> Vec<f64> {
    // From 1% to 60% of a flit per node per clock.
    let lo = 0.01f64;
    let hi = 0.6f64;
    let steps = steps.max(2);
    (0..steps)
        .map(|i| lo * (hi / lo).powf(i as f64 / (steps - 1) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Algo;
    use irnet_topology::{gen, PreorderPolicy};

    fn small_instance() -> Instance {
        let topo = gen::random_irregular(gen::IrregularParams::paper(12, 4), 4).unwrap();
        Algo::DownUp { release: true }
            .construct(&topo, PreorderPolicy::M1, 0)
            .unwrap()
    }

    fn quick_base() -> SimConfig {
        SimConfig {
            packet_len: 8,
            warmup_cycles: 200,
            measure_cycles: 1_200,
            ..SimConfig::default()
        }
    }

    #[test]
    fn sweep_produces_one_point_per_rate() {
        let inst = small_instance();
        let curve = sweep(&inst, &quick_base(), &[0.01, 0.05, 0.2], 1);
        assert_eq!(curve.points.len(), 3);
        assert!((curve.points[0].offered - 0.01).abs() < 1e-12);
        // Saturation point is the max-throughput one.
        let sat = curve.saturation();
        for p in &curve.points {
            assert!(p.metrics.accepted_traffic <= sat.metrics.accepted_traffic + 1e-12);
        }
    }

    #[test]
    fn throughput_saturates_as_load_grows() {
        let inst = small_instance();
        let curve = sweep(&inst, &quick_base(), &[0.01, 0.1, 0.4, 0.9], 2);
        let acc: Vec<f64> = curve
            .points
            .iter()
            .map(|p| p.metrics.accepted_traffic)
            .collect();
        // Accepted traffic at the lowest load roughly equals offered, and
        // the curve cannot exceed the physical ejection bound of 1.
        assert!(
            (acc[0] - 0.01).abs() < 0.006,
            "accepted {} at offered 0.01",
            acc[0]
        );
        for &a in &acc {
            assert!(a <= 1.0);
        }
        assert!(curve.max_throughput() >= acc[0]);
    }

    #[test]
    fn pointwise_runs_reassemble_the_sweep_bit_exactly() {
        // The contract the sharded grid runner relies on: running each load
        // point independently with `point_seed` reproduces `sweep` exactly.
        let inst = small_instance();
        let base = quick_base();
        let rates = [0.01, 0.05, 0.2];
        let seed = 77u64;
        let curve = sweep(&inst, &base, &rates, seed);
        for (i, &rate) in rates.iter().enumerate() {
            let solo = run_point(&inst, &base, rate, point_seed(seed, i));
            let joint = &curve.points[i];
            assert_eq!(
                solo.metrics.avg_latency.to_bits(),
                joint.metrics.avg_latency.to_bits()
            );
            assert_eq!(
                solo.metrics.accepted_traffic.to_bits(),
                joint.metrics.accepted_traffic.to_bits()
            );
            assert_eq!(solo.deadlocked, joint.deadlocked);
            assert_eq!(solo.stall_cycle, joint.stall_cycle);
        }
    }

    #[test]
    fn default_rates_are_increasing_and_bracketing() {
        let r = default_rates(10);
        assert_eq!(r.len(), 10);
        assert!(r.windows(2).all(|w| w[0] < w[1]));
        assert!(r[0] <= 0.011 && r[9] >= 0.59);
    }
}
