//! Determinism of the sharded grid runner: the `(cell, sample, load point)`
//! work-stealing pool must be bit-exact against the single-threaded run for
//! *any* thread count and chunk size, because every point derives its seed
//! purely from its grid coordinates. A proptest samples random pool shapes;
//! the baseline is computed once and reused across cases.

use irnet_bench::{run_grid, run_grid_with_stats, ExperimentConfig, GridResults};
use irnet_metrics::Algo;
use irnet_sim::SimConfig;
use irnet_topology::PreorderPolicy;
use proptest::prelude::*;
use std::sync::OnceLock;

fn tiny() -> ExperimentConfig {
    ExperimentConfig {
        num_switches: 12,
        ports: vec![4],
        samples: 2,
        policies: vec![PreorderPolicy::M1, PreorderPolicy::M2],
        algos: Algo::PAPER_PAIR.to_vec(),
        rates: vec![0.02, 0.1, 0.3],
        sim: SimConfig {
            packet_len: 8,
            warmup_cycles: 200,
            measure_cycles: 600,
            ..SimConfig::default()
        },
        topo_seed: 11,
        sim_seed: 23,
        threads: 1,
        chunk: 0,
        progress: None,
    }
}

/// The single-threaded reference, computed once per process.
fn baseline() -> &'static GridResults {
    static BASELINE: OnceLock<GridResults> = OnceLock::new();
    BASELINE.get_or_init(|| run_grid(&tiny()))
}

fn assert_bit_exact(a: &GridResults, b: &GridResults, context: &str) {
    assert_eq!(a.cells.len(), b.cells.len(), "{context}: cell count");
    for (ca, cb) in a.cells.iter().zip(&b.cells) {
        assert_eq!(ca.key, cb.key, "{context}: cell order");
        assert_eq!(
            ca.saturation.accepted_traffic.to_bits(),
            cb.saturation.accepted_traffic.to_bits(),
            "{context}: saturation throughput of {:?}",
            ca.key
        );
        assert_eq!(ca.deadlocked_runs, cb.deadlocked_runs, "{context}");
        for (pa, pb) in ca.points.iter().zip(&cb.points) {
            assert_eq!(
                pa.metrics.avg_latency.to_bits(),
                pb.metrics.avg_latency.to_bits(),
                "{context}: avg_latency at offered {} of {:?}",
                pa.offered,
                ca.key
            );
            assert_eq!(
                pa.metrics.accepted_traffic.to_bits(),
                pb.metrics.accepted_traffic.to_bits(),
                "{context}: accepted_traffic at offered {} of {:?}",
                pa.offered,
                ca.key
            );
            assert_eq!(pa.deadlocked_samples, pb.deadlocked_samples, "{context}");
        }
    }
}

/// A live telemetry registry must not perturb the grid: the multi-threaded
/// instrumented run is bit-exact against the plain single-threaded
/// baseline, and the registry's aggregate counters match the run stats.
#[test]
fn grid_with_telemetry_attached_is_bit_exact() {
    let mut cfg = tiny();
    cfg.threads = 4;
    cfg.chunk = 2;
    let tel = irnet_telemetry::Telemetry::enabled();
    let (results, stats) = tel.scope(|| run_grid_with_stats(&cfg)).unwrap();
    assert_bit_exact(baseline(), &results, "telemetry attached");
    let snap = tel.snapshot();
    assert_eq!(
        snap.counter("grid/points_run"),
        Some(stats.points_run as u64)
    );
    assert_eq!(
        snap.counter("grid/topologies_built"),
        Some(stats.topologies_built as u64)
    );
    assert_eq!(
        snap.counter("grid/instances_built"),
        Some(stats.instances_built as u64)
    );
    // Every load point recorded its simulation post-run.
    assert_eq!(snap.counter("sim/runs"), Some(stats.points_run as u64));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Random thread counts (1–8) and chunk sizes (1–32, larger than the
    /// whole task list included) agree with the single-threaded baseline on
    /// every averaged metric, bit for bit.
    #[test]
    fn grid_is_bit_exact_for_any_pool_shape(threads in 1usize..=8, chunk in 1usize..=32) {
        let mut cfg = tiny();
        cfg.threads = threads;
        cfg.chunk = chunk;
        let (results, stats) = run_grid_with_stats(&cfg).unwrap();
        assert_bit_exact(
            baseline(),
            &results,
            &format!("threads={threads} chunk={chunk}"),
        );
        // The shard pool must also never rebuild a cached world: one
        // topology per (sample, ports), one instance per (cell, sample),
        // regardless of how tasks interleave.
        prop_assert_eq!(stats.topologies_built, 2);
        prop_assert_eq!(stats.instances_built, 8);
        prop_assert_eq!(stats.points_run, 8 * 3);
    }
}
