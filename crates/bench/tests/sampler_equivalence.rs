//! The paper presets sample Bernoulli arrivals as geometric gaps
//! (`InjectionSampling::Geometric`), a different RNG stream from the
//! per-cycle reference draw. This test is what licenses that switch: over
//! the `ExperimentConfig::quick()` grid run with 30 simulation seeds
//! (`sim_seed = 42 + s`) under each sampler, the two samplers' mean
//! accepted traffic and mean latency agree at every (cell, load) within
//! **4 standard errors of the difference of the means**,
//! `|m_g - m_p| <= 4 * sqrt(se_g^2 + se_p^2)`. Under the null, a |z| above
//! 4 among the 20 comparisons has probability below 0.2%, while a sampler
//! that offers 10% less load fails it.

use irnet_bench::{run_grid, ExperimentConfig};
use irnet_sim::InjectionSampling;

const SEEDS: u64 = 30;
const MAX_Z: f64 = 4.0;
const METRICS: [&str; 2] = ["accepted_traffic", "avg_latency"];

/// Per (cell, load) and metric, the 30 seeds' values.
fn grid_samples(sampling: InjectionSampling) -> Vec<[Vec<f64>; 2]> {
    let mut points: Vec<[Vec<f64>; 2]> = Vec::new();
    for s in 0..SEEDS {
        let mut cfg = ExperimentConfig::quick();
        cfg.sim.injection_sampling = sampling;
        cfg.sim_seed = 42 + s;
        let results = run_grid(&cfg);
        let flat: Vec<_> = results.cells.iter().flat_map(|c| &c.points).collect();
        points.resize_with(flat.len(), Default::default);
        for (values, p) in points.iter_mut().zip(flat) {
            values[0].push(p.metrics.accepted_traffic);
            values[1].push(p.metrics.avg_latency);
        }
    }
    points
}

/// Mean and squared standard error of the mean.
fn mean_se2(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var / n)
}

#[test]
fn geometric_and_per_cycle_sampling_agree_on_the_quick_grid() {
    assert_eq!(
        ExperimentConfig::quick().sim.injection_sampling,
        InjectionSampling::Geometric
    );
    let per_cycle = grid_samples(InjectionSampling::PerCycle);
    let geometric = grid_samples(InjectionSampling::Geometric);
    assert_eq!(per_cycle.len(), 10, "2 cells x 5 loads");
    for (i, (p, g)) in per_cycle.iter().zip(&geometric).enumerate() {
        for (k, metric) in METRICS.iter().enumerate() {
            let (mp, sp) = mean_se2(&p[k]);
            let (mg, sg) = mean_se2(&g[k]);
            assert!(
                mp.is_finite() && mg.is_finite(),
                "point {i}: {metric} undefined"
            );
            let z = (mg - mp) / (sp + sg).sqrt();
            assert!(
                z.abs() <= MAX_Z,
                "point {i}: {metric} per-cycle {mp:.5} vs geometric {mg:.5} (z = {z:.2})"
            );
        }
    }
}
