//! `flow-2048`: the table-free path. 2048-switch, 8-port fabrics get
//! DOWN/UP Phases 1–3 only (no routing tables). Each then gets a flow
//! predictor (`FlowPredictor::build`), the ten-rate ladder
//! (`curve(default_rates(10))`) and twenty warm `point` queries at 0.5 to
//! 1.45 times the predicted saturation.
//!
//! The build, the curve and each query are operations; a unit is one
//! fabric, set up just before it is predicted. A pass predicts fabrics 0
//! to 7 of the generator; several same-size fabrics in one process are
//! what would let delay distributions be reused across fabrics. The run
//! makes whole passes until its time is spent, so every run predicts the
//! same fabrics equally often however fast the host is. The seed drives
//! each predictor's sampling and representative sims.

use crate::common::{certify, derive, digest_turns, topology};
use crate::run::Run;
use crate::stats::Digest;
use irnet_core::DownUp;
use irnet_flow::{FlowConfig, FlowPoint, FlowPredictor};
use irnet_metrics::sweep;
use irnet_sim::SimConfig;

/// Workload size.
pub struct Size {
    /// Switches per fabric.
    pub switches: u32,
    /// Ports per switch.
    pub ports: u32,
    /// Fabrics per pass.
    pub fabrics: usize,
    /// Ladder length of the curve (`sweep::default_rates`).
    pub rates: usize,
    /// Warm queries per fabric.
    pub queries: usize,
    /// Base simulator configuration of the representative sims.
    pub sim: SimConfig,
}

impl Size {
    /// The size of record.
    pub fn full() -> Size {
        Size {
            switches: 2048,
            ports: 8,
            fabrics: 8,
            rates: 10,
            queries: 20,
            sim: SimConfig {
                packet_len: 32,
                warmup_cycles: 1_000,
                measure_cycles: 2_000,
                ..SimConfig::default()
            },
        }
    }

    /// A seconds-long stand-in for tests.
    #[cfg(test)]
    pub fn tiny() -> Size {
        Size {
            switches: 24,
            fabrics: 2,
            rates: 3,
            queries: 4,
            sim: SimConfig {
                packet_len: 8,
                warmup_cycles: 100,
                measure_cycles: 300,
                ..SimConfig::default()
            },
            ..Size::full()
        }
    }
}

/// Runs the workload.
pub fn run(size: &Size, seed: u64, r: &mut Run) {
    let tr = r.tr;
    let cfg = FlowConfig::default();
    let rates = sweep::default_rates(size.rates);
    let mut pass = 0;
    while pass == 0 || r.spent() < 1.0 {
        for f in 0..size.fabrics {
            let fabric_seed = f as u64;
            let (topo, tree, cg, table) = r.setup(|p| {
                let topo = topology(tr, p, size.switches, size.ports, fabric_seed);
                let (tree, cg, table, _) = tr.span("core.phases", p, |_| {
                    DownUp::new()
                        .construct_phases(&topo)
                        .expect("DOWN/UP Phases 1-3 run on every connected fabric")
                });
                (topo, tree, cg, table)
            });
            certify(r, &cg, &table, &format!("flow fabric {f}"));

            let predictor_seed = derive(seed, fabric_seed);
            let mut pred = r.op(|p| {
                tr.span("flow.build", p, |_| {
                    FlowPredictor::build(&topo, &tree, &cg, &table, &size.sim, predictor_seed, &cfg)
                })
            });
            let curve = r.op(|p| tr.span("flow.curve", p, |_| pred.curve(&rates)));
            let sat = pred.saturation();
            let mut points = curve.points.clone();
            for q in 0..size.queries {
                let rate = sat * (0.5 + 0.05 * q as f64);
                points.push(r.op(|p| tr.span("flow.query", p, |_| pred.point(rate))));
            }
            r.end_unit();

            let mut d = Digest::default();
            digest_turns(&mut d, &cg, &table);
            d.f64(curve.sat_throughput);
            d.u64(curve.cluster_count as u64);
            d.u64(curve.representative_sims as u64);
            for p in &points {
                r.attempted += 1;
                r.failed += u64::from(!plausible(p));
                for v in [
                    p.offered,
                    p.accepted,
                    p.mean_latency,
                    p.median_latency,
                    p.p99_latency,
                ] {
                    d.f64(v);
                }
                d.u64(u64::from(p.saturated));
            }
            r.repeat(f, d);
            if pass == 0 {
                r.digest.u64(d.value());
                r.add("flow.predictors", 1.0);
                r.add("flow.rep_sims_sum", pred.sims_run() as f64);
                r.add("flow.rep_sim_hits", pred.rep_sim_cache_hits() as f64);
                r.add("flow.route_cache_hits", pred.route_cache_hits() as f64);
                r.add("flow.route_cache_misses", pred.route_cache_misses() as f64);
            }
        }
        pass += 1;
    }
}

/// A prediction is usable when every figure is finite and no more traffic
/// is accepted than offered.
fn plausible(p: &FlowPoint) -> bool {
    [
        p.offered,
        p.accepted,
        p.mean_latency,
        p.median_latency,
        p.p99_latency,
    ]
    .iter()
    .all(|v| v.is_finite())
        && p.accepted <= p.offered
}
