//! `fig8-128`: the paper's own evaluation (Fig. 8) through the grid runner
//! — 128 switches, 4 and 8 ports, M1–M3 trees, L-turn and DOWN/UP, ten
//! offered loads from 0.01 to 0.6, 128-flit packets, 2000 + 8000 cycles.
//!
//! One operation, and one unit, is the whole grid on one topology sample:
//! 12 cells × 10 loads = 120 flit runs. Sample `k` is the paper grid's
//! sample `k` (the topology seeds of `ExperimentConfig::full()`), with
//! its simulation seeds shifted by `1000·S` for seed `S`: seed 0
//! reproduces the paper-sized grid sample by sample. The seed varies the
//! traffic, not the topologies, because the grid's cost differs by ±10%
//! between random 128-switch samples and a run covers only a few. The
//! set-up builds each prefix sample's topologies and routing instances
//! once outside the grid, to time and certify them.
//!
//! The grid runs on one core fewer than the host has (at least one): with
//! every core busy, identical two-thread runs on a shared two-core host
//! drifted by ±15%, far more than the bound, while one thread leaves the
//! spare core to the rest of the machine.

use crate::common::{
    certify, check_split, digest_costs, digest_turns, downup, record_run, topology,
};
use crate::run::Run;
use crate::stats::Digest;
use crate::trace::{SpanId, Tracer};
use irnet_bench::grid::{run_grid_with_stats, ExperimentConfig};
use irnet_core::DownUp;
use irnet_metrics::paper::PaperMetrics;
use irnet_metrics::{sweep, Algo, Instance};
use irnet_sim::{SimConfig, SimStats, Simulator};
use irnet_topology::{PreorderPolicy, Topology};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Workload size.
pub struct Size {
    /// Switches per fabric.
    pub switches: u32,
    /// Port configurations.
    pub ports: Vec<u32>,
    /// Offered-load ladder length (`sweep::default_rates`).
    pub rates: usize,
    /// Simulator configuration of every load point.
    pub sim: SimConfig,
    /// Samples every run completes (and digests).
    pub min_samples: usize,
}

impl Size {
    /// The paper's grid.
    pub fn full() -> Size {
        let paper = ExperimentConfig::full();
        Size {
            switches: paper.num_switches,
            ports: paper.ports,
            rates: paper.rates.len(),
            sim: paper.sim,
            min_samples: 3,
        }
    }

    /// A seconds-long stand-in for tests.
    #[cfg(test)]
    pub fn tiny() -> Size {
        Size {
            switches: 12,
            ports: vec![4],
            rates: 2,
            sim: SimConfig {
                packet_len: 8,
                warmup_cycles: 100,
                measure_cycles: 300,
                ..SimConfig::default()
            },
            min_samples: 1,
        }
    }
}

/// The grid configuration of sample `k`.
fn config(size: &Size, seed: u64, k: usize) -> ExperimentConfig {
    let paper = ExperimentConfig::full();
    let k = k as u64;
    ExperimentConfig {
        num_switches: size.switches,
        ports: size.ports.clone(),
        samples: 1,
        rates: sweep::default_rates(size.rates),
        sim: size.sim,
        topo_seed: paper.topo_seed + k,
        sim_seed: paper
            .sim_seed
            .wrapping_add(seed.wrapping_mul(1000))
            .wrapping_add(k),
        threads: paper.threads.saturating_sub(1).max(1),
        ..paper
    }
}

/// Grid cells in the runner's order: ports, then policy, then algorithm.
fn cells(cfg: &ExperimentConfig) -> Vec<(u32, PreorderPolicy, Algo)> {
    let mut out = Vec::new();
    for &ports in &cfg.ports {
        for &policy in &cfg.policies {
            for &algo in &cfg.algos {
                out.push((ports, policy, algo));
            }
        }
    }
    out
}

/// One routing instance, as the grid builds it (`Algo::construct` with the
/// sample's topology seed); DOWN/UP is split into its layers when traced.
fn construct(
    tr: &Tracer,
    parent: SpanId,
    topo: &Topology,
    policy: PreorderPolicy,
    algo: Algo,
    seed: u64,
) -> Instance {
    if let (Algo::DownUp { release }, true) = (algo, tr.is_on()) {
        let builder = DownUp::new().policy(policy).seed(seed).release(release);
        let (tree, cg, table, tables) = downup(tr, parent, topo, builder);
        return Instance {
            tree,
            cg,
            table,
            tables,
            spans: None,
        };
    }
    tr.span("baselines.construct", parent, |_| {
        algo.construct(topo, policy, seed)
            .expect("every paper algorithm constructs on a connected fabric")
    })
}

/// Runs the workload.
pub fn run(size: &Size, seed: u64, r: &mut Run) {
    let tr = r.tr;
    for k in 0..size.min_samples {
        let cfg = config(size, seed, k);
        let insts = r.setup(|p| {
            let mut insts = Vec::new();
            for &ports in &cfg.ports {
                let topo = topology(tr, p, cfg.num_switches, ports, cfg.topo_seed);
                for (_, policy, algo) in cells(&cfg).into_iter().filter(|c| c.0 == ports) {
                    insts.push(construct(tr, p, &topo, policy, algo, cfg.topo_seed));
                }
            }
            insts
        });
        for (inst, (ports, policy, algo)) in insts.iter().zip(cells(&cfg)) {
            certify(
                r,
                &inst.cg,
                &inst.table,
                &format!("{algo} {policy:?} {ports}p"),
            );
            digest_turns(&mut r.digest, &inst.cg, &inst.table);
            digest_costs(&mut r.digest, &inst.cg, &inst.tables, 1);
        }
        if tr.is_on() {
            r.add("turns.table_fill_calls", downup_cells(&cfg) as f64);
            if k == 0 {
                check_split_construction(r, &cfg, &insts);
            }
        }
    }

    let mut k = 0;
    while k < size.min_samples || r.spent() < 1.0 {
        let prefix = k < size.min_samples;
        let cfg = config(size, seed, k);
        let points = if tr.is_on() {
            traced_grid(r, &cfg, prefix)
        } else {
            grid(r, &cfg)
        };
        r.end_unit();
        if prefix {
            for (m, deadlocked) in &points {
                digest_point(&mut r.digest, m, *deadlocked);
            }
        }
        k += 1;
    }
}

/// Checks the first DOWN/UP instance the traced set-up built from its
/// layers against the one-call construction `Algo::construct` makes.
fn check_split_construction(r: &mut Run, cfg: &ExperimentConfig, insts: &[Instance]) {
    let cells = cells(cfg);
    let Some(i) = cells
        .iter()
        .position(|c| matches!(c.2, Algo::DownUp { .. }))
    else {
        return;
    };
    let (ports, policy, Algo::DownUp { release }) = cells[i] else {
        unreachable!("position found a DOWN/UP cell");
    };
    let topo = topology(
        &Tracer::new(false),
        None,
        cfg.num_switches,
        ports,
        cfg.topo_seed,
    );
    let builder = DownUp::new()
        .policy(policy)
        .seed(cfg.topo_seed)
        .release(release);
    check_split(r, &topo, builder, &insts[i].table, &insts[i].tables);
}

/// One sample through the library's grid runner: `(metrics, deadlocked)`
/// per load point, cell-major.
fn grid(r: &mut Run, cfg: &ExperimentConfig) -> Vec<(PaperMetrics, bool)> {
    let res = r.op(|_| run_grid_with_stats(cfg));
    let n_cells = cells(cfg).len();
    let (results, stats) = match res {
        Ok(ok) => ok,
        Err(e) => {
            r.errors.push(format!("grid: {e}"));
            return Vec::new();
        }
    };
    r.check(
        stats.points_run == n_cells * cfg.rates.len()
            && stats.instances_built == n_cells
            && stats.topologies_built == cfg.ports.len(),
        || format!("grid built or ran the wrong amount of work: {stats:?}"),
    );
    r.attempted += stats.points_run as u64;
    let mut points = Vec::new();
    for cell in &results.cells {
        r.failed += u64::from(cell.deadlocked_runs);
        for p in &cell.points {
            points.push((p.metrics, p.deadlocked_samples > 0));
        }
    }
    check_points(r, &points);
    points
}

/// The seed the grid derives for a cell's curve (sample index 0 of a
/// one-sample grid). The traced loop must reproduce the grid's outputs
/// bit for bit, which the multi-run mode checks through the digest.
fn curve_seed(cfg: &ExperimentConfig, cell: usize) -> u64 {
    cfg.sim_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(cell as u64)
}

/// One sample through the benchmark's own loop, issuing the grid's calls
/// on the same thread count with a span around each.
fn traced_grid(r: &mut Run, cfg: &ExperimentConfig, prefix: bool) -> Vec<(PaperMetrics, bool)> {
    let tr = r.tr;
    let cells = cells(cfg);
    let n_rates = cfg.rates.len();
    let total = cells.len() * n_rates;
    let topos: Vec<OnceLock<Topology>> = cfg.ports.iter().map(|_| OnceLock::new()).collect();
    let insts: Vec<OnceLock<Instance>> = cells.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, PaperMetrics, SimStats)>> = Mutex::new(Vec::new());
    r.op(|op| {
        let worker = || {
            let mut local = Vec::new();
            loop {
                let t = next.fetch_add(1, Ordering::Relaxed);
                if t >= total {
                    break;
                }
                let (cell, ri) = (t / n_rates, t % n_rates);
                let (ports, policy, algo) = cells[cell];
                let inst = insts[cell].get_or_init(|| {
                    let pi = cfg
                        .ports
                        .iter()
                        .position(|&p| p == ports)
                        .expect("cell ports");
                    let topo = topos[pi]
                        .get_or_init(|| topology(tr, op, cfg.num_switches, ports, cfg.topo_seed));
                    construct(tr, op, topo, policy, algo, cfg.topo_seed)
                });
                let sim = SimConfig {
                    injection_rate: cfg.rates[ri],
                    ..cfg.sim
                };
                let seed = sweep::point_seed(curve_seed(cfg, cell), ri);
                let stats = tr.span("sim.run", op, |_| {
                    Simulator::new(&inst.cg, &inst.tables, sim, seed).run()
                });
                let m = tr.span("metrics.paper_metrics", op, |_| {
                    PaperMetrics::compute(&stats, &inst.cg, &inst.tree)
                });
                local.push((t, m, stats));
            }
            done.lock().expect("a worker panicked").append(&mut local);
        };
        std::thread::scope(|s| {
            for _ in 0..cfg.threads.max(1) {
                s.spawn(worker);
            }
        });
    });
    let mut done = done.into_inner().expect("a worker panicked");
    done.sort_by_key(|d| d.0);
    let mut points = Vec::new();
    for (t, m, stats) in &done {
        record_run(r, stats, prefix, &format!("fig8 point {t}"));
        points.push((*m, stats.deadlocked));
    }
    r.check(insts.iter().all(|i| i.get().is_some()), || {
        "traced grid skipped a cell".into()
    });
    if prefix {
        r.add("turns.table_fill_calls", downup_cells(cfg) as f64);
    }
    check_points(r, &points);
    points
}

fn downup_cells(cfg: &ExperimentConfig) -> usize {
    cells(cfg)
        .iter()
        .filter(|c| matches!(c.2, Algo::DownUp { .. }))
        .count()
}

/// Accepted traffic is a share of a flit per node per cycle, and latency a
/// non-negative cycle count (NaN when no packet was delivered).
fn check_points(r: &mut Run, points: &[(PaperMetrics, bool)]) {
    for (m, _) in points {
        let latency_ok = m.avg_latency.is_nan() || (0.0..f64::INFINITY).contains(&m.avg_latency);
        r.check(
            (0.0..=1.0).contains(&m.accepted_traffic) && latency_ok,
            || format!("implausible grid point {m:?}"),
        );
    }
}

fn digest_point(d: &mut Digest, m: &PaperMetrics, deadlocked: bool) {
    for v in [
        m.node_utilization,
        m.traffic_load,
        m.hot_spot_degree,
        m.leaf_utilization,
        m.avg_latency,
        m.accepted_traffic,
    ] {
        d.f64(v);
    }
    d.u64(u64::from(deadlocked));
}
