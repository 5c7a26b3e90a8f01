//! `flow_validate` — prediction-error harness for the flow-level backend.
//!
//! Runs both backends — the exact flit engine and the `irnet-flow`
//! decompose/cluster/generalize predictor — over the same offered-load
//! ladder on 32–512-switch fabrics, reports per-size saturation-throughput
//! and median-latency error on stdout and the wall-clock speedup on
//! stderr (so two runs' stdout match byte for byte), and (under
//! `--quick` / `--enforce`) fails when any size's error exceeds a pinned
//! tolerance. `--huge N` demonstrates the flow backend alone on a fabric
//! the flit engine cannot reach (no routing tables are ever built; the
//! decomposition works from the Phase-1..3 artifacts).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p irnet-bench --bin flow_validate -- \
//!     [--quick] [--enforce] [--sizes 32,128,512] [--seed 7] \
//!     [--steps 8] [--huge 65536]
//! ```

use irnet_bench::parse_args;
use irnet_core::DownUp;
use irnet_flow::{predict, FlowConfig, FlowPredictor};
use irnet_metrics::{sweep, Algo};
use irnet_sim::{SimConfig, Simulator};
use irnet_telemetry::{Progress, ProgressMode, Telemetry};
use irnet_topology::{gen, PreorderPolicy};
use std::time::Instant;

const USAGE: &str = "flow_validate — flow-backend prediction-error harness

options:
  --quick        32/128-switch grid (CI-sized) and enforce tolerances
  --enforce      enforce tolerances on any grid
  --sizes LIST   comma-separated switch counts (default 32,64,128,256,512)
  --seed N       topology + simulation seed (default 7)
  --steps N      offered-load ladder steps (default 8)
  --huge N       also run an N-switch flow-only sweep point (no tables)
  --progress [human|json]  per-size progress lines / JSONL heartbeats
";

/// Pinned error tolerances the CI `flow-smoke` job enforces at every
/// validated size (fraction of the exact engine's value).
pub const SAT_TOLERANCE: f64 = 0.10;
/// Median-latency tolerance, over non-saturated ladder points.
pub const MEDIAN_TOLERANCE: f64 = 0.15;

const PORTS: u32 = 8;
const PACKET_LEN: u32 = 32;

fn measure_cycles(switches: u32) -> u32 {
    match switches {
        0..=63 => 16_000,
        64..=255 => 8_000,
        256..=1023 => 4_000,
        _ => 2_000,
    }
}

struct SizeResult {
    switches: u32,
    exact_sat: f64,
    flow_sat: f64,
    sat_err: f64,
    median_err: Option<f64>,
    exact_seconds: f64,
    exact_sat_point_seconds: f64,
    flow_seconds: f64,
    /// Marginal cost of one warm-cache query at the saturation point —
    /// the steady-state per-point cost of sweeping with the flow backend.
    warm_point_seconds: f64,
    cluster_count: usize,
    representative_sims: usize,
}

/// Validates one fabric size. When `check_caches` is set (the `--quick` /
/// `--enforce` paths), the predictor runs with a local telemetry registry
/// attached and this function asserts the cache counters it exposes are
/// live: representative sims ran, the warm re-query hit the per-signature
/// rep-sim cache, and the route-convolution cache recorded both misses
/// (first build) and hits (reuse).
fn validate_size(switches: u32, seed: u64, steps: usize, check_caches: bool) -> SizeResult {
    let topo = gen::random_irregular(gen::IrregularParams::paper(switches, PORTS), seed)
        .expect("topology generation failed");
    let inst = Algo::DownUp { release: true }
        .construct(&topo, PreorderPolicy::M1, seed)
        .expect("routing construction failed");
    let rates = sweep::default_rates(steps);
    let base = SimConfig {
        packet_len: PACKET_LEN,
        warmup_cycles: 1_000,
        measure_cycles: measure_cycles(switches),
        ..SimConfig::default()
    };

    // Exact backend: one flit run per ladder point, same per-point seed
    // discipline as `sweep::sweep`.
    let mut exact_sat = 0.0f64;
    let mut exact_sat_point_seconds = 0.0f64;
    let mut exact_medians: Vec<Option<f64>> = Vec::with_capacity(rates.len());
    let mut exact_accepted: Vec<f64> = Vec::with_capacity(rates.len());
    let exact_start = Instant::now();
    for (i, &rate) in rates.iter().enumerate() {
        let cfg = SimConfig {
            injection_rate: rate,
            ..base
        };
        let t = Instant::now();
        let stats = Simulator::new(&inst.cg, &inst.tables, cfg, sweep::point_seed(seed, i)).run();
        let wall = t.elapsed().as_secs_f64();
        let accepted = stats.accepted_traffic();
        if accepted > exact_sat {
            exact_sat = accepted;
            exact_sat_point_seconds = wall;
        }
        exact_accepted.push(accepted);
        exact_medians.push(stats.latency_quantile(0.5).map(f64::from));
    }
    let exact_seconds = exact_start.elapsed().as_secs_f64();

    // Flow backend: build the predictor once, query the whole ladder.
    let cfg = FlowConfig::default();
    let tel = Telemetry::enabled();
    let flow_start = Instant::now();
    let mut pred = tel.scope(|| {
        FlowPredictor::build(&topo, &inst.tree, &inst.cg, &inst.table, &base, seed, &cfg)
    });
    let curve = pred.curve(&rates);
    let flow_seconds = flow_start.elapsed().as_secs_f64();
    let flow_sat = curve.max_throughput();

    // Steady-state marginal cost: re-query fresh operating points around
    // the saturation knee with the signature cache warm (this is what one
    // more sweep point costs once the predictor exists; any signature the
    // ladder has not yet covered still runs its sim and is charged here).
    let sat = pred.saturation();
    let warm_rates = [0.97 * sat, sat, 1.03 * sat];
    let warm_start = Instant::now();
    for r in warm_rates {
        let _ = pred.point(r);
    }
    let warm_point_seconds = warm_start.elapsed().as_secs_f64() / warm_rates.len() as f64;

    if check_caches {
        let snap = tel.snapshot();
        let cnt = |name: &str| snap.counter(name).unwrap_or(0);
        assert!(
            cnt("flow/rep_sims") > 0,
            "{switches}sw: no representative sims reached the registry"
        );
        assert!(
            cnt("flow/rep_sim_cache_hits") > 0,
            "{switches}sw: warm re-query never hit the per-signature rep-sim cache"
        );
        assert!(
            cnt("flow/route_cache_misses") > 0,
            "{switches}sw: route-convolution cache recorded no misses"
        );
        assert!(
            cnt("flow/route_cache_hits") > 0,
            "{switches}sw: route-convolution cache recorded no hits"
        );
        // The registry view and the predictor's own accessors are two
        // reads of the same events; they must agree exactly.
        assert_eq!(
            cnt("flow/rep_sim_cache_hits"),
            pred.rep_sim_cache_hits() as u64
        );
        assert_eq!(cnt("flow/route_cache_hits"), pred.route_cache_hits() as u64);
        assert_eq!(
            cnt("flow/route_cache_misses"),
            pred.route_cache_misses() as u64
        );
    }

    let sat_err = (flow_sat - exact_sat).abs() / exact_sat.max(1e-12);

    // Median-latency error over clearly non-saturated ladder points (the
    // saturated regime has no stable latency to compare against).
    let mut errs = Vec::new();
    for (i, &rate) in rates.iter().enumerate() {
        if rate > 0.7 * exact_sat {
            continue;
        }
        if let Some(em) = exact_medians[i] {
            let fm = curve.points[i].median_latency;
            errs.push((fm - em).abs() / em.max(1.0));
        }
    }
    let median_err = if errs.is_empty() {
        None
    } else {
        Some(errs.iter().sum::<f64>() / errs.len() as f64)
    };

    SizeResult {
        switches,
        exact_sat,
        flow_sat,
        sat_err,
        median_err,
        exact_seconds,
        exact_sat_point_seconds,
        flow_seconds,
        warm_point_seconds,
        cluster_count: curve.cluster_count,
        representative_sims: curve.representative_sims,
    }
}

fn run_huge(switches: u32, seed: u64) {
    println!("--- huge fabric demo: {switches} switches (flow backend only) ---");
    let t0 = Instant::now();
    let topo = gen::random_irregular(gen::IrregularParams::paper(switches, PORTS), seed)
        .expect("topology generation failed");
    eprintln!(
        "  topology: {} switches / {} links in {:.1}s",
        topo.num_nodes(),
        topo.num_links(),
        t0.elapsed().as_secs_f64()
    );
    let t1 = Instant::now();
    let (tree, cg, table, _released) = DownUp::new()
        .construct_phases(&topo)
        .expect("phase construction failed");
    eprintln!(
        "  phases 1-3 (no routing tables): {:.1}s, {} channels",
        t1.elapsed().as_secs_f64(),
        cg.num_channels()
    );
    let base = SimConfig {
        packet_len: PACKET_LEN,
        ..SimConfig::default()
    };
    let rates = [0.1f64];
    let t2 = Instant::now();
    let curve = predict(
        &topo,
        &tree,
        &cg,
        &table,
        &base,
        &rates,
        seed,
        &FlowConfig::default(),
    );
    let predict_seconds = t2.elapsed().as_secs_f64();
    let p = &curve.points[0];
    eprintln!(
        "  predict: {predict_seconds:.1}s  ({} dests sampled, {} clusters, {} rep sims)",
        curve.dests_sampled, curve.cluster_count, curve.representative_sims
    );
    println!(
        "  point @ offered {:.3}: accepted {:.4}  median {:.1}  p99 {:.1}  \
         saturation {:.4}{}",
        p.offered,
        p.accepted,
        p.median_latency,
        p.p99_latency,
        curve.sat_throughput,
        if p.saturated { "  [saturated]" } else { "" }
    );
    eprintln!("  total end-to-end: {:.1}s", t0.elapsed().as_secs_f64());
}

fn main() {
    let cli = parse_args(std::env::args(), USAGE);
    let quick = cli.flag("quick");
    let enforce = quick || cli.flag("enforce");
    let seed: u64 = cli.opt_parse("seed", 7);
    let steps: usize = cli.opt_parse("steps", 8);
    // Checked before the grid runs, so a bad value fails at once.
    let huge: Option<u32> = cli.opt("huge").map(|_| cli.opt_parse("huge", 0));
    if cli.flag("huge") || huge.is_some_and(|n| n < 2) {
        cli.reject("huge", "the demo fabric needs at least 2 switches");
    }
    let default_sizes: &[u32] = if quick {
        &[32, 128]
    } else {
        &[32, 64, 128, 256, 512]
    };
    let sizes: Vec<u32> = cli.opt_list("sizes", default_sizes);
    let progress = (cli.flag("progress") || cli.opt("progress").is_some()).then(|| {
        let mode = cli.opt("progress").map_or(ProgressMode::Human, |raw| {
            ProgressMode::parse(raw).unwrap_or_else(|| {
                eprintln!("unknown progress mode {raw:?} (expected human or json)");
                std::process::exit(2);
            })
        });
        Progress::new("flow_validate", sizes.len(), mode).unit("sizes")
    });

    println!("backend: flow vs flit  (seed {seed}, {steps}-step ladder, {PORTS} ports)");
    println!(
        "{:>6} {:>10} {:>10} {:>8} {:>8} {:>6} {:>5}",
        "size", "exact_sat", "flow_sat", "sat_err", "med_err", "clus", "sims"
    );
    let mut results = Vec::new();
    for (i, &sw) in sizes.iter().enumerate() {
        let r = validate_size(sw, seed, steps, enforce);
        if let Some(p) = &progress {
            p.tick(i + 1);
        }
        println!(
            "{:>6} {:>10.4} {:>10.4} {:>7.1}% {:>7} {:>6} {:>5}",
            r.switches,
            r.exact_sat,
            r.flow_sat,
            r.sat_err * 100.0,
            r.median_err
                .map_or_else(|| "-".to_string(), |e| format!("{:.1}%", e * 100.0)),
            r.cluster_count,
            r.representative_sims,
        );
        eprintln!(
            "{} switches: exact_s {:.3}  flow_s {:.3}  satpt_s {:.3}",
            r.switches, r.exact_seconds, r.flow_seconds, r.exact_sat_point_seconds
        );
        results.push(r);
    }

    let mean_sat_err = results.iter().map(|r| r.sat_err).sum::<f64>() / results.len() as f64;
    let med_errs: Vec<f64> = results.iter().filter_map(|r| r.median_err).collect();
    let mean_median_err = med_errs.iter().sum::<f64>() / med_errs.len().max(1) as f64;
    let total_exact: f64 = results.iter().map(|r| r.exact_seconds).sum();
    let total_flow: f64 = results.iter().map(|r| r.flow_seconds).sum();
    println!(
        "mean saturation error {:.1}% (tolerance {:.0}%)  mean median-latency error {:.1}% \
         (tolerance {:.0}%)",
        mean_sat_err * 100.0,
        SAT_TOLERANCE * 100.0,
        mean_median_err * 100.0,
        MEDIAN_TOLERANCE * 100.0
    );
    eprintln!(
        "whole-grid wall: exact {total_exact:.2}s  flow {total_flow:.2}s  ({:.1}x)",
        total_exact / total_flow.max(1e-9)
    );
    if let Some(r) = results.iter().find(|r| r.switches == 512) {
        // Steady-state sweeping: each additional flow point is clustering
        // + cached convolution, vs one full flit run for the exact engine.
        eprintln!(
            "512-switch saturation point: exact {:.3}s/point  flow (warm) {:.5}s/point  ({:.0}x)",
            r.exact_sat_point_seconds,
            r.warm_point_seconds,
            r.exact_sat_point_seconds / r.warm_point_seconds.max(1e-9)
        );
    }

    if let Some(n) = huge {
        run_huge(n, seed);
    }

    if enforce {
        let mut failed = false;
        for r in &results {
            if r.sat_err > SAT_TOLERANCE {
                eprintln!(
                    "FAIL: {} switches: saturation-throughput error {:.1}% exceeds the pinned \
                     {:.0}% tolerance",
                    r.switches,
                    r.sat_err * 100.0,
                    SAT_TOLERANCE * 100.0
                );
                failed = true;
            }
            if let Some(e) = r.median_err.filter(|&e| e > MEDIAN_TOLERANCE) {
                eprintln!(
                    "FAIL: {} switches: median-latency error {:.1}% exceeds the pinned {:.0}% \
                     tolerance",
                    r.switches,
                    e * 100.0,
                    MEDIAN_TOLERANCE * 100.0
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("tolerances met");
    }
}
