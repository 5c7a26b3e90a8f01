//! `perf` — the simulator-core performance harness behind `BENCH_sim.json`.
//!
//! Measures wall-clock cycles/second and flit-hops/second of the wormhole
//! simulator at low / mid / saturation offered load on fabrics from 32 up
//! to 4096 switches, for both scheduling cores (the occupancy-driven
//! active-set core and the dense reference scan), plus the construction
//! cost (topology generation and DOWN/UP routing construction) of each
//! fabric, and writes a machine-readable report so later PRs can prove
//! perf non-regression.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p irnet-bench --bin perf -- [--quick] \
//!     [--sizes 32,1024] [--out BENCH_sim.json] [--seed 7] [--reps 2]
//! ```
//!
//! `--quick` restricts the sweep to the 32-switch fabric (the CI
//! `perf-smoke` job); the default sweep covers 32/128/512/1024/2048/4096
//! switches. `--sizes` overrides either preset with an explicit
//! comma-separated list of switch counts. Timing is reported, never
//! asserted — CI fails only on panic or invalid JSON.
//!
//! ## `BENCH_sim.json` schema (`schema_version` 5)
//!
//! ```json
//! {
//!   "schema_version": 5,
//!   "bench": "sim_core",
//!   "backend": "flit",
//!   "quick": false,
//!   "packet_len": 32,
//!   "seed": 7,
//!   "reps": 2,
//!   "construction": [
//!     {
//!       "switches": 128, "ports": 8, "channels": 1004,
//!       "topology_seconds": 0.0008,
//!       "construct_seconds": 0.0231,
//!       "construct_micros_per_switch": 180.5,
//!       "phase1_seconds": 0.0009,
//!       "phase2_seconds": 0.0004,
//!       "phase3_seconds": 0.0122,
//!       "tables_seconds": 0.0096
//!     }
//!   ],
//!   "results": [
//!     {
//!       "switches": 128, "ports": 8,
//!       "load": "low", "injection_rate": 0.002,
//!       "core": "active_set",
//!       "warmup_cycles": 1000, "measure_cycles": 8000,
//!       "total_cycles": 9000, "wall_seconds": 0.0042,
//!       "cycles_per_sec": 2142857.1,
//!       "flit_hops": 20816, "flit_hops_per_sec": 4956190.5,
//!       "packets_delivered": 638, "deadlocked": false
//!     }
//!   ],
//!   "speedups": [
//!     {
//!       "switches": 128, "ports": 8,
//!       "load": "low", "injection_rate": 0.002,
//!       "active_cycles_per_sec": 2142857.1,
//!       "dense_cycles_per_sec": 301003.3,
//!       "speedup": 7.12
//!     }
//!   ],
//!   "repair": [
//!     {
//!       "switches": 128, "ports": 8, "strategy": "incremental",
//!       "classify_seconds": 0.00002, "phases_seconds": 0.0011,
//!       "patch_seconds": 0.0006, "recertify_seconds": 0.0001,
//!       "total_seconds": 0.0018,
//!       "touched_switches": 9, "touched_rows": 1204,
//!       "patched_in_place": true
//!     }
//!   ],
//!   "flow": [
//!     {
//!       "switches": 128, "ports": 8,
//!       "predict_seconds": 0.61,
//!       "warm_point_seconds": 0.0009,
//!       "cluster_count": 31,
//!       "representative_sims": 44,
//!       "rep_sim_seconds": 0.55,
//!       "predicted_saturation": 0.3870,
//!       "speedup_vs_exact": 212.4
//!     }
//!   ]
//! }
//! ```
//!
//! * `construction` holds one entry per fabric: `topology_seconds` is the
//!   random-irregular generation time (the `topology/gen` span),
//!   `construct_seconds` the DOWN/UP routing construction time (the
//!   `construction` span: Phases 1–3 and the routing-table build), each
//!   the fastest of `reps` runs, and
//!   `construct_micros_per_switch` = `construct_seconds / switches` in µs —
//!   the normalized metric regression runs track across sizes. The
//!   `phase*_seconds`/`tables_seconds` spans break the fastest
//!   construction run down by pipeline stage (tree + comm graph, turn
//!   prohibition, release pass, routing-table build).
//! * `results` holds one entry per `(fabric, load, core)`; `wall_seconds`
//!   is the fastest of `reps` identical runs (same seed, so identical
//!   work), which filters scheduler noise.
//! * `flit_hops` is the number of inter-switch link traversals during the
//!   measurement window (`sum(channel_flits)`).
//! * `speedups` pairs the two cores per `(fabric, load)`:
//!   `speedup = active_cycles_per_sec / dense_cycles_per_sec`.
//!
//! Schema v2 is a superset of v1: it adds the `construction` array, so v1
//! consumers that only read `results`/`speedups` keep working. Schema v3
//! adds the per-phase span fields to each `construction` entry (again a
//! pure superset). Schema v4 adds the `repair` array: per fabric, the cost
//! of repairing one cross-link failure (the first non-tree link — never a
//! bridge, since the coordinated tree survives without it) under both the
//! `full` rebuild and the `incremental` patching strategy, each the
//! fastest of `reps` runs, broken down into the four repair-stage spans
//! (`repair/{classify,phases,patch,recertify}` in the telemetry span
//! tree, which is where this harness reads them from).
//!
//! Schema v5 adds the top-level `backend` tag (always `"flit"` for this
//! harness — `perf_compare` refuses to diff reports whose backends differ)
//! and the `flow` array: per fabric, the flow-level backend's whole-ladder
//! prediction cost (`predict_seconds`, including the decomposition,
//! saturation probe, and every representative sim), the steady-state
//! marginal cost of one warm-cache operating-point query
//! (`warm_point_seconds`), the cluster/sim counts behind it, and
//! `speedup_vs_exact` — the exact engine's saturation-load run wall time
//! divided by `warm_point_seconds` (`null` where no exact run exists).

use irnet_bench::parse_args;
use irnet_core::{DownUp, DownUpRouting};
use irnet_flow::{FlowConfig, FlowPredictor};
use irnet_sim::{EngineCore, SimConfig, SimStats, Simulator};
use irnet_telemetry::{Snapshot, Telemetry};
use irnet_topology::{gen, Topology};
use serde::Serialize;
use std::time::Instant;

const USAGE: &str = "perf — simulator-core performance harness (BENCH_sim.json)

options:
  --quick        32-switch fabric only (CI-sized)
  --sizes LIST   comma-separated switch counts (overrides --quick/default)
  --out PATH     output path (default BENCH_sim.json)
  --seed N       topology + simulation seed (default 7)
  --reps N       timed repetitions per point, fastest wins (default 2)
";

/// A generated fabric: the topology plus its constructed DOWN/UP routing.
struct Fabric {
    topo: Topology,
    routing: DownUpRouting,
}

/// One timed `(fabric, load, core)` measurement.
#[derive(Serialize)]
struct CoreResult {
    switches: u32,
    ports: u32,
    load: String,
    injection_rate: f64,
    core: String,
    warmup_cycles: u32,
    measure_cycles: u32,
    total_cycles: u64,
    wall_seconds: f64,
    cycles_per_sec: f64,
    flit_hops: u64,
    flit_hops_per_sec: f64,
    packets_delivered: u64,
    deadlocked: bool,
}

/// Active-set vs dense-reference pairing for one `(fabric, load)`.
#[derive(Serialize)]
struct Speedup {
    switches: u32,
    ports: u32,
    load: String,
    injection_rate: f64,
    active_cycles_per_sec: f64,
    dense_cycles_per_sec: f64,
    speedup: f64,
}

/// Construction cost of one fabric (topology generation and DOWN/UP
/// routing construction timed separately; fastest of `reps` runs).
#[derive(Serialize)]
struct ConstructionResult {
    switches: u32,
    ports: u32,
    channels: u32,
    topology_seconds: f64,
    construct_seconds: f64,
    construct_micros_per_switch: f64,
    phase1_seconds: f64,
    phase2_seconds: f64,
    phase3_seconds: f64,
    tables_seconds: f64,
}

/// Cost of repairing one cross-link failure on a fabric under one
/// [`RepairStrategy`](irnet_core::RepairStrategy) (fastest of `reps` runs).
#[derive(Serialize)]
struct RepairResult {
    switches: u32,
    ports: u32,
    strategy: String,
    classify_seconds: f64,
    phases_seconds: f64,
    patch_seconds: f64,
    recertify_seconds: f64,
    total_seconds: f64,
    touched_switches: u32,
    touched_rows: u64,
    patched_in_place: bool,
}

/// Flow-level backend cost on one fabric: whole-ladder prediction wall,
/// warm-cache marginal per-point cost, and the speedup over the exact
/// engine's saturation-load run (`None` when no exact run exists).
#[derive(Serialize)]
struct FlowResult {
    switches: u32,
    ports: u32,
    predict_seconds: f64,
    warm_point_seconds: f64,
    cluster_count: usize,
    representative_sims: usize,
    rep_sim_seconds: f64,
    predicted_saturation: f64,
    speedup_vs_exact: Option<f64>,
}

/// The whole `BENCH_sim.json` document.
#[derive(Serialize)]
struct BenchReport {
    schema_version: u32,
    bench: String,
    backend: String,
    quick: bool,
    packet_len: u32,
    seed: u64,
    reps: u32,
    construction: Vec<ConstructionResult>,
    results: Vec<CoreResult>,
    speedups: Vec<Speedup>,
    repair: Vec<RepairResult>,
    flow: Vec<FlowResult>,
}

/// Offered-load operating points (label, flits/node/clock).
const LOADS: [(&str, f64); 3] = [("low", 0.002), ("mid", 0.02), ("saturation", 0.5)];
const PACKET_LEN: u32 = 32;

fn core_label(core: EngineCore) -> &'static str {
    match core {
        EngineCore::ActiveSet => "active_set",
        EngineCore::DenseReference => "dense_reference",
    }
}

/// Measurement-window length per fabric size (larger fabrics get fewer
/// cycles so the dense reference stays affordable).
fn measure_cycles(switches: u32) -> u32 {
    match switches {
        0..=63 => 16_000,
        64..=255 => 8_000,
        256..=1023 => 4_000,
        _ => 2_000,
    }
}

/// Builds the fabric for `switches`, timing topology generation and
/// DOWN/UP construction separately (fastest of `reps` attempts each). Both
/// timings are read from the telemetry span tree each run records: the
/// `topology/gen` span and the `construction` span with its per-phase
/// children (a fresh registry per rep, so "fastest run" picks a coherent
/// set of spans rather than a mix of reps).
fn build_fabric(switches: u32, ports: u32, seed: u64, reps: u32) -> (Fabric, ConstructionResult) {
    let params = gen::IrregularParams::paper(switches, ports);
    let mut topo_best = f64::INFINITY;
    let mut construct_best = f64::INFINITY;
    let mut best_snap: Option<Snapshot> = None;
    let mut fabric = None;
    for _ in 0..reps.max(1) {
        let tel = Telemetry::enabled();
        let (topo, routing) = tel.scope(|| {
            let span = tel.span("topology/gen");
            let topo = gen::random_irregular(params, seed).expect("topology generation failed");
            span.finish();
            let routing = DownUp::new()
                .construct(&topo)
                .expect("routing construction failed");
            (topo, routing)
        });
        let snap = tel.snapshot();
        let sec = |path: &str| snap.span_seconds(path).unwrap_or(0.0);
        topo_best = topo_best.min(sec("topology/gen"));
        if sec("construction") < construct_best {
            construct_best = sec("construction");
            best_snap = Some(snap);
        }
        fabric = Some(Fabric { topo, routing });
    }
    let fabric = fabric.expect("at least one rep");
    let snap = best_snap.expect("at least one rep");
    let sec = |path: &str| snap.span_seconds(path).unwrap_or(0.0);
    let stats = ConstructionResult {
        switches,
        ports,
        channels: fabric.routing.comm_graph().num_channels(),
        topology_seconds: topo_best,
        construct_seconds: construct_best,
        construct_micros_per_switch: construct_best * 1e6 / f64::from(switches),
        phase1_seconds: sec("construction/phase1"),
        phase2_seconds: sec("construction/phase2"),
        phase3_seconds: sec("construction/phase3"),
        tables_seconds: sec("construction/tables"),
    };
    (fabric, stats)
}

/// Times the repair of a single cross-link failure (the first non-tree
/// link — never a bridge, because the coordinated tree spans the graph
/// without it) under both repair strategies, fastest of `reps` runs each.
/// Stage timings and touch counts are read back from the telemetry span
/// tree / counters each repair records (one fresh registry per rep keeps
/// the winning rep's numbers coherent). Returns an empty vector on the
/// degenerate all-tree fabric.
fn bench_repair(fabric: &Fabric, switches: u32, ports: u32, reps: u32) -> Vec<RepairResult> {
    use irnet_core::{plan_epochs_timeline_with, RepairStrategy};
    use irnet_topology::{DampingPolicy, FaultEvent, FaultKind, FaultPlan, RecoveryTimeline};

    let tree = fabric.routing.tree();
    let mut cross = None;
    for (l, &(a, b)) in fabric.topo.links().iter().enumerate() {
        if !tree.is_tree_link(u32::try_from(l).expect("link count fits u32")) {
            cross = Some((a, b));
            break;
        }
    }
    let Some((a, b)) = cross else {
        return Vec::new();
    };
    let plan = FaultPlan::scripted([FaultEvent::down(1_000, FaultKind::Link { a, b })]);
    let timeline = RecoveryTimeline::compute(&fabric.topo, &plan, DampingPolicy::none())
        .expect("a cross link of the fabric is a valid fault");
    let mut out = Vec::new();
    for strategy in [RepairStrategy::Full, RepairStrategy::Incremental] {
        let mut best: Option<Snapshot> = None;
        let mut best_total = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let tel = Telemetry::enabled();
            let epochs = tel
                .scope(|| {
                    plan_epochs_timeline_with(
                        &fabric.topo,
                        fabric.routing.comm_graph(),
                        fabric.routing.turn_table(),
                        fabric.routing.routing_tables(),
                        &timeline,
                        DownUp::new(),
                        strategy,
                        None,
                    )
                })
                .expect("cross-link repair failed");
            assert_eq!(epochs.len(), 1, "one fault event yields one repair epoch");
            let snap = tel.snapshot();
            let total = snap
                .span_seconds("repair")
                .expect("repair records its span");
            if total < best_total {
                best_total = total;
                best = Some(snap);
            }
        }
        let snap = best.expect("at least one rep");
        let sec = |path: &str| snap.span_seconds(path).unwrap_or(0.0);
        let cnt = |name: &str| snap.counter(name).unwrap_or(0);
        eprintln!(
            "  repair {:>12}: {:>9.4}s  (classify {:.4} + phases {:.4} + \
             patch {:.4} + recertify {:.4}), {} switch(es) / {} row(s)",
            strategy.name(),
            best_total,
            sec("repair/classify"),
            sec("repair/phases"),
            sec("repair/patch"),
            sec("repair/recertify"),
            cnt("repair/touched_switches"),
            cnt("repair/touched_rows"),
        );
        out.push(RepairResult {
            switches,
            ports,
            strategy: strategy.name().to_string(),
            classify_seconds: sec("repair/classify"),
            phases_seconds: sec("repair/phases"),
            patch_seconds: sec("repair/patch"),
            recertify_seconds: sec("repair/recertify"),
            total_seconds: best_total,
            touched_switches: u32::try_from(cnt("repair/touched_switches"))
                .expect("touched switches fit u32"),
            touched_rows: cnt("repair/touched_rows"),
            patched_in_place: cnt("repair/patched_in_place") > 0,
        });
    }
    out
}

/// Measures the flow-level backend on one fabric: predictor build + the
/// full `LOADS` ladder (`predict_seconds`, with its representative-sim
/// share read from the `flow/rep_sim` span), then the warm-cache marginal
/// cost of three fresh operating points around the predicted saturation
/// knee (`warm_point_seconds`). `exact_sat_wall` is the exact engine's
/// saturation-load active-set wall time, the baseline for
/// `speedup_vs_exact`.
fn bench_flow(
    fabric: &Fabric,
    switches: u32,
    ports: u32,
    seed: u64,
    exact_sat_wall: Option<f64>,
) -> FlowResult {
    let base = SimConfig {
        packet_len: PACKET_LEN,
        warmup_cycles: 1_000,
        measure_cycles: measure_cycles(switches),
        ..SimConfig::default()
    };
    let cfg = FlowConfig::default();
    let rates: Vec<f64> = LOADS.iter().map(|&(_, r)| r).collect();
    // The predictor records into the registry it was built under, so the
    // span is read after the ladder and before the warm queries add to it.
    let tel = Telemetry::enabled();
    let start = Instant::now();
    let mut pred = tel.scope(|| {
        FlowPredictor::build(
            &fabric.topo,
            fabric.routing.tree(),
            fabric.routing.comm_graph(),
            fabric.routing.turn_table(),
            &base,
            seed,
            &cfg,
        )
    });
    let curve = pred.curve(&rates);
    let predict_seconds = start.elapsed().as_secs_f64();
    let rep_sim_seconds = tel.snapshot().span_seconds("flow/rep_sim").unwrap_or(0.0);
    let sat = pred.saturation();
    let warm_rates = [0.97 * sat, sat, 1.03 * sat];
    let warm_start = Instant::now();
    for r in warm_rates {
        let _ = pred.point(r);
    }
    let warm_point_seconds = warm_start.elapsed().as_secs_f64() / warm_rates.len() as f64;
    FlowResult {
        switches,
        ports,
        predict_seconds,
        warm_point_seconds,
        cluster_count: curve.cluster_count,
        representative_sims: curve.representative_sims,
        rep_sim_seconds,
        predicted_saturation: sat,
        speedup_vs_exact: exact_sat_wall.map(|w| w / warm_point_seconds.max(1e-9)),
    }
}

fn time_run(fabric: &Fabric, cfg: SimConfig, seed: u64, reps: u32) -> (f64, SimStats) {
    let cg = fabric.routing.comm_graph();
    let rt = fabric.routing.routing_tables();
    let mut best = f64::INFINITY;
    let mut stats = None;
    for _ in 0..reps.max(1) {
        let sim = Simulator::new(cg, rt, cfg, seed);
        let start = Instant::now();
        let s = sim.run();
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed < best {
            best = elapsed;
        }
        stats = Some(s);
    }
    (best, stats.expect("at least one rep"))
}

fn main() {
    let cli = parse_args(std::env::args(), USAGE);
    let quick = cli.flag("quick");
    let out_path = cli.opt("out").unwrap_or("BENCH_sim.json").to_string();
    let seed: u64 = cli.opt_parse("seed", 7);
    let reps: u32 = cli.opt_parse("reps", 2);

    const PORTS: u32 = 8;
    let sizes: Vec<(u32, u32)> = if let Some(list) = cli.opt("sizes") {
        list.split(',')
            .map(|s| {
                let n = s
                    .trim()
                    .parse::<u32>()
                    .unwrap_or_else(|_| panic!("--sizes: `{s}` is not a switch count"));
                (n, PORTS)
            })
            .collect()
    } else if quick {
        vec![(32, PORTS)]
    } else {
        vec![
            (32, PORTS),
            (128, PORTS),
            (512, PORTS),
            (1024, PORTS),
            (2048, PORTS),
            (4096, PORTS),
        ]
    };

    let mut construction = Vec::new();
    let mut results = Vec::new();
    let mut speedups = Vec::new();
    let mut repair = Vec::new();
    let mut flow = Vec::new();
    for &(switches, ports) in &sizes {
        eprintln!("building {switches}-switch/{ports}-port fabric...");
        let (fabric, built) = build_fabric(switches, ports, seed, reps);
        eprintln!(
            "  topology {:>9.4}s  construct {:>9.4}s  ({:.1} us/switch)",
            built.topology_seconds, built.construct_seconds, built.construct_micros_per_switch,
        );
        eprintln!(
            "  spans: phase1 {:>9.4}s  phase2 {:>9.4}s  phase3 {:>9.4}s  tables {:>9.4}s",
            built.phase1_seconds, built.phase2_seconds, built.phase3_seconds, built.tables_seconds,
        );
        construction.push(built);
        repair.extend(bench_repair(&fabric, switches, ports, reps));
        let mut exact_sat_wall = None;
        for (load, rate) in LOADS {
            let cfg = SimConfig {
                packet_len: PACKET_LEN,
                injection_rate: rate,
                warmup_cycles: 1_000,
                measure_cycles: measure_cycles(switches),
                ..SimConfig::default()
            };
            let mut cps = [0.0f64; 2];
            for (k, core) in [EngineCore::ActiveSet, EngineCore::DenseReference]
                .into_iter()
                .enumerate()
            {
                let run_cfg = SimConfig {
                    engine_core: core,
                    ..cfg
                };
                let (wall, stats) = time_run(&fabric, run_cfg, seed, reps);
                if load == "saturation" && core == EngineCore::ActiveSet {
                    exact_sat_wall = Some(wall);
                }
                let total_cycles = cfg.total_cycles() as u64;
                let flit_hops: u64 = stats.channel_flits.iter().sum();
                let cycles_per_sec = total_cycles as f64 / wall;
                cps[k] = cycles_per_sec;
                eprintln!(
                    "  {switches}sw {load:>10} {:<15} {:>12.0} cycles/s  \
                     {:>12.0} flit-hops/s",
                    core_label(core),
                    cycles_per_sec,
                    flit_hops as f64 / wall,
                );
                results.push(CoreResult {
                    switches,
                    ports,
                    load: load.to_string(),
                    injection_rate: rate,
                    core: core_label(core).to_string(),
                    warmup_cycles: cfg.warmup_cycles,
                    measure_cycles: cfg.measure_cycles,
                    total_cycles,
                    wall_seconds: wall,
                    cycles_per_sec,
                    flit_hops,
                    flit_hops_per_sec: flit_hops as f64 / wall,
                    packets_delivered: stats.packets_delivered,
                    deadlocked: stats.deadlocked,
                });
            }
            speedups.push(Speedup {
                switches,
                ports,
                load: load.to_string(),
                injection_rate: rate,
                active_cycles_per_sec: cps[0],
                dense_cycles_per_sec: cps[1],
                speedup: cps[0] / cps[1],
            });
        }
        let f = bench_flow(&fabric, switches, ports, seed, exact_sat_wall);
        eprintln!(
            "  flow: predict {:>9.4}s  warm point {:>9.6}s  ({} clusters, {} rep sims)",
            f.predict_seconds, f.warm_point_seconds, f.cluster_count, f.representative_sims,
        );
        flow.push(f);
    }

    for c in &construction {
        println!(
            "{:>4} switches  construct {:>9.4}s  ({:.1} us/switch)",
            c.switches, c.construct_seconds, c.construct_micros_per_switch
        );
    }
    for s in &speedups {
        println!(
            "{:>4} switches  {:>10} load  active/dense speedup: {:.2}x",
            s.switches, s.load, s.speedup
        );
    }
    for pair in repair.chunks(2) {
        if let [full, incr] = pair {
            println!(
                "{:>4} switches  cross-link repair  full {:>9.4}s  \
                 incremental {:>9.4}s  ({:.1}x faster)",
                full.switches,
                full.total_seconds,
                incr.total_seconds,
                full.total_seconds / incr.total_seconds
            );
        }
    }
    for f in &flow {
        println!(
            "{:>4} switches  flow predict {:>9.4}s  warm point {:>9.6}s{}",
            f.switches,
            f.predict_seconds,
            f.warm_point_seconds,
            f.speedup_vs_exact
                .map_or_else(String::new, |s| format!("  ({s:.0}x vs exact sat point)")),
        );
    }

    let report = BenchReport {
        schema_version: 5,
        bench: "sim_core".to_string(),
        backend: "flit".to_string(),
        quick,
        packet_len: PACKET_LEN,
        seed,
        reps,
        construction,
        results,
        speedups,
        repair,
        flow,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialization failed");
    std::fs::write(&out_path, json + "\n").expect("failed to write report");
    println!("wrote {out_path}");
}
