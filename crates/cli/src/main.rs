//! `irnet` — command-line interface to the workspace.
//!
//! Subcommands:
//!
//! * `gen`      — generate a random irregular topology (JSON to stdout/file)
//! * `analyze`  — static routability analysis: fabric statistics, the
//!   feasibility oracle (optionally through a fault scenario), and the four
//!   whole-table property audits; `--grid` sweeps the lint seed grids
//! * `verify`   — construct a routing over a topology and verify deadlock
//!   freedom + connectivity
//! * `lint`     — run the static deadlock-freedom certifier and routing
//!   lint battery (one target, or a seed grid when no `--topology` is given)
//! * `routes`   — print route statistics (and a sample route)
//! * `simulate` — run one wormhole simulation and print the paper metrics
//! * `faults`   — degrade the network with a fault plan, repair it epoch by
//!   epoch, certify every transition, and simulate through the failures
//! * `trace`    — run a simulation with the flight recorder attached and
//!   export the structured event recording as JSONL (optionally with an
//!   interval-sampled time series and deadlock forensics)
//! * `top`      — run one simulation and print its busiest channels/nodes
//!
//! Examples:
//!
//! ```text
//! irnet gen --switches 128 --ports 4 --seed 1 --out net.json
//! irnet verify --topology net.json --algo downup
//! irnet lint --topology net.json --algo downup --json
//! irnet lint --quick
//! irnet simulate --topology net.json --algo lturn --rate 0.1
//! irnet faults --topology net.json --scenario faults.json --json
//! ```
//!
//! Exit codes follow the contract in [`exit`]: 0 clean, 1 finding or
//! data/runtime error, 2 usage error (usage text printed).

mod exit;

use irnet_core::RepairStrategy;
use irnet_metrics::paper::PaperMetrics;
use irnet_metrics::{sweep, Algo, Instance};
use irnet_sim::{Halt, SimConfig, SimStats, Simulator};
use irnet_telemetry::{Progress, ProgressMode, Snapshot, Telemetry};
use irnet_topology::{
    gen, topology_from_json, topology_to_json, CommGraph, CoordinatedTree, FaultPlan,
    PreorderPolicy, Topology,
};
use irnet_turns::{verify_routing, ChannelDepGraph, TurnTable};
use irnet_verify::{LintReport, Severity, Verdict};
use serde::{Serialize, Value};
use std::collections::BTreeMap;

const USAGE: &str = "irnet <gen|analyze|verify|lint|routes|simulate|sweep|export|render|replay|\
faults|trace|soak|top|stats> [options]

common options:
  --topology FILE     read a topology JSON (otherwise --switches/--ports/--seed generate one)
  --switches N        switches for generated topologies (default 64)
  --ports N           port budget (default 4)
  --seed N            generation seed (default 1)
  --algo NAME         downup | downup-norelease | lturn | updown-bfs | updown-dfs (default downup)
  --policy M1|M2|M3   coordinated-tree preorder policy (default M1)
  --telemetry FILE    attach the telemetry registry (counters, gauges,
                      histograms, span tree) and write its JSON snapshot to
                      FILE when the command finishes; all outputs stay
                      bit-identical with or without it
  --progress [MODE]   progress lines on stderr where the command supports
                      them; MODE is human (default) or json (one JSONL
                      heartbeat per tick: done/total/elapsed/ETA)

gen options:
  --out FILE          write the topology JSON to FILE (default stdout)

analyze options:
  --scenario FILE     judge every state this fault plan (same format as
                      `faults`) passes through with the feasibility oracle,
                      then audit the fabric the plan leaves behind; the
                      first infeasible state is reported with a minimized
                      obstruction and exit 1
  --json              print the analysis report as versioned JSON
  --grid              sweep the lint seed grids (oracle + audits per cell)
  --quick / --full    grid size (as for lint)

lint options:
  --json              print the lint report as JSON (single-target mode)
  --quick             grid mode: small seed grid (the default without --topology)
  --full              grid mode: larger seed grid

simulate options:
  --rate R            offered load, flits/node/clock (default 0.1)
  --packet-len N      flits per packet (default 128)
  --warmup N          warm-up cycles (default 2000)
  --measure N         measured cycles (default 8000)
  --vcs N             virtual channels (default 1)
  --sim-seed N        simulation seed (default 7)
  --watchdog N        deadlock watchdog threshold: abort after N cycles
                      without flit progress while packets are live
                      (default 20000)

sweep options (in addition to the simulate options):
  --rates r1,r2,...   offered-load ladder (default an 8-step ramp)
  --backend NAME      flit (exact engine, default) | flow (flow-level
                      predictor: analytic decomposition + clustered
                      representative sims); the CSV header line reports
                      which backend produced the curve
  --progress [MODE]   per-point progress (done/total, elapsed, ETA) on stderr

export options:
  --out FILE          write the forwarding tables (irnet-fwd v1) to FILE

render options (in addition to the simulate options):
  --out FILE          write an SVG of the network in coordinated-tree
                      layout, switches colored by measured utilization

replay options:
  --trace FILE        trace to replay: CSV (time,src,dst) or JSONL
                      ({\"time\":..,\"src\":..,\"dst\":..} per line, picked by a
                      .jsonl extension or a leading '{'); without it a
                      synthetic uniform trace is generated
  --trace-packets N   synthetic trace size (default 500)
  --trace-span N      synthetic trace injection window in clocks (default 4000)

trace options (in addition to the simulate options):
  --events N          flight-recorder ring capacity, events kept (default 65536)
  --out FILE          write the JSONL recording to FILE (default stdout)
  --sample-every N    also sample live counters every N cycles (default off)
  --series FILE       write the sampled time series as CSV to FILE
  --scenario FILE     inject a fault plan (same format as `faults`; DOWN/UP only)
  --no-repair         apply the fault epochs without repairing the routing
                      tables, then drain: wedges worms on the dead resources
                      so the watchdog and forensics fire deterministically
  --incident FILE     write the deadlock-forensics JSON to FILE when the
                      watchdog fires (default: summary on stderr only)

top options (in addition to the simulate options):
  --k N               rows per table (default 10)

faults options (in addition to the simulate options; DOWN/UP only):
  --incident FILE     write deadlock-forensics JSON to FILE if the watchdog
                      aborts the simulation
  --scenario FILE     fault-plan JSON: {\"events\":[{\"cycle\":N,\"link\":[a,b]},
                      {\"cycle\":N,\"switch\":v}, ...]}; version-2 plans add
                      recovery (\"recovers_at\":N) and flap schedules
                      (\"flap\":{\"period\":N,\"count\":K}) per event
  --random-links N    without --scenario: draw N random link faults (default 1)
  --random-switches N without --scenario: draw N random switch faults (default 0)
  --fault-window N    random activations fall in [warmup, warmup+N]
                      (default measure/2)
  --fault-seed N      fault-plan randomization seed (default 13)
  --repair STRAT      repair strategy: `full` rebuilds the routing tables
                      each epoch; `incremental` patches the previous
                      epoch's tables in place (default full)
  --hold N            flap damping: hold a recovered element down N cycles
                      before re-admission, doubling per repeat flap
                      (default 0 = admit recoveries immediately)
  --json              print the epoch/certificate report as JSON

soak options (in addition to the simulate options; DOWN/UP only):
  --events N          chaos faults to draw (default 6)
  --chaos-seed N      chaos-plan randomization seed (default 42)
  --hold N            flap-damping base hold-down in cycles (default 300)
  --repair STRAT      repair strategy per epoch (default incremental)
  --out FILE          write the JSON soak report to FILE (default stdout);
                      the report is byte-stable for a fixed seed set

stats options:
  --snapshot FILE     telemetry snapshot to render (required; written by
                      a previous run's --telemetry FILE)
  --diff FILE2        render only what changed from --snapshot to FILE2
  --prometheus        emit the Prometheus text exposition instead of the
                      human rendering";

fn fail(msg: &str) -> ! {
    eprintln!("irnet: {msg}\n\n{USAGE}");
    exit::usage()
}

/// Options that are flags: present/absent, no value.
const BOOL_FLAGS: &[&str] = &["quick", "full", "json", "no-repair", "grid", "prometheus"];

struct Opts {
    kv: BTreeMap<String, String>,
}

impl Opts {
    fn get(&self, k: &str) -> Option<&str> {
        self.kv.get(k).map(String::as_str)
    }
    fn flag(&self, k: &str) -> bool {
        self.kv.contains_key(k)
    }
    fn parse<T: std::str::FromStr>(&self, k: &str, default: T) -> T {
        match self.get(k) {
            None => default,
            Some(raw) => raw
                .parse()
                .unwrap_or_else(|_| fail(&format!("invalid --{k} value {raw:?}"))),
        }
    }
}

fn parse_opts(args: &[String]) -> Opts {
    let mut kv = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "--help" || a == "-h" {
            println!("{USAGE}");
            std::process::exit(0);
        }
        let Some(name) = a.strip_prefix("--") else {
            fail(&format!("unexpected argument {a:?}"))
        };
        if name == "progress" {
            // `--progress` takes an optional mode: a following bare
            // `human`/`json` is consumed, anything else leaves the default.
            if i + 1 < args.len() && matches!(args[i + 1].as_str(), "human" | "json") {
                kv.insert(name.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                kv.insert(name.to_string(), "human".to_string());
                i += 1;
            }
        } else if BOOL_FLAGS.contains(&name) {
            kv.insert(name.to_string(), "true".to_string());
            i += 1;
        } else if i + 1 < args.len() && !args[i + 1].starts_with("--") {
            kv.insert(name.to_string(), args[i + 1].clone());
            i += 2;
        } else {
            fail(&format!("option --{name} needs a value"));
        }
    }
    Opts { kv }
}

fn load_topology(o: &Opts) -> Result<Topology, String> {
    if let Some(path) = o.get("topology") {
        let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        topology_from_json(&raw).map_err(|e| format!("invalid topology in {path}: {e}"))
    } else {
        let n = o.parse("switches", 64u32);
        let ports = o.parse("ports", 4u32);
        let seed = o.parse("seed", 1u64);
        let _span = irnet_telemetry::current().span("topology/gen");
        gen::random_irregular(gen::IrregularParams::paper(n, ports), seed)
            .map_err(|e| format!("generation failed: {e}"))
    }
}

/// The fault plan named by `--scenario`, if any.
fn load_plan(o: &Opts) -> Result<Option<FaultPlan>, String> {
    let Some(path) = o.get("scenario") else {
        return Ok(None);
    };
    let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    FaultPlan::from_json(&raw)
        .map(Some)
        .map_err(|e| format!("{path}: {e}"))
}

fn parse_algo(o: &Opts) -> Algo {
    match o.get("algo").unwrap_or("downup") {
        "downup" => Algo::DownUp { release: true },
        "downup-norelease" => Algo::DownUp { release: false },
        "lturn" => Algo::LTurn { release: true },
        "lturn-norelease" => Algo::LTurn { release: false },
        "updown-bfs" => Algo::UpDownBfs,
        "updown-dfs" => Algo::UpDownDfs,
        other => fail(&format!("unknown algorithm {other:?}")),
    }
}

fn parse_policy(o: &Opts) -> PreorderPolicy {
    let raw = o.get("policy").unwrap_or("M1");
    PreorderPolicy::parse(raw).unwrap_or_else(|| fail(&format!("unknown policy {raw:?}")))
}

/// The progress mode selected by `--progress [human|json]` (Human when the
/// flag is bare; `parse_opts` rejects other values by construction).
fn progress_mode(o: &Opts) -> ProgressMode {
    o.get("progress")
        .and_then(ProgressMode::parse)
        .unwrap_or_default()
}

/// The `--repair` strategy of a fault command, `default` when absent.
fn parse_repair(o: &Opts, default: RepairStrategy) -> RepairStrategy {
    o.get("repair").map_or(default, |raw| {
        RepairStrategy::parse(raw).unwrap_or_else(|| {
            fail(&format!(
                "invalid --repair value {raw:?} (full|incremental)"
            ))
        })
    })
}

/// The fault commands repair with the DOWN/UP builder: any other `--algo`
/// is rejected with the message `err` builds from it.
fn require_downup(o: &Opts, err: impl FnOnce(&str) -> String) -> Result<(), String> {
    match o.get("algo") {
        Some(algo) if algo != "downup" => Err(err(algo)),
        _ => Ok(()),
    }
}

fn build_instance(o: &Opts, topo: &Topology) -> Result<Instance, String> {
    let algo = parse_algo(o);
    let policy = parse_policy(o);
    let seed = o.parse("seed", 1u64);
    algo.construct(topo, policy, seed)
        .map_err(|e| format!("construction failed: {e}"))
}

fn cmd_gen(o: &Opts) -> Result<(), String> {
    let topo = load_topology(o)?;
    let json = topology_to_json(&topo);
    match o.get("out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!(
                "wrote {path}: {} switches, {} links, avg degree {:.2}, diameter {}",
                topo.num_nodes(),
                topo.num_links(),
                topo.avg_degree(),
                topo.diameter()
            );
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn cmd_verify(o: &Opts) -> Result<(), String> {
    let topo = load_topology(o)?;
    let inst = build_instance(o, &topo)?;
    let report = verify_routing(&inst.cg, &inst.table);
    println!("algorithm          : {}", parse_algo(o));
    println!(
        "switches / links   : {} / {}",
        topo.num_nodes(),
        topo.num_links()
    );
    println!("prohibited pairs   : {}", report.prohibited_pairs);
    println!(
        "deadlock-free      : {}",
        if report.cycle.is_none() {
            "yes (channel dependency graph is acyclic)"
        } else {
            "NO"
        }
    );
    if let Some(cycle) = &report.cycle {
        println!("  witness turn cycle through {} channels", cycle.len());
    }
    println!(
        "connected          : {}",
        if report.disconnected.is_none() {
            "yes (all ordered pairs reachable)"
        } else {
            "NO"
        }
    );
    if let (Some(avg), Some(max)) = (report.avg_route_len, report.max_route_len) {
        println!("avg / max route len: {avg:.3} / {max}");
    }
    if !report.is_ok() {
        exit::finding()
    }
    Ok(())
}

fn cmd_lint(o: &Opts) -> Result<(), String> {
    if o.get("topology").is_some() {
        lint_single(o)
    } else {
        lint_grid(o)
    }
}

/// Lint one `(topology, algo, policy)` target; exit 1 on error findings.
fn lint_single(o: &Opts) -> Result<(), String> {
    let topo = load_topology(o)?;
    let inst = build_instance(o, &topo)?;
    let report = irnet_verify::lint(&inst.cg, &inst.table);
    let dep = ChannelDepGraph::build(&inst.cg, &inst.table);
    if let Err(e) = irnet_verify::recheck(&report.certificate, &dep) {
        return Err(format!(
            "internal error: certificate failed its own recheck: {e}"
        ));
    }
    if o.flag("json") {
        println!("{}", report.to_json());
    } else {
        println!("algorithm   : {}", parse_algo(o));
        print_lint_report(&report);
    }
    if report.has_errors() {
        exit::finding()
    }
    Ok(())
}

fn print_lint_report(report: &LintReport) {
    let cert = &report.certificate;
    println!(
        "certificate : {} ({} channels, {} dependency edges)",
        if cert.is_deadlock_free() {
            "deadlock-free (total channel numbering found)"
        } else {
            "DEADLOCK (witness cycle below)"
        },
        cert.num_channels,
        cert.num_edges
    );
    if report.findings.is_empty() {
        println!("findings    : none");
    }
    for f in &report.findings {
        println!("{}: {}", f.code, f.message);
    }
}

/// The seed grid `lint` and `analyze --grid` sweep: the `--quick` (default)
/// or `--full` topologies, each handed to `on_topology` and then to
/// `on_cell` once per cell — every policy with the four tree-coordinate
/// algorithms, then the up*/down* baselines under M1 only.
fn for_each_grid_cell(
    o: &Opts,
    mut on_topology: impl FnMut(&Topology, &str),
    mut on_cell: impl FnMut(&Topology, &str, PreorderPolicy, Algo) -> Result<(), String>,
) -> Result<(), String> {
    let topos: &[(u32, u32, u64)] = if o.flag("full") {
        &[
            (32, 4, 1),
            (32, 4, 2),
            (32, 4, 3),
            (32, 8, 1),
            (32, 8, 2),
            (48, 4, 1),
            (48, 8, 1),
            (64, 4, 1),
        ]
    } else {
        &[(16, 4, 1), (16, 4, 2), (24, 4, 1), (24, 8, 1)]
    };
    let all_policy_algos = [
        Algo::DownUp { release: true },
        Algo::DownUp { release: false },
        Algo::LTurn { release: true },
        Algo::LTurn { release: false },
    ];
    for &(n, ports, seed) in topos {
        let topo = gen::random_irregular(gen::IrregularParams::paper(n, ports), seed)
            .map_err(|e| format!("generation failed: {e}"))?;
        let label = format!("switches={n} ports={ports} seed={seed}");
        on_topology(&topo, &label);
        for policy in PreorderPolicy::ALL {
            for algo in all_policy_algos {
                on_cell(&topo, &label, policy, algo)?;
            }
        }
        for algo in [Algo::UpDownBfs, Algo::UpDownDfs] {
            on_cell(&topo, &label, PreorderPolicy::M1, algo)?;
        }
    }
    Ok(())
}

/// The battery: certify and lint every cell of a seed grid, plus a negative
/// control (the paper's §4.3 printed PT list on the five-switch
/// counterexample, which must be *rejected* with a minimized witness).
/// Exits nonzero if any cell errors, any certificate fails its independent
/// recheck, or the negative control is not caught.
fn lint_grid(o: &Opts) -> Result<(), String> {
    let mut cells = 0u32;
    let mut failed = 0u32;
    let mut warning_findings = 0usize;
    let run_cell =
        |topo: &Topology, label: &str, policy: PreorderPolicy, algo: Algo| -> Result<(), String> {
            cells += 1;
            let inst = algo
                .construct(topo, policy, 0)
                .map_err(|e| format!("construction failed for {label}: {e}"))?;
            let report = irnet_verify::lint(&inst.cg, &inst.table);
            let dep = ChannelDepGraph::build(&inst.cg, &inst.table);
            let recheck = irnet_verify::recheck(&report.certificate, &dep);
            let warnings = report
                .findings
                .iter()
                .filter(|f| f.severity == Severity::Warning)
                .count();
            warning_findings += warnings;
            if report.has_errors() || recheck.is_err() {
                failed += 1;
                println!("FAIL {label} policy={policy:?} algo={algo}");
                for f in &report.findings {
                    if f.severity == Severity::Error {
                        println!("  {}: {}", f.code, f.message);
                    }
                }
                if let Err(e) = recheck {
                    println!("  certificate failed independent recheck: {e}");
                }
            } else {
                println!("ok   {label} policy={policy:?} algo={algo} warnings={warnings}");
            }
            Ok(())
        };
    for_each_grid_cell(o, |_, _| {}, run_cell)?;

    match negative_control() {
        Ok(len) => println!(
            "negative control: printed \u{a7}4.3 PT list rejected \
             (IRNET-E001, minimized witness length {len})"
        ),
        Err(e) => {
            failed += 1;
            println!("FAIL negative control: {e}");
        }
    }
    println!(
        "lint grid: {cells} cells, {} clean, {failed} failed, \
         {warning_findings} warning finding(s)",
        cells - failed.min(cells)
    );
    if failed > 0 {
        exit::finding()
    }
    Ok(())
}

/// The five-switch counterexample under the paper's printed (erroneous)
/// §4.3 prohibited-turn list must fail certification with a short witness.
fn negative_control() -> Result<usize, String> {
    use irnet_core::phase2::PROHIBITED_TURNS_AS_PRINTED;
    let topo = Topology::new(
        5,
        4,
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
    )
    .map_err(|e| format!("counterexample topology: {e}"))?;
    let tree = CoordinatedTree::build(&topo, PreorderPolicy::M1, 0)
        .map_err(|e| format!("counterexample tree: {e}"))?;
    let cg = CommGraph::build(&topo, &tree);
    let printed =
        TurnTable::from_direction_rule(&cg, |a, b| !PROHIBITED_TURNS_AS_PRINTED.contains(&(a, b)));
    let report = irnet_verify::lint(&cg, &printed);
    let dep = ChannelDepGraph::build(&cg, &printed);
    irnet_verify::recheck(&report.certificate, &dep)
        .map_err(|e| format!("witness failed recheck: {e}"))?;
    match &report.certificate.verdict {
        Verdict::DeadlockFree { .. } => {
            Err("printed PT list was incorrectly certified deadlock-free".to_string())
        }
        Verdict::Deadlock { witness } if witness.len() > 6 => Err(format!(
            "witness not minimized: length {} > 6",
            witness.len()
        )),
        Verdict::Deadlock { witness } => Ok(witness.len()),
    }
}

fn cmd_routes(o: &Opts) -> Result<(), String> {
    let topo = load_topology(o)?;
    let inst = build_instance(o, &topo)?;
    let (avg, max) = {
        let _span = irnet_telemetry::current().span("routes/route_len");
        inst.tables.route_len_stats(&inst.cg)
    };
    println!("avg route length: {avg:.3}");
    println!("max route length: {max}");
    let n = topo.num_nodes();
    let (s, t) = (0u32, n - 1);
    let route = inst.tables.route(&inst.cg, s, t);
    let ch = inst.cg.channels();
    print!("sample route {s} -> {t}: {s}");
    for &c in &route {
        print!(" -({})-> {}", inst.cg.direction(c), ch.sink(c));
    }
    println!();
    Ok(())
}

fn sim_config(o: &Opts) -> SimConfig {
    let default = SimConfig::default();
    runnable(SimConfig {
        packet_len: o.parse("packet-len", 128u32),
        injection_rate: o.parse("rate", 0.1f64),
        warmup_cycles: o.parse("warmup", 2_000u32),
        measure_cycles: o.parse("measure", 8_000u32),
        virtual_channels: o.parse("vcs", 1u32),
        deadlock_threshold: o.parse("watchdog", default.deadlock_threshold),
        ..default
    })
}

/// `cfg` if the simulator can run it; otherwise a usage error naming the
/// rule it breaks.
fn runnable(cfg: SimConfig) -> SimConfig {
    if let Err(reason) = cfg.check() {
        fail(&format!("invalid simulation settings: {reason}"));
    }
    cfg
}

/// Runs `sim` to completion under a `sim/run` span and records its
/// `sim/*` counters in the current telemetry registry.
fn run_measured(sim: Simulator<'_>) -> SimStats {
    let tel = irnet_telemetry::current();
    let span = tel.span("sim/run");
    let stats = sim.run();
    span.finish();
    irnet_sim::record_run_telemetry(&tel, &stats);
    stats
}

fn cmd_simulate(o: &Opts) -> Result<(), String> {
    let topo = load_topology(o)?;
    let inst = build_instance(o, &topo)?;
    let cfg = sim_config(o);
    let stats = run_measured(Simulator::new(
        &inst.cg,
        &inst.tables,
        cfg,
        o.parse("sim-seed", 7u64),
    ));
    let m = PaperMetrics::compute(&stats, &inst.cg, &inst.tree);
    println!(
        "offered load     : {:.4} flits/clock/node",
        cfg.injection_rate
    );
    println!(
        "accepted traffic : {:.4} flits/clock/node",
        m.accepted_traffic
    );
    println!("avg latency      : {:.1} clocks", m.avg_latency);
    println!("node utilization : {:.6}", m.node_utilization);
    println!(
        "traffic load     : {:.6} (stddev of node utilization)",
        m.traffic_load
    );
    println!("hot spot degree  : {:.2} % (levels 0-1)", m.hot_spot_degree);
    println!("leaf utilization : {:.6}", m.leaf_utilization);
    println!("packets delivered: {}", stats.packets_delivered);
    if stats.deadlocked {
        return Err(format!(
            "simulation aborted by the deadlock watchdog: no progress since \
             cycle {} ({} flits stranded in the network)",
            stats.last_progress, stats.flits_in_flight
        ));
    }
    Ok(())
}

/// Static analysis: fabric statistics, then the feasibility oracle on
/// every state the `--scenario` plan passes through (its undamped
/// timeline), then the four whole-table audits on the fabric the plan
/// leaves behind, timed as the `analyze/feasibility` and `analyze/audit`
/// spans. Exits 1 when some state is infeasible or an audit errors;
/// `--grid` sweeps the lint seed grids instead.
fn cmd_analyze(o: &Opts) -> Result<(), String> {
    use irnet_analyze::{analyze_timeline, analyze_topology, audit, AnalysisReport, Feasibility};
    use irnet_topology::{DampingPolicy, RecoveryTimeline};

    if o.flag("grid") {
        return analyze_grid(o);
    }
    let topo = load_topology(o)?;
    let algo = parse_algo(o);
    let policy = parse_policy(o);
    let target = match o.get("topology") {
        Some(path) => format!("topology={path} algo={algo} policy={policy:?}"),
        None => format!(
            "switches={} ports={} seed={} algo={algo} policy={policy:?}",
            o.parse("switches", 64u32),
            o.parse("ports", 4u32),
            o.parse("seed", 1u64)
        ),
    };
    let plan = load_plan(o)?.unwrap_or_else(|| FaultPlan::scripted([]));
    let span = irnet_telemetry::current().span("analyze/feasibility");
    let timeline = RecoveryTimeline::compute(&topo, &plan, DampingPolicy::none())
        .map_err(|e| format!("fault plan: {e}"))?;
    // The first infeasible state and its cycle, else the final state.
    let mut verdicts = analyze_timeline(&topo, &timeline);
    let (feasibility, infeasible_at_cycle) = match verdicts.iter().position(|v| !v.is_feasible()) {
        Some(i) => (verdicts.swap_remove(i), Some(timeline.steps[i].cycle)),
        None => (
            verdicts.pop().unwrap_or_else(|| analyze_topology(&topo)),
            None,
        ),
    };
    span.finish();
    let report = match &feasibility {
        Feasibility::Infeasible(_) => AnalysisReport {
            target,
            feasibility,
            infeasible_at_cycle,
            audit: None,
        },
        Feasibility::Feasible(_) => {
            // Audit the fabric the plan leaves behind.
            let survivors = topo
                .degrade(&plan)
                .map_err(|e| format!("degrade failed after a feasible verdict: {e}"))?;
            let inst = algo
                .construct(&survivors, policy, o.parse("seed", 1u64))
                .map_err(|e| format!("construction failed: {e}"))?;
            let _audit = irnet_telemetry::current().span("analyze/audit");
            let cert = irnet_verify::certify(&inst.cg, &inst.table);
            AnalysisReport {
                target,
                feasibility,
                infeasible_at_cycle: None,
                audit: Some(audit(&inst.cg, &inst.table, &inst.tables, &cert)),
            }
        }
    };
    if o.flag("json") {
        println!("{}", report.to_json());
    } else {
        print_fabric_stats(o, &topo)?;
        print_analysis(&report);
    }
    if !report.passed() {
        exit::finding()
    }
    Ok(())
}

/// Human-readable half of an [`irnet_analyze::AnalysisReport`].
fn print_analysis(report: &irnet_analyze::AnalysisReport) {
    match &report.feasibility {
        irnet_analyze::Feasibility::Feasible(w) => println!(
            "feasibility         : feasible (up*/down* numbering over {} \
             switches / {} channels, root {})",
            w.alive_nodes, w.alive_channels, w.root
        ),
        irnet_analyze::Feasibility::Infeasible(obs) => match report.infeasible_at_cycle {
            Some(cycle) => println!("feasibility         : INFEASIBLE at cycle {cycle} — {obs}"),
            None => println!("feasibility         : INFEASIBLE — {obs}"),
        },
    }
    let Some(a) = &report.audit else { return };
    println!(
        "audits              : {} ({} finding(s))",
        if a.passed() { "passed" } else { "FAILED" },
        a.findings.len()
    );
    for f in &a.findings {
        println!("  {}: {}", f.code, f.message);
    }
    println!(
        "stretch             : max {:.2}x, mean {:.3}x over {} pairs",
        a.stretch.max, a.stretch.mean, a.stretch.pairs
    );
    println!(
        "prohibited turns    : {} total, {} redundant (releasable)",
        a.prohibited_turns, a.redundant_prohibitions
    );
}

/// Oracle + audits over the same seed grids as `lint --quick` / `--full`.
fn analyze_grid(o: &Opts) -> Result<(), String> {
    use irnet_analyze::{analyze_topology, audit, Feasibility, SCHEMA};

    let mut cells = 0u32;
    let mut failed = 0u32;
    let mut oracle_failed = 0u32;
    let mut warning_findings = 0usize;
    let mut results: Vec<Value> = Vec::new();
    let json = o.flag("json");
    let oracle = |topo: &Topology, label: &str| match analyze_topology(topo) {
        Feasibility::Feasible(w) => {
            if !json {
                println!(
                    "oracle {label}: feasible ({} switches / {} channels)",
                    w.alive_nodes, w.alive_channels
                );
            }
        }
        Feasibility::Infeasible(obs) => {
            oracle_failed += 1;
            println!("FAIL oracle {label}: {obs}");
        }
    };
    let run_cell =
        |topo: &Topology, label: &str, policy: PreorderPolicy, algo: Algo| -> Result<(), String> {
            cells += 1;
            let target = format!("{label} policy={policy:?} algo={algo}");
            let inst = algo
                .construct(topo, policy, 0)
                .map_err(|e| format!("construction failed for {target}: {e}"))?;
            let cert = irnet_verify::certify(&inst.cg, &inst.table);
            let report = audit(&inst.cg, &inst.table, &inst.tables, &cert);
            let warnings = report
                .findings
                .iter()
                .filter(|f| f.severity == Severity::Warning)
                .count();
            warning_findings += warnings;
            if report.passed() {
                if !json {
                    println!("ok   {target} warnings={warnings}");
                }
            } else {
                failed += 1;
                println!("FAIL {target}");
                for f in &report.findings {
                    if f.severity == Severity::Error {
                        println!("  {}: {}", f.code, f.message);
                    }
                }
            }
            results.push(Value::Map(vec![
                ("target".to_string(), Value::Str(target)),
                ("passed".to_string(), Value::Bool(report.passed())),
                ("warnings".to_string(), Value::U64(warnings as u64)),
            ]));
            Ok(())
        };
    for_each_grid_cell(o, oracle, run_cell)?;
    failed += oracle_failed;
    if json {
        let grid = Value::Map(vec![
            ("schema".to_string(), Value::Str(SCHEMA.to_string())),
            ("cells".to_string(), Value::U64(u64::from(cells))),
            ("failed".to_string(), Value::U64(u64::from(failed))),
            ("results".to_string(), Value::Seq(results)),
        ]);
        println!(
            "{}",
            serde_json::to_string_pretty(&grid).unwrap_or_default()
        );
    } else {
        println!(
            "analyze grid: {cells} cells, {} clean, {failed} failed, \
             {warning_findings} warning finding(s)",
            cells - failed.min(cells)
        );
    }
    if failed > 0 {
        exit::finding()
    }
    Ok(())
}

/// The original `analyze` fabric statistics (kept verbatim: scripts parse
/// these lines).
fn print_fabric_stats(o: &Opts, topo: &Topology) -> Result<(), String> {
    use irnet_topology::analysis;
    let deg = analysis::degree_stats(topo);
    let dist = analysis::distance_stats(topo);
    let cuts = analysis::articulation_points(topo);
    println!(
        "switches / links    : {} / {}",
        topo.num_nodes(),
        topo.num_links()
    );
    println!(
        "degree min/mean/max : {} / {:.2} / {}",
        deg.min, deg.mean, deg.max
    );
    println!("mean distance       : {:.3} hops", dist.mean);
    println!("diameter            : {} hops", dist.diameter);
    println!(
        "articulation points : {} {}",
        cuts.len(),
        if cuts.is_empty() {
            "(2-connected: survives any single-switch failure)".to_string()
        } else {
            format!("{cuts:?}")
        }
    );
    let tree = irnet_topology::CoordinatedTree::build(topo, parse_policy(o), o.parse("seed", 1))
        .map_err(|e| format!("tree construction failed: {e}"))?;
    let lvl = analysis::level_profile(topo, &tree);
    println!(
        "tree levels         : {:?} switches per level",
        lvl.population
    );
    println!("tree leaves         : {} total", tree.leaves().len());
    println!(
        "cross links         : {:.1} % of links ({} same-level)",
        100.0 * lvl.cross_link_fraction,
        lvl.same_level_cross_links
    );
    Ok(())
}

fn cmd_sweep(o: &Opts) -> Result<(), String> {
    let topo = load_topology(o)?;
    let inst = build_instance(o, &topo)?;
    let base = SimConfig {
        packet_len: o.parse("packet-len", 128u32),
        warmup_cycles: o.parse("warmup", 2_000u32),
        measure_cycles: o.parse("measure", 8_000u32),
        virtual_channels: o.parse("vcs", 1u32),
        ..SimConfig::default()
    };
    let rates: Vec<f64> = match o.get("rates") {
        Some(raw) => raw
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| fail("invalid --rates element"))
            })
            .collect(),
        None => sweep::default_rates(8),
    };
    for &rate in &rates {
        runnable(SimConfig {
            injection_rate: rate,
            ..base
        });
    }
    let seed: u64 = o.parse("sim-seed", 7u64);
    let backend = o.get("backend").unwrap_or("flit");
    if !matches!(backend, "flit" | "flow") {
        fail(&format!(
            "unknown backend {backend:?} (expected flit or flow)"
        ));
    }
    let progress = o
        .flag("progress")
        .then(|| Progress::new(&format!("sweep[{backend}]"), rates.len(), progress_mode(o)));
    // The leading header line carries the backend so flow and flit CSVs
    // are never silently interchangeable.
    println!("# backend={backend}");
    match backend {
        "flit" => {
            // Run point by point (seeded exactly as `sweep::sweep` would)
            // so `--progress` can report between operating points.
            let points: Vec<_> = rates
                .iter()
                .enumerate()
                .map(|(i, &rate)| {
                    let p = sweep::run_point(&inst, &base, rate, sweep::point_seed(seed, i));
                    if let Some(prog) = &progress {
                        prog.tick(i + 1);
                    }
                    p
                })
                .collect();
            let curve = sweep::SweepCurve { points };
            println!("offered,accepted,latency,node_util,hot_spot_pct,deadlocked");
            for p in &curve.points {
                println!(
                    "{:.5},{:.5},{:.2},{:.5},{:.2},{}",
                    p.offered,
                    p.metrics.accepted_traffic,
                    p.metrics.avg_latency,
                    p.metrics.node_utilization,
                    p.metrics.hot_spot_degree,
                    p.deadlocked
                );
            }
            for p in &curve.points {
                if p.deadlocked {
                    eprintln!(
                        "!! offered load {:.4} deadlocked (no progress since cycle {})",
                        p.offered, p.stall_cycle
                    );
                }
            }
            eprintln!(
                "max throughput {:.4} flits/clock/node at offered {:.4}",
                curve.max_throughput(),
                curve.saturation().offered
            );
        }
        "flow" => {
            let cfg = irnet_flow::FlowConfig::default();
            let mut pred = irnet_flow::FlowPredictor::build(
                &topo,
                &inst.tree,
                &inst.cg,
                &inst.table,
                &base,
                seed,
                &cfg,
            );
            if let Some(prog) = &progress {
                prog.message(&format!(
                    "sweep[{backend}]: predictor built (decompose + saturation probe), \
                     elapsed {:.1}s",
                    prog.elapsed_seconds()
                ));
            }
            let points: Vec<_> = rates
                .iter()
                .enumerate()
                .map(|(i, &rate)| {
                    let p = pred.point(rate);
                    if let Some(prog) = &progress {
                        prog.tick(i + 1);
                    }
                    p
                })
                .collect();
            println!("offered,accepted,latency_mean,latency_median,latency_p99,saturated");
            for p in &points {
                println!(
                    "{:.5},{:.5},{:.2},{:.2},{:.2},{}",
                    p.offered,
                    p.accepted,
                    p.mean_latency,
                    p.median_latency,
                    p.p99_latency,
                    p.saturated
                );
            }
            eprintln!(
                "predicted saturation throughput {:.4} flits/clock/node \
                 ({} representative sims)",
                pred.saturation(),
                pred.sims_run()
            );
        }
        other => unreachable!("backend {other:?} validated above"),
    }
    Ok(())
}

fn cmd_export(o: &Opts) -> Result<(), String> {
    let topo = load_topology(o)?;
    let inst = build_instance(o, &topo)?;
    let text = irnet_turns::export_tables(&inst.cg, &inst.tables);
    match o.get("out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!(
                "wrote {path}: forwarding tables for {} switches ({} bytes)",
                topo.num_nodes(),
                text.len()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_render(o: &Opts) -> Result<(), String> {
    use irnet_metrics::netplot::{render_network, NetPlotOptions};
    let topo = load_topology(o)?;
    let inst = build_instance(o, &topo)?;
    let cfg = sim_config(o);
    let stats = run_measured(Simulator::new(
        &inst.cg,
        &inst.tables,
        cfg,
        o.parse("sim-seed", 7u64),
    ));
    let svg = render_network(
        &topo,
        &inst.tree,
        &inst.cg,
        Some(&stats),
        NetPlotOptions::default(),
    );
    match o.get("out") {
        Some(path) => {
            std::fs::write(path, &svg).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path} ({} bytes)", svg.len());
        }
        None => print!("{svg}"),
    }
    Ok(())
}

fn cmd_replay(o: &Opts) -> Result<(), String> {
    use irnet_sim::{replay, Trace};
    let topo = load_topology(o)?;
    let inst = build_instance(o, &topo)?;
    let trace = match o.get("trace") {
        Some(path) => {
            let raw =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            // JSONL traces are recognised by extension or by shape (every
            // JSONL record opens with '{'; CSV never does).
            let jsonl = path.ends_with(".jsonl") || raw.trim_start().starts_with('{');
            if jsonl {
                Trace::from_jsonl(&raw, topo.num_nodes())
                    .map_err(|e| format!("invalid trace in {path}: {e}"))?
            } else {
                Trace::from_csv(&raw, topo.num_nodes())
                    .map_err(|e| format!("invalid trace in {path}: {e}"))?
            }
        }
        None => Trace::synthetic_uniform(
            topo.num_nodes(),
            o.parse("trace-packets", 500u32),
            o.parse("trace-span", 4_000u32),
            o.parse("seed", 1u64),
        ),
    };
    let cfg = runnable(SimConfig {
        packet_len: o.parse("packet-len", 128u32),
        warmup_cycles: 0,
        measure_cycles: u32::MAX / 2,
        virtual_channels: o.parse("vcs", 1u32),
        ..SimConfig::default()
    });
    let tel = irnet_telemetry::current();
    let span = tel.span("sim/run");
    let result = replay(
        &inst.cg,
        &inst.tables,
        cfg,
        &trace,
        o.parse("sim-seed", 7u64),
        10_000_000,
    )
    .map_err(|e| format!("cannot replay the trace: {e}"))?;
    span.finish();
    irnet_sim::record_run_telemetry(&tel, &result.stats);
    println!("packets          : {}", trace.len());
    match result.makespan {
        Some(m) => println!("makespan         : {m} clocks"),
        None => return Err("network failed to drain the trace".to_string()),
    }
    println!(
        "avg latency      : {:.1} clocks",
        result.stats.avg_latency()
    );
    if let Some(p99) = result.stats.latency_quantile(0.99) {
        println!("p99 latency      : {p99} clocks");
    }
    Ok(())
}

/// Degrade → repair → certify → simulate: the robustness pipeline.
/// Version-2 scenarios make it bidirectional — recovery transitions run
/// through the same feasibility gate, repair, and certification as fault
/// transitions, with `--hold` flap damping between the two.
fn cmd_faults(o: &Opts) -> Result<(), String> {
    use irnet_core::{plan_epochs_timeline_with, DownUp};
    use irnet_topology::{DampingPolicy, FaultKind, RecoveryTimeline};

    let strategy = parse_repair(o, RepairStrategy::Full);
    require_downup(o, |algo| {
        format!(
            "the fault pipeline repairs with the DOWN/UP builder; \
             --algo {algo} is not supported"
        )
    })?;
    let topo = load_topology(o)?;
    let builder = DownUp::new()
        .policy(parse_policy(o))
        .seed(o.parse("seed", 1u64));
    let routing = builder
        .construct(&topo)
        .map_err(|e| format!("construction failed: {e}"))?;
    let cfg = sim_config(o);
    let plan = match load_plan(o)? {
        Some(plan) => plan,
        None => {
            let links = o.parse("random-links", 1u32);
            let switches = o.parse("random-switches", 0u32);
            let lo = cfg.warmup_cycles;
            let hi = lo.saturating_add(o.parse("fault-window", cfg.measure_cycles / 2));
            FaultPlan::random(
                &topo,
                links,
                switches,
                (lo, hi),
                o.parse("fault-seed", 13u64),
            )
            .map_err(|e| format!("random fault plan: {e}"))?
        }
    };
    if plan.is_empty() {
        return Err("the fault plan contains no events".to_string());
    }
    // Expand the plan into its damped transition timeline (each step's
    // live set is the original topology minus the elements down at that
    // step, so a recovery shrinks the dead set again), then gate every
    // step through the feasibility oracle before any repair or
    // simulation work is spent. The oracle answers in milliseconds, so a
    // hopeless scenario is reported here, with its step cycle.
    let policy = match o.parse("hold", 0u32) {
        0 => DampingPolicy::none(),
        hold => DampingPolicy::hold(hold),
    };
    let timeline =
        RecoveryTimeline::compute(&topo, &plan, policy).map_err(|e| format!("fault plan: {e}"))?;
    let verdicts = irnet_analyze::analyze_timeline(&topo, &timeline);
    for (step, verdict) in timeline.steps.iter().zip(verdicts) {
        if let irnet_analyze::Feasibility::Infeasible(obstruction) = verdict {
            if o.flag("json") {
                let report = Value::Map(vec![
                    ("plan".to_string(), plan.to_value()),
                    ("feasible".to_string(), Value::Bool(false)),
                    (
                        "infeasible_at_cycle".to_string(),
                        Value::U64(u64::from(step.cycle)),
                    ),
                    ("obstruction".to_string(), obstruction.to_value()),
                ]);
                println!(
                    "{}",
                    serde_json::to_string_pretty(&report).unwrap_or_default()
                );
            }
            return Err(format!(
                "feasibility gate: the network degraded at cycle {} is \
                 provably unroutable ({obstruction}); skipping repair and \
                 simulation",
                step.cycle
            ));
        }
    }
    let cg = routing.comm_graph();
    let repair_progress = o
        .flag("progress")
        .then(|| Progress::new("faults", timeline.steps.len(), progress_mode(o)).unit("epochs"));
    let epochs = plan_epochs_timeline_with(
        &topo,
        cg,
        routing.turn_table(),
        routing.routing_tables(),
        &timeline,
        builder,
        strategy,
        repair_progress.as_ref(),
    )
    .map_err(|e| format!("fault repair failed: {e}"))?;
    let certs: Vec<_> = epochs.iter().map(|e| e.epoch.certify(cg)).collect();
    let mut sim = Simulator::new(cg, routing.routing_tables(), cfg, o.parse("sim-seed", 7u64));
    for e in &epochs {
        sim.schedule_reconfig(&e.epoch);
    }
    let tel = irnet_telemetry::current();
    let span = tel.span("sim/run");
    let halt = sim.advance(cfg.total_cycles());
    span.finish();
    let incident = (halt == Halt::Stalled).then(|| irnet_obs::deadlock_incident(&sim));
    let stats = sim.finish();
    irnet_sim::record_run_telemetry(&tel, &stats);
    let all_certified = certs
        .iter()
        .all(irnet_verify::EpochCertificates::is_deadlock_free);

    if o.flag("json") {
        let epoch_values: Vec<Value> = epochs
            .iter()
            .zip(&certs)
            .zip(&timeline.steps)
            .map(|((e, c), step)| {
                let s = &e.spans;
                let repair = Value::Map(vec![
                    (
                        "strategy".to_string(),
                        Value::Str(strategy.name().to_string()),
                    ),
                    (
                        "touched_switches".to_string(),
                        Value::U64(u64::from(s.touched_switches)),
                    ),
                    ("touched_rows".to_string(), Value::U64(s.touched_rows)),
                    (
                        "tree_link_faults".to_string(),
                        Value::U64(u64::from(s.tree_link_faults)),
                    ),
                    (
                        "cross_link_faults".to_string(),
                        Value::U64(u64::from(s.cross_link_faults)),
                    ),
                    (
                        "leaf_switch_faults".to_string(),
                        Value::U64(u64::from(s.leaf_switch_faults)),
                    ),
                    (
                        "internal_switch_faults".to_string(),
                        Value::U64(u64::from(s.internal_switch_faults)),
                    ),
                    (
                        "patched_in_place".to_string(),
                        Value::Bool(s.patched_in_place),
                    ),
                    (
                        "recertified".to_string(),
                        s.recertified.map_or(Value::Null, Value::Bool),
                    ),
                ]);
                Value::Map(vec![
                    ("cycle".to_string(), Value::U64(u64::from(e.epoch.cycle))),
                    (
                        "direction".to_string(),
                        Value::Str(step_direction(step).to_string()),
                    ),
                    ("dead_links".to_string(), ids(&e.epoch.dead_links)),
                    ("dead_switches".to_string(), ids(&e.epoch.dead_nodes)),
                    ("dead_channels".to_string(), ids(&e.epoch.dead_channels)),
                    ("revived_switches".to_string(), ids(&e.epoch.revived_nodes)),
                    (
                        "revived_channels".to_string(),
                        ids(&e.epoch.revived_channels),
                    ),
                    (
                        "flipped_channels".to_string(),
                        ids(&e.epoch.flipped_channels),
                    ),
                    ("repair".to_string(), repair),
                    ("certificates".to_string(), c.to_value()),
                    ("certified".to_string(), Value::Bool(c.is_deadlock_free())),
                ])
            })
            .collect();
        let report = Value::Map(vec![
            ("plan".to_string(), plan.to_value()),
            (
                "repair_strategy".to_string(),
                Value::Str(strategy.name().to_string()),
            ),
            ("epochs".to_string(), Value::Seq(epoch_values)),
            (
                "simulation".to_string(),
                Value::Map(vec![
                    (
                        "packets_delivered".to_string(),
                        Value::U64(stats.packets_delivered),
                    ),
                    (
                        "packets_generated".to_string(),
                        Value::U64(stats.packets_generated),
                    ),
                    ("dropped_flits".to_string(), Value::U64(stats.dropped_flits)),
                    (
                        "dropped_packets".to_string(),
                        Value::U64(stats.dropped_packets),
                    ),
                    (
                        "reconfig_epochs".to_string(),
                        Value::U64(u64::from(stats.reconfig_epochs)),
                    ),
                    (
                        "accepted_traffic".to_string(),
                        Value::F64(stats.accepted_traffic()),
                    ),
                    ("avg_latency".to_string(), Value::F64(stats.avg_latency())),
                    ("deadlocked".to_string(), Value::Bool(stats.deadlocked)),
                    (
                        "last_progress".to_string(),
                        Value::U64(u64::from(stats.last_progress)),
                    ),
                    (
                        "flits_injected_total".to_string(),
                        Value::U64(stats.flits_injected_total),
                    ),
                    (
                        "flits_delivered_total".to_string(),
                        Value::U64(stats.flits_delivered_total),
                    ),
                    (
                        "flits_in_flight".to_string(),
                        Value::U64(stats.flits_in_flight),
                    ),
                    (
                        "flits_conserved".to_string(),
                        Value::Bool(stats.flits_conserved()),
                    ),
                ]),
            ),
            ("damping".to_string(), damping_value(&timeline)),
            ("certified".to_string(), Value::Bool(all_certified)),
        ]);
        // The vendored serializer is infallible on value trees.
        println!(
            "{}",
            serde_json::to_string_pretty(&report).unwrap_or_default()
        );
    } else {
        println!(
            "fault plan       : {} event(s), {} epoch(s)",
            plan.events().len(),
            epochs.len()
        );
        for ev in plan.events() {
            let what = match ev.kind {
                FaultKind::Link { a, b } => format!("link {a}-{b}"),
                FaultKind::Switch { node } => format!("switch {node}"),
            };
            let recovery = match (ev.recovers_at, ev.flap) {
                (Some(up), Some(f)) => {
                    format!(", recovers at {up} (flaps every {} x{})", f.period, f.count)
                }
                (Some(up), None) => format!(", recovers at {up}"),
                _ => String::new(),
            };
            println!("  cycle {:>6}: {what} dies{recovery}", ev.cycle);
        }
        println!("repair strategy  : {}", strategy.name());
        for ((e, c), step) in epochs.iter().zip(&certs).zip(&timeline.steps) {
            println!(
                "epoch @{:<8}: {} — {} dead link(s), {} dead switch(es), \
                 {} revived channel(s), {} flipped channel(s)",
                e.epoch.cycle,
                step_direction(step),
                e.epoch.dead_links.len(),
                e.epoch.dead_nodes.len(),
                e.epoch.revived_channels.len(),
                e.epoch.flipped_channels.len()
            );
            let s = &e.spans;
            println!(
                "  repair         : {} switch(es) / {} row(s) touched, {}",
                s.touched_switches,
                s.touched_rows,
                if s.patched_in_place {
                    "patched in place"
                } else {
                    "rebuilt"
                }
            );
            println!("  degraded table : {}", verdict_line(&c.degraded));
            println!("  old∪new union  : {}", verdict_line(&c.union));
        }
        println!("packets delivered: {}", stats.packets_delivered);
        println!(
            "dropped          : {} flit(s) in {} packet(s)",
            stats.dropped_flits, stats.dropped_packets
        );
        println!("reconfig epochs  : {}", stats.reconfig_epochs);
        if plan.has_recovery() {
            println!(
                "flap damping     : {} raw transition(s) -> {} admitted epoch(s), \
                 {} suppressed re-admission(s)",
                timeline.raw_transitions,
                timeline.steps.len(),
                timeline.suppressed_ups()
            );
        }
        println!(
            "flit conservation: {} (injected {} = delivered {} + dropped {} + in flight {})",
            if stats.flits_conserved() {
                "exact"
            } else {
                "VIOLATED"
            },
            stats.flits_injected_total,
            stats.flits_delivered_total,
            stats.dropped_flits,
            stats.flits_in_flight
        );
        println!(
            "accepted traffic : {:.4} flits/clock/node",
            stats.accepted_traffic()
        );
    }
    if stats.deadlocked {
        if let Some(incident) = &incident {
            write_incident(o, incident)?;
        }
        return Err(format!(
            "simulation aborted by the deadlock watchdog: no progress since \
             cycle {} ({} flits stranded in the network)",
            stats.last_progress, stats.flits_in_flight
        ));
    }
    if !all_certified {
        return Err(
            "a reconfiguration epoch failed certification (witness in the report above)"
                .to_string(),
        );
    }
    if !stats.flits_conserved() {
        return Err(format!(
            "flit conservation violated: injected {} != delivered {} + dropped {} + in flight {}",
            stats.flits_injected_total,
            stats.flits_delivered_total,
            stats.dropped_flits,
            stats.flits_in_flight
        ));
    }
    Ok(())
}

/// Seeded chaos soak: draw a randomized fault/recovery plan against the
/// topology, gate every step of the damped timeline through the
/// feasibility oracle, repair and certify every epoch in both directions,
/// simulate through all the swaps, and enforce the soak invariants —
/// feasibility, certification, exact flit conservation, and watchdog
/// liveness. The JSON report contains only integers, booleans, and
/// strings, so it is byte-stable for a fixed seed set.
fn cmd_soak(o: &Opts) -> Result<(), String> {
    use irnet_core::{plan_epochs_timeline_with, DownUp};
    use irnet_topology::{chaos_plan_filtered, ChaosParams, DampingPolicy, RecoveryTimeline};

    require_downup(o, |algo| {
        format!(
            "the soak harness repairs with the DOWN/UP builder; \
             --algo {algo} is not supported"
        )
    })?;
    let strategy = parse_repair(o, RepairStrategy::Incremental);
    let topo = load_topology(o)?;
    let builder = DownUp::new()
        .policy(parse_policy(o))
        .seed(o.parse("seed", 1u64));
    let routing = builder
        .construct(&topo)
        .map_err(|e| format!("construction failed: {e}"))?;
    let cfg = sim_config(o);
    let hold = o.parse("hold", 300u32);
    let policy = match hold {
        0 => DampingPolicy::none(),
        h => DampingPolicy::hold(h),
    };
    let chaos_seed = o.parse("chaos-seed", 42u64);
    let sim_seed = o.parse("sim-seed", 7u64);
    // Chaos window inside the configured run: activations start after
    // warm-up, outages are short enough that several recoveries land
    // before the measurement window closes.
    let lo = cfg.warmup_cycles.max(100);
    let hi = lo.saturating_add((cfg.measure_cycles / 2).max(100));
    let outage_hi = (cfg.measure_cycles / 4).max(200);
    let params = ChaosParams {
        events: o.parse("events", 6u32),
        window: (lo, hi),
        outage: ((outage_hi / 4).max(100), outage_hi),
        ..ChaosParams::default()
    };
    // The chaos generator keeps a trial event only if the whole candidate
    // plan both survives (stays connected at every damped step — checked
    // inside the generator) and certifies: every repaired epoch's degraded
    // table AND its old∪new union must prove deadlock-free. The union gate
    // matters — a swap between two sufficiently different DOWN/UP
    // orientations can deadlock the in-flight worms even though both
    // steady states are safe, and such plans must never enter a soak.
    let cg = routing.comm_graph();
    let certifies = |plan: &FaultPlan| -> bool {
        let Ok(timeline) = RecoveryTimeline::compute(&topo, plan, policy) else {
            return false;
        };
        // Trial repairs of rejected candidates are not the soak's repairs.
        let trial = Telemetry::disabled().scope(|| {
            plan_epochs_timeline_with(
                &topo,
                cg,
                routing.turn_table(),
                routing.routing_tables(),
                &timeline,
                builder,
                strategy,
                None,
            )
        });
        let Ok(epochs) = trial else {
            return false;
        };
        epochs
            .iter()
            .all(|e| e.epoch.certify(cg).is_deadlock_free())
    };
    let plan = chaos_plan_filtered(&topo, &params, policy, chaos_seed, certifies)
        .map_err(|e| format!("chaos plan: {e}"))?;
    let timeline =
        RecoveryTimeline::compute(&topo, &plan, policy).map_err(|e| format!("chaos plan: {e}"))?;

    // Invariant 1 — feasibility: the chaos generator only accepts events
    // whose damped timeline keeps the graph connected, and the oracle
    // independently re-proves every step here.
    let feasible: Vec<bool> = irnet_analyze::analyze_timeline(&topo, &timeline)
        .iter()
        .map(irnet_analyze::Feasibility::is_feasible)
        .collect();
    let infeasible_at = timeline
        .steps
        .iter()
        .zip(&feasible)
        .find(|(_, &ok)| !ok)
        .map(|(step, _)| step.cycle);

    let epochs = plan_epochs_timeline_with(
        &topo,
        cg,
        routing.turn_table(),
        routing.routing_tables(),
        &timeline,
        builder,
        strategy,
        None,
    )
    .map_err(|e| format!("fault repair failed: {e}"))?;

    // Invariant 2 — certification: every transition, down or up, carries
    // a fresh Dally–Seitz certificate for the degraded table and for the
    // old∪new union the in-flight worms route through.
    let certs: Vec<_> = epochs.iter().map(|e| e.epoch.certify(cg)).collect();
    let all_certified = certs
        .iter()
        .all(irnet_verify::EpochCertificates::is_deadlock_free);

    // Invariants 3 and 4 — conservation and liveness — come out of the
    // simulation. Flap recoveries can land past the configured run, so
    // the horizon extends to cover the last scheduled epoch plus a drain
    // margin; the watchdog still bounds every wait.
    let mut sim = Simulator::new(cg, routing.routing_tables(), cfg, sim_seed);
    for e in &epochs {
        sim.schedule_reconfig(&e.epoch);
    }
    let last_epoch = epochs.iter().map(|e| e.epoch.cycle).max().unwrap_or(0);
    let horizon = cfg.total_cycles().max(last_epoch.saturating_add(1_000));
    let tel = irnet_telemetry::current();
    let span = tel.span("sim/run");
    sim.advance(horizon);
    span.finish();
    let stats = sim.finish();
    irnet_sim::record_run_telemetry(&tel, &stats);
    let all_feasible = infeasible_at.is_none();
    let conserved = stats.flits_conserved();
    let passed = all_feasible && all_certified && conserved && !stats.deadlocked;

    let epoch_values: Vec<Value> = epochs
        .iter()
        .zip(&certs)
        .zip(&timeline.steps)
        .zip(&feasible)
        .map(|(((e, c), step), &ok)| {
            Value::Map(vec![
                ("cycle".to_string(), Value::U64(u64::from(e.epoch.cycle))),
                (
                    "direction".to_string(),
                    Value::Str(step_direction(step).to_string()),
                ),
                ("feasible".to_string(), Value::Bool(ok)),
                (
                    "dead_links".to_string(),
                    Value::U64(e.epoch.dead_links.len() as u64),
                ),
                (
                    "dead_switches".to_string(),
                    Value::U64(e.epoch.dead_nodes.len() as u64),
                ),
                (
                    "dead_channels".to_string(),
                    Value::U64(e.epoch.dead_channels.len() as u64),
                ),
                (
                    "revived_switches".to_string(),
                    Value::U64(e.epoch.revived_nodes.len() as u64),
                ),
                (
                    "revived_channels".to_string(),
                    Value::U64(e.epoch.revived_channels.len() as u64),
                ),
                (
                    "flipped_channels".to_string(),
                    Value::U64(e.epoch.flipped_channels.len() as u64),
                ),
                ("touched_rows".to_string(), Value::U64(e.spans.touched_rows)),
                ("certified".to_string(), Value::Bool(c.is_deadlock_free())),
            ])
        })
        .collect();
    let report = Value::Map(vec![
        ("kind".to_string(), Value::Str("soak_report".to_string())),
        ("chaos_seed".to_string(), Value::U64(chaos_seed)),
        ("sim_seed".to_string(), Value::U64(sim_seed)),
        ("hold".to_string(), Value::U64(u64::from(hold))),
        (
            "repair_strategy".to_string(),
            Value::Str(strategy.name().to_string()),
        ),
        (
            "switches".to_string(),
            Value::U64(u64::from(topo.num_nodes())),
        ),
        ("plan".to_string(), plan.to_value()),
        ("damping".to_string(), damping_value(&timeline)),
        ("epochs".to_string(), Value::Seq(epoch_values)),
        (
            "simulation".to_string(),
            Value::Map(vec![
                (
                    "packets_delivered".to_string(),
                    Value::U64(stats.packets_delivered),
                ),
                (
                    "packets_generated".to_string(),
                    Value::U64(stats.packets_generated),
                ),
                ("dropped_flits".to_string(), Value::U64(stats.dropped_flits)),
                (
                    "dropped_packets".to_string(),
                    Value::U64(stats.dropped_packets),
                ),
                (
                    "reconfig_epochs".to_string(),
                    Value::U64(u64::from(stats.reconfig_epochs)),
                ),
                ("deadlocked".to_string(), Value::Bool(stats.deadlocked)),
                (
                    "flits_injected_total".to_string(),
                    Value::U64(stats.flits_injected_total),
                ),
                (
                    "flits_delivered_total".to_string(),
                    Value::U64(stats.flits_delivered_total),
                ),
                (
                    "flits_in_flight".to_string(),
                    Value::U64(stats.flits_in_flight),
                ),
                ("flits_conserved".to_string(), Value::Bool(conserved)),
            ]),
        ),
        ("all_feasible".to_string(), Value::Bool(all_feasible)),
        ("all_certified".to_string(), Value::Bool(all_certified)),
        ("conserved".to_string(), Value::Bool(conserved)),
        ("passed".to_string(), Value::Bool(passed)),
    ]);
    let json = serde_json::to_string_pretty(&report).unwrap_or_default() + "\n";
    match o.get("out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote soak report to {path}");
        }
        None => print!("{json}"),
    }
    eprintln!(
        "soak: {} event(s) -> {} raw transition(s) -> {} admitted epoch(s) \
         ({} suppressed re-admission(s)), repair {}",
        plan.events().len(),
        timeline.raw_transitions,
        epochs.len(),
        timeline.suppressed_ups(),
        strategy.name()
    );
    eprintln!(
        "soak: feasibility {}, certification {}, conservation {}, liveness {}",
        if all_feasible { "ok" } else { "FAILED" },
        if all_certified { "ok" } else { "FAILED" },
        if conserved { "exact" } else { "VIOLATED" },
        if stats.deadlocked {
            "FAILED (watchdog fired)"
        } else {
            "ok"
        }
    );
    if let Some(cycle) = infeasible_at {
        return Err(format!(
            "soak failed: the network degraded at cycle {cycle} is provably unroutable"
        ));
    }
    if !all_certified {
        return Err("soak failed: a reconfiguration epoch failed certification".to_string());
    }
    if stats.deadlocked {
        return Err(format!(
            "soak failed: deadlock watchdog fired (no progress since cycle {}, \
             {} flits stranded)",
            stats.last_progress, stats.flits_in_flight
        ));
    }
    if !conserved {
        return Err(format!(
            "soak failed: flit conservation violated (injected {} != delivered {} \
             + dropped {} + in flight {})",
            stats.flits_injected_total,
            stats.flits_delivered_total,
            stats.dropped_flits,
            stats.flits_in_flight
        ));
    }
    Ok(())
}

/// The transition direction of one timeline step.
fn step_direction(step: &irnet_topology::TimelineStep) -> &'static str {
    let downs = !step.failed_links.is_empty() || !step.failed_nodes.is_empty();
    let ups = !step.revived_links.is_empty() || !step.revived_nodes.is_empty();
    match (downs, ups) {
        (true, false) => "down",
        (false, true) => "up",
        _ => "mixed",
    }
}

/// JSON view of a timeline's flap-damping accounting: raw vs admitted
/// transition counts plus the per-element state machine tallies.
fn damping_value(timeline: &irnet_topology::RecoveryTimeline) -> Value {
    let elements: Vec<Value> = timeline
        .damping
        .iter()
        .map(|d| {
            Value::Map(vec![
                ("element".to_string(), Value::Str(d.element.to_string())),
                ("downs".to_string(), Value::U64(u64::from(d.downs))),
                ("ups".to_string(), Value::U64(u64::from(d.ups))),
                (
                    "admitted_downs".to_string(),
                    Value::U64(u64::from(d.admitted_downs)),
                ),
                (
                    "admitted_ups".to_string(),
                    Value::U64(u64::from(d.admitted_ups)),
                ),
                (
                    "suppressed_ups".to_string(),
                    Value::U64(u64::from(d.suppressed_ups)),
                ),
                (
                    "max_hold_applied".to_string(),
                    Value::U64(u64::from(d.max_hold_applied)),
                ),
            ])
        })
        .collect();
    Value::Map(vec![
        (
            "raw_transitions".to_string(),
            Value::U64(u64::from(timeline.raw_transitions)),
        ),
        (
            "admitted_steps".to_string(),
            Value::U64(timeline.steps.len() as u64),
        ),
        (
            "suppressed_ups".to_string(),
            Value::U64(u64::from(timeline.suppressed_ups())),
        ),
        ("elements".to_string(), Value::Seq(elements)),
    ])
}

/// Writes a deadlock-forensics incident to `--incident FILE`, or summarises
/// it on stderr when no file was requested.
fn write_incident(o: &Opts, incident: &irnet_obs::Incident) -> Result<(), String> {
    eprintln!(
        "deadlock forensics: {} blocked worm(s), {} waits-for edge(s), {}",
        incident.worms.len(),
        incident.edges.len(),
        if incident.is_circular_wait() {
            "circular wait (witness cycle in report)"
        } else {
            "acyclic stall (waiting on dead or held resources)"
        }
    );
    if let Some(path) = o.get("incident") {
        std::fs::write(path, incident.to_json() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote incident report to {path}");
    }
    Ok(())
}

/// Flight-recorder capture: run one simulation (optionally through a fault
/// scenario) with the recorder and interval sampler attached, then export
/// the recording as JSONL.
fn cmd_trace(o: &Opts) -> Result<(), String> {
    use irnet_core::{plan_epochs_with, DownUp, ReconfigEpoch};
    use irnet_obs::{deadlock_incident, FlightRecorder, IntervalSampler};

    let topo = load_topology(o)?;
    let cfg = sim_config(o);
    let sim_seed = o.parse("sim-seed", 7u64);
    let no_repair = o.flag("no-repair");
    let sample_every = o.parse("sample-every", 0u32);
    let mut recorder = FlightRecorder::new(o.parse("events", 65_536usize));
    let mut sampler = (sample_every > 0).then(|| IntervalSampler::new(sample_every));

    // With a fault scenario the run mirrors `faults` (DOWN/UP repair per
    // epoch); `--no-repair` keeps the original tables across the fault so
    // worms wedge on the dead channels and the watchdog demonstrably fires.
    if o.get("scenario").is_some() {
        require_downup(o, |_| {
            "`trace --scenario` repairs with DOWN/UP; \
             other --algo values are not supported"
                .to_string()
        })?;
    }
    let scenario = load_plan(o)?;
    let builder = DownUp::new()
        .policy(parse_policy(o))
        .seed(o.parse("seed", 1u64));
    let inst = build_instance(o, &topo)?;
    let epochs = match &scenario {
        Some(plan) => plan_epochs_with(
            &topo,
            &inst.cg,
            &inst.table,
            &inst.tables,
            plan,
            builder,
            RepairStrategy::Full,
        )
        .map_err(|e| format!("fault repair failed: {e}"))?
        .into_iter()
        .map(|e| e.epoch)
        // Unrepaired mode observes the failure, it does not survive it.
        .map(|e| {
            if no_repair {
                ReconfigEpoch {
                    tables: inst.tables.clone(),
                    ..e
                }
            } else {
                e
            }
        })
        .collect(),
        None => Vec::new(),
    };
    let last_fault = epochs.iter().map(|e| e.cycle).max();

    let mut sim = Simulator::new(&inst.cg, &inst.tables, cfg, sim_seed);
    for e in &epochs {
        sim.schedule_reconfig(e);
    }
    sim.attach_recorder(&mut recorder);

    let total = cfg.total_cycles();
    // In unrepaired mode, cut injection after the last fault and run past
    // the horizon until the network drains or the watchdog fires: wedged
    // worms are then the only live packets, so the stall is deterministic.
    let horizon = if no_repair {
        total.saturating_add(200_000)
    } else {
        total
    };
    // The clock after the last fault, from which no new traffic is offered.
    let mut cut = last_fault
        .filter(|_| no_repair)
        .and_then(|c| c.checked_add(1));
    let tel = irnet_telemetry::current();
    let span = tel.span("sim/run");
    let mut halt = Halt::Reached;
    while halt == Halt::Reached && sim.now() < horizon {
        // Past the configured run, only the unrepaired mode goes on, and
        // only until the network drains.
        let draining = sim.now() >= total;
        let mut until = if draining { horizon } else { total };
        if let Some(s) = &sampler {
            until = until.min(s.due());
        }
        if let Some(c) = cut {
            until = until.min(c);
        }
        halt = if draining {
            sim.drain(until)
        } else {
            sim.advance(until)
        };
        if let Some(s) = sampler.as_mut() {
            s.maybe_sample(&sim);
        }
        if cut.is_some_and(|c| sim.now() >= c) {
            sim.set_injection_rate(0.0);
            cut = None;
        }
    }
    span.finish();
    if let Some(s) = sampler.as_mut() {
        s.force_sample(&sim);
    }

    let incident = (halt == Halt::Stalled).then(|| deadlock_incident(&sim));
    let stats = sim.finish();
    irnet_sim::record_run_telemetry(&tel, &stats);

    if let Some(incident) = &incident {
        write_incident(o, incident)?;
    }
    if let (Some(s), Some(path)) = (&sampler, o.get("series")) {
        std::fs::write(path, s.to_csv()).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {} sample(s) to {path}", s.samples().len());
    }
    let jsonl = recorder.export_jsonl();
    match o.get("out") {
        Some(path) => {
            std::fs::write(path, &jsonl).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!(
                "wrote {} event(s) to {path} ({} recorded, {} evicted from the ring)",
                recorder.len(),
                recorder.total_recorded(),
                recorder.evicted()
            );
        }
        None => print!("{jsonl}"),
    }
    eprintln!(
        "trace: {} cycles, {} packet(s) delivered, {} event(s) recorded{}",
        stats.cycles,
        stats.packets_delivered,
        recorder.total_recorded(),
        if stats.deadlocked {
            " — DEADLOCK (watchdog fired)"
        } else {
            ""
        }
    );
    Ok(())
}

/// One-shot busiest-channels / busiest-nodes view of a simulation.
fn cmd_top(o: &Opts) -> Result<(), String> {
    let topo = load_topology(o)?;
    let inst = build_instance(o, &topo)?;
    let cfg = sim_config(o);
    let stats = run_measured(Simulator::new(
        &inst.cg,
        &inst.tables,
        cfg,
        o.parse("sim-seed", 7u64),
    ));
    print!(
        "{}",
        irnet_obs::render_top(&stats, &inst.cg, o.parse("k", 10usize))
    );
    Ok(())
}

/// Renders a telemetry snapshot written by `--telemetry`, optionally as a
/// diff against a second (newer) snapshot or as Prometheus text exposition.
fn cmd_stats(o: &Opts) -> Result<(), String> {
    let path = o
        .get("snapshot")
        .ok_or("stats requires --snapshot FILE (a file written by --telemetry)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let snap = Snapshot::from_json(&text)
        .map_err(|e| format!("{path} is not a telemetry snapshot: {e}"))?;
    if let Some(path2) = o.get("diff") {
        let text2 =
            std::fs::read_to_string(path2).map_err(|e| format!("cannot read {path2}: {e}"))?;
        let newer = Snapshot::from_json(&text2)
            .map_err(|e| format!("{path2} is not a telemetry snapshot: {e}"))?;
        print!("{}", snap.diff(&newer));
    } else if o.flag("prometheus") {
        print!("{}", snap.to_prometheus());
    } else {
        print!("{}", snap.render());
    }
    Ok(())
}

/// `Value::Seq` of numeric ids.
fn ids<T: Copy + Into<u64>>(xs: &[T]) -> Value {
    Value::Seq(xs.iter().map(|&x| Value::U64(x.into())).collect())
}

fn verdict_line(cert: &irnet_verify::Certificate) -> String {
    match &cert.verdict {
        Verdict::DeadlockFree { .. } => format!(
            "certified deadlock-free ({} channels, {} dependency edges)",
            cert.num_channels, cert.num_edges
        ),
        Verdict::Deadlock { witness } => {
            format!(
                "DEADLOCK (minimized witness cycle, {} channels)",
                witness.len()
            )
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        fail("missing subcommand")
    };
    let opts = parse_opts(rest);
    // Install the global registry before dispatch so every subsystem the
    // command touches records into the same snapshot. Without --telemetry the
    // global stays disabled and hot paths pay a single branch.
    let tel_path = opts.get("telemetry").map(str::to_string);
    if tel_path.is_some() {
        irnet_telemetry::install(Telemetry::enabled());
    }
    let result = match cmd.as_str() {
        "gen" => cmd_gen(&opts),
        "analyze" => cmd_analyze(&opts),
        "verify" => cmd_verify(&opts),
        "lint" => cmd_lint(&opts),
        "routes" => cmd_routes(&opts),
        "simulate" => cmd_simulate(&opts),
        "sweep" => cmd_sweep(&opts),
        "export" => cmd_export(&opts),
        "render" => cmd_render(&opts),
        "replay" => cmd_replay(&opts),
        "faults" => cmd_faults(&opts),
        "soak" => cmd_soak(&opts),
        "trace" => cmd_trace(&opts),
        "top" => cmd_top(&opts),
        "stats" => cmd_stats(&opts),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => fail(&format!("unknown subcommand {other:?}")),
    };
    // Written even when the command errs: a partial snapshot of a failed run
    // is still diagnostic. Paths that exit the process early (usage errors,
    // verify/lint findings) skip it by design.
    if let Some(path) = &tel_path {
        let json = irnet_telemetry::global().snapshot().to_json();
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("irnet: cannot write telemetry snapshot {path}: {e}");
        }
    }
    if let Err(msg) = result {
        eprintln!("irnet: {msg}");
        exit::finding()
    }
    std::process::exit(exit::CLEAN)
}
