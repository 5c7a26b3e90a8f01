//! The sample × tree-policy × algorithm × load grid runner behind every
//! reproduction binary.
//!
//! Work is sharded at `(cell, sample, load point)` granularity through a
//! work-stealing pool: a chunked atomic cursor hands task ranges to worker
//! shards, each shard accumulates results in a private buffer, and the
//! buffers are merged by task index at the end. Every point derives its
//! simulation seed purely from `(cell, sample, rate index)`, so the output
//! is bit-exact regardless of thread count, chunk size, or execution order.
//! A per-run construction cache builds each topology once per
//! `(sample, ports)` and each routing instance once per `(cell, sample)`,
//! shared via `Arc` across that sample's load points (see DESIGN.md §13).

use crate::args::Cli;
use irnet_metrics::paper::PaperMetrics;
use irnet_metrics::sweep::{self, SweepCurve, SweepPoint};
use irnet_metrics::{Algo, Instance};
use irnet_sim::{InjectionSampling, SimConfig};
use irnet_telemetry::{Progress, ProgressMode, Telemetry};
use irnet_topology::{gen, PreorderPolicy, Topology, MAX_PORTS};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Full experiment description.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Switches per network (paper: 128).
    pub num_switches: u32,
    /// Port configurations to evaluate (paper: 4 and 8).
    pub ports: Vec<u32>,
    /// Random topologies per configuration (paper: 10).
    pub samples: u32,
    /// Coordinated-tree preorder policies (paper: M1, M2, M3).
    pub policies: Vec<PreorderPolicy>,
    /// Routing algorithms under test.
    pub algos: Vec<Algo>,
    /// Offered-load ladder (flits/node/clock).
    pub rates: Vec<f64>,
    /// Base simulator configuration (injection rate is overridden per
    /// point).
    pub sim: SimConfig,
    /// Base seed for topology generation (sample `s` uses
    /// `topo_seed + s`).
    pub topo_seed: u64,
    /// Base seed for simulation randomness.
    pub sim_seed: u64,
    /// Worker threads for the grid (each simulation stays single-threaded).
    /// Defaults to every available core ([`default_threads`]); override
    /// with `--threads N`. The output is bit-exact for any value.
    pub threads: usize,
    /// Tasks handed to a shard per steal from the shared cursor; `0` picks
    /// a heuristic from the task count. Any value yields identical output.
    pub chunk: usize,
    /// Emit completed/total/elapsed/ETA progress to stderr in this
    /// format: the established human lines or JSONL heartbeats
    /// (`--progress [human|json]`). `None` is silent.
    pub progress: Option<ProgressMode>,
}

/// The [`SimConfig`] field a grid flag overrides.
type SimField = fn(&mut SimConfig) -> &mut u32;

/// The simulator setup of the paper presets: the paper's uniform Bernoulli
/// arrivals, drawn as geometric gaps between a source's arrivals, so the
/// inject stage costs O(arrivals) rather than O(nodes) per clock. The law
/// is the per-cycle draw's, on another RNG stream
/// (`tests/sampler_equivalence.rs`); [`SimConfig::default`] keeps the
/// per-cycle reference stream that the engine's golden pins use.
fn paper_sim() -> SimConfig {
    SimConfig {
        injection_sampling: InjectionSampling::Geometric,
        ..SimConfig::default()
    }
}

/// The default grid worker count: one per available core, so `--full`
/// reproduction runs saturate the machine out of the box. Falls back to 1
/// when the parallelism query fails (e.g. restricted sandboxes).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl ExperimentConfig {
    /// CI-sized configuration: small networks, short runs, one policy.
    /// Both presets sample arrivals geometrically (see `paper_sim`).
    pub fn quick() -> ExperimentConfig {
        ExperimentConfig {
            num_switches: 32,
            ports: vec![4],
            samples: 2,
            policies: vec![PreorderPolicy::M1],
            algos: Algo::PAPER_PAIR.to_vec(),
            rates: sweep::default_rates(5),
            sim: SimConfig {
                packet_len: 32,
                warmup_cycles: 500,
                measure_cycles: 2_000,
                ..paper_sim()
            },
            topo_seed: 1_000,
            sim_seed: 42,
            threads: default_threads(),
            chunk: 0,
            progress: None,
        }
    }

    /// Paper-sized configuration: 128 switches, 10 samples, 3 policies,
    /// 128-flit packets.
    pub fn full() -> ExperimentConfig {
        ExperimentConfig {
            num_switches: 128,
            ports: vec![4, 8],
            samples: 10,
            policies: PreorderPolicy::ALL.to_vec(),
            algos: Algo::PAPER_PAIR.to_vec(),
            rates: sweep::default_rates(10),
            sim: paper_sim(),
            topo_seed: 1_000,
            sim_seed: 42,
            threads: default_threads(),
            chunk: 0,
            progress: None,
        }
    }

    /// Builds a configuration from a CLI: `--full` selects the paper-sized
    /// preset (default is `--quick`), and individual values can be
    /// overridden with `--switches`, `--ports 4,8`, `--samples`,
    /// `--rates 0.01,0.05`, `--packet-len`, `--warmup`, `--measure`,
    /// `--threads` (default: all cores), `--chunk`, `--seed`;
    /// `--progress [human|json]` streams completion/ETA lines (or JSONL
    /// heartbeats) to stderr. A value the grid cannot run exits with
    /// status 2 and names its flag.
    pub fn from_cli(cli: &Cli) -> ExperimentConfig {
        let mut cfg = if cli.flag("full") {
            ExperimentConfig::full()
        } else {
            ExperimentConfig::quick()
        };
        cfg.num_switches = cli.opt_parse("switches", cfg.num_switches);
        if cfg.num_switches < 2 {
            cli.reject("switches", "a fabric needs at least 2 switches");
        }
        cfg.ports = cli.opt_list("ports", &cfg.ports);
        if cfg.ports.iter().any(|p| !(2..=MAX_PORTS).contains(p)) {
            cli.reject(
                "ports",
                &format!("ports per switch must be in 2..={MAX_PORTS}"),
            );
        }
        cfg.samples = cli.opt_parse("samples", cfg.samples);
        if cfg.samples == 0 {
            cli.reject("samples", "at least one topology sample is needed");
        }
        // Each simulator override is checked as it lands (the presets pass
        // `SimConfig::check`), so a rejection names the flag at fault.
        let sim_fields: [(&str, SimField); 5] = [
            ("packet-len", |s| &mut s.packet_len),
            ("warmup", |s| &mut s.warmup_cycles),
            ("measure", |s| &mut s.measure_cycles),
            ("buffer-depth", |s| &mut s.buffer_depth),
            ("vcs", |s| &mut s.virtual_channels),
        ];
        for (flag, field) in sim_fields {
            let value = field(&mut cfg.sim);
            *value = cli.opt_parse(flag, *value);
            if let Err(reason) = cfg.sim.check() {
                cli.reject(flag, reason);
            }
        }
        cfg.rates = cli.opt_list("rates", &cfg.rates);
        for &injection_rate in &cfg.rates {
            let point = SimConfig {
                injection_rate,
                ..cfg.sim
            };
            if let Err(reason) = point.check() {
                cli.reject("rates", reason);
            }
        }
        cfg.topo_seed = cli.opt_parse("seed", cfg.topo_seed);
        cfg.threads = cli.opt_parse("threads", cfg.threads).max(1);
        cfg.chunk = cli.opt_parse("chunk", cfg.chunk);
        if let Some(raw) = cli.opt("progress") {
            cfg.progress = Some(ProgressMode::parse(raw).unwrap_or_else(|| {
                eprintln!("unknown progress mode {raw:?} (expected human or json)");
                std::process::exit(2);
            }));
        } else if cli.flag("progress") {
            cfg.progress = cfg.progress.or(Some(ProgressMode::Human));
        }
        if let Some(raw) = cli.opt("policies") {
            cfg.policies = raw
                .split(',')
                .map(|p| {
                    let p = p.trim();
                    PreorderPolicy::parse(p).unwrap_or_else(|| {
                        eprintln!("unknown policy {p:?}");
                        std::process::exit(2);
                    })
                })
                .collect();
        }
        cfg
    }
}

/// Identifies one cell of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Ports per switch.
    pub ports: u32,
    /// Preorder policy used for the coordinated tree.
    pub policy: PreorderPolicy,
    /// Routing algorithm under test.
    pub algo: Algo,
}

/// Per-load averages across samples (Figure 8 series).
#[derive(Debug, Clone, Copy)]
pub struct AvgPoint {
    /// Offered load (flits/node/cycle).
    pub offered: f64,
    /// Paper metrics averaged over the samples that completed at this load.
    pub metrics: PaperMetrics,
    /// Samples whose run at this load was aborted by the deadlock watchdog.
    /// Those samples are *excluded* from `metrics` (a stalled run's partial
    /// counters would silently bias the average); when every sample
    /// deadlocked, `metrics` falls back to averaging the partial runs so
    /// the point is still plottable — but it is marked here either way.
    pub deadlocked_samples: u32,
}

/// A fully aggregated grid cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Which grid cell this is.
    pub key: CellKey,
    /// Average of the paper metrics at each offered load, over samples.
    pub points: Vec<AvgPoint>,
    /// Average of each sample's maximal-throughput metrics (Tables 1–4).
    pub saturation: PaperMetrics,
    /// Total (sample × load) runs in this cell aborted by the deadlock
    /// watchdog; nonzero means some of `points` carry a deadlock mark.
    pub deadlocked_runs: u32,
}

impl CellResult {
    /// Average maximal throughput over samples.
    pub fn throughput(&self) -> f64 {
        self.saturation.accepted_traffic
    }
}

/// All aggregated cells for one experiment.
#[derive(Debug, Clone)]
pub struct GridResults {
    /// One entry per (ports, policy, algo) combination.
    pub cells: Vec<CellResult>,
}

impl GridResults {
    /// Finds one cell.
    pub fn cell(&self, ports: u32, policy: PreorderPolicy, algo: Algo) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.key.ports == ports && c.key.policy == policy && c.key.algo == algo)
    }
}

/// A grid run that could not be aggregated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// A `(cell, sample)` pair never produced a complete sweep curve — some
    /// of its load points were never reported by any shard (e.g. a worker
    /// thread died before merging its buffer).
    MissingCurve {
        /// The grid cell the incomplete curve belongs to.
        key: CellKey,
        /// The topology sample index that never completed.
        sample: u32,
        /// Load points of this curve that were completed before the loss.
        completed_points: usize,
        /// Load points the curve needs in total.
        expected_points: usize,
    },
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::MissingCurve {
                key,
                sample,
                completed_points,
                expected_points,
            } => write!(
                f,
                "grid cell (ports={}, policy={:?}, algo={}) sample {sample} never produced a \
                 complete sweep curve ({completed_points}/{expected_points} load points \
                 reported) — a worker shard likely died before merging its results",
                key.ports, key.policy, key.algo
            ),
        }
    }
}

impl std::error::Error for GridError {}

/// Counters from one grid run, for observability and cache tests.
#[derive(Debug, Clone, Copy)]
pub struct GridStats {
    /// Load points simulated (`cells × samples × rates`).
    pub points_run: usize,
    /// Topologies generated — exactly one per `(sample, ports)` pair.
    pub topologies_built: usize,
    /// Routing instances constructed — exactly one per `(cell, sample)`.
    pub instances_built: usize,
}

/// Per-run construction cache: one topology per `(sample, ports)` and one
/// routing [`Instance`] per `(cell, sample)`, each built exactly once on
/// first use (`OnceLock` serializes racing shards) and shared via `Arc`
/// across every load point of that sample.
struct ConstructionCache<'a> {
    cfg: &'a ExperimentConfig,
    keys: &'a [CellKey],
    /// Distinct port counts, sorted; indexes the topology table.
    unique_ports: Vec<u32>,
    /// `topos[ports_index * samples + sample]`.
    topos: Vec<OnceLock<Arc<Topology>>>,
    /// `insts[cell * samples + sample]`.
    insts: Vec<OnceLock<Arc<Instance>>>,
    topo_builds: AtomicUsize,
    inst_builds: AtomicUsize,
}

impl<'a> ConstructionCache<'a> {
    fn new(cfg: &'a ExperimentConfig, keys: &'a [CellKey]) -> ConstructionCache<'a> {
        let mut unique_ports = cfg.ports.clone();
        unique_ports.sort_unstable();
        unique_ports.dedup();
        let samples = cfg.samples as usize;
        ConstructionCache {
            cfg,
            keys,
            topos: (0..unique_ports.len() * samples)
                .map(|_| OnceLock::new())
                .collect(),
            insts: (0..keys.len() * samples).map(|_| OnceLock::new()).collect(),
            unique_ports,
            topo_builds: AtomicUsize::new(0),
            inst_builds: AtomicUsize::new(0),
        }
    }

    fn topology(&self, ports: u32, sample: u32) -> Arc<Topology> {
        let pi = self
            .unique_ports
            .iter()
            .position(|&p| p == ports)
            .expect("ports not in configuration");
        let slot = &self.topos[pi * self.cfg.samples as usize + sample as usize];
        Arc::clone(slot.get_or_init(|| {
            self.topo_builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(
                gen::random_irregular(
                    gen::IrregularParams::paper(self.cfg.num_switches, ports),
                    self.cfg.topo_seed + sample as u64,
                )
                .expect("topology generation failed"),
            )
        }))
    }

    fn instance(&self, cell: usize, sample: u32) -> Arc<Instance> {
        let slot = &self.insts[cell * self.cfg.samples as usize + sample as usize];
        Arc::clone(slot.get_or_init(|| {
            let key = self.keys[cell];
            let topo = self.topology(key.ports, sample);
            self.inst_builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(
                key.algo
                    .construct(&topo, key.policy, self.cfg.topo_seed + sample as u64)
                    .expect("routing construction failed"),
            )
        }))
    }
}

/// The per-`(cell, sample)` base seed each sweep curve derives its points
/// from — unchanged from the original per-sample runner so every golden pin
/// survives the resharding.
fn curve_seed(cfg: &ExperimentConfig, cell: usize, sample: u32) -> u64 {
    cfg.sim_seed
        .wrapping_add(sample as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(cell as u64)
}

/// Runs the whole grid, distributing `(cell × sample × load point)` tasks
/// over `cfg.threads` work-stealing shards. Bit-exact regardless of thread
/// count and chunk size.
///
/// # Panics
///
/// Panics with the [`GridError`] message if a worker shard failed to report
/// its points; use [`run_grid_with_stats`] to handle that case as a
/// `Result`.
pub fn run_grid(cfg: &ExperimentConfig) -> GridResults {
    match run_grid_with_stats(cfg) {
        Ok((results, _)) => results,
        Err(e) => panic!("{e}"),
    }
}

/// [`run_grid`], reporting incomplete cells as an error instead of
/// panicking, and also returning the construction-cache counters. The
/// grid records into [`irnet_telemetry::current`]: a `grid/run` span
/// guard times the whole run, and each shard thread re-enters that handle's
/// scope, so construction and every point record there too.
pub fn run_grid_with_stats(cfg: &ExperimentConfig) -> Result<(GridResults, GridStats), GridError> {
    let mut keys = Vec::new();
    for &ports in &cfg.ports {
        for &policy in &cfg.policies {
            for &algo in &cfg.algos {
                keys.push(CellKey {
                    ports,
                    policy,
                    algo,
                });
            }
        }
    }
    let samples = cfg.samples as usize;
    let n_rates = cfg.rates.len();
    let total = keys.len() * samples * n_rates;
    let threads = cfg.threads.max(1);
    // Auto chunk: ~8 steals per shard balances cursor contention against
    // tail latency; any choice is output-invariant.
    let chunk = if cfg.chunk > 0 {
        cfg.chunk
    } else {
        (total / (threads * 8)).clamp(1, 64)
    };

    let cache = ConstructionCache::new(cfg, &keys);
    let merged: Mutex<Vec<(usize, SweepPoint)>> = Mutex::new(Vec::with_capacity(total));
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    // The backend tag keeps grid progress/output distinguishable from
    // flow-backend sweeps (the grid always runs the exact flit engine).
    // Throttled to one line per half second; races between shards resolve
    // inside the emitter so only one prints per window.
    let progress = cfg.progress.map(|mode| {
        Progress::new("grid[flit]", total, mode)
            .percent(true)
            .throttle_ms(500)
    });
    let tel = irnet_telemetry::current();
    let span = tel.span("grid/run");

    // One shard: steal a chunk of task indices, run each load point into a
    // private buffer, merge the buffer once at the end.
    let run_shard = || {
        let mut local: Vec<(usize, SweepPoint)> = Vec::new();
        loop {
            let begin = next.fetch_add(chunk, Ordering::Relaxed);
            if begin >= total {
                break;
            }
            let end = (begin + chunk).min(total);
            for t in begin..end {
                let rate_idx = t % n_rates;
                let rest = t / n_rates;
                let sample = (rest % samples) as u32;
                let cell = rest / samples;
                let inst = cache.instance(cell, sample);
                let seed = sweep::point_seed(curve_seed(cfg, cell, sample), rate_idx);
                let point = sweep::run_point(&inst, &cfg.sim, cfg.rates[rate_idx], seed);
                local.push((t, point));
            }
            let finished = done.fetch_add(end - begin, Ordering::Relaxed) + (end - begin);
            if let Some(p) = &progress {
                p.tick(finished);
            }
        }
        merged.lock().unwrap().append(&mut local);
    };
    // Construction and every point record into `tel`, so each worker
    // thread enters its scope.
    if threads <= 1 {
        run_shard();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| tel.scope(run_shard));
            }
        });
    }

    // Scatter the merged shard buffers back into task order; order of
    // arrival is irrelevant because indices are disjoint.
    let mut flat: Vec<Option<SweepPoint>> = vec![None; total];
    for (t, point) in merged.into_inner().unwrap() {
        flat[t] = Some(point);
    }
    let mut cells = Vec::with_capacity(keys.len());
    for (ci, &key) in keys.iter().enumerate() {
        let mut sample_curves = Vec::with_capacity(samples);
        for s in 0..samples {
            let curve_base = (ci * samples + s) * n_rates;
            let mut points = Vec::with_capacity(n_rates);
            for r in 0..n_rates {
                match flat[curve_base + r].take() {
                    Some(p) => points.push(p),
                    None => {
                        return Err(GridError::MissingCurve {
                            key,
                            sample: s as u32,
                            completed_points: points.len()
                                + flat[curve_base + r..curve_base + n_rates]
                                    .iter()
                                    .filter(|p| p.is_some())
                                    .count(),
                            expected_points: n_rates,
                        })
                    }
                }
            }
            sample_curves.push(SweepCurve { points });
        }
        cells.push(aggregate_cell(key, &sample_curves, &cfg.rates));
    }
    let stats = GridStats {
        points_run: total,
        topologies_built: cache.topo_builds.load(Ordering::Relaxed),
        instances_built: cache.inst_builds.load(Ordering::Relaxed),
    };
    span.finish();
    record_grid_telemetry(&tel, &stats);
    Ok((GridResults { cells }, stats))
}

/// Records the counters [`GridStats`] carries (points run,
/// construction-cache builds) into the telemetry registry. Recorded once
/// per run, after the shards have joined, so the hot loop never touches the
/// registry.
fn record_grid_telemetry(tel: &Telemetry, stats: &GridStats) {
    if !tel.is_enabled() {
        return;
    }
    tel.counter("grid/points_run").add(stats.points_run as u64);
    tel.counter("grid/topologies_built")
        .add(stats.topologies_built as u64);
    tel.counter("grid/instances_built")
        .add(stats.instances_built as u64);
}

/// Averages one cell's sample curves point-wise and at saturation.
/// Deadlocked sample points are excluded from the averages, counted, and
/// reported on stderr with their stall cycle.
fn aggregate_cell(key: CellKey, samples: &[SweepCurve], rates: &[f64]) -> CellResult {
    let mut deadlocked_runs = 0u32;
    let points = (0..rates.len())
        .map(|i| {
            let clean: Vec<&PaperMetrics> = samples
                .iter()
                .filter(|c| !c.points[i].deadlocked)
                .map(|c| &c.points[i].metrics)
                .collect();
            let deadlocked_samples = (samples.len() - clean.len()) as u32;
            deadlocked_runs += deadlocked_samples;
            for (s, c) in samples.iter().enumerate() {
                let p = &c.points[i];
                if p.deadlocked {
                    eprintln!(
                        "!! deadlock: ports={} policy={:?} algo={} offered={:.4} \
                         sample={s}: no progress since cycle {}",
                        key.ports, key.policy, key.algo, p.offered, p.stall_cycle
                    );
                }
            }
            let metrics = if clean.is_empty() {
                PaperMetrics::mean(samples.iter().map(|c| &c.points[i].metrics))
            } else {
                PaperMetrics::mean(clean)
            };
            AvgPoint {
                offered: rates[i],
                metrics,
                deadlocked_samples,
            }
        })
        .collect();
    let sats: Vec<PaperMetrics> = samples.iter().map(|c| c.saturation().metrics).collect();
    CellResult {
        key,
        points,
        saturation: PaperMetrics::mean(sats.iter()),
        deadlocked_runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            num_switches: 12,
            ports: vec![4],
            samples: 2,
            policies: vec![PreorderPolicy::M1],
            algos: Algo::PAPER_PAIR.to_vec(),
            rates: vec![0.02, 0.2],
            sim: SimConfig {
                packet_len: 8,
                warmup_cycles: 200,
                measure_cycles: 800,
                ..SimConfig::default()
            },
            topo_seed: 7,
            sim_seed: 9,
            threads: 1,
            chunk: 0,
            progress: None,
        }
    }

    #[test]
    fn grid_produces_all_cells_and_points() {
        let cfg = tiny();
        let res = run_grid(&cfg);
        assert_eq!(res.cells.len(), 2);
        for c in &res.cells {
            assert_eq!(c.points.len(), 2);
            assert!(c.throughput() > 0.0);
        }
        assert!(res
            .cell(4, PreorderPolicy::M1, Algo::PAPER_PAIR[0])
            .is_some());
        assert!(res
            .cell(8, PreorderPolicy::M1, Algo::PAPER_PAIR[0])
            .is_none());
    }

    #[test]
    fn grid_is_thread_count_invariant() {
        let mut cfg = tiny();
        let single = run_grid(&cfg);
        cfg.threads = 3;
        cfg.chunk = 1; // maximal interleaving across shards
        let multi = run_grid(&cfg);
        for (a, b) in single.cells.iter().zip(&multi.cells) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.saturation.accepted_traffic, b.saturation.accepted_traffic);
            for (pa, pb) in a.points.iter().zip(&b.points) {
                assert_eq!(
                    pa.metrics.avg_latency.to_bits(),
                    pb.metrics.avg_latency.to_bits()
                );
            }
        }
    }

    #[test]
    fn construction_cache_builds_each_world_exactly_once() {
        // chunk=1 with more shards than tasks per construction maximizes
        // contention on the OnceLock slots; the counters must still show
        // one topology per (sample, ports) and one instance per
        // (cell, sample).
        let mut cfg = tiny();
        cfg.threads = 4;
        cfg.chunk = 1;
        let tel = Telemetry::enabled();
        let (results, stats) = tel.scope(|| run_grid_with_stats(&cfg)).unwrap();
        assert_eq!(results.cells.len(), 2);
        assert_eq!(stats.points_run, 2 * 2 * 2); // cells × samples × rates
        assert_eq!(stats.topologies_built, 2); // 1 port count × 2 samples
        assert_eq!(stats.instances_built, 4); // 2 cells × 2 samples
        let snap = tel.snapshot();
        assert_eq!(snap.counter("grid/points_run"), Some(8));
        assert_eq!(snap.counter("grid/topologies_built"), Some(2));
        assert_eq!(snap.counter("grid/instances_built"), Some(4));
        assert_eq!(snap.span("grid/run").map_or(0, |s| s.count), 1);
        // Duplicate port entries must not double-build topologies.
        let mut dup = tiny();
        dup.ports = vec![4, 4];
        dup.threads = 3;
        let (_, dup_stats) = run_grid_with_stats(&dup).unwrap();
        assert_eq!(dup_stats.topologies_built, 2);
        assert_eq!(dup_stats.instances_built, 8); // 4 cells × 2 samples
    }

    #[test]
    fn deadlocked_samples_are_marked_and_excluded_from_averages() {
        use irnet_metrics::sweep::SweepPoint;
        let m = |accepted: f64| PaperMetrics {
            node_utilization: accepted,
            traffic_load: 0.0,
            hot_spot_degree: 0.0,
            leaf_utilization: 0.0,
            avg_latency: 10.0,
            accepted_traffic: accepted,
        };
        let point = |accepted: f64, deadlocked: bool| SweepPoint {
            offered: 0.1,
            metrics: m(accepted),
            deadlocked,
            stall_cycle: if deadlocked { 1234 } else { 0 },
        };
        let clean = SweepCurve {
            points: vec![point(0.4, false)],
        };
        let stalled = SweepCurve {
            points: vec![point(0.1, true)],
        };
        let key = CellKey {
            ports: 4,
            policy: PreorderPolicy::M1,
            algo: Algo::PAPER_PAIR[0],
        };
        let cell = aggregate_cell(key, &[clean.clone(), stalled.clone()], &[0.1]);
        assert_eq!(cell.deadlocked_runs, 1);
        assert_eq!(cell.points[0].deadlocked_samples, 1);
        // The stalled sample's partial 0.1 must not drag the average down.
        assert!((cell.points[0].metrics.accepted_traffic - 0.4).abs() < 1e-12);
        // When every sample stalls the point is still plottable but marked.
        let all_bad = aggregate_cell(key, &[stalled.clone(), stalled], &[0.1]);
        assert_eq!(all_bad.points[0].deadlocked_samples, 2);
        assert!((all_bad.points[0].metrics.accepted_traffic - 0.1).abs() < 1e-12);
    }

    #[test]
    fn cli_presets_and_overrides() {
        let cli = crate::parse_args(
            [
                "p",
                "--full",
                "--samples",
                "3",
                "--ports",
                "8",
                "--threads",
                "2",
            ]
            .iter()
            .map(ToString::to_string),
            "u",
        );
        let cfg = ExperimentConfig::from_cli(&cli);
        assert_eq!(cfg.num_switches, 128);
        assert_eq!(cfg.samples, 3);
        assert_eq!(cfg.ports, vec![8]);
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.policies.len(), 3);
    }
}
