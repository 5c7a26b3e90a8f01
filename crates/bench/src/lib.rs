//! The reproduction harness: shared experiment configuration, the
//! sample × tree × algorithm × load grid runner, and result aggregation for
//! every table and figure of the paper.
//!
//! Reproduction binaries (`src/bin/`):
//!
//! * `fig8` — Figure 8(a)/(b): average message latency and accepted
//!   traffic vs offered load.
//! * `tables` — Tables 1–4: node utilization, traffic load, degree of hot
//!   spots, leaf utilization at maximal throughput.
//! * `addg_figures` — Figures 3–6: the Phase-2 ADDG snapshots as DOT files.
//!
//! Ablations (DESIGN.md §6). A1, A3–A6 and A10–A12 are specs over
//! [`run_grid`]; A7–A9 run their own loops.
//!
//! * `ablation_release` — A1: Phase-3 release on/off.
//! * `ablation_baselines` — A3: up\*/down\* (BFS/DFS) vs L-turn vs DOWN/UP.
//! * `ablation_sim` — A4: buffer depth and packet length sensitivity.
//! * `ablation_scale` — A5: network size sweep.
//! * `ablation_vc` — A6: virtual channels.
//! * `adaptivity` — A7: adaptivity degree, path diversity, direction shares.
//! * `ablation_traffic` — A8: destination patterns and bursty arrivals.
//! * `ablation_topology` — A9: topology families.
//! * `ablation_root` — A10: smallest-id vs center spanning-tree root.
//! * `ablation_routechoice` — A11: output-selection policies.
//! * `ablation_misroute` — A12: non-minimal escape routing.
//!
//! Measurement tools:
//!
//! * `perf` — simulator-core performance harness; writes `BENCH_sim.json`
//!   comparing the active-set and dense-reference scheduling cores.
//! * `perf_compare` — diffs two `BENCH_sim.json` reports and flags
//!   throughput regressions.
//! * `flow_validate` — prediction error of the flow-level backend against
//!   the flit engine.
//!
//! Every binary accepts `--quick` (CI-sized, the default) or `--full`
//! (paper-sized), plus overrides; run with `--help` for the list.

pub mod args;
pub mod grid;

pub use args::{parse_args, Cli};
pub use grid::{
    default_threads, run_grid, run_grid_with_stats, AvgPoint, CellKey, CellResult,
    ExperimentConfig, GridError, GridResults, GridStats,
};
