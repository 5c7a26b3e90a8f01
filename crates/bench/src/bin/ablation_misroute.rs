//! Ablation A12: non-minimal escape routing ("misrouting"). The paper
//! describes both algorithms as *non-minimal* adaptive but evaluates them
//! on shortest possible paths; this ablation measures what the non-minimal
//! option is worth: blocked headers may claim any turn-legal, non-dead-end
//! output after a patience threshold, with a bounded per-packet detour
//! budget.
//!
//! Usage: `ablation_misroute [--quick|--full] [--samples N] ...`

use irnet_bench::{parse_args, run_grid, ExperimentConfig};
use irnet_metrics::report::TextTable;
use irnet_metrics::Algo;

const USAGE: &str = "ablation_misroute — minimal vs non-minimal escape routing (A12)
options: same as fig8 (see `fig8 --help`)";

fn main() {
    let cli = parse_args(std::env::args(), USAGE);
    let mut cfg = ExperimentConfig::from_cli(&cli);
    cfg.policies.truncate(1);
    cfg.ports.truncate(1);
    cfg.algos = Algo::PAPER_PAIR.to_vec();
    let variants: [(&str, Option<u32>, u32); 4] = [
        ("minimal only (paper)", None, 0),
        ("misroute after 2, budget 2", Some(2), 2),
        ("misroute after 8, budget 4", Some(8), 4),
        ("misroute after 32, budget 8", Some(32), 8),
    ];
    let results: Vec<_> = variants
        .iter()
        .map(|&(_, patience, budget)| {
            let mut variant = cfg.clone();
            variant.sim.misroute_patience = patience;
            variant.sim.max_detours = budget;
            run_grid(&variant)
        })
        .collect();

    for &algo in &cfg.algos {
        let mut table =
            TextTable::new(&["escape policy", "max thpt", "latency @ sat", "traffic load"]);
        for ((label, ..), grid) in variants.iter().zip(&results) {
            let m = grid
                .cell(cfg.ports[0], cfg.policies[0], algo)
                .unwrap()
                .saturation;
            table.row(vec![
                label.to_string(),
                format!("{:.4}", m.accepted_traffic),
                format!("{:.0}", m.avg_latency),
                format!("{:.4}", m.traffic_load),
            ]);
        }
        println!(
            "\nNon-minimal escape ablation — {algo}, {} switches, {}-port, {} samples:\n",
            cfg.num_switches, cfg.ports[0], cfg.samples
        );
        println!("{}", table.render());
    }
}
