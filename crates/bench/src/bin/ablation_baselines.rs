//! Ablation A3: the full baseline field — up*/down* (BFS and DFS), L-turn,
//! and DOWN/UP — on the same networks. Extends the paper's two-way
//! comparison with the related-work algorithms of its §2.
//!
//! Usage: `ablation_baselines [--quick|--full] [--samples N] ...`

use irnet_bench::{parse_args, run_grid, ExperimentConfig};
use irnet_metrics::report::TextTable;
use irnet_metrics::Algo;

const USAGE: &str = "ablation_baselines — up*/down* vs L-turn vs DOWN/UP (A3)
options: same as fig8 (see `fig8 --help`)";

fn main() {
    let cli = parse_args(std::env::args(), USAGE);
    let mut cfg = ExperimentConfig::from_cli(&cli);
    cfg.policies.truncate(1);
    cfg.algos = vec![
        Algo::UpDownBfs,
        Algo::UpDownDfs,
        Algo::LTurn { release: true },
        Algo::DownUp { release: true },
    ];
    let results = run_grid(&cfg);

    for &ports in &cfg.ports {
        let mut table = TextTable::new(&[
            "algorithm",
            "max throughput",
            "latency @ sat",
            "node util",
            "traffic load",
            "hot spot %",
            "leaf util",
        ]);
        for &algo in &cfg.algos {
            let m = results
                .cell(ports, cfg.policies[0], algo)
                .unwrap()
                .saturation;
            table.row(vec![
                algo.to_string(),
                format!("{:.4}", m.accepted_traffic),
                format!("{:.0}", m.avg_latency),
                format!("{:.4}", m.node_utilization),
                format!("{:.4}", m.traffic_load),
                format!("{:.1}", m.hot_spot_degree),
                format!("{:.4}", m.leaf_utilization),
            ]);
        }
        println!(
            "\nBaseline field at maximal throughput — {} switches, {}-port, {} samples ({}):\n",
            cfg.num_switches, ports, cfg.samples, cfg.policies[0]
        );
        println!("{}", table.render());
    }
}
