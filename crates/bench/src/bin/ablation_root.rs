//! Ablation A10: spanning-tree root selection. The paper roots every
//! coordinated tree at the smallest node id (§4.1, Step 2); rooting at a
//! graph center shortens the tree. This ablation measures what the choice
//! is worth for DOWN/UP.
//!
//! Usage: `ablation_root [--quick|--full] [--samples N] ...`

use irnet_bench::{parse_args, run_grid, ExperimentConfig};
use irnet_metrics::report::TextTable;
use irnet_metrics::Algo;
use irnet_topology::gen;

const USAGE: &str = "ablation_root — smallest-id vs center spanning-tree root (A10)
options: same as fig8 (see `fig8 --help`)";

fn main() {
    let cli = parse_args(std::env::args(), USAGE);
    let mut cfg = ExperimentConfig::from_cli(&cli);
    cfg.policies.truncate(1);
    cfg.ports.truncate(1);
    cfg.algos = vec![Algo::DownUp { release: true }, Algo::DownUpCenterRoot];
    let (ports, policy) = (cfg.ports[0], cfg.policies[0]);
    let results = run_grid(&cfg);

    let mut table = TextTable::new(&[
        "root policy",
        "tree depth",
        "avg hops",
        "max thpt",
        "hot spot %",
        "leaf util",
    ]);
    for (&algo, label) in cfg.algos.iter().zip(["smallest id (paper)", "center"]) {
        // Static pass: tree depth and route length need no simulation.
        let mut depth = 0.0;
        let mut hops = 0.0;
        for s in 0..cfg.samples {
            let seed = cfg.topo_seed + s as u64;
            let topo =
                gen::random_irregular(gen::IrregularParams::paper(cfg.num_switches, ports), seed)
                    .unwrap();
            let inst = algo.construct(&topo, policy, seed).unwrap();
            depth += inst.tree.max_level() as f64;
            hops += inst.tables.route_len_stats(&inst.cg).0;
        }
        let n = cfg.samples as f64;
        let m = results.cell(ports, policy, algo).unwrap().saturation;
        table.row(vec![
            label.to_string(),
            format!("{:.1}", depth / n),
            format!("{:.3}", hops / n),
            format!("{:.4}", m.accepted_traffic),
            format!("{:.1}", m.hot_spot_degree),
            format!("{:.4}", m.leaf_utilization),
        ]);
    }
    println!(
        "\nRoot-selection ablation (DOWN/UP, {} switches, {ports}-port, {} samples):\n",
        cfg.num_switches, cfg.samples
    );
    println!("{}", table.render());
}
