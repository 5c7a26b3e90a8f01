//! Ablation A6: virtual channels. The paper notes the DOWN/UP routing
//! "can be directly applied to arbitrary topology with (or without) any
//! virtual channel"; this ablation measures what 2 and 4 VCs per physical
//! channel buy both algorithms.
//!
//! Usage: `ablation_vc [--quick|--full] [--samples N] ...`

use irnet_bench::{parse_args, run_grid, ExperimentConfig};
use irnet_metrics::report::TextTable;

const USAGE: &str = "ablation_vc — virtual-channel sweep (A6)
options: same as fig8 (see `fig8 --help`)";

fn main() {
    let cli = parse_args(std::env::args(), USAGE);
    let mut base = ExperimentConfig::from_cli(&cli);
    base.policies.truncate(1);
    base.ports.truncate(1);

    let mut table = TextTable::new(&[
        "virtual channels",
        "L-turn thpt",
        "L-turn lat @ sat",
        "DOWN/UP thpt",
        "DOWN/UP lat @ sat",
    ]);
    for vcs in [1u32, 2, 4] {
        let mut cfg = base.clone();
        cfg.sim.virtual_channels = vcs;
        let results = run_grid(&cfg);
        let l = results
            .cell(cfg.ports[0], cfg.policies[0], cfg.algos[0])
            .unwrap()
            .saturation;
        let d = results
            .cell(cfg.ports[0], cfg.policies[0], cfg.algos[1])
            .unwrap()
            .saturation;
        table.row(vec![
            vcs.to_string(),
            format!("{:.4}", l.accepted_traffic),
            format!("{:.0}", l.avg_latency),
            format!("{:.4}", d.accepted_traffic),
            format!("{:.0}", d.avg_latency),
        ]);
    }
    println!(
        "\nVirtual-channel sweep ({} switches, {}-port, {} samples):\n",
        base.num_switches, base.ports[0], base.samples
    );
    println!("{}", table.render());
}
