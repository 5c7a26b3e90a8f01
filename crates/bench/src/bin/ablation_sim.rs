//! Ablation A4: simulator-parameter sensitivity — buffer depth and packet
//! length. Confirms the DOWN/UP-vs-L-turn ordering is not an artifact of
//! one switch configuration.
//!
//! Usage: `ablation_sim [--quick|--full] [--samples N] ...`

use irnet_bench::{parse_args, run_grid, ExperimentConfig};
use irnet_metrics::report::TextTable;

const USAGE: &str = "ablation_sim — buffer-depth and packet-length sensitivity (A4)
options: same as fig8 (see `fig8 --help`)";

fn main() {
    let cli = parse_args(std::env::args(), USAGE);
    let mut base = ExperimentConfig::from_cli(&cli);
    base.policies.truncate(1);
    base.ports.truncate(1);

    let mut depth_table = TextTable::new(&[
        "buffer depth",
        "L-turn thpt",
        "DOWN/UP thpt",
        "DOWN/UP gain",
    ]);
    for depth in [1u32, 2, 4, 8] {
        let mut cfg = base.clone();
        cfg.sim.buffer_depth = depth;
        let results = run_grid(&cfg);
        let l = results
            .cell(cfg.ports[0], cfg.policies[0], cfg.algos[0])
            .unwrap()
            .throughput();
        let d = results
            .cell(cfg.ports[0], cfg.policies[0], cfg.algos[1])
            .unwrap()
            .throughput();
        depth_table.row(vec![
            depth.to_string(),
            format!("{l:.4}"),
            format!("{d:.4}"),
            format!("{:+.1} %", 100.0 * (d / l - 1.0)),
        ]);
    }
    println!(
        "\nBuffer-depth sweep ({} switches, {}-port):\n",
        base.num_switches, base.ports[0]
    );
    println!("{}", depth_table.render());

    let mut len_table =
        TextTable::new(&["packet len", "L-turn thpt", "DOWN/UP thpt", "DOWN/UP gain"]);
    for len in [16u32, 64, 128, 256] {
        let mut cfg = base.clone();
        cfg.sim.packet_len = len;
        let results = run_grid(&cfg);
        let l = results
            .cell(cfg.ports[0], cfg.policies[0], cfg.algos[0])
            .unwrap()
            .throughput();
        let d = results
            .cell(cfg.ports[0], cfg.policies[0], cfg.algos[1])
            .unwrap()
            .throughput();
        len_table.row(vec![
            len.to_string(),
            format!("{l:.4}"),
            format!("{d:.4}"),
            format!("{:+.1} %", 100.0 * (d / l - 1.0)),
        ]);
    }
    println!("\nPacket-length sweep:\n");
    println!("{}", len_table.render());
}
