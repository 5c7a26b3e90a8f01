//! Ablation A5: network-size sweep. The paper fixes 128 switches; this
//! ablation checks whether the DOWN/UP advantage persists from small to
//! larger fabrics, and tracks how routing-construction cost scales with
//! switch count (the sample-0 topology is timed for each size).
//!
//! Usage: `ablation_scale [--quick|--full] [--sizes 32,64,128,256] ...`

use irnet_bench::{parse_args, run_grid, ExperimentConfig};
use irnet_core::DownUp;
use irnet_metrics::report::TextTable;
use irnet_topology::gen;
use std::time::Instant;

const USAGE: &str = "ablation_scale — network-size sweep (A5)
options: same as fig8, plus --sizes n1,n2,...";

/// DOWN/UP construction time on the sample-0 topology for `n` switches.
fn construct_seconds(cfg: &ExperimentConfig, n: u32) -> f64 {
    let topo = gen::random_irregular(gen::IrregularParams::paper(n, cfg.ports[0]), cfg.topo_seed)
        .expect("topology generation failed");
    let start = Instant::now();
    let _ = DownUp::new()
        .construct(&topo)
        .expect("routing construction failed");
    start.elapsed().as_secs_f64()
}

fn main() {
    let cli = parse_args(std::env::args(), USAGE);
    let mut base = ExperimentConfig::from_cli(&cli);
    base.policies.truncate(1);
    base.ports.truncate(1);
    let sizes: Vec<u32> = cli.opt_list(
        "sizes",
        if cli.flag("full") {
            &[32, 64, 128, 256, 512, 1024][..]
        } else {
            &[16, 32, 64][..]
        },
    );

    let mut table = TextTable::new(&[
        "switches",
        "L-turn thpt",
        "DOWN/UP thpt",
        "DOWN/UP gain",
        "L-turn hot %",
        "DOWN/UP hot %",
        "construct",
    ]);
    for &n in &sizes {
        let mut cfg = base.clone();
        cfg.num_switches = n;
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
            n.to_string(),
            format!("{:.4}", l.accepted_traffic),
            format!("{:.4}", d.accepted_traffic),
            format!(
                "{:+.1} %",
                100.0 * (d.accepted_traffic / l.accepted_traffic - 1.0)
            ),
            format!("{:.1}", l.hot_spot_degree),
            format!("{:.1}", d.hot_spot_degree),
            format!("{:.3} s", construct_seconds(&cfg, n)),
        ]);
    }
    println!(
        "\nNetwork-size sweep ({}-port, {} samples):\n",
        base.ports[0], base.samples
    );
    println!("{}", table.render());
}
