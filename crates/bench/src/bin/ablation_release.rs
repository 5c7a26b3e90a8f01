//! Ablation A1: how much does the Phase-3 `cycle_detection` release pass
//! buy? Compares DOWN/UP with and without the release (and L-turn with and
//! without its release pass) on route quality and saturation throughput.
//!
//! Usage: `ablation_release [--quick|--full] [--samples N] ...`

use irnet_bench::{parse_args, run_grid, ExperimentConfig};
use irnet_metrics::report::TextTable;
use irnet_metrics::Algo;
use irnet_topology::{gen, PreorderPolicy};

const USAGE: &str = "ablation_release — Phase-3 release on/off (A1)
options: same as fig8 (see `fig8 --help`)";

fn main() {
    let cli = parse_args(std::env::args(), USAGE);
    let mut cfg = ExperimentConfig::from_cli(&cli);
    cfg.policies.truncate(1);
    cfg.algos = vec![
        Algo::DownUp { release: false },
        Algo::DownUp { release: true },
        Algo::LTurn { release: false },
        Algo::LTurn { release: true },
    ];

    // Static route-quality comparison (no simulation): released turns and
    // average route length.
    let mut static_table = TextTable::new(&[
        "algorithm",
        "avg prohibited pairs",
        "avg route len",
        "max route len",
    ]);
    for &algo in &cfg.algos {
        let mut prohibited = 0.0;
        let mut avg_len = 0.0;
        let mut max_len = 0u16;
        for s in 0..cfg.samples {
            let topo = gen::random_irregular(
                gen::IrregularParams::paper(cfg.num_switches, cfg.ports[0]),
                cfg.topo_seed + s as u64,
            )
            .unwrap();
            let inst = algo.construct(&topo, PreorderPolicy::M1, 0).unwrap();
            prohibited += inst.table.num_prohibited_turns(&inst.cg) as f64;
            let (avg, max) = inst.tables.route_len_stats(&inst.cg);
            avg_len += avg;
            max_len = max_len.max(max);
        }
        static_table.row(vec![
            algo.to_string(),
            format!("{:.1}", prohibited / cfg.samples as f64),
            format!("{:.3}", avg_len / cfg.samples as f64),
            max_len.to_string(),
        ]);
    }
    println!(
        "\nRoute quality, {} switches / {}-port, {} samples:\n",
        cfg.num_switches, cfg.ports[0], cfg.samples
    );
    println!("{}", static_table.render());

    // Dynamic comparison at saturation.
    let results = run_grid(&cfg);
    let mut dyn_table = TextTable::new(&[
        "ports",
        "algorithm",
        "max throughput",
        "latency @ sat",
        "hot spot %",
    ]);
    for &ports in &cfg.ports {
        for &algo in &cfg.algos {
            let m = results
                .cell(ports, cfg.policies[0], algo)
                .unwrap()
                .saturation;
            dyn_table.row(vec![
                ports.to_string(),
                algo.to_string(),
                format!("{:.4}", m.accepted_traffic),
                format!("{:.0}", m.avg_latency),
                format!("{:.1}", m.hot_spot_degree),
            ]);
        }
    }
    println!("At maximal throughput ({}):\n", cfg.policies[0]);
    println!("{}", dyn_table.render());
}
