//! Ablation A11: how much is adaptivity worth at the simulator level?
//! Compares the four output-selection policies — adaptive-random (the
//! paper's setup), oblivious-random, first-free, and fully deterministic
//! (modelling source-routed schemes) — on the same DOWN/UP routing, plus
//! the per-level utilization profile at a fixed load.
//!
//! Usage: `ablation_routechoice [--quick|--full] [--samples N] ...`

use irnet_bench::{parse_args, run_grid, ExperimentConfig};
use irnet_metrics::levels::LevelProfile;
use irnet_metrics::report::TextTable;
use irnet_metrics::Algo;
use irnet_sim::{RouteChoice, SimConfig, Simulator};
use irnet_topology::{gen, PreorderPolicy};

const USAGE: &str = "ablation_routechoice — output-selection policies (A11)
options: same as fig8 (see `fig8 --help`)";

fn main() {
    let cli = parse_args(std::env::args(), USAGE);
    let mut cfg = ExperimentConfig::from_cli(&cli);
    cfg.policies.truncate(1);
    cfg.ports.truncate(1);
    cfg.algos = vec![Algo::DownUp { release: true }];
    let choices = [
        ("adaptive random (paper)", RouteChoice::AdaptiveRandom),
        ("oblivious random", RouteChoice::ObliviousRandom),
        ("first free", RouteChoice::FirstFree),
        ("deterministic minimal", RouteChoice::DeterministicMinimal),
    ];

    let mut table = TextTable::new(&[
        "output selection",
        "max thpt",
        "latency @ sat",
        "hot spot %",
    ]);
    for (label, choice) in choices {
        let mut variant = cfg.clone();
        variant.sim.route_choice = choice;
        let m = run_grid(&variant)
            .cell(cfg.ports[0], cfg.policies[0], cfg.algos[0])
            .unwrap()
            .saturation;
        table.row(vec![
            label.to_string(),
            format!("{:.4}", m.accepted_traffic),
            format!("{:.0}", m.avg_latency),
            format!("{:.1}", m.hot_spot_degree),
        ]);
    }
    println!(
        "\nOutput-selection ablation (DOWN/UP, {} switches, {}-port, {} samples):\n",
        cfg.num_switches, cfg.ports[0], cfg.samples
    );
    println!("{}", table.render());

    // Per-level traffic profile at a moderate fixed load, adaptive vs
    // deterministic.
    let topo = gen::random_irregular(
        gen::IrregularParams::paper(cfg.num_switches, cfg.ports[0]),
        cfg.topo_seed,
    )
    .unwrap();
    let inst = Algo::DownUp { release: true }
        .construct(&topo, PreorderPolicy::M1, 0)
        .unwrap();
    for (label, choice) in [
        ("adaptive", RouteChoice::AdaptiveRandom),
        ("deterministic", RouteChoice::DeterministicMinimal),
    ] {
        let sim_cfg = SimConfig {
            injection_rate: 0.1,
            route_choice: choice,
            ..cfg.sim
        };
        let stats = Simulator::new(&inst.cg, &inst.tables, sim_cfg, cfg.sim_seed).run();
        let profile = LevelProfile::compute(&stats, &inst.cg, &inst.tree);
        println!("level shares ({label}): {}", profile.summary());
    }
}
