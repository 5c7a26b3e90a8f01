//! Ablation A8: traffic sensitivity — destination patterns (uniform,
//! hotspot, bit-complement, opposite, local) and bursty (on/off) arrivals.
//! The paper evaluates only uniform Bernoulli traffic; this ablation checks
//! that the DOWN/UP-vs-L-turn ordering survives adversarial workloads, and
//! reports endpoint fairness.
//!
//! Usage: `ablation_traffic [--quick|--full] [--samples N] ...`

use irnet_bench::{parse_args, ExperimentConfig};
use irnet_metrics::fairness::FairnessReport;
use irnet_metrics::paper::PaperMetrics;
use irnet_metrics::report::TextTable;
use irnet_metrics::Algo;
use irnet_sim::{ArrivalProcess, InjectionSampling, SimConfig, Simulator, TrafficPattern};
use irnet_topology::{gen, PreorderPolicy};

const USAGE: &str = "ablation_traffic — traffic patterns and bursty arrivals (A8)
options: same as fig8 (see `fig8 --help`)";

fn main() {
    let cli = parse_args(std::env::args(), USAGE);
    let cfg = ExperimentConfig::from_cli(&cli);
    let workloads: Vec<(&str, TrafficPattern, ArrivalProcess)> = vec![
        (
            "uniform",
            TrafficPattern::Uniform,
            ArrivalProcess::Bernoulli,
        ),
        (
            "uniform bursty",
            TrafficPattern::Uniform,
            ArrivalProcess::OnOff {
                mean_burst: 200,
                burstiness: 4.0,
            },
        ),
        (
            "hotspot 20%",
            TrafficPattern::Hotspot {
                hot_node: 0,
                hot_fraction: 0.2,
            },
            ArrivalProcess::Bernoulli,
        ),
        (
            "bit-complement",
            TrafficPattern::BitComplement,
            ArrivalProcess::Bernoulli,
        ),
        (
            "opposite",
            TrafficPattern::Opposite,
            ArrivalProcess::Bernoulli,
        ),
        (
            "local r=4",
            TrafficPattern::Local { radius: 4 },
            ArrivalProcess::Bernoulli,
        ),
    ];

    let rate = cli.opt_parse("rate", 0.12f64);
    let mut table = TextTable::new(&[
        "workload",
        "L-turn acc",
        "L-turn lat",
        "DOWN/UP acc",
        "DOWN/UP lat",
        "DOWN/UP Jain",
    ]);
    for (label, pattern, arrivals) in workloads {
        let mut acc = [0.0f64; 2];
        let mut lat = [0.0f64; 2];
        let mut jain = 0.0f64;
        for s in 0..cfg.samples {
            let topo = gen::random_irregular(
                gen::IrregularParams::paper(cfg.num_switches, cfg.ports[0]),
                cfg.topo_seed + s as u64,
            )
            .unwrap();
            for (i, &algo) in [
                Algo::LTurn { release: true },
                Algo::DownUp { release: true },
            ]
            .iter()
            .enumerate()
            {
                let inst = algo.construct(&topo, PreorderPolicy::M1, s as u64).unwrap();
                // Geometric sampling covers Bernoulli sources only; on/off
                // sources keep the per-cycle draw.
                let injection_sampling = match arrivals {
                    ArrivalProcess::Bernoulli => cfg.sim.injection_sampling,
                    ArrivalProcess::OnOff { .. } => InjectionSampling::PerCycle,
                };
                let sim_cfg = SimConfig {
                    injection_rate: rate,
                    traffic: pattern,
                    arrivals,
                    injection_sampling,
                    ..cfg.sim
                };
                let stats =
                    Simulator::new(&inst.cg, &inst.tables, sim_cfg, cfg.sim_seed + s as u64).run();
                assert!(!stats.deadlocked, "{label}/{algo} deadlocked");
                let m = PaperMetrics::compute(&stats, &inst.cg, &inst.tree);
                acc[i] += m.accepted_traffic;
                lat[i] += m.avg_latency;
                if i == 1 {
                    jain += FairnessReport::compute(&stats).delivery_jain;
                }
            }
        }
        let n = cfg.samples as f64;
        table.row(vec![
            label.to_string(),
            format!("{:.4}", acc[0] / n),
            format!("{:.0}", lat[0] / n),
            format!("{:.4}", acc[1] / n),
            format!("{:.0}", lat[1] / n),
            format!("{:.3}", jain / n),
        ]);
    }
    println!(
        "\nTraffic sensitivity — {} switches, {}-port, {} samples, offered {:.2}:\n",
        cfg.num_switches, cfg.ports[0], cfg.samples, rate
    );
    println!("{}", table.render());
}
