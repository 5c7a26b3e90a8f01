//! Reproduces **Figure 8** of the paper: average message latency and
//! accepted traffic versus offered load for the L-turn and DOWN/UP
//! routings, per coordinated-tree policy (M1/M2/M3) and port configuration.
//!
//! Usage: `fig8 [--quick|--full] [--ports 4,8] [--samples N]
//!         [--rates r1,r2,...] [--threads N] [--out results]`

use irnet_bench::{parse_args, run_grid, ExperimentConfig};
use irnet_metrics::plot::LineChart;
use irnet_metrics::report::TextTable;

const USAGE: &str = "fig8 — reproduce Figure 8 (latency & accepted traffic vs offered load)
options:
  --quick | --full         preset size (default --quick)
  --switches N             switches per network
  --ports 4,8              port configurations
  --samples N              topologies per configuration
  --policies M1,M2,M3      coordinated-tree policies
  --rates r1,r2,...        offered-load ladder (flits/node/clock)
  --packet-len N           flits per packet
  --warmup N --measure N   simulation windows
  --threads N              worker threads (default: all cores)
  --chunk N                tasks claimed per steal (default: auto)
  --progress               grid progress (done/total, elapsed, ETA) on stderr
  --seed N                 base topology seed
  --out DIR                output directory (default results)";

fn main() {
    let cli = parse_args(std::env::args(), USAGE);
    let cfg = ExperimentConfig::from_cli(&cli);
    let out_dir = cli.opt("out").unwrap_or("results").to_string();
    eprintln!(
        "fig8: {} switches, ports {:?}, {} samples, {} policies, {} rates, {} threads",
        cfg.num_switches,
        cfg.ports,
        cfg.samples,
        cfg.policies.len(),
        cfg.rates.len(),
        cfg.threads
    );
    let results = run_grid(&cfg);

    let mut csv = TextTable::new(&[
        "ports",
        "policy",
        "algorithm",
        "offered",
        "avg_latency",
        "accepted_traffic",
    ]);
    for &ports in &cfg.ports {
        for &policy in &cfg.policies {
            let mut header: Vec<&str> = vec!["offered"];
            let mut labels = Vec::new();
            for &algo in &cfg.algos {
                labels.push(format!("{algo} latency"));
                labels.push(format!("{algo} accepted"));
            }
            header.extend(labels.iter().map(String::as_str));
            let mut table = TextTable::new(&header);
            for (i, &rate) in cfg.rates.iter().enumerate() {
                let mut row = vec![format!("{rate:.4}")];
                for &algo in &cfg.algos {
                    let cell = results.cell(ports, policy, algo).expect("cell exists");
                    let m = cell.points[i].metrics;
                    row.push(format!("{:.1}", m.avg_latency));
                    row.push(format!("{:.4}", m.accepted_traffic));
                    csv.row(vec![
                        ports.to_string(),
                        policy.to_string(),
                        algo.to_string(),
                        format!("{rate:.5}"),
                        format!("{:.3}", m.avg_latency),
                        format!("{:.6}", m.accepted_traffic),
                    ]);
                }
                table.row(row);
            }
            println!(
                "\nFigure 8 ({}-port, {}): latency [clocks] and accepted traffic \
                 [flits/clock/node] vs offered load",
                ports, policy
            );
            println!("{}", table.render());
        }
        // The paper's headline comparison: maximal throughput per cell.
        let mut summary = TextTable::new(&[
            "policy",
            "L-turn max thpt",
            "DOWN/UP max thpt",
            "DOWN/UP gain",
        ]);
        for &policy in &cfg.policies {
            let l = results
                .cell(ports, policy, cfg.algos[0])
                .unwrap()
                .throughput();
            let d = results
                .cell(ports, policy, cfg.algos[1])
                .unwrap()
                .throughput();
            summary.row(vec![
                policy.to_string(),
                format!("{l:.4}"),
                format!("{d:.4}"),
                format!("{:+.1} %", 100.0 * (d / l - 1.0)),
            ]);
        }
        println!("\nMaximal throughput summary ({}-port):", ports);
        println!("{}", summary.render());
    }

    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let path = format!("{out_dir}/fig8.csv");
    std::fs::write(&path, csv.to_csv()).expect("write csv");
    eprintln!("wrote {path}");

    // Figure 8 as SVG: one latency chart and one throughput chart per port
    // configuration, series per (policy, algorithm).
    for &ports in &cfg.ports {
        let mut lat = LineChart::new(
            &format!("Figure 8 ({ports}-port): average message latency"),
            "offered load [flits/clock/node]",
            "latency [clocks]",
        );
        let mut acc = LineChart::new(
            &format!("Figure 8 ({ports}-port): accepted traffic"),
            "offered load [flits/clock/node]",
            "accepted [flits/clock/node]",
        );
        for &policy in &cfg.policies {
            for &algo in &cfg.algos {
                let cell = results.cell(ports, policy, algo).expect("cell exists");
                let label = format!("{algo} {policy}");
                lat.add_series(
                    &label,
                    cell.points
                        .iter()
                        .map(|p| (p.offered, p.metrics.avg_latency)),
                );
                acc.add_series(
                    &label,
                    cell.points
                        .iter()
                        .map(|p| (p.offered, p.metrics.accepted_traffic)),
                );
            }
        }
        for (chart, kind) in [(lat, "latency"), (acc, "accepted")] {
            let path = format!("{out_dir}/fig8_{ports}port_{kind}.svg");
            if chart.is_empty() {
                // Latency is undefined until a packet is delivered.
                eprintln!("skipped {path}: no point has a finite {kind} (no packet delivered)");
                continue;
            }
            std::fs::write(&path, chart.to_svg()).expect("write svg");
            eprintln!("wrote {path}");
        }
    }
}
