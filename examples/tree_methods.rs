//! Scenario: how much does the coordinated-tree construction matter?
//!
//! The paper's Remark 1 claims its M1 preorder policy (smallest node number
//! first) gives the best performance for both DOWN/UP and L-turn, versus a
//! random order (M2) and largest-first (M3). This example measures route
//! quality and simulated throughput for all three policies on a batch of
//! networks.
//!
//! Run with: `cargo run --release --example tree_methods`

use irnet::metrics::report::TextTable;
use irnet::metrics::sweep;
use irnet::prelude::*;

fn main() {
    let samples = 4u64;
    let rates = [0.05, 0.15, 0.3];
    let base = SimConfig {
        packet_len: 32,
        warmup_cycles: 1_000,
        measure_cycles: 4_000,
        ..SimConfig::default()
    };

    for algo in [
        Algo::LTurn { release: true },
        Algo::DownUp { release: true },
    ] {
        let mut table = TextTable::new(&[
            "policy",
            "avg hops",
            "max thpt (flits/clk/node)",
            "hot spot % @ sat",
        ]);
        for policy in PreorderPolicy::ALL {
            let mut hops = 0.0;
            let mut thpt = 0.0;
            let mut hot = 0.0;
            for s in 0..samples {
                let topo =
                    gen::random_irregular(gen::IrregularParams::paper(48, 4), 300 + s).unwrap();
                let inst = algo.construct(&topo, policy, s).unwrap();
                hops += inst.tables.route_len_stats(&inst.cg).0;
                let curve = sweep::sweep(&inst, &base, &rates, 1_000 + s);
                let sat = curve.saturation();
                thpt += sat.metrics.accepted_traffic;
                hot += sat.metrics.hot_spot_degree;
            }
            let n = samples as f64;
            table.row(vec![
                policy.to_string(),
                format!("{:.3}", hops / n),
                format!("{:.4}", thpt / n),
                format!("{:.1}", hot / n),
            ]);
        }
        println!("\n{algo} across coordinated-tree policies ({samples} networks):\n");
        println!("{}", table.render());
    }
    println!("Remark 1 of the paper predicts M1 at or near the top of each table.");
}
