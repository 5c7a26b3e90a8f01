//! Scenario: comparing routings on *identical* workloads via trace replay.
//!
//! Synthetic-rate experiments give each algorithm a different random packet
//! sequence; trace replay removes that variable entirely — every algorithm
//! sees exactly the same (time, src, dst) injections. This example replays
//! a uniform trace and an all-to-one incast burst against all four
//! algorithms and compares makespan and latency.
//!
//! Run with: `cargo run --release --example trace_replay`

use irnet::metrics::report::TextTable;
use irnet::prelude::*;
use irnet::sim::{replay, Trace};

fn main() {
    let topo = gen::random_irregular(gen::IrregularParams::paper(48, 4), 33).unwrap();
    let cfg = SimConfig {
        packet_len: 32,
        warmup_cycles: 0,
        measure_cycles: u32::MAX / 2,
        ..SimConfig::default()
    };
    let uniform = Trace::synthetic_uniform(48, 600, 4_000, 5);
    let incast = Trace::incast(48, 0);
    let algos = [
        Algo::UpDownBfs,
        Algo::UpDownDfs,
        Algo::LTurn { release: true },
        Algo::DownUp { release: true },
    ];

    for (name, trace) in [
        ("uniform (600 packets over 4000 clocks)", &uniform),
        ("incast (47 -> node 0 at t=0)", &incast),
    ] {
        let mut table = TextTable::new(&["algorithm", "makespan", "avg latency", "p99 latency"]);
        for algo in algos {
            let inst = algo.construct(&topo, PreorderPolicy::M1, 0).unwrap();
            let result = replay(&inst.cg, &inst.tables, cfg, trace, 7, 2_000_000).unwrap();
            let makespan = result.makespan.expect("trace must drain");
            assert_eq!(result.stats.packets_delivered as usize, trace.len());
            table.row(vec![
                algo.to_string(),
                makespan.to_string(),
                format!("{:.0}", result.stats.avg_latency()),
                result
                    .stats
                    .latency_quantile(0.99)
                    .map(|q| q.to_string())
                    .unwrap_or_default(),
            ]);
        }
        println!("\ntrace: {name}\n");
        println!("{}", table.render());
    }
    println!("(identical packet sequences; differences are purely the routing algorithm)");
}
