//! `scale-2048`: the construction and memory wall. 2048-switch, 8-port
//! fabrics are generated and DOWN/UP-constructed (the routing-table fill is
//! nearly all of it), then read back by exact flit runs at offered 0.002,
//! 0.02 and 0.5 with 32-flit packets and 1000 + 2000 cycles.
//!
//! One operation is one flit run; a unit is the three-load ladder. A run
//! sets up fabrics 0, 1 and 2 of the generator in turn, one at a time so
//! the peak is one fabric's tables, and gives each an equal share of its
//! time budget. The seed drives the traffic of every flit run.

use crate::common::{
    certify, check_split, derive, digest_costs, digest_stats, digest_turns, downup, record_run,
    topology,
};
use crate::run::Run;
use crate::stats::Digest;
use irnet_core::DownUp;
use irnet_sim::{SimConfig, Simulator};

/// Workload size.
pub struct Size {
    /// Switches in the fabric.
    pub switches: u32,
    /// Ports per switch.
    pub ports: u32,
    /// Offered loads of the ladder.
    pub loads: Vec<f64>,
    /// Simulator configuration (the load is set per run).
    pub sim: SimConfig,
    /// Fabrics per run, one set-up each; `setup_s` is their median.
    pub fabrics: usize,
}

impl Size {
    /// The size of record.
    pub fn full() -> Size {
        Size {
            switches: 2048,
            ports: 8,
            loads: vec![0.002, 0.02, 0.5],
            sim: SimConfig {
                packet_len: 32,
                warmup_cycles: 1_000,
                measure_cycles: 2_000,
                ..SimConfig::default()
            },
            fabrics: 3,
        }
    }

    /// A seconds-long stand-in for tests.
    #[cfg(test)]
    pub fn tiny() -> Size {
        Size {
            switches: 16,
            sim: SimConfig {
                packet_len: 8,
                warmup_cycles: 100,
                measure_cycles: 300,
                ..SimConfig::default()
            },
            fabrics: 2,
            ..Size::full()
        }
    }
}

/// Runs the workload.
pub fn run(size: &Size, seed: u64, r: &mut Run) {
    let tr = r.tr;
    for f in 0..size.fabrics {
        let (topo, (_, cg, table, tables)) = r.setup(|p| {
            let topo = topology(tr, p, size.switches, size.ports, f as u64);
            let routing = downup(tr, p, &topo, DownUp::new());
            (topo, routing)
        });
        if tr.is_on() {
            r.add("turns.table_fill_calls", 1.0);
            if f == 0 {
                check_split(r, &topo, DownUp::new(), &table, &tables);
            }
        }
        certify(r, &cg, &table, &format!("scale fabric {f}"));
        digest_turns(&mut r.digest, &cg, &table);
        digest_costs(&mut r.digest, &cg, &tables, 64);

        // Every fabric runs at least one ladder (the digested prefix), then
        // ladders until its share of the budget is spent.
        let share = (f + 1) as f64 / size.fabrics as f64;
        let mut ladders = 0;
        while ladders == 0 || r.spent() < share {
            let prefix = ladders == 0;
            for (i, &load) in size.loads.iter().enumerate() {
                let sim = SimConfig {
                    injection_rate: load,
                    ..size.sim
                };
                let key = f * size.loads.len() + i;
                let sim_seed = derive(seed, key as u64);
                let stats = r.op(|p| {
                    tr.span("sim.run", p, |_| {
                        Simulator::new(&cg, &tables, sim, sim_seed).run()
                    })
                });
                record_run(r, &stats, prefix, &format!("scale run at {load}"));
                let mut d = Digest::default();
                digest_stats(&mut d, &stats);
                r.repeat(key, d);
                if prefix {
                    digest_stats(&mut r.digest, &stats);
                }
            }
            r.end_unit();
            ladders += 1;
        }
    }
}
