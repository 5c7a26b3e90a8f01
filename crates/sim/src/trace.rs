//! Trace-driven workloads: replay an explicit list of (time, src, dst)
//! packet injections instead of a synthetic arrival process.
//!
//! This is the substitution path for "production traces" the paper's
//! setting implies but does not publish: record a workload once (or
//! synthesize one with the generators below), then replay it identically
//! against different routing algorithms and compare makespan and latency
//! on *exactly* the same packet sequence.

use crate::config::SimConfig;
use crate::engine::{Halt, Simulator, WorkCounters};
use crate::stats::SimStats;
use irnet_topology::{CommGraph, NodeId};
use irnet_turns::RoutingTables;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One packet injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Injection clock.
    pub time: u32,
    /// Source switch.
    pub src: NodeId,
    /// Destination switch.
    pub dst: NodeId,
}

/// Trace validation / parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// An entry's source equals its destination.
    SelfTraffic {
        /// Index of the offending entry.
        index: usize,
    },
    /// An entry references a node outside the network.
    NodeOutOfRange {
        /// Index of the offending entry.
        index: usize,
        /// The unknown node.
        node: NodeId,
    },
    /// Malformed CSV input.
    Parse(String),
    /// An entry is injected after the replay's last clock
    /// (`measure_cycles`; replays have no warm-up).
    PastHorizon {
        /// Index of the offending entry (in time order).
        index: usize,
        /// Its injection clock.
        time: u32,
        /// The replay's last clock.
        horizon: u32,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::SelfTraffic { index } => {
                write!(f, "trace entry {index} has src == dst")
            }
            TraceError::NodeOutOfRange { index, node } => {
                write!(f, "trace entry {index} references unknown node {node}")
            }
            TraceError::Parse(msg) => write!(f, "trace parse error: {msg}"),
            TraceError::PastHorizon {
                index,
                time,
                horizon,
            } => write!(
                f,
                "trace entry {index} is injected at clock {time}, \
                 after the replay's last clock {horizon}"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// A validated, time-sorted packet trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Validates entries against a network of `num_nodes` switches and
    /// sorts them by time (stable, so same-cycle order is preserved).
    pub fn new(mut entries: Vec<TraceEntry>, num_nodes: u32) -> Result<Trace, TraceError> {
        for (i, e) in entries.iter().enumerate() {
            if e.src == e.dst {
                return Err(TraceError::SelfTraffic { index: i });
            }
            for node in [e.src, e.dst] {
                if node >= num_nodes {
                    return Err(TraceError::NodeOutOfRange { index: i, node });
                }
            }
        }
        entries.sort_by_key(|e| e.time);
        Ok(Trace { entries })
    }

    /// The entries, sorted by time.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes as `time,src,dst` CSV lines with a header.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time,src,dst\n");
        for e in &self.entries {
            out.push_str(&format!("{},{},{}\n", e.time, e.src, e.dst));
        }
        out
    }

    /// Parses the CSV produced by [`Trace::to_csv`].
    pub fn from_csv(text: &str, num_nodes: u32) -> Result<Trace, TraceError> {
        let mut entries = Vec::new();
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') || (ln == 0 && line == "time,src,dst") {
                continue;
            }
            let mut parts = line.split(',');
            let mut field = |name: &str| {
                parts
                    .next()
                    .ok_or_else(|| TraceError::Parse(format!("line {}: missing {name}", ln + 1)))?
                    .trim()
                    .parse::<u32>()
                    .map_err(|_| TraceError::Parse(format!("line {}: bad {name}", ln + 1)))
            };
            let time = field("time")?;
            let src = field("src")?;
            let dst = field("dst")?;
            entries.push(TraceEntry { time, src, dst });
        }
        Trace::new(entries, num_nodes)
    }

    /// Serializes as JSONL: one `{"time":..,"src":..,"dst":..}` object per
    /// line — the interchange format for externally recorded workloads
    /// (CSV stays available for spreadsheet-style tooling).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!(
                "{{\"time\":{},\"src\":{},\"dst\":{}}}\n",
                e.time, e.src, e.dst
            ));
        }
        out
    }

    /// Parses the JSONL produced by [`Trace::to_jsonl`]. Blank lines and
    /// `#` comment lines are skipped; unknown keys are ignored so traces
    /// carrying extra metadata still load.
    pub fn from_jsonl(text: &str, num_nodes: u32) -> Result<Trace, TraceError> {
        use serde::Value;
        let mut entries = Vec::new();
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let doc: Value = serde_json::from_str(line)
                .map_err(|e| TraceError::Parse(format!("line {}: {e}", ln + 1)))?;
            let field = |name: &str| -> Result<u32, TraceError> {
                match doc.get(name) {
                    Some(Value::U64(x)) if *x <= u64::from(u32::MAX) => Ok(*x as u32),
                    Some(Value::I64(x)) if *x >= 0 && *x <= i64::from(u32::MAX) => Ok(*x as u32),
                    Some(_) => Err(TraceError::Parse(format!("line {}: bad {name}", ln + 1))),
                    None => Err(TraceError::Parse(format!(
                        "line {}: missing {name}",
                        ln + 1
                    ))),
                }
            };
            entries.push(TraceEntry {
                time: field("time")?,
                src: field("src")?,
                dst: field("dst")?,
            });
        }
        Trace::new(entries, num_nodes)
    }

    /// A synthetic uniform trace: `packets` packets with uniformly random
    /// sources, destinations and injection times in `0..duration`.
    pub fn synthetic_uniform(num_nodes: u32, packets: u32, duration: u32, seed: u64) -> Trace {
        assert!(num_nodes >= 2);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let entries = (0..packets)
            .map(|_| {
                let src = rng.gen_range(0..num_nodes);
                let mut dst = rng.gen_range(0..num_nodes - 1);
                if dst >= src {
                    dst += 1;
                }
                TraceEntry {
                    time: rng.gen_range(0..duration.max(1)),
                    src,
                    dst,
                }
            })
            .collect();
        Trace::new(entries, num_nodes).expect("synthetic trace is valid by construction")
    }

    /// An all-to-one incast burst at time zero: every node sends one packet
    /// to `target` simultaneously — the worst case for tree-based routings.
    pub fn incast(num_nodes: u32, target: NodeId) -> Trace {
        let entries = (0..num_nodes)
            .filter(|&v| v != target)
            .map(|src| TraceEntry {
                time: 0,
                src,
                dst: target,
            })
            .collect();
        Trace::new(entries, num_nodes).expect("incast trace is valid by construction")
    }
}

/// Result of a trace replay.
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// Standard simulation statistics (all packets are measured).
    pub stats: SimStats,
    /// Clock at which the last flit was delivered (`None` if the network
    /// failed to drain within the deadline or the watchdog fired).
    pub makespan: Option<u32>,
    /// The simulator's scheduling work over the replay.
    pub work: WorkCounters,
}

/// Replays `trace` over a routing: injects each entry at its clock, then
/// drains. `cfg.injection_rate` is ignored (forced to zero);
/// `cfg.warmup_cycles` is forced to zero so every packet is measured.
/// `drain_deadline` bounds the drain phase, which starts on the clock
/// after the last injection.
///
/// # Errors
///
/// [`TraceError::PastHorizon`] for an entry injected after
/// `cfg.measure_cycles`, checked before anything is simulated.
pub fn replay(
    cg: &CommGraph,
    tables: &RoutingTables,
    cfg: SimConfig,
    trace: &Trace,
    seed: u64,
    drain_deadline: u32,
) -> Result<ReplayResult, TraceError> {
    let cfg = SimConfig {
        injection_rate: 0.0,
        warmup_cycles: 0,
        ..cfg
    };
    let horizon = cfg.total_cycles();
    if let Some(index) = trace.entries.iter().position(|e| e.time > horizon) {
        return Err(TraceError::PastHorizon {
            index,
            time: trace.entries[index].time,
            horizon,
        });
    }
    let mut sim = Simulator::new(cg, tables, cfg, seed);
    let mut halt = Halt::Reached;
    for e in &trace.entries {
        halt = sim.advance(e.time);
        if halt == Halt::Stalled {
            break;
        }
        sim.enqueue_packet(e.src, e.dst);
    }
    if halt != Halt::Stalled {
        let start = trace.entries.last().map_or(0, |e| e.time.saturating_add(1));
        halt = sim.drain(start.saturating_add(drain_deadline));
    }
    Ok(ReplayResult {
        makespan: (halt == Halt::Drained).then(|| sim.now()),
        work: sim.work_counters(),
        stats: sim.finish(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use irnet_core::DownUp;
    use irnet_topology::gen;

    fn quick_cfg() -> SimConfig {
        SimConfig {
            packet_len: 8,
            warmup_cycles: 0,
            measure_cycles: 100_000,
            ..SimConfig::default()
        }
    }

    #[test]
    fn trace_validation_and_sorting() {
        let t = Trace::new(
            vec![
                TraceEntry {
                    time: 9,
                    src: 0,
                    dst: 1,
                },
                TraceEntry {
                    time: 1,
                    src: 2,
                    dst: 0,
                },
            ],
            3,
        )
        .unwrap();
        assert_eq!(t.entries()[0].time, 1);
        assert_eq!(
            Trace::new(
                vec![TraceEntry {
                    time: 0,
                    src: 1,
                    dst: 1
                }],
                3
            ),
            Err(TraceError::SelfTraffic { index: 0 })
        );
        assert_eq!(
            Trace::new(
                vec![TraceEntry {
                    time: 0,
                    src: 1,
                    dst: 7
                }],
                3
            ),
            Err(TraceError::NodeOutOfRange { index: 0, node: 7 })
        );
    }

    #[test]
    fn csv_roundtrip() {
        let t = Trace::synthetic_uniform(10, 50, 200, 4);
        let csv = t.to_csv();
        let back = Trace::from_csv(&csv, 10).unwrap();
        assert_eq!(t, back);
        assert!(Trace::from_csv("time,src,dst\n1,2\n", 10).is_err());
        assert!(Trace::from_csv("nonsense\n", 10).is_err());
    }

    #[test]
    fn jsonl_roundtrip() {
        let t = Trace::synthetic_uniform(10, 50, 200, 4);
        let jsonl = t.to_jsonl();
        let back = Trace::from_jsonl(&jsonl, 10).unwrap();
        assert_eq!(t, back);
        // Unknown keys are tolerated, malformed lines are not.
        let extra = "{\"time\":1,\"src\":0,\"dst\":2,\"size\":9}\n# comment\n";
        assert_eq!(Trace::from_jsonl(extra, 10).unwrap().len(), 1);
        assert!(Trace::from_jsonl("{\"time\":1,\"src\":0}\n", 10).is_err());
        assert!(Trace::from_jsonl("not json\n", 10).is_err());
        // CSV and JSONL agree on the same trace.
        assert_eq!(Trace::from_csv(&t.to_csv(), 10).unwrap(), back);
    }

    #[test]
    fn replay_delivers_every_packet() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(12, 4), 3).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let trace = Trace::synthetic_uniform(12, 60, 500, 7);
        let result = replay(
            r.comm_graph(),
            r.routing_tables(),
            quick_cfg(),
            &trace,
            1,
            100_000,
        )
        .unwrap();
        let makespan = result.makespan.expect("trace must drain");
        assert_eq!(result.stats.packets_delivered, 60);
        assert_eq!(result.stats.flits_delivered, 60 * 8);
        assert!(
            makespan >= 500,
            "last injection at ~500, makespan {makespan}"
        );
    }

    #[test]
    fn incast_stresses_the_target_but_drains() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 5).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let trace = Trace::incast(16, 0);
        assert_eq!(trace.len(), 15);
        let result = replay(
            r.comm_graph(),
            r.routing_tables(),
            quick_cfg(),
            &trace,
            2,
            200_000,
        )
        .unwrap();
        assert!(result.makespan.is_some(), "incast deadlocked or stalled");
        assert_eq!(result.stats.packets_delivered, 15);
        // Ejection is the bottleneck: makespan at least 15 packets × 8
        // flits through one ejection port.
        assert!(result.makespan.unwrap() as u64 >= 15 * 8);
    }

    #[test]
    fn replay_is_deterministic_and_algorithm_comparable() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 6).unwrap();
        let trace = Trace::synthetic_uniform(16, 100, 300, 9);
        let r = DownUp::new().construct(&topo).unwrap();
        let a = replay(
            r.comm_graph(),
            r.routing_tables(),
            quick_cfg(),
            &trace,
            3,
            100_000,
        )
        .unwrap();
        let b = replay(
            r.comm_graph(),
            r.routing_tables(),
            quick_cfg(),
            &trace,
            3,
            100_000,
        )
        .unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.stats.latency_sum, b.stats.latency_sum);
    }

    #[test]
    fn entries_past_the_horizon_are_rejected_before_simulating() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(12, 4), 3).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let cfg = SimConfig {
            measure_cycles: 1_000,
            ..quick_cfg()
        };
        let entry = |time| TraceEntry {
            time,
            src: 0,
            dst: 1,
        };
        let run = |times: &[u32]| {
            let trace = Trace::new(times.iter().map(|&t| entry(t)).collect(), 12).unwrap();
            replay(r.comm_graph(), r.routing_tables(), cfg, &trace, 1, u32::MAX)
        };
        // The last clock is still a valid injection time, and a saturated
        // drain deadline neither overflows nor spins once drained.
        let at_horizon = run(&[5, 1_000]).unwrap();
        assert_eq!(at_horizon.stats.packets_delivered, 2);
        assert!(at_horizon.makespan.is_some_and(|m| m > 1_000));
        assert_eq!(
            run(&[5, 1_001, u32::MAX]).unwrap_err(),
            TraceError::PastHorizon {
                index: 1,
                time: 1_001,
                horizon: 1_000
            }
        );
    }

    /// A packet injected after an idle spell longer than the watchdog's
    /// threshold is not a stall.
    #[test]
    fn a_packet_after_a_long_idle_spell_drains() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(12, 4), 3).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let cfg = quick_cfg();
        let idle = cfg.deadlock_threshold + 100;
        let entries = [0, idle].map(|time| TraceEntry {
            time,
            src: 0,
            dst: 1,
        });
        let trace = Trace::new(entries.to_vec(), 12).unwrap();
        let result = replay(r.comm_graph(), r.routing_tables(), cfg, &trace, 1, 10_000).unwrap();
        assert!(result.makespan.is_some_and(|m| m > idle));
        assert!(!result.stats.deadlocked);
    }
}
