//! Deadlock forensics: waits-for capture, cycle minimization, and the
//! self-contained JSON incident report.

use irnet_sim::{BlockedWorm, Simulator};
use irnet_topology::ChannelId;
use irnet_turns::ChannelDepGraph;
use irnet_verify::{certify_dep, Certificate, Verdict};
use serde::{Serialize, Value};
use std::collections::BTreeSet;

/// A self-contained record of a stalled run, built by
/// [`deadlock_incident`] when the simulator's watchdog fires.
///
/// The `certificate` is the existing Dally–Seitz certifier run over the
/// *runtime* waits-for graph: a `Deadlock` verdict carries the minimized
/// circular wait (`witness`), while a `DeadlockFree` verdict means the
/// stall is acyclic — worms are waiting on dead or permanently-owned
/// resources rather than on each other.
#[derive(Debug, Clone)]
pub struct Incident {
    /// Clock the incident was captured on.
    pub cycle: u32,
    /// Last clock any flit moved.
    pub last_progress: u32,
    /// Packets injected but not delivered at capture time.
    pub live_packets: u64,
    /// Flits wedged in buffers network-wide.
    pub buffered_flits: u64,
    /// Channels dead at capture time (killed by fault epochs).
    pub dead_channels: Vec<ChannelId>,
    /// Every worm that cannot advance, with its held and wanted channels.
    pub worms: Vec<BlockedWorm>,
    /// The deduplicated waits-for edges `held → wanted` over all worms.
    pub edges: Vec<(ChannelId, ChannelId)>,
    /// The certifier's verdict on the waits-for graph, with a minimized
    /// witness cycle when one exists.
    pub certificate: Certificate,
}

impl Incident {
    /// True when the waits-for graph contains a circular wait.
    pub fn is_circular_wait(&self) -> bool {
        !self.certificate.is_deadlock_free()
    }

    /// The minimized witness cycle, when the stall is circular.
    pub fn witness(&self) -> Option<&[ChannelId]> {
        match &self.certificate.verdict {
            Verdict::Deadlock { witness } => Some(witness),
            Verdict::DeadlockFree { .. } => None,
        }
    }

    /// Serializes the incident to pretty-printed JSON (schema in
    /// DESIGN.md §14).
    pub fn to_json(&self) -> String {
        let worms: Vec<Value> = self
            .worms
            .iter()
            .map(|w| {
                Value::Map(vec![
                    ("pkt".to_string(), Value::U64(u64::from(w.pkt))),
                    ("src".to_string(), Value::U64(u64::from(w.src))),
                    ("dst".to_string(), Value::U64(u64::from(w.dst))),
                    ("node".to_string(), Value::U64(u64::from(w.node))),
                    (
                        "input_channel".to_string(),
                        w.input_channel
                            .map_or(Value::Null, |c| Value::U64(u64::from(c))),
                    ),
                    ("holds".to_string(), ids(&w.holds)),
                    ("wants".to_string(), ids(&w.wants)),
                    ("wants_ejection".to_string(), Value::Bool(w.wants_ejection)),
                    (
                        "blocked_cycles".to_string(),
                        Value::U64(u64::from(w.blocked_cycles)),
                    ),
                ])
            })
            .collect();
        let edges: Vec<Value> = self
            .edges
            .iter()
            .map(|&(held, wanted)| {
                Value::Seq(vec![
                    Value::U64(u64::from(held)),
                    Value::U64(u64::from(wanted)),
                ])
            })
            .collect();
        let report = Value::Map(vec![
            (
                "kind".to_string(),
                Value::Str("deadlock_incident".to_string()),
            ),
            ("cycle".to_string(), Value::U64(u64::from(self.cycle))),
            (
                "last_progress".to_string(),
                Value::U64(u64::from(self.last_progress)),
            ),
            ("live_packets".to_string(), Value::U64(self.live_packets)),
            (
                "buffered_flits".to_string(),
                Value::U64(self.buffered_flits),
            ),
            ("dead_channels".to_string(), ids(&self.dead_channels)),
            ("blocked_worms".to_string(), Value::Seq(worms)),
            ("waits_for_edges".to_string(), Value::Seq(edges)),
            (
                "circular_wait".to_string(),
                Value::Bool(self.is_circular_wait()),
            ),
            ("certificate".to_string(), self.certificate.to_value()),
        ]);
        serde_json::to_string_pretty(&report).expect("incident serialization cannot fail")
    }
}

fn ids(channels: &[ChannelId]) -> Value {
    Value::Seq(channels.iter().map(|&c| Value::U64(u64::from(c))).collect())
}

/// Captures the forensic state of a stalled [`Simulator`]: the blocked
/// worms, the waits-for graph over their held/wanted channels, and the
/// certifier's verdict on it (minimized witness cycle for a circular
/// wait).
///
/// Intended to be called when [`Simulator::advance`] or
/// [`Simulator::drain`] returns [`irnet_sim::Halt::Stalled`], but valid
/// between any two driver calls, which leave the per-flit state — on a
/// healthy network it simply reports few or no blocked worms and an
/// acyclic waits-for graph.
pub fn deadlock_incident(sim: &Simulator) -> Incident {
    let worms = sim.blocked_worms();
    let mut edge_set: BTreeSet<(ChannelId, ChannelId)> = BTreeSet::new();
    for worm in &worms {
        for &wanted in &worm.wants {
            // A want the worm itself holds is an intra-worm dependency
            // (body flits stalled behind their own claimed channel; the
            // real wait is at the worm's head) — only inter-worm waits
            // belong in the waits-for graph.
            if worm.holds.contains(&wanted) {
                continue;
            }
            for &held in &worm.holds {
                edge_set.insert((held, wanted));
            }
        }
    }
    let edges: Vec<(ChannelId, ChannelId)> = edge_set.into_iter().collect();
    let dep = ChannelDepGraph::from_edges(sim.num_physical_channels(), &edges);
    let certificate = certify_dep(&dep);
    Incident {
        cycle: sim.now(),
        last_progress: sim.last_progress_cycle(),
        live_packets: sim.live_packet_count(),
        buffered_flits: sim.buffered_flit_count(),
        dead_channels: sim.dead_channel_ids(),
        worms,
        edges,
        certificate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irnet_core::DownUp;
    use irnet_sim::{SimConfig, Simulator};
    use irnet_topology::gen;

    #[test]
    fn healthy_run_yields_acyclic_incident() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 5).unwrap();
        let routing = DownUp::new().construct(&topo).unwrap();
        let cfg = SimConfig {
            packet_len: 8,
            injection_rate: 0.05,
            warmup_cycles: 0,
            measure_cycles: 400,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(routing.comm_graph(), routing.routing_tables(), cfg, 11);
        sim.advance(200);
        let incident = deadlock_incident(&sim);
        // DOWN/UP is deadlock-free: any momentary blocking must be acyclic.
        assert!(!incident.is_circular_wait());
        assert!(incident.witness().is_none());
        let json = incident.to_json();
        let value: Value = serde_json::from_str(&json).expect("incident JSON parses");
        assert!(value.get("blocked_worms").is_some());
        assert!(value.get("waits_for_edges").is_some());
        assert!(value.get("certificate").is_some());
    }
}
