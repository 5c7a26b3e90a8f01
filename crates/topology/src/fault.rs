//! Fault injection: scripted and seeded-random link/switch failure plans,
//! and the [`Topology::degrade`] path that filters a topology down to its
//! surviving graph while reporting partition and isolation.
//!
//! A [`FaultPlan`] is an ordered list of [`FaultEvent`]s, each bound to an
//! *activation cycle* — the simulator clock at which the fault strikes.
//! Since schema v2 an event may also *recover*: `recovers_at` names the
//! cycle at which the element comes back up, and an optional
//! [`FlapSchedule`] repeats the down/up pair.
//!
//! [`crate::recovery::RecoveryTimeline`] is the one reader of a plan's
//! events: it expands them into per-step survivor masks over the original
//! topology. [`Topology::degrade_from_masks`] compacts one step's survivors
//! and yields both the compact surviving [`Topology`] and the id maps the
//! repair layer needs to lift the rebuilt routing function back into the
//! original channel space.

use crate::error::TopologyError;
use crate::graph::{LinkId, NodeId, Topology};
use crate::recovery::{DampingPolicy, RecoveryTimeline};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{DeError, Deserialize, Serialize, Value};

/// What fails: a single bidirectional link, or a whole switch (which takes
/// every incident link down with it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The bidirectional link between `a` and `b` goes dead.
    Link {
        /// One endpoint (order does not matter).
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Switch `node` goes dead, along with all its links and its attached
    /// processor (it stops injecting and ejecting traffic).
    Switch {
        /// The failing switch.
        node: NodeId,
    },
}

/// A repeating flap schedule attached to a recovering fault (schema v2):
/// the event's down/up pair repeats `count` more times, each repeat shifted
/// `period` cycles after the previous one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlapSchedule {
    /// Cycles between successive down transitions. Must exceed the outage
    /// duration (`recovers_at - cycle`) so repeats do not overlap.
    pub period: u32,
    /// Number of additional down/up repeats after the first pair.
    pub count: u32,
}

/// One fault bound to the simulator cycle at which it activates, and — since
/// schema v2 — optionally to the cycle at which it recovers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Simulator clock at which the fault strikes.
    pub cycle: u32,
    /// What fails.
    pub kind: FaultKind,
    /// Cycle at which the element comes back up; `None` means the fault is
    /// permanent (the schema-v1 behavior). Must be strictly after `cycle`.
    pub recovers_at: Option<u32>,
    /// Optional repeating flap schedule; requires `recovers_at`.
    pub flap: Option<FlapSchedule>,
}

impl FaultEvent {
    /// A permanent (schema-v1) fault.
    pub fn down(cycle: u32, kind: FaultKind) -> FaultEvent {
        FaultEvent {
            cycle,
            kind,
            recovers_at: None,
            flap: None,
        }
    }

    /// A fault that strikes at `cycle` and recovers at `recovers_at`.
    pub fn recovering(cycle: u32, kind: FaultKind, recovers_at: u32) -> FaultEvent {
        FaultEvent {
            cycle,
            kind,
            recovers_at: Some(recovers_at),
            flap: None,
        }
    }

    /// Attaches a flap schedule: the down/up pair repeats `count` more
    /// times, `period` cycles apart.
    #[must_use]
    pub fn with_flap(mut self, period: u32, count: u32) -> FaultEvent {
        self.flap = Some(FlapSchedule { period, count });
        self
    }

    /// True when the event carries schema-v2 recovery content.
    pub fn has_recovery(&self) -> bool {
        self.recovers_at.is_some() || self.flap.is_some()
    }

    /// Checks the recovery fields for internal consistency (shared by the
    /// deserializer and the timeline expander).
    pub(crate) fn validate_recovery(&self) -> Result<(), String> {
        if self.flap.is_some() && self.recovers_at.is_none() {
            return Err(format!(
                "event at cycle {}: a flap schedule requires `recovers_at`",
                self.cycle
            ));
        }
        if let Some(r) = self.recovers_at {
            if r <= self.cycle {
                return Err(format!(
                    "event at cycle {}: recovers_at ({r}) must be strictly after the fault cycle",
                    self.cycle
                ));
            }
            if let Some(f) = self.flap {
                if f.period <= r - self.cycle {
                    return Err(format!(
                        "event at cycle {}: flap period ({}) must exceed the outage \
                         duration ({})",
                        self.cycle,
                        f.period,
                        r - self.cycle
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Serialize for FaultEvent {
    fn to_value(&self) -> Value {
        let mut map = vec![("cycle".to_string(), Value::U64(u64::from(self.cycle)))];
        match self.kind {
            FaultKind::Link { a, b } => map.push((
                "link".to_string(),
                Value::Seq(vec![Value::U64(u64::from(a)), Value::U64(u64::from(b))]),
            )),
            FaultKind::Switch { node } => {
                map.push(("switch".to_string(), Value::U64(u64::from(node))));
            }
        }
        if let Some(r) = self.recovers_at {
            map.push(("recovers_at".to_string(), Value::U64(u64::from(r))));
        }
        if let Some(f) = self.flap {
            map.push((
                "flap".to_string(),
                Value::Map(vec![
                    ("period".to_string(), Value::U64(u64::from(f.period))),
                    ("count".to_string(), Value::U64(u64::from(f.count))),
                ]),
            ));
        }
        Value::Map(map)
    }
}

impl Deserialize for FaultEvent {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let map = v
            .as_map()
            .ok_or_else(|| DeError::custom("fault event must be a map"))?;
        let cycle: u32 = serde::field(map, "cycle")?;
        let link = v.get("link");
        let switch = v.get("switch");
        let kind = match (link, switch) {
            (Some(l), None) => {
                let (a, b): (NodeId, NodeId) = Deserialize::from_value(l)?;
                FaultKind::Link { a, b }
            }
            (None, Some(s)) => FaultKind::Switch {
                node: NodeId::from_value(s)?,
            },
            _ => {
                return Err(DeError::custom(
                    "fault event needs exactly one of `link` or `switch`",
                ))
            }
        };
        let recovers_at = match v.get("recovers_at") {
            Some(r) => Some(u32::from_value(r)?),
            None => None,
        };
        let flap = match v.get("flap") {
            Some(f) => {
                let fm = f
                    .as_map()
                    .ok_or_else(|| DeError::custom("`flap` must be a map"))?;
                Some(FlapSchedule {
                    period: serde::field(fm, "period")?,
                    count: serde::field(fm, "count")?,
                })
            }
            None => None,
        };
        let ev = FaultEvent {
            cycle,
            kind,
            recovers_at,
            flap,
        };
        ev.validate_recovery().map_err(DeError::custom)?;
        Ok(ev)
    }
}

/// An ordered fault scenario: events sorted by activation cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl Serialize for FaultPlan {
    fn to_value(&self) -> Value {
        let mut map = Vec::new();
        let version = self.schema_version();
        if version > 1 {
            // v1 files round-trip byte-identically: the version key only
            // appears once recovery content forces the newer schema.
            map.push(("version".to_string(), Value::U64(u64::from(version))));
        }
        map.push((
            "events".to_string(),
            Value::Seq(self.events.iter().map(Serialize::to_value).collect()),
        ));
        Value::Map(map)
    }
}

impl Deserialize for FaultPlan {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let map = v
            .as_map()
            .ok_or_else(|| DeError::custom("fault plan must be a map"))?;
        let version: u32 = match v.get("version") {
            Some(ver) => u32::from_value(ver)?,
            None => 1,
        };
        if !(1..=2).contains(&version) {
            return Err(DeError::custom(format!(
                "unsupported fault scenario schema version {version} (this build reads 1 and 2)"
            )));
        }
        let events: Vec<FaultEvent> = serde::field(map, "events")?;
        if version == 1 {
            if let Some(ev) = events.iter().find(|e| e.has_recovery()) {
                return Err(DeError::custom(format!(
                    "event at cycle {} carries recovery fields; declare \"version\": 2",
                    ev.cycle
                )));
            }
        }
        Ok(FaultPlan { events })
    }
}

impl FaultPlan {
    /// Builds a scripted plan; events are stably sorted by activation cycle
    /// so same-cycle faults keep their scripted order.
    pub fn scripted(events: impl IntoIterator<Item = FaultEvent>) -> FaultPlan {
        let mut events: Vec<FaultEvent> = events.into_iter().collect();
        events.sort_by_key(|e| e.cycle);
        FaultPlan { events }
    }

    /// Draws a seeded-random plan against `topo`: `links` distinct link
    /// failures and `switches` distinct switch failures, each activating at
    /// a uniform cycle in `window` (inclusive). Deterministic per seed.
    pub fn random(
        topo: &Topology,
        links: u32,
        switches: u32,
        window: (u32, u32),
        seed: u64,
    ) -> Result<FaultPlan, FaultError> {
        if links > topo.num_links() {
            return Err(FaultError::Unsatisfiable(format!(
                "asked for {links} link faults but the topology has {} links",
                topo.num_links()
            )));
        }
        if switches >= topo.num_nodes() {
            return Err(FaultError::Unsatisfiable(format!(
                "asked for {switches} switch faults but the topology has {} switches",
                topo.num_nodes()
            )));
        }
        let (lo, hi) = (window.0.min(window.1), window.0.max(window.1));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut events = Vec::new();
        let pick_distinct = |rng: &mut ChaCha8Rng, count: u32, n: u32| -> Vec<u32> {
            let mut chosen: Vec<u32> = Vec::with_capacity(count as usize);
            while (chosen.len() as u32) < count {
                let c = rng.gen_range(0..n);
                if !chosen.contains(&c) {
                    chosen.push(c);
                }
            }
            chosen
        };
        for l in pick_distinct(&mut rng, links, topo.num_links()) {
            let (a, b) = topo.link(l);
            events.push(FaultEvent::down(
                rng.gen_range(lo..=hi),
                FaultKind::Link { a, b },
            ));
        }
        for node in pick_distinct(&mut rng, switches, topo.num_nodes()) {
            events.push(FaultEvent::down(
                rng.gen_range(lo..=hi),
                FaultKind::Switch { node },
            ));
        }
        Ok(FaultPlan::scripted(events))
    }

    /// All events, sorted by activation cycle.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when the plan contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The JSON schema version this plan serializes as: 2 when any event
    /// carries recovery/flap fields, else 1 (so v1 files round-trip
    /// unchanged).
    pub fn schema_version(&self) -> u32 {
        if self.events.iter().any(FaultEvent::has_recovery) {
            2
        } else {
            1
        }
    }

    /// True when any event recovers or flaps, so some step of its timeline
    /// revives an element.
    pub fn has_recovery(&self) -> bool {
        self.schema_version() == 2
    }

    /// Parses a scenario from JSON:
    /// `{"events":[{"cycle":N,"link":[a,b]},{"cycle":N,"switch":v}]}`.
    pub fn from_json(text: &str) -> Result<FaultPlan, FaultError> {
        let value = serde_json::from_str(text)
            .map_err(|e| FaultError::Parse(format!("invalid scenario JSON: {e}")))?;
        let plan = FaultPlan::from_value(&value)
            .map_err(|e| FaultError::Parse(format!("invalid fault scenario: {e}")))?;
        Ok(FaultPlan::scripted(plan.events))
    }

    /// Renders the scenario as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        // The vendored serializer is infallible on value trees.
        serde_json::to_string_pretty(&self.to_value()).unwrap_or_default()
    }
}

/// Why a fault plan cannot be applied (or survived).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// A link fault names a pair of switches with no link between them.
    UnknownLink {
        /// Claimed endpoint.
        a: NodeId,
        /// Claimed endpoint.
        b: NodeId,
    },
    /// A switch fault names a node outside the topology.
    UnknownSwitch {
        /// The out-of-range node id.
        node: NodeId,
        /// Number of switches in the topology.
        num_nodes: u32,
    },
    /// Every switch failed; nothing is left to route on.
    NoSurvivors,
    /// The surviving graph is split: only `reached` of the `alive` surviving
    /// switches are reachable from the lowest-numbered survivor, and
    /// `isolated` survivors lost every link.
    Partitioned {
        /// Surviving (non-failed) switches.
        alive: u32,
        /// Survivors reachable from the lowest-numbered survivor.
        reached: u32,
        /// Survivors with zero remaining links.
        isolated: u32,
    },
    /// A random plan's parameters cannot be satisfied.
    Unsatisfiable(String),
    /// A scenario file could not be parsed.
    Parse(String),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::UnknownLink { a, b } => {
                write!(f, "fault names link ({a}, {b}), but no such link exists")
            }
            FaultError::UnknownSwitch { node, num_nodes } => {
                write!(
                    f,
                    "fault names switch {node}, but the topology has {num_nodes} switches"
                )
            }
            FaultError::NoSurvivors => write!(f, "every switch failed; nothing survives"),
            FaultError::Partitioned {
                alive,
                reached,
                isolated,
            } => write!(
                f,
                "surviving network is partitioned: {reached} of {alive} \
                 surviving switches reachable, {isolated} fully isolated"
            ),
            FaultError::Unsatisfiable(msg) => write!(f, "unsatisfiable fault plan: {msg}"),
            FaultError::Parse(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for FaultError {}

/// A degraded topology plus the id maps relating it to the original.
///
/// The surviving graph is *compacted*: surviving nodes and links are
/// renumbered contiguously in increasing original-id order. Because the
/// renumbering is monotone, every surviving link keeps its `a < b`
/// endpoint orientation — which is what lets the repair layer map original
/// channel `2l + d` to compact channel `2·link_map[l] + d` with the same
/// direction bit `d`.
#[derive(Debug, Clone)]
pub struct DegradedTopology {
    /// The compact surviving graph.
    pub topology: Topology,
    /// Original node id → compact id (`None` for dead switches).
    pub node_map: Vec<Option<NodeId>>,
    /// Compact node id → original id.
    pub node_unmap: Vec<NodeId>,
    /// Original link id → compact id (`None` for dead links).
    pub link_map: Vec<Option<LinkId>>,
    /// Original ids of dead links (scripted plus those lost to switch
    /// faults), in increasing order.
    pub dead_links: Vec<LinkId>,
    /// Original ids of dead switches, in increasing order.
    pub dead_nodes: Vec<NodeId>,
}

impl Topology {
    /// Walks the undamped timeline of `plan` and returns the compact
    /// survivors of its final step (this topology itself when the plan has
    /// no step), or the error of the first step whose survivors do not
    /// compact: a plan is survivable only when every state it passes
    /// through is.
    ///
    /// # Errors
    ///
    /// The timeline's errors ([`FaultError::UnknownLink`],
    /// [`FaultError::UnknownSwitch`], [`FaultError::Parse`]), then
    /// [`FaultError::NoSurvivors`] / [`FaultError::Partitioned`] for the
    /// first step that leaves nothing routable.
    pub fn degrade(&self, plan: &FaultPlan) -> Result<Topology, FaultError> {
        let timeline = RecoveryTimeline::compute(self, plan, DampingPolicy::none())?;
        let mut survivors = self.clone();
        for step in &timeline.steps {
            survivors = self
                .degrade_from_masks(&step.node_down, &step.link_down)?
                .topology;
        }
        Ok(survivors)
    }

    /// Compacts the survivors described by per-element down masks (a
    /// [`crate::TimelineStep`]'s `node_down` and `link_down`).
    ///
    /// # Errors
    ///
    /// [`FaultError::NoSurvivors`] / [`FaultError::Partitioned`] when
    /// nothing routable survives.
    ///
    /// # Panics
    ///
    /// Panics if the mask lengths disagree with this topology.
    pub fn degrade_from_masks(
        &self,
        node_dead: &[bool],
        link_dead: &[bool],
    ) -> Result<DegradedTopology, FaultError> {
        let n = self.num_nodes() as usize;
        let m = self.num_links() as usize;
        assert_eq!(node_dead.len(), n);
        assert_eq!(link_dead.len(), m);

        // Compact monotone renumbering of the survivors.
        let mut node_map = vec![None; n];
        let mut node_unmap = Vec::new();
        for (v, dead) in node_dead.iter().enumerate() {
            if !dead {
                node_map[v] = Some(node_unmap.len() as NodeId);
                node_unmap.push(v as NodeId);
            }
        }
        if node_unmap.is_empty() {
            return Err(FaultError::NoSurvivors);
        }

        let mut link_map = vec![None; m];
        let mut surviving_links = Vec::new();
        for (l, dead) in link_dead.iter().enumerate() {
            if !dead {
                let (a, b) = self.link(l as LinkId);
                link_map[l] = Some(surviving_links.len() as LinkId);
                surviving_links.push((
                    node_map[a as usize].expect("live link endpoint is alive"),
                    node_map[b as usize].expect("live link endpoint is alive"),
                ));
            }
        }

        let alive = node_unmap.len() as u32;
        let topology =
            Topology::new(alive, self.ports(), surviving_links).map_err(|e| match e {
                TopologyError::Disconnected { reached, .. } => {
                    let isolated = node_unmap
                        .iter()
                        .filter(|&&orig| {
                            self.neighbors(orig)
                                .iter()
                                .all(|&(_, l)| link_dead[l as usize])
                        })
                        .count() as u32;
                    FaultError::Partitioned {
                        alive,
                        reached,
                        isolated,
                    }
                }
                // The original is simple and degrees only shrink, so the only
                // other reachable failure is a single surviving switch with no
                // links — which `Topology::new` accepts. Anything else is a bug.
                other => unreachable!("degrade produced an invalid graph: {other}"),
            })?;

        Ok(DegradedTopology {
            topology,
            node_map,
            node_unmap,
            link_map,
            dead_links: (0..m as u32).filter(|&l| link_dead[l as usize]).collect(),
            dead_nodes: (0..n as u32).filter(|&v| node_dead[v as usize]).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_with_diagonal() -> Topology {
        // 0-1, 1-2, 2-3, 0-3, 1-3
        Topology::new(4, 4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]).unwrap()
    }

    fn link(cycle: u32, a: NodeId, b: NodeId) -> FaultEvent {
        FaultEvent::down(cycle, FaultKind::Link { a, b })
    }

    fn switch(cycle: u32, node: NodeId) -> FaultEvent {
        FaultEvent::down(cycle, FaultKind::Switch { node })
    }

    /// The compacted survivors of the plan's final timeline step.
    fn final_survivors(t: &Topology, plan: &FaultPlan) -> DegradedTopology {
        let timeline = RecoveryTimeline::compute(t, plan, DampingPolicy::none()).unwrap();
        let last = timeline.steps.last().expect("the plan has a step");
        t.degrade_from_masks(&last.node_down, &last.link_down)
            .unwrap()
    }

    #[test]
    fn link_fault_filters_one_link() {
        let t = square_with_diagonal();
        let d = final_survivors(&t, &FaultPlan::scripted([link(10, 3, 1)]));
        assert_eq!(d.topology.num_nodes(), 4);
        assert_eq!(d.topology.num_links(), 4);
        assert_eq!(d.dead_links, vec![t.link_between(1, 3).unwrap()]);
        assert!(d.dead_nodes.is_empty());
        // Node map is the identity for link-only plans.
        for v in 0..4 {
            assert_eq!(d.node_map[v as usize], Some(v));
        }
        // Surviving links keep their relative order and orientation.
        for (l, &mapped) in d.link_map.iter().enumerate() {
            if let Some(nl) = mapped {
                let (a, b) = t.link(l as LinkId);
                assert_eq!(d.topology.link(nl), (a, b));
            }
        }
    }

    #[test]
    fn switch_fault_removes_node_and_incident_links() {
        let t = square_with_diagonal();
        let d = final_survivors(&t, &FaultPlan::scripted([switch(5, 1)]));
        // Node 1 had degree 3; survivors 0-3-2 form a path.
        assert_eq!(d.topology.num_nodes(), 3);
        assert_eq!(d.topology.num_links(), 2);
        assert_eq!(d.dead_nodes, vec![1]);
        assert_eq!(d.node_unmap, vec![0, 2, 3]);
        assert_eq!(d.node_map, vec![Some(0), None, Some(1), Some(2)]);
        // Monotone renumbering preserves a < b orientation.
        for &(a, b) in d.topology.links() {
            assert!(a < b);
        }
    }

    #[test]
    fn partition_is_reported_with_isolation() {
        // Path 0-1-2-3; killing link (1,2) splits it 2/2.
        let t = Topology::new(4, 4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let err = t
            .degrade(&FaultPlan::scripted([link(0, 1, 2)]))
            .unwrap_err();
        assert_eq!(
            err,
            FaultError::Partitioned {
                alive: 4,
                reached: 2,
                isolated: 0,
            }
        );
        // Killing both links of node 1 isolates it — and node 0 with it.
        let err = t
            .degrade(&FaultPlan::scripted([link(0, 0, 1), link(0, 1, 2)]))
            .unwrap_err();
        assert_eq!(
            err,
            FaultError::Partitioned {
                alive: 4,
                reached: 1,
                isolated: 2,
            }
        );
    }

    #[test]
    fn unknown_faults_are_rejected() {
        let t = square_with_diagonal();
        assert_eq!(
            t.degrade(&FaultPlan::scripted([link(0, 0, 2)]))
                .unwrap_err(),
            FaultError::UnknownLink { a: 0, b: 2 }
        );
        assert_eq!(
            t.degrade(&FaultPlan::scripted([switch(0, 9)])).unwrap_err(),
            FaultError::UnknownSwitch {
                node: 9,
                num_nodes: 4
            }
        );
    }

    #[test]
    fn duplicate_faults_are_idempotent() {
        let t = square_with_diagonal();
        let d = final_survivors(
            &t,
            &FaultPlan::scripted([link(1, 1, 3), link(2, 3, 1), switch(3, 2), switch(4, 2)]),
        );
        assert_eq!(d.topology.num_nodes(), 3);
        assert_eq!(d.dead_nodes, vec![2]);
    }

    #[test]
    fn scripted_plans_are_sorted_by_cycle() {
        let plan = FaultPlan::scripted([link(30, 0, 1), link(10, 1, 2), switch(20, 3)]);
        let cycles: Vec<u32> = plan.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![10, 20, 30]);
    }

    #[test]
    fn degrade_judges_every_state_the_plan_passes_through() {
        // Path 0-1-2-3. Cutting (1,2) partitions it even though the switch
        // failure that follows leaves the final survivors {0, 1} connected.
        let t = Topology::new(4, 4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let cut_then_kill = FaultPlan::scripted([link(10, 1, 2), switch(20, 2), switch(20, 3)]);
        assert!(matches!(
            t.degrade(&cut_then_kill),
            Err(FaultError::Partitioned { reached: 2, .. })
        ));
        // A recovered link is back in the final state.
        let outage = FaultPlan::scripted([FaultEvent::recovering(
            10,
            FaultKind::Link { a: 2, b: 3 },
            20,
        )]);
        assert!(t.degrade(&outage).is_err());
        let square = square_with_diagonal();
        let healed = FaultPlan::scripted([FaultEvent::recovering(
            10,
            FaultKind::Link { a: 1, b: 3 },
            20,
        )]);
        for plan in [healed, FaultPlan::scripted([])] {
            let survivors = square.degrade(&plan).unwrap();
            assert_eq!(survivors.num_nodes(), 4);
            assert_eq!(survivors.links(), square.links());
        }
    }

    #[test]
    fn random_plans_are_deterministic_and_valid() {
        let t = crate::gen::random_irregular(crate::gen::IrregularParams::paper(32, 4), 7).unwrap();
        let a = FaultPlan::random(&t, 3, 1, (100, 500), 11).unwrap();
        let b = FaultPlan::random(&t, 3, 1, (100, 500), 11).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 4);
        for ev in a.events() {
            assert!((100..=500).contains(&ev.cycle));
        }
        // Validity: every event names a real link/switch.
        RecoveryTimeline::compute(&t, &a, DampingPolicy::none()).unwrap();
        assert!(FaultPlan::random(&t, 10_000, 0, (0, 1), 1).is_err());
        assert!(FaultPlan::random(&t, 0, 32, (0, 1), 1).is_err());
    }

    #[test]
    fn scenario_json_roundtrip() {
        let plan = FaultPlan::scripted([link(100, 2, 7), switch(300, 5)]);
        assert_eq!(plan.schema_version(), 1);
        let text = plan.to_json();
        // v1 plans serialize without a version key, exactly as before.
        assert!(!text.contains("version"));
        let back = FaultPlan::from_json(&text).unwrap();
        assert_eq!(plan, back);
        assert!(FaultPlan::from_json("{").is_err());
        assert!(FaultPlan::from_json("{\"events\":[{\"cycle\":1}]}").is_err());
        let both = "{\"events\":[{\"cycle\":1,\"link\":[0,1],\"switch\":2}]}";
        assert!(FaultPlan::from_json(both).is_err());
    }

    #[test]
    fn scenario_json_roundtrip_v2() {
        let plan = FaultPlan::scripted([
            FaultEvent::recovering(100, FaultKind::Link { a: 2, b: 7 }, 450).with_flap(900, 3),
            FaultEvent::recovering(300, FaultKind::Switch { node: 5 }, 800),
            link(500, 0, 1),
        ]);
        assert_eq!(plan.schema_version(), 2);
        assert!(plan.has_recovery());
        let text = plan.to_json();
        assert!(text.contains("\"version\": 2"));
        let back = FaultPlan::from_json(&text).unwrap();
        assert_eq!(plan, back);
        // An explicit version: 2 with plain events also parses.
        let explicit = "{\"version\":2,\"events\":[{\"cycle\":1,\"link\":[0,1]}]}";
        assert_eq!(
            FaultPlan::from_json(explicit).unwrap(),
            FaultPlan::scripted([link(1, 0, 1)])
        );
    }

    #[test]
    fn v2_schema_violations_are_rejected() {
        // Recovery fields without the version declaration.
        let undeclared = "{\"events\":[{\"cycle\":1,\"link\":[0,1],\"recovers_at\":9}]}";
        assert!(FaultPlan::from_json(undeclared).is_err());
        // Future schema versions are refused, not silently misread.
        let future = "{\"version\":3,\"events\":[]}";
        assert!(FaultPlan::from_json(future).is_err());
        // recovers_at must lie strictly after the fault cycle.
        let backwards =
            "{\"version\":2,\"events\":[{\"cycle\":10,\"link\":[0,1],\"recovers_at\":10}]}";
        assert!(FaultPlan::from_json(backwards).is_err());
        // A flap schedule needs recovers_at, and its period must exceed the
        // outage so repeats do not overlap.
        let flap_only =
            "{\"version\":2,\"events\":[{\"cycle\":1,\"link\":[0,1],\"flap\":{\"period\":5,\"count\":2}}]}";
        assert!(FaultPlan::from_json(flap_only).is_err());
        let overlap = "{\"version\":2,\"events\":[{\"cycle\":1,\"link\":[0,1],\
                        \"recovers_at\":20,\"flap\":{\"period\":19,\"count\":1}}]}";
        assert!(FaultPlan::from_json(overlap).is_err());
    }

    #[test]
    fn all_switches_dead_is_no_survivors() {
        let t = Topology::new(2, 4, [(0, 1)]).unwrap();
        let err = t
            .degrade(&FaultPlan::scripted([switch(0, 0), switch(0, 1)]))
            .unwrap_err();
        assert_eq!(err, FaultError::NoSurvivors);
    }
}
