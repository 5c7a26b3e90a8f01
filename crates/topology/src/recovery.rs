//! Bidirectional reconfiguration timelines: expanding a recovery-aware
//! [`FaultPlan`] into the admitted sequence of down **and** up transitions
//! under a flap-damping policy.
//!
//! This is the one place a plan's events are resolved into survivor
//! masks: repair, the feasibility judge, [`Topology::degrade`] and the
//! chaos generator all read a plan through its timeline. A plan describes,
//! per element, a sequence of *physical* transitions (down at `cycle`, up at
//! `recovers_at`, repeated by the flap schedule). The control plane does not
//! chase every physical transition: a [`DampingPolicy`] holds a recovered
//! element down for a while before re-admission, doubling the hold on every
//! repeated flap, and cancels a pending re-admission outright when the
//! element fails again first. The result is a [`RecoveryTimeline`]: one
//! [`TimelineStep`] per cycle at which the *admitted* live set changes, each
//! carrying the cumulative down masks over the **original** topology plus
//! the exact delta (failed/revived elements), and a per-element
//! [`ElementDamping`] report proving how much thrash the policy absorbed.
//!
//! Masks are always *derived*: a link is down when it failed explicitly
//! **or** either endpoint switch is down — so recovering a switch revives
//! its incident links (unless they failed on their own), exactly mirroring
//! the way a switch failure kills them. A schema-v1 plan (no recovery)
//! only grows the dead set, so its final step holds every element the plan
//! names.

use std::collections::BTreeMap;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::fault::{FaultError, FaultEvent, FaultKind, FaultPlan};
use crate::graph::{LinkId, NodeId, Topology};

/// A failable element of the original topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Element {
    /// A bidirectional link, by original link id.
    Link(LinkId),
    /// A switch, by node id.
    Switch(NodeId),
}

impl std::fmt::Display for Element {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Element::Link(l) => write!(f, "link {l}"),
            Element::Switch(v) => write!(f, "switch {v}"),
        }
    }
}

/// Flap damping: how long a recovered element must hold up before the
/// control plane re-admits it, with exponential back-off on repeat flaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DampingPolicy {
    /// Base hold-down in cycles applied to the first re-admission; 0
    /// disables damping (re-admission exactly at the physical up cycle).
    pub hold_cycles: u32,
    /// Cap on the exponentially growing hold-down.
    pub max_hold: u32,
}

impl DampingPolicy {
    /// No damping: every physical up is admitted at its own cycle.
    pub fn none() -> DampingPolicy {
        DampingPolicy {
            hold_cycles: 0,
            max_hold: 0,
        }
    }

    /// Damping with a base hold of `cycles` and the default 8x cap.
    pub fn hold(cycles: u32) -> DampingPolicy {
        DampingPolicy {
            hold_cycles: cycles,
            max_hold: cycles.saturating_mul(8),
        }
    }

    /// The hold-down applied to an element's re-admission after its
    /// `downs`-th failure: `hold_cycles · 2^(downs-1)`, capped at
    /// `max_hold`.
    pub fn hold_for(&self, downs: u32) -> u32 {
        if self.hold_cycles == 0 {
            return 0;
        }
        let doublings = downs.saturating_sub(1).min(32);
        let hold = u64::from(self.hold_cycles) << doublings;
        u32::try_from(hold.min(u64::from(self.max_hold.max(self.hold_cycles)))).unwrap_or(u32::MAX)
    }
}

impl Default for DampingPolicy {
    fn default() -> DampingPolicy {
        DampingPolicy::none()
    }
}

/// Per-element damping accounting: how many physical transitions occurred
/// and how many the policy actually admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementDamping {
    /// The element this entry describes.
    pub element: Element,
    /// Link endpoints, for human-readable reports (`None` for switches).
    pub endpoints: Option<(NodeId, NodeId)>,
    /// Physical down transitions (the flap count as the hardware saw it).
    pub downs: u32,
    /// Physical up transitions.
    pub ups: u32,
    /// Down transitions the control plane admitted (≤ `downs`: an element
    /// that fails again before its pending re-admission never left the
    /// admitted-down state, so no new transition is needed).
    pub admitted_downs: u32,
    /// Up transitions the control plane admitted.
    pub admitted_ups: u32,
    /// Scheduled re-admissions cancelled because the element failed again
    /// during its hold-down.
    pub suppressed_ups: u32,
    /// Largest hold-down applied to this element.
    pub max_hold_applied: u32,
}

/// One cycle at which the admitted live set changes.
///
/// Masks are cumulative (the state *after* this step) over the original
/// topology; the delta lists are derived-mask diffs against the previous
/// step, so a switch failure lists its incident links in `failed_links` and
/// a switch recovery lists the links it revives in `revived_links`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineStep {
    /// Simulator cycle at which this reconfiguration applies.
    pub cycle: u32,
    /// Per-node down mask after this step.
    pub node_down: Vec<bool>,
    /// Per-link derived down mask after this step.
    pub link_down: Vec<bool>,
    /// Links newly dead at this step (original ids, increasing).
    pub failed_links: Vec<LinkId>,
    /// Switches newly dead at this step.
    pub failed_nodes: Vec<NodeId>,
    /// Links re-admitted at this step.
    pub revived_links: Vec<LinkId>,
    /// Switches re-admitted at this step.
    pub revived_nodes: Vec<NodeId>,
}

impl TimelineStep {
    /// True when this step only kills elements (no recovery content).
    pub fn is_down_only(&self) -> bool {
        self.revived_links.is_empty() && self.revived_nodes.is_empty()
    }
}

/// The expanded, damped transition timeline of a recovery-aware plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryTimeline {
    /// Steps in increasing cycle order; consecutive steps differ in at
    /// least one element (derived no-op transitions are dropped).
    pub steps: Vec<TimelineStep>,
    /// Per-element damping accounting, ordered by element.
    pub damping: Vec<ElementDamping>,
    /// Total physical transitions before damping (downs + ups across all
    /// elements). Damping is working when `steps.len()` is smaller than
    /// this for a flapping plan.
    pub raw_transitions: u32,
}

impl RecoveryTimeline {
    /// Expands `plan` against `topo` under `policy`.
    ///
    /// # Errors
    ///
    /// [`FaultError::UnknownLink`] / [`FaultError::UnknownSwitch`] for
    /// events naming missing elements, and [`FaultError::Parse`] for
    /// inconsistent recovery fields or schedules overflowing the cycle
    /// counter.
    pub fn compute(
        topo: &Topology,
        plan: &FaultPlan,
        policy: DampingPolicy,
    ) -> Result<RecoveryTimeline, FaultError> {
        // Physical transitions per element: (cycle, is_down).
        let mut physical: BTreeMap<Element, Vec<(u32, bool)>> = BTreeMap::new();
        for ev in plan.events() {
            ev.validate_recovery().map_err(FaultError::Parse)?;
            let element = resolve_element(topo, ev)?;
            let repeats = ev.flap.map_or(0, |f| f.count);
            let entry = physical.entry(element).or_default();
            for k in 0..=repeats {
                let shift = ev
                    .flap
                    .map_or(Some(0), |f| u32::checked_mul(f.period, k))
                    .and_then(|s| ev.cycle.checked_add(s).map(|_| s))
                    .ok_or_else(|| overflow(ev))?;
                entry.push((ev.cycle + shift, true));
                if let Some(r) = ev.recovers_at {
                    entry.push((r.checked_add(shift).ok_or_else(|| overflow(ev))?, false));
                }
            }
        }

        // Damping: physical transitions -> admitted transitions.
        let mut admitted: Vec<(u32, Element, bool)> = Vec::new();
        let mut damping = Vec::new();
        let mut raw_transitions = 0u32;
        for (element, mut trans) in physical {
            // Downs sort before ups at the same cycle, so a same-cycle
            // down/up pair from overlapping events nets out to down.
            trans.sort_by_key(|&(cycle, is_down)| (cycle, !is_down));
            let mut report = ElementDamping {
                element,
                endpoints: match element {
                    Element::Link(l) => Some(topo.link(l)),
                    Element::Switch(_) => None,
                },
                downs: 0,
                ups: 0,
                admitted_downs: 0,
                admitted_ups: 0,
                suppressed_ups: 0,
                max_hold_applied: 0,
            };
            let mut physically_down = false;
            let mut admitted_down = false;
            let mut pending_up: Option<u32> = None;
            for (t, is_down) in trans {
                raw_transitions += 1;
                if is_down {
                    if physically_down {
                        raw_transitions -= 1; // duplicate down: idempotent
                        continue;
                    }
                    physically_down = true;
                    report.downs += 1;
                    if let Some(p) = pending_up.take() {
                        if p < t {
                            // The re-admission fired before this failure.
                            admitted.push((p, element, false));
                            report.admitted_ups += 1;
                            admitted_down = false;
                        } else {
                            report.suppressed_ups += 1;
                        }
                    }
                    if !admitted_down {
                        admitted.push((t, element, true));
                        report.admitted_downs += 1;
                        admitted_down = true;
                    }
                } else {
                    if !physically_down {
                        raw_transitions -= 1; // duplicate up: idempotent
                        continue;
                    }
                    physically_down = false;
                    report.ups += 1;
                    let hold = policy.hold_for(report.downs);
                    report.max_hold_applied = report.max_hold_applied.max(hold);
                    pending_up = Some(t.saturating_add(hold));
                }
            }
            if let Some(p) = pending_up {
                admitted.push((p, element, false));
                report.admitted_ups += 1;
            }
            damping.push(report);
        }
        admitted.sort_by_key(|&(cycle, element, is_down)| (cycle, element, !is_down));

        // Group admitted transitions into steps and derive cumulative masks.
        let n = topo.num_nodes() as usize;
        let m = topo.num_links() as usize;
        let mut switch_down = vec![false; n];
        let mut link_explicit_down = vec![false; m];
        let mut prev_node = vec![false; n];
        let mut prev_link = vec![false; m];
        let mut steps: Vec<TimelineStep> = Vec::new();
        let mut i = 0;
        while i < admitted.len() {
            let cycle = admitted[i].0;
            while i < admitted.len() && admitted[i].0 == cycle {
                let (_, element, is_down) = admitted[i];
                match element {
                    Element::Link(l) => link_explicit_down[l as usize] = is_down,
                    Element::Switch(v) => switch_down[v as usize] = is_down,
                }
                i += 1;
            }
            let node_down = switch_down.clone();
            let mut link_down = vec![false; m];
            for (l, slot) in link_down.iter_mut().enumerate() {
                let (a, b) = topo.link(l as LinkId);
                *slot = link_explicit_down[l] || node_down[a as usize] || node_down[b as usize];
            }
            let delta = |prev: &[bool], cur: &[bool], want_down: bool| -> Vec<u32> {
                (0..cur.len() as u32)
                    .filter(|&x| {
                        cur[x as usize] == want_down && prev[x as usize] != cur[x as usize]
                    })
                    .collect()
            };
            let step = TimelineStep {
                cycle,
                failed_links: delta(&prev_link, &link_down, true),
                failed_nodes: delta(&prev_node, &node_down, true),
                revived_links: delta(&prev_link, &link_down, false),
                revived_nodes: delta(&prev_node, &node_down, false),
                node_down,
                link_down,
            };
            // A step whose derived masks did not move (e.g. a link revived
            // while an endpoint switch is still down) needs no epoch.
            if step.failed_links.is_empty()
                && step.failed_nodes.is_empty()
                && step.revived_links.is_empty()
                && step.revived_nodes.is_empty()
            {
                continue;
            }
            prev_node.clone_from(&step.node_down);
            prev_link.clone_from(&step.link_down);
            steps.push(step);
        }

        Ok(RecoveryTimeline {
            steps,
            damping,
            raw_transitions,
        })
    }

    /// True when no step revives anything (a schema-v1 plan).
    pub fn is_monotone(&self) -> bool {
        self.steps.iter().all(TimelineStep::is_down_only)
    }

    /// Total up transitions the policy suppressed across all elements.
    pub fn suppressed_ups(&self) -> u32 {
        self.damping.iter().map(|d| d.suppressed_ups).sum()
    }
}

fn resolve_element(topo: &Topology, ev: &FaultEvent) -> Result<Element, FaultError> {
    match ev.kind {
        FaultKind::Link { a, b } => topo
            .link_between(a.min(b), a.max(b))
            .map(Element::Link)
            .ok_or(FaultError::UnknownLink { a, b }),
        FaultKind::Switch { node } => {
            if node >= topo.num_nodes() {
                Err(FaultError::UnknownSwitch {
                    node,
                    num_nodes: topo.num_nodes(),
                })
            } else {
                Ok(Element::Switch(node))
            }
        }
    }
}

fn overflow(ev: &FaultEvent) -> FaultError {
    FaultError::Parse(format!(
        "event at cycle {}: flap schedule overflows the cycle counter",
        ev.cycle
    ))
}

/// Parameters of a seeded chaos schedule (see [`chaos_plan`]).
#[derive(Debug, Clone, Copy)]
pub struct ChaosParams {
    /// Fault events to accept.
    pub events: u32,
    /// Activation-cycle window (inclusive).
    pub window: (u32, u32),
    /// Outage-duration range (inclusive) for recovering events.
    pub outage: (u32, u32),
    /// Every k-th accepted event is a switch fault (0 disables).
    pub switch_every: u32,
    /// Every k-th accepted event carries a flap schedule (0 disables).
    pub flap_every: u32,
    /// Down/up repeats per flapping event.
    pub flap_count: u32,
    /// Every k-th accepted event is permanent — never recovers (0 disables).
    pub permanent_every: u32,
}

impl Default for ChaosParams {
    fn default() -> ChaosParams {
        ChaosParams {
            events: 8,
            window: (2_000, 12_000),
            outage: (500, 3_000),
            switch_every: 4,
            flap_every: 3,
            flap_count: 3,
            permanent_every: 5,
        }
    }
}

/// Draws a seeded chaos plan against `topo`: randomized link/switch
/// failures with recovery windows and periodic flap schedules, greedily
/// filtered. A candidate plan (the accepted prefix plus one trial event)
/// is kept only when **every step of its damped timeline** leaves the
/// surviving graph connected (and therefore feasible for repair) **and**
/// `accept` approves the whole plan. Callers use `accept` to enforce
/// properties this crate cannot see — e.g. that every repaired epoch
/// transition certifies deadlock-free — or pass `|_| true`.
/// Deterministic per seed for a deterministic `accept`.
///
/// # Errors
///
/// [`FaultError::Unsatisfiable`] when not a single event can be accepted
/// within the attempt budget (e.g. on a tree topology where every link is a
/// bridge).
pub fn chaos_plan(
    topo: &Topology,
    params: &ChaosParams,
    policy: DampingPolicy,
    seed: u64,
    mut accept: impl FnMut(&FaultPlan) -> bool,
) -> Result<FaultPlan, FaultError> {
    let (lo, hi) = (
        params.window.0.min(params.window.1),
        params.window.0.max(params.window.1),
    );
    let (olo, ohi) = (
        params.outage.0.min(params.outage.1).max(1),
        params.outage.0.max(params.outage.1).max(1),
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut accepted: Vec<FaultEvent> = Vec::new();
    let mut attempts = 0u32;
    let budget = params.events.saturating_mul(25).max(50);
    while (accepted.len() as u32) < params.events && attempts < budget {
        attempts += 1;
        let ordinal = accepted.len() as u32 + 1;
        let kind = if params.switch_every > 0 && ordinal.is_multiple_of(params.switch_every) {
            FaultKind::Switch {
                node: rng.gen_range(0..topo.num_nodes()),
            }
        } else {
            let (a, b) = topo.link(rng.gen_range(0..topo.num_links()));
            FaultKind::Link { a, b }
        };
        let cycle = rng.gen_range(lo..=hi);
        let permanent =
            params.permanent_every > 0 && ordinal.is_multiple_of(params.permanent_every);
        let mut ev = if permanent {
            FaultEvent::down(cycle, kind)
        } else {
            let outage = rng.gen_range(olo..=ohi);
            match cycle.checked_add(outage) {
                Some(r) => FaultEvent::recovering(cycle, kind, r),
                None => continue,
            }
        };
        if !permanent && params.flap_every > 0 && ordinal.is_multiple_of(params.flap_every) {
            let outage = ev.recovers_at.expect("recovering event") - ev.cycle;
            // Period comfortably beyond the outage so repeats never overlap.
            let period = outage
                .saturating_add(rng.gen_range(olo..=ohi))
                .max(outage + 1);
            ev = ev.with_flap(period, params.flap_count);
        }
        let mut trial = accepted.clone();
        trial.push(ev);
        let plan = FaultPlan::scripted(trial);
        let Ok(timeline) = RecoveryTimeline::compute(topo, &plan, policy) else {
            continue;
        };
        let survivable = timeline
            .steps
            .iter()
            .all(|s| topo.degrade_from_masks(&s.node_down, &s.link_down).is_ok());
        if survivable && accept(&plan) {
            accepted = plan.events().to_vec();
        }
    }
    if accepted.is_empty() {
        return Err(FaultError::Unsatisfiable(format!(
            "chaos generator accepted no events after {attempts} attempts"
        )));
    }
    Ok(FaultPlan::scripted(accepted))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_with_diagonal() -> Topology {
        // 0-1, 1-2, 2-3, 0-3, 1-3
        Topology::new(4, 4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]).unwrap()
    }

    #[test]
    fn down_only_plans_match_the_monotone_masks() {
        let t = square_with_diagonal();
        let plan = FaultPlan::scripted([
            FaultEvent::down(10, FaultKind::Link { a: 1, b: 3 }),
            FaultEvent::down(20, FaultKind::Switch { node: 2 }),
        ]);
        let tl = RecoveryTimeline::compute(&t, &plan, DampingPolicy::none()).unwrap();
        assert!(tl.is_monotone());
        assert_eq!(tl.steps.len(), 2);
        assert_eq!(tl.steps[0].cycle, 10);
        assert_eq!(tl.steps[1].cycle, 20);
        // The final step holds every element the plan names.
        let l13 = t.link_between(1, 3).unwrap() as usize;
        assert_eq!(tl.steps[1].node_down, vec![false, false, true, false]);
        for (l, &down) in tl.steps[1].link_down.iter().enumerate() {
            let (a, b) = t.link(l as LinkId);
            assert_eq!(down, l == l13 || a == 2 || b == 2, "link {l}");
        }
        // The switch step lists its induced link deaths.
        assert_eq!(tl.steps[1].failed_nodes, vec![2]);
        assert_eq!(tl.steps[1].failed_links.len(), 2);
    }

    #[test]
    fn recovery_returns_the_masks_to_pristine() {
        let t = square_with_diagonal();
        let plan = FaultPlan::scripted([FaultEvent::recovering(
            10,
            FaultKind::Link { a: 1, b: 3 },
            50,
        )]);
        let tl = RecoveryTimeline::compute(&t, &plan, DampingPolicy::none()).unwrap();
        assert_eq!(tl.steps.len(), 2);
        assert!(!tl.is_monotone());
        let up = &tl.steps[1];
        assert_eq!(up.cycle, 50);
        assert_eq!(up.revived_links, vec![t.link_between(1, 3).unwrap()]);
        assert!(up.node_down.iter().all(|&d| !d));
        assert!(up.link_down.iter().all(|&d| !d));
    }

    #[test]
    fn switch_recovery_revives_incident_links_but_not_explicit_failures() {
        let t = square_with_diagonal();
        let l13 = t.link_between(1, 3).unwrap();
        let plan = FaultPlan::scripted([
            // Link 1-3 fails for good at cycle 5.
            FaultEvent::down(5, FaultKind::Link { a: 1, b: 3 }),
            // Switch 1 fails at 10 and recovers at 40.
            FaultEvent::recovering(10, FaultKind::Switch { node: 1 }, 40),
        ]);
        let tl = RecoveryTimeline::compute(&t, &plan, DampingPolicy::none()).unwrap();
        assert_eq!(tl.steps.len(), 3);
        let up = &tl.steps[2];
        assert_eq!(up.revived_nodes, vec![1]);
        // Links 0-1 and 1-2 come back; 1-3 stays dead (explicit failure).
        assert!(!up.revived_links.contains(&l13));
        assert_eq!(up.revived_links.len(), 2);
        assert!(up.link_down[l13 as usize]);
    }

    #[test]
    fn flap_damping_suppresses_readmissions_and_backs_off() {
        let t = square_with_diagonal();
        // Down 100..200, flapping every 300 cycles, 3 repeats: physical
        // transitions at 100/200, 400/500, 700/800, 1000/1100.
        let plan =
            FaultPlan::scripted([
                FaultEvent::recovering(100, FaultKind::Link { a: 1, b: 3 }, 200).with_flap(300, 3),
            ]);
        let raw = RecoveryTimeline::compute(&t, &plan, DampingPolicy::none()).unwrap();
        assert_eq!(raw.raw_transitions, 8);
        assert_eq!(raw.steps.len(), 8);

        // Hold 250: re-admission after the up at 200 is scheduled for 450,
        // but the link fails again at 400 — suppressed. Holds double: 500
        // after the second down (up at 500 -> 1000, next down at 700 —
        // suppressed), 1000 after the third (up at 800 -> 1800, down at
        // 1000 — suppressed), then 2000 after the fourth, admitted at
        // 1100 + 2000 = 3100.
        let damped = RecoveryTimeline::compute(&t, &plan, DampingPolicy::hold(250)).unwrap();
        assert_eq!(damped.raw_transitions, 8);
        assert_eq!(damped.steps.len(), 2, "one admitted down, one admitted up");
        assert_eq!(damped.steps[0].cycle, 100);
        assert_eq!(damped.steps[1].cycle, 3100);
        assert_eq!(damped.suppressed_ups(), 3);
        let d = &damped.damping[0];
        assert_eq!((d.downs, d.ups), (4, 4));
        assert_eq!((d.admitted_downs, d.admitted_ups), (1, 1));
        assert_eq!(d.max_hold_applied, 2000);
        assert!(damped.steps.len() < damped.raw_transitions as usize);
    }

    #[test]
    fn hold_for_doubles_and_caps() {
        let p = DampingPolicy::hold(100);
        assert_eq!(p.hold_for(1), 100);
        assert_eq!(p.hold_for(2), 200);
        assert_eq!(p.hold_for(4), 800);
        assert_eq!(p.hold_for(10), 800, "capped at 8x");
        assert_eq!(DampingPolicy::none().hold_for(7), 0);
    }

    #[test]
    fn chaos_plans_are_deterministic_and_survivable() {
        let t = crate::gen::random_irregular(crate::gen::IrregularParams::paper(32, 4), 7).unwrap();
        let params = ChaosParams::default();
        let policy = DampingPolicy::hold(200);
        let a = chaos_plan(&t, &params, policy, 11, |_| true).unwrap();
        let b = chaos_plan(&t, &params, policy, 11, |_| true).unwrap();
        assert_eq!(a, b);
        assert!(a.has_recovery());
        let tl = RecoveryTimeline::compute(&t, &a, policy).unwrap();
        assert!(!tl.steps.is_empty());
        for s in &tl.steps {
            assert!(t.degrade_from_masks(&s.node_down, &s.link_down).is_ok());
        }
    }
}
