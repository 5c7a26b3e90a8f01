//! The fault pipeline every fault-aware command runs, once: a plan's
//! states, their repair, and the simulator run through the repaired
//! epochs.
//!
//! * [`States`] — the plan's recovery timeline and the feasibility
//!   oracle's verdict on every step (`analyze --scenario`, `faults`,
//!   `soak`), with the gate that stops the pipeline before any repair;
//! * [`Base`] — the DOWN/UP routing a plan is repaired from, and
//!   [`Base::repair`], the one repair loop with each epoch's certificates
//!   (`faults`, `soak` and its chaos acceptance, `trace --scenario`), or
//!   [`Base::unrepaired`], the plan's epochs with no repair at all
//!   (`trace --no-repair`);
//! * [`simulator`] and [`run_sim`] — the simulator with the epochs
//!   scheduled, and the one timed run every simulating command records.

use crate::{build_instance, obj, parse_policy, Opts};
use irnet_analyze::{analyze_timeline, Feasibility};
use irnet_core::{plan_epochs_timeline_with, DownUp, EpochRepair, ReconfigEpoch, RepairStrategy};
use irnet_metrics::Instance;
use irnet_obs::Incident;
use irnet_sim::{Halt, SimConfig, SimStats, Simulator};
use irnet_telemetry::Progress;
use irnet_topology::{DampingPolicy, FaultPlan, LinkId, RecoveryTimeline, Topology};
use irnet_verify::EpochCertificates;

/// A fault plan's states: its recovery timeline and the feasibility
/// oracle's verdict on every step of it.
pub(crate) struct States {
    pub timeline: RecoveryTimeline,
    pub verdicts: Vec<Feasibility>,
}

impl States {
    /// Expands `plan` under `damping` (each step's live set is the
    /// original topology minus the elements down at that step, so a
    /// recovery shrinks the dead set again) and judges every step.
    pub fn new(topo: &Topology, plan: &FaultPlan, damping: DampingPolicy) -> Result<Self, String> {
        let timeline = RecoveryTimeline::compute(topo, plan, damping)
            .map_err(|e| format!("fault plan: {e}"))?;
        let verdicts = analyze_timeline(topo, &timeline);
        Ok(States { timeline, verdicts })
    }

    /// The feasibility gate: the timeline once every step is proven
    /// routable, else an error at the first provably unroutable step,
    /// before any repair or simulation work is spent (the oracle answers
    /// in milliseconds). With `--json` the infeasible report is printed
    /// first.
    pub fn gate(self, o: &Opts, plan: &FaultPlan) -> Result<RecoveryTimeline, String> {
        for (step, verdict) in self.timeline.steps.iter().zip(&self.verdicts) {
            let Feasibility::Infeasible(obstruction) = verdict else {
                continue;
            };
            if o.flag("json") {
                let report = obj(&[
                    ("plan", plan),
                    ("feasible", &false),
                    ("infeasible_at_cycle", &step.cycle),
                    ("obstruction", obstruction),
                ]);
                println!(
                    "{}",
                    serde_json::to_string_pretty(&report).unwrap_or_default()
                );
            }
            return Err(format!(
                "feasibility gate: the network degraded at cycle {} is \
                 provably unroutable ({obstruction}); skipping repair and \
                 simulation",
                step.cycle
            ));
        }
        Ok(self.timeline)
    }
}

/// The DOWN/UP routing a fault plan is repaired from: the builder
/// `--policy`/`--seed` configure and the pristine routing it built.
pub(crate) struct Base {
    pub builder: DownUp,
    pub inst: Instance,
}

impl Base {
    /// Builds the base; fault plans are repaired with the DOWN/UP builder
    /// only, so any other `--algo` is an error.
    pub fn new(o: &Opts, topo: &Topology) -> Result<Self, String> {
        if let Some(algo) = o.get("algo").filter(|&algo| algo != "downup") {
            return Err(format!(
                "the fault pipeline repairs with the DOWN/UP builder; \
                 --algo {algo} is not supported"
            ));
        }
        Ok(Base {
            builder: DownUp::new()
                .policy(parse_policy(o))
                .seed(o.parse("seed", 1u64)),
            inst: build_instance(o, topo)?,
        })
    }

    /// Repairs every step of `timeline` under `strategy` and certifies
    /// each epoch's transition: its degraded table and the old∪new
    /// dependency union the in-flight worms route through. `progress`, if
    /// given, ticks once per repaired epoch.
    pub fn repair(
        &self,
        topo: &Topology,
        timeline: &RecoveryTimeline,
        strategy: RepairStrategy,
        progress: Option<&Progress>,
    ) -> Result<Vec<(EpochRepair, EpochCertificates)>, String> {
        let inst = &self.inst;
        let epochs = plan_epochs_timeline_with(
            topo,
            &inst.cg,
            &inst.table,
            &inst.tables,
            timeline,
            self.builder,
            strategy,
            progress,
        )
        .map_err(|e| format!("fault repair failed: {e}"))?;
        Ok(epochs
            .into_iter()
            .map(|e| {
                let certs = e.epoch.certify(&inst.cg);
                (e, certs)
            })
            .collect())
    }

    /// The epochs of `timeline` with nothing repaired: each step's dead
    /// and revived elements, read off the timeline, over the base's turn
    /// table and routing tables, so worms wedge on the dead channels.
    /// Nothing is rebuilt, certified or judged, so a step the repair
    /// would refuse (an unroutable one) is scheduled too.
    pub fn unrepaired(&self, timeline: &RecoveryTimeline) -> Vec<ReconfigEpoch> {
        // The elements a per-element mask marks down (node and link ids
        // are both `u32`), and both directed channels of each link.
        let down = |mask: &[bool]| -> Vec<u32> {
            (0..)
                .zip(mask)
                .filter(|&(_, &d)| d)
                .map(|(i, _)| i)
                .collect()
        };
        let channels = |links: &[LinkId]| links.iter().flat_map(|&l| [2 * l, 2 * l + 1]).collect();
        timeline
            .steps
            .iter()
            .map(|step| {
                let dead_links = down(&step.link_down);
                ReconfigEpoch {
                    cycle: step.cycle,
                    dead_nodes: down(&step.node_down),
                    dead_channels: channels(&dead_links),
                    dead_links,
                    revived_channels: channels(&step.revived_links),
                    revived_nodes: step.revived_nodes.clone(),
                    old_table: self.inst.table.clone(),
                    new_table: self.inst.table.clone(),
                    flipped_channels: Vec::new(),
                    tables: self.inst.tables.clone(),
                }
            })
            .collect()
    }
}

/// A simulator over `inst`'s tables, seeded by `--sim-seed`, with every
/// epoch of `epochs` scheduled.
pub(crate) fn simulator<'a>(
    o: &Opts,
    inst: &'a Instance,
    cfg: SimConfig,
    epochs: impl IntoIterator<Item = &'a ReconfigEpoch>,
) -> Simulator<'a> {
    let mut sim = Simulator::new(&inst.cg, &inst.tables, cfg, o.parse("sim-seed", 7u64));
    for epoch in epochs {
        sim.schedule_reconfig(epoch);
    }
    sim
}

/// Ends a run that stopped with `halt`: its stats, and the deadlock
/// forensics when the watchdog fired.
pub(crate) fn finish_run(sim: Simulator<'_>, halt: Halt) -> (SimStats, Option<Incident>) {
    let incident = (halt == Halt::Stalled).then(|| irnet_obs::deadlock_incident(&sim));
    (sim.finish(), incident)
}

/// A command's one simulator run: `run` under the `sim/run` span, then
/// the stats it returns recorded as `sim/*` counters in the current
/// telemetry registry. `run` also returns whatever else the command reads
/// off the run (an incident, a makespan); an error records no counters.
pub(crate) fn run_sim<T>(
    run: impl FnOnce() -> Result<(SimStats, T), String>,
) -> Result<(SimStats, T), String> {
    let tel = irnet_telemetry::current();
    let span = tel.span("sim/run");
    let out = run()?;
    span.finish();
    irnet_sim::record_run_telemetry(&tel, &out.0);
    Ok(out)
}
