use crate::traffic::{ArrivalProcess, TrafficPattern};

/// How the simulator picks among the minimal legal output candidates of a
/// header flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteChoice {
    /// Each arbitration cycle, pick uniformly at random among the minimal
    /// candidates whose output (virtual) channel is currently free; wait if
    /// none is. This is the paper's setup: shortest possible paths with a
    /// random choice when several exist, made adaptively hop by hop.
    AdaptiveRandom,
    /// Pick one minimal candidate port uniformly at random when the header
    /// first arbitrates and wait for that specific port (oblivious).
    ObliviousRandom,
    /// Always prefer the lowest-numbered free minimal candidate
    /// (deterministic given traffic; useful for debugging).
    FirstFree,
    /// Fully deterministic routing: always wait for the lowest-numbered
    /// minimal candidate port, ignoring availability of the others. This
    /// models deterministic (source-routed) schemes such as the DFS
    /// up*/down* of Robles et al., where each (position, destination) pair
    /// uses one fixed output.
    DeterministicMinimal,
}

/// Which scheduling core the simulator runs (see DESIGN.md §11).
///
/// Both cores are bit-exact: they produce identical [`crate::SimStats`]
/// (including RNG-driven tie-breaks) for every configuration. The dense
/// reference exists so equivalence tests and regressions can always fall
/// back to the obviously-correct O(network) scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineCore {
    /// Occupancy-driven worklists: each pipeline stage iterates only over
    /// live entries (occupied staging registers, non-empty input queues,
    /// pending ejections), and parks an entry that provably cannot act —
    /// a blocked header, a backpressured input, a link facing full
    /// buffers — until the event that frees it. The default; cycles cost
    /// O(entries that can act).
    #[default]
    ActiveSet,
    /// The dense reference scan: every stage walks the whole network every
    /// clock. O(network size) per cycle; kept for differential testing.
    DenseReference,
}

/// How packet arrivals are sampled from the configured arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InjectionSampling {
    /// One Bernoulli draw per node per clock — the seed implementation's
    /// RNG stream. The default; all golden RNG pins assume this mode.
    #[default]
    PerCycle,
    /// Skip-sample idle cycles per source: draw the gap to each node's
    /// next arrival from the matching geometric distribution, so an idle
    /// network costs zero RNG calls per clock. Statistically identical
    /// arrival law to [`InjectionSampling::PerCycle`] but a different RNG
    /// stream (it has its own determinism pins). Only valid with
    /// [`ArrivalProcess::Bernoulli`]. The paper grid presets and the flow
    /// predictor's internal sims use it.
    Geometric,
}

/// Simulator configuration. Defaults mirror the paper's setup (§5) except
/// for run lengths, which callers size per experiment.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Flits per packet (paper: 128).
    pub packet_len: u32,
    /// Offered load in flits per node per clock. Each node starts a new
    /// packet each cycle with probability `injection_rate / packet_len`.
    pub injection_rate: f64,
    /// FIFO depth, in flits, of each input (virtual) channel buffer.
    pub buffer_depth: u32,
    /// Virtual channels per physical channel (paper baseline: 1).
    pub virtual_channels: u32,
    /// Cycles simulated before measurement starts.
    pub warmup_cycles: u32,
    /// Cycles measured.
    pub measure_cycles: u32,
    /// Output-selection policy.
    pub route_choice: RouteChoice,
    /// Traffic pattern (paper: uniform).
    pub traffic: TrafficPattern,
    /// Packet arrival process (paper: Bernoulli).
    pub arrivals: ArrivalProcess,
    /// Non-minimal escape routing ("misrouting"): when a header has been
    /// blocked for this many consecutive cycles, it may also claim a
    /// non-minimal but turn-legal output (both routings in the paper are
    /// non-minimal adaptive; `None`, the default, keeps the paper's
    /// shortest-possible-paths setup).
    pub misroute_patience: Option<u32>,
    /// Per-packet cap on non-minimal detours (livelock bound).
    pub max_detours: u32,
    /// Abort and report a deadlock if no flit moves for this many
    /// consecutive cycles while packets are in flight. With a verified
    /// deadlock-free routing this never triggers; it exists so tests can
    /// demonstrate that unrestricted routing deadlocks.
    pub deadlock_threshold: u32,
    /// Scheduling core (active-set worklists vs the dense reference scan;
    /// bit-exact either way).
    pub engine_core: EngineCore,
    /// Arrival sampling strategy (per-cycle Bernoulli draws vs geometric
    /// idle-cycle skipping).
    pub injection_sampling: InjectionSampling,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            packet_len: 128,
            injection_rate: 0.01,
            buffer_depth: 2,
            virtual_channels: 1,
            warmup_cycles: 2_000,
            measure_cycles: 8_000,
            route_choice: RouteChoice::AdaptiveRandom,
            traffic: TrafficPattern::Uniform,
            arrivals: ArrivalProcess::Bernoulli,
            misroute_patience: None,
            max_detours: 4,
            deadlock_threshold: 20_000,
            engine_core: EngineCore::ActiveSet,
            injection_sampling: InjectionSampling::PerCycle,
        }
    }
}

impl SimConfig {
    /// Total simulated cycles. [`SimConfig::check`] rejects a sum that
    /// overflows `u32`, the simulator's clock.
    pub fn total_cycles(&self) -> u32 {
        self.warmup_cycles + self.measure_cycles
    }

    /// Why this configuration cannot be simulated, if it cannot: the rules
    /// [`SimConfig::validate`] enforces, for callers that reject bad input
    /// instead of panicking.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.packet_len < 2 {
            return Err("packets need a header and a tail flit");
        }
        if self.injection_rate.is_nan() || self.injection_rate < 0.0 {
            return Err("negative injection rate");
        }
        if self.buffer_depth < 1 {
            return Err("buffers must hold at least one flit");
        }
        if !(1..=8).contains(&self.virtual_channels) {
            return Err("virtual channels must be in 1..=8 (round-robin state and \
                 per-channel occupancy counters assume a small VC count)");
        }
        if self.measure_cycles == 0 {
            return Err("nothing to measure");
        }
        if self
            .warmup_cycles
            .checked_add(self.measure_cycles)
            .is_none()
        {
            return Err("warm-up plus measurement cycles overflow the 32-bit clock");
        }
        if self.injection_sampling == InjectionSampling::Geometric
            && self.arrivals != ArrivalProcess::Bernoulli
        {
            return Err(
                "InjectionSampling::Geometric requires ArrivalProcess::Bernoulli \
                 (on/off sources need per-cycle state updates)",
            );
        }
        Ok(())
    }

    /// Validates the configuration, panicking with the [`SimConfig::check`]
    /// message on nonsensical values. Called by the simulator constructor.
    pub fn validate(&self) {
        if let Err(reason) = self.check() {
            panic!("{reason}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::default();
        assert_eq!(c.packet_len, 128);
        assert_eq!(c.virtual_channels, 1);
        assert_eq!(c.route_choice, RouteChoice::AdaptiveRandom);
        c.validate();
    }

    #[test]
    fn check_names_the_rule_validate_panics_on() {
        let nan_rate = SimConfig {
            injection_rate: f64::NAN,
            ..SimConfig::default()
        };
        assert_eq!(nan_rate.check(), Err("negative injection rate"));
        let no_window = SimConfig {
            measure_cycles: 0,
            ..SimConfig::default()
        };
        assert_eq!(no_window.check(), Err("nothing to measure"));
        let past_the_clock = SimConfig {
            warmup_cycles: u32::MAX,
            measure_cycles: 10,
            ..SimConfig::default()
        };
        assert_eq!(
            past_the_clock.check(),
            Err("warm-up plus measurement cycles overflow the 32-bit clock")
        );
        let to_the_last_clock = SimConfig {
            warmup_cycles: u32::MAX - 10,
            measure_cycles: 10,
            ..SimConfig::default()
        };
        assert_eq!(to_the_last_clock.check(), Ok(()));
        assert_eq!(to_the_last_clock.total_cycles(), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "header and a tail")]
    fn rejects_single_flit_packets() {
        SimConfig {
            packet_len: 1,
            ..SimConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "virtual channels")]
    fn rejects_zero_vcs() {
        SimConfig {
            virtual_channels: 0,
            ..SimConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "requires ArrivalProcess::Bernoulli")]
    fn rejects_geometric_sampling_of_bursty_sources() {
        SimConfig {
            injection_sampling: InjectionSampling::Geometric,
            arrivals: ArrivalProcess::OnOff {
                mean_burst: 50,
                burstiness: 4.0,
            },
            ..SimConfig::default()
        }
        .validate();
    }

    #[test]
    fn geometric_sampling_of_bernoulli_sources_is_valid() {
        SimConfig {
            injection_sampling: InjectionSampling::Geometric,
            ..SimConfig::default()
        }
        .validate();
    }
}
