//! Pull-based interval sampling of live simulator state.

use irnet_sim::Simulator;
use std::fmt::Write as _;

/// One snapshot of the simulator taken by an [`IntervalSampler`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Clock the snapshot was taken on.
    pub cycle: u32,
    /// Packets injected but not yet fully delivered.
    pub live_packets: u64,
    /// Worms currently holding at least one claimed output channel.
    pub active_worms: u32,
    /// Flits buffered in input FIFOs and staging registers network-wide.
    pub buffered_flits: u64,
    /// Buffered flits per physical channel (FIFO + staged), indexed by
    /// channel id.
    pub channel_occupancy: Vec<u32>,
    /// Flits moved per physical channel since the previous sample.
    pub channel_flits_delta: Vec<u64>,
    /// Flits delivered per node since the previous sample.
    pub node_flits_delta: Vec<u64>,
}

impl Sample {
    /// The busiest channel of this interval: `(channel, flits)` with the
    /// lowest id winning ties; `None` when nothing moved.
    pub fn busiest_channel(&self) -> Option<(u32, u64)> {
        busiest(&self.channel_flits_delta)
    }

    /// The deepest per-channel backlog: `(channel, buffered flits)`;
    /// `None` when every buffer is empty.
    pub fn peak_occupancy(&self) -> Option<(u32, u32)> {
        busiest(&self.channel_occupancy)
    }
}

fn busiest<T: Copy + Ord + Default>(values: &[T]) -> Option<(u32, T)> {
    let (i, &v) = values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))?;
    (v > T::default()).then_some((i as u32, v))
}

/// Samples live counters from a [`Simulator`] every `every` cycles into a
/// time series.
///
/// The sampler is pull-based: the driving loop advances the simulator to
/// [`IntervalSampler::due`] (or calls [`IntervalSampler::maybe_sample`] as
/// often as it likes) and the sampler decides whether the interval has
/// elapsed. It only ever *reads* the simulator, so sampling cannot perturb
/// a run.
#[derive(Debug, Clone)]
pub struct IntervalSampler {
    every: u32,
    due: u32,
    prev_channel_flits: Vec<u64>,
    prev_node_flits: Vec<u64>,
    samples: Vec<Sample>,
}

impl IntervalSampler {
    /// A sampler firing every `every` cycles (`every > 0`), starting with
    /// the first call at or after cycle `every`.
    pub fn new(every: u32) -> IntervalSampler {
        assert!(every > 0, "sampling interval must be positive");
        IntervalSampler {
            every,
            due: every,
            prev_channel_flits: Vec::new(),
            prev_node_flits: Vec::new(),
            samples: Vec::new(),
        }
    }

    /// The configured interval.
    pub fn interval(&self) -> u32 {
        self.every
    }

    /// The clock of the next snapshot: [`IntervalSampler::maybe_sample`]
    /// takes one at the first call at or after it.
    pub fn due(&self) -> u32 {
        self.due
    }

    /// Takes a snapshot if the interval has elapsed; returns whether one
    /// was taken.
    pub fn maybe_sample(&mut self, sim: &Simulator) -> bool {
        if sim.now() < self.due {
            return false;
        }
        self.force_sample(sim);
        true
    }

    /// Takes a snapshot unconditionally and rearms the interval (used for
    /// a final end-of-run sample).
    pub fn force_sample(&mut self, sim: &Simulator) {
        let mut occupancy = Vec::new();
        sim.channel_occupancy(&mut occupancy);
        let channel_flits = sim.channel_flits_so_far();
        let node_flits = sim.node_flits_so_far();
        self.prev_channel_flits.resize(channel_flits.len(), 0);
        self.prev_node_flits.resize(node_flits.len(), 0);
        let channel_delta: Vec<u64> = channel_flits
            .iter()
            .zip(&self.prev_channel_flits)
            .map(|(now, prev)| now - prev)
            .collect();
        let node_delta: Vec<u64> = node_flits
            .iter()
            .zip(&self.prev_node_flits)
            .map(|(now, prev)| now - prev)
            .collect();
        self.prev_channel_flits.copy_from_slice(channel_flits);
        self.prev_node_flits.copy_from_slice(node_flits);
        self.samples.push(Sample {
            cycle: sim.now(),
            live_packets: sim.live_packet_count(),
            active_worms: sim.active_worm_count(),
            buffered_flits: sim.buffered_flit_count(),
            channel_occupancy: occupancy,
            channel_flits_delta: channel_delta,
            node_flits_delta: node_delta,
        });
        self.due = sim.now().saturating_add(self.every);
    }

    /// The collected time series, oldest first.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Renders the series as CSV: one summary row per sample
    /// (`cycle,live_packets,active_worms,buffered_flits,peak_occupancy,`
    /// `peak_occupancy_channel,busiest_channel_flits,busiest_channel`;
    /// the channel columns are `-1` when every counter in the interval is
    /// zero).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "cycle,live_packets,active_worms,buffered_flits,\
             peak_occupancy,peak_occupancy_channel,busiest_channel_flits,busiest_channel\n",
        );
        for s in &self.samples {
            let (peak_ch, peak) = s.peak_occupancy().map_or((-1, 0), |(c, v)| (c as i64, v));
            let (busy_ch, busy) = s.busiest_channel().map_or((-1, 0), |(c, v)| (c as i64, v));
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{}",
                s.cycle,
                s.live_packets,
                s.active_worms,
                s.buffered_flits,
                peak,
                peak_ch,
                busy,
                busy_ch
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irnet_core::DownUp;
    use irnet_sim::{SimConfig, Simulator};
    use irnet_topology::gen;

    #[test]
    fn sampler_tracks_deltas_and_intervals() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 3).unwrap();
        let routing = DownUp::new().construct(&topo).unwrap();
        let cfg = SimConfig {
            packet_len: 8,
            injection_rate: 0.05,
            warmup_cycles: 0,
            measure_cycles: 600,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(routing.comm_graph(), routing.routing_tables(), cfg, 7);
        let mut sampler = IntervalSampler::new(100);
        while sim.now() < 600 {
            sim.advance(sampler.due().min(600));
            sampler.maybe_sample(&sim);
        }
        assert_eq!(sampler.samples().len(), 6);
        assert!(sampler
            .samples()
            .windows(2)
            .all(|w| w[1].cycle - w[0].cycle == 100));
        // Deltas across samples telescope back to the cumulative counters.
        let total: u64 = sampler
            .samples()
            .iter()
            .map(|s| s.channel_flits_delta.iter().sum::<u64>())
            .sum();
        assert_eq!(total, sim.channel_flits_so_far().iter().sum::<u64>());
        let stats = sim.finish();
        assert!(stats.packets_delivered > 0);
        let csv = sampler.to_csv();
        assert_eq!(csv.lines().count(), 7);
        assert!(csv.starts_with("cycle,"));
    }

    #[test]
    fn busiest_ignores_all_zero_vectors() {
        assert_eq!(busiest::<u64>(&[0, 0, 0]), None);
        assert_eq!(busiest::<u64>(&[]), None);
        assert_eq!(busiest::<u64>(&[1, 5, 5, 2]), Some((1, 5)));
    }
}
