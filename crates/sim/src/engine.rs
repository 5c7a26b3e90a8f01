use crate::active::ActiveSet;
use crate::config::{EngineCore, InjectionSampling, RouteChoice, SimConfig};
use crate::hist::Histogram;
use crate::record::{BlockedWorm, Recorder, SimEvent};
use crate::stats::SimStats;
use crate::traffic::ArrivalProcess;
use irnet_core::ReconfigEpoch;
use irnet_topology::{ChannelId, CommGraph, NodeId};
use irnet_turns::{RoutingTables, INJECTION_SLOT};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use stream::Drain;

#[path = "stream.rs"]
mod stream;

/// Route sentinel: no output assigned yet.
const ROUTE_NONE: u32 = u32::MAX;
/// Route sentinel: deliver to the local processor.
const ROUTE_EJECT: u32 = u32::MAX - 1;
/// Owner sentinel: virtual channel is free.
const FREE: u32 = u32::MAX;
/// Owner sentinel: virtual channel died in a reconfiguration epoch and can
/// never be claimed again.
const DEAD: u32 = u32::MAX - 2;
/// No pending oblivious port.
const NO_PORT: u8 = u8::MAX;
/// `route_pkt` sentinel: no packet holds this input's route.
const NO_PKT: u32 = u32::MAX;

/// One flit in flight. `time` is the cycle the flit entered its current
/// stage; a flit only advances when `time < now`, which enforces the
/// one-stage-per-clock pipeline.
#[derive(Debug, Clone, Copy)]
struct Flit {
    pkt: u32,
    seq: u32,
    time: u32,
}

/// Arena filler for never-read slots.
const NO_FLIT: Flit = Flit {
    pkt: 0,
    seq: 0,
    time: 0,
};

/// One packet; every packet is `SimConfig::packet_len` flits long.
#[derive(Debug, Clone, Copy)]
struct Packet {
    src: NodeId,
    dst: NodeId,
    gen_time: u32,
    /// Non-minimal detours taken so far (bounded by `max_detours`).
    detours: u32,
}

/// Why a driver call ([`Simulator::advance`], [`Simulator::drain`])
/// returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halt {
    /// The clock reached the target.
    Reached,
    /// No packet is live ([`Simulator::drain`] only).
    Drained,
    /// The stall watchdog fired: live packets, but nothing moved for more
    /// than `deadlock_threshold` cycles.
    Stalled,
}

/// The wormhole network simulator. See the crate docs for the model.
///
/// Two scheduling cores share every data structure and mutation helper
/// (see [`EngineCore`]): the default active-set core iterates per-stage
/// worklists of live entries, the dense reference core scans the whole
/// network. Both visit live entries in the same order, so their outputs
/// are bit-exact — asserted by the differential tests below and in
/// `tests/engine_equiv.rs`.
pub struct Simulator<'a> {
    cg: &'a CommGraph,
    tables: &'a RoutingTables,
    cfg: SimConfig,
    rng: ChaCha8Rng,

    now: u32,
    vcs: u32,
    num_invc: usize,
    num_inputs: usize,
    /// FIFO depth in flits (hoisted out of `cfg` for the hot path).
    depth: usize,
    /// Per-cycle packet-start probability
    /// (`injection_rate / packet_len`, clamped), hoisted out of
    /// [`Simulator::inject`]. Kept in sync by
    /// [`Simulator::set_injection_rate`].
    inject_p: f64,

    packets: Vec<Packet>,
    /// Flat flit arena: slot `i * depth + k` holds flit `k` of input `i`'s
    /// ring buffer. Replaces one `VecDeque` allocation per (channel, vc).
    fifo: Vec<Flit>,
    /// Ring-buffer head position per input FIFO.
    fifo_head: Vec<u32>,
    /// Occupancy per input FIFO.
    fifo_len: Vec<u32>,
    /// Current route per input (physical in-vcs then injection per node).
    route: Vec<u32>,
    /// Packet holding each input's route (`NO_PKT` when `route` is
    /// `ROUTE_NONE`); lets a reconfiguration identify cut worms even when
    /// no flit of theirs is currently buffered at the input.
    route_pkt: Vec<u32>,
    /// Oblivious pending port per input.
    pending_port: Vec<u8>,
    /// Consecutive cycles the current header at each input has been
    /// blocked (drives the misrouting patience threshold).
    blocked: Vec<u32>,
    /// Candidate masks of the current header at each input, as
    /// [`Simulator::header_masks`] returns them: derived from the tables
    /// on the header's first arbitration attempt and reused while it stays
    /// blocked. Cleared whenever `blocked` is reset, and at epoch swaps.
    cand: Vec<Option<(u16, u16)>>,
    /// Owner input of each output (physical channel, vc); `FREE` if none.
    owner: Vec<u32>,
    /// Output staging register per (physical channel, vc).
    staged: Vec<Option<Flit>>,
    /// Round-robin pointer per physical channel for link arbitration.
    rr: Vec<u32>,
    /// Ejection staging register and owner, per node.
    eject_staged: Vec<Option<Flit>>,
    eject_owner: Vec<u32>,
    /// Source queues: pending packet ids per node, plus flits already sent
    /// of the head packet.
    src_queue: Vec<VecDeque<u32>>,
    src_sent: Vec<u32>,
    /// On/off state per source (used by the bursty arrival process).
    src_on: Vec<bool>,

    /// Inputs with at least one queued flit (non-empty FIFO, or a source
    /// with a pending packet). Everything the crossbar stage can act on.
    active_in: ActiveSet,
    /// Occupied staging registers per physical channel (vcs <= 8).
    staged_count: Vec<u8>,
    /// Channels with `staged_count > 0` — the link stage's worklist.
    staged_active: ActiveSet,
    /// Nodes with an occupied ejection register.
    eject_active: ActiveSet,
    /// Inputs the active-set core parked: occupied, but their next
    /// crossbar visit is provably a no-op — a header that lost
    /// arbitration and can only win once an output or ejection VC of its
    /// node frees, or a routed head flit whose next register is full.
    /// Disjoint from `active_in`; the event that can change the outcome
    /// wakes the input back into it. Always empty under the dense core.
    parked_in: ActiveSet,
    /// Cycle of each parked header's last real arbitration attempt. The
    /// attempts it skips are credited to `blocked` and
    /// `header_block_cycles` when it wakes.
    park_cycle: Vec<u32>,
    /// Channels the active-set core parked because every staged VC's
    /// downstream FIFO is full. Disjoint from `staged_active`.
    parked_link: ActiveSet,
    /// Rotated position of the input the active-set crossbar is visiting
    /// (0 outside that stage): inputs at lower rotated positions have
    /// already had their turn this clock.
    scan_pos: usize,
    /// Scheduling work so far ([`Simulator::work_counters`]).
    work: WorkCounters,
    /// Reusable iteration buffer (kept allocated across cycles).
    scratch: Vec<u32>,

    /// Worms the streaming drain owns (`stream.rs`): `drains[..live_drains]`
    /// are live, the rest keep their path buffers for reuse.
    drains: Vec<Drain>,
    live_drains: usize,
    /// Inputs a live drain holds. They sit on no worklist and in no parked
    /// set, so no wake-up or arrival can put them back.
    held_in: ActiveSet,
    /// Packets whose header was ejected this clock while streaming is on:
    /// the drain's candidates.
    ejected_headers: Vec<u32>,
    /// Whether header ejections start drains: only inside a driver call,
    /// on the active-set core with one virtual channel and no recorder.
    streaming: bool,
    /// Whether the stall watchdog fired ([`SimStats::deadlocked`]).
    stalled: bool,

    /// Per-source next scheduled arrival, keyed `(cycle, node)` — only
    /// used by [`InjectionSampling::Geometric`].
    next_arrival: BinaryHeap<Reverse<(u32, NodeId)>>,
    /// Whether each node has an entry in `next_arrival`. A node holds at
    /// most one, so an entry that outlives its node's death cannot be
    /// doubled by a revival or a rate change.
    arrival_pending: Vec<bool>,

    /// Attached structured-event sink ([`Simulator::attach_recorder`]);
    /// `None` by default, so the hot path pays one branch per hook when
    /// recording is disabled. Observation is read-only: hooks fire after
    /// the engine's own bookkeeping and never touch the RNG.
    recorder: Option<&'a mut (dyn Recorder + 'a)>,

    /// Scheduled reconfiguration epochs, sorted by activation cycle;
    /// `next_reconfig` indexes the first not yet applied.
    reconfigs: Vec<&'a ReconfigEpoch>,
    next_reconfig: usize,
    /// Channels killed by an applied epoch.
    dead_channel: Vec<bool>,
    /// Switches killed by an applied epoch.
    node_dead: Vec<bool>,
    dropped_flits: u64,
    dropped_packets: u64,
    reconfig_epochs: u32,

    /// Flits buffered in FIFOs and staging registers.
    buffered_flits: u64,
    /// Flits that ever entered the network (left a source queue), over
    /// the whole run including warm-up. With `delivered_flits_total` and
    /// `dropped_flits` this closes the conservation identity
    /// `injected == delivered + dropped + buffered` — checked across
    /// every reconfiguration barrier (see [`Simulator::flits_conserved`]).
    injected_flits_total: u64,
    /// Flits handed to a local processor, over the whole run including
    /// warm-up (unlike the measurement-window `flits_delivered`).
    delivered_flits_total: u64,
    /// Packets not yet fully delivered (includes queued ones).
    live_packets: u64,
    last_progress: u32,
    /// Clock at which `live_packets` last rose from zero. The watchdog
    /// counts a stall from here or from `last_progress`, whichever is
    /// later, so a packet arriving after a long idle spell is not taken
    /// for a wedge.
    live_since: u32,

    // Measurement (only touched when `now >= warmup_cycles`).
    flits_delivered: u64,
    packets_delivered: u64,
    latency_sum: u64,
    latency_max: u32,
    latency_hist: Histogram,
    packets_generated: u64,
    channel_flits: Vec<u64>,
    node_flits_delivered: Vec<u64>,
    node_packets_generated: Vec<u64>,
    header_block_cycles: u64,
    buffered_flit_cycles: u64,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator over a communication graph and its routing
    /// tables. Deterministic per `seed`.
    pub fn new(
        cg: &'a CommGraph,
        tables: &'a RoutingTables,
        cfg: SimConfig,
        seed: u64,
    ) -> Simulator<'a> {
        cfg.validate();
        assert_eq!(
            cg.num_nodes(),
            tables.num_nodes(),
            "routing tables belong to a different network"
        );
        let n = cg.num_nodes() as usize;
        let nch = cg.num_channels() as usize;
        let vcs = cfg.virtual_channels;
        let num_invc = nch * vcs as usize;
        let num_inputs = num_invc + n;
        let depth = cfg.buffer_depth as usize;
        let inject_p = (cfg.injection_rate / cfg.packet_len as f64).clamp(0.0, 1.0);
        debug_assert!(inject_p.is_finite(), "injection probability not finite");
        let mut sim = Simulator {
            cg,
            tables,
            cfg,
            rng: ChaCha8Rng::seed_from_u64(seed),
            now: 0,
            vcs,
            num_invc,
            num_inputs,
            depth,
            inject_p,
            packets: Vec::new(),
            fifo: vec![NO_FLIT; num_invc * depth],
            fifo_head: vec![0; num_invc],
            fifo_len: vec![0; num_invc],
            route: vec![ROUTE_NONE; num_inputs],
            route_pkt: vec![NO_PKT; num_inputs],
            pending_port: vec![NO_PORT; num_inputs],
            blocked: vec![0; num_inputs],
            cand: vec![None; num_inputs],
            owner: vec![FREE; num_invc],
            staged: vec![None; num_invc],
            rr: vec![0; nch],
            eject_staged: vec![None; n],
            eject_owner: vec![FREE; n],
            src_queue: vec![VecDeque::new(); n],
            src_sent: vec![0; n],
            src_on: vec![false; n],
            active_in: ActiveSet::new(num_inputs),
            staged_count: vec![0; nch],
            staged_active: ActiveSet::new(nch),
            eject_active: ActiveSet::new(n),
            parked_in: ActiveSet::new(num_inputs),
            park_cycle: vec![0; num_inputs],
            parked_link: ActiveSet::new(nch),
            scan_pos: 0,
            work: WorkCounters::default(),
            scratch: Vec::with_capacity(64),
            drains: Vec::new(),
            live_drains: 0,
            held_in: ActiveSet::new(num_inputs),
            ejected_headers: Vec::new(),
            streaming: false,
            stalled: false,
            next_arrival: BinaryHeap::new(),
            arrival_pending: vec![false; n],
            recorder: None,
            reconfigs: Vec::new(),
            next_reconfig: 0,
            dead_channel: vec![false; nch],
            node_dead: vec![false; n],
            dropped_flits: 0,
            dropped_packets: 0,
            reconfig_epochs: 0,
            buffered_flits: 0,
            injected_flits_total: 0,
            delivered_flits_total: 0,
            live_packets: 0,
            last_progress: 0,
            live_since: 0,
            flits_delivered: 0,
            packets_delivered: 0,
            latency_sum: 0,
            latency_max: 0,
            latency_hist: Histogram::new(),
            packets_generated: 0,
            channel_flits: vec![0; nch],
            node_flits_delivered: vec![0; n],
            node_packets_generated: vec![0; n],
            header_block_cycles: 0,
            buffered_flit_cycles: 0,
        };
        sim.arm_geometric_arrivals();
        sim
    }

    /// Runs warm-up plus measurement and returns the collected statistics.
    /// Records no telemetry, because internal runs such as the flow
    /// predictor's neighborhood sims must not count as `sim/*` runs;
    /// callers measuring a run feed [`crate::record_run_telemetry`].
    pub fn run(mut self) -> SimStats {
        self.advance(self.cfg.total_cycles());
        self.finish()
    }

    /// Steps until the clock reaches `until` or the stall watchdog fires.
    /// A caller can read the state, enqueue packets, change the load or
    /// attach a recorder between calls, and finalizes with
    /// [`Simulator::finish`]. A clock already at `until` steps nothing.
    pub fn advance(&mut self, until: u32) -> Halt {
        self.step_until(until, false)
    }

    /// Like [`Simulator::advance`], but also stops as soon as no packet is
    /// live ([`Halt::Drained`], checked before each clock).
    pub fn drain(&mut self, until: u32) -> Halt {
        self.step_until(until, true)
    }

    /// The one stepping loop behind every driver. The watchdog fires when
    /// live packets exist but nothing has moved for more than
    /// `deadlock_threshold` cycles; the simulator remembers it, so
    /// [`Simulator::finish`] reports the run as deadlocked.
    ///
    /// On the active-set core with one virtual channel and no recorder,
    /// worms whose header has been ejected stream through their private
    /// path in closed form (DESIGN.md §11); every such drain is settled
    /// before this returns, so the state it leaves is the per-flit one.
    /// While no packet is live the clock jumps over idle clocks
    /// ([`Simulator::skip_idle`]).
    fn step_until(&mut self, until: u32, drain: bool) -> Halt {
        self.streaming = self.cfg.engine_core == EngineCore::ActiveSet
            && self.vcs == 1
            && self.recorder.is_none();
        let halt = loop {
            if self.live_packets == 0 {
                if drain {
                    break Halt::Drained;
                }
                self.skip_idle(until);
            }
            if self.now >= until {
                break Halt::Reached;
            }
            self.step();
            if self.live_packets > 0
                && self.now - self.last_progress.max(self.live_since) > self.cfg.deadlock_threshold
            {
                self.stalled = true;
                break Halt::Stalled;
            }
        };
        self.streaming = false;
        self.settle_drains();
        halt
    }

    /// Moves the clock over clocks on which nothing can happen. With no
    /// packet live, a clock only acts when an arrival or a reconfiguration
    /// epoch is due, so the clock jumps to the earliest of the next
    /// geometric arrival, the next pending epoch and `until`; the step at
    /// that clock then runs exactly as it would have. Per-cycle sampling
    /// at a positive load draws on every clock, so it never skips.
    fn skip_idle(&mut self, until: u32) {
        debug_assert_eq!(self.buffered_flits, 0, "idle network holds flits");
        let next_arrival = if self.inject_p == 0.0 || self.cg.num_nodes() < 2 {
            u32::MAX
        } else if self.cfg.injection_sampling == InjectionSampling::Geometric {
            self.next_arrival
                .peek()
                .map_or(u32::MAX, |&Reverse((t, _))| t)
        } else {
            return;
        };
        let next_epoch = self
            .reconfigs
            .get(self.next_reconfig)
            .map_or(u32::MAX, |e| e.cycle);
        self.now = self.now.max(until.min(next_arrival).min(next_epoch));
    }

    /// Attaches a structured-event recorder. Recording is strictly
    /// observational — the run's statistics and RNG stream are bit-exact
    /// with and without a recorder (see `tests/observability.rs`).
    /// Headers stop parking while a recorder is attached, because every
    /// blocked cycle is a [`SimEvent::Block`] event.
    pub fn attach_recorder(&mut self, recorder: &'a mut (dyn Recorder + 'a)) {
        self.settle_drains();
        self.unpark_all();
        self.recorder = Some(recorder);
    }

    /// Manually enqueues one packet at `src` for `dst` (generated at the
    /// current clock), independent of the configured injection rate. Useful
    /// for trace-style workloads and controlled experiments. Returns the
    /// packet id.
    pub fn enqueue_packet(&mut self, src: NodeId, dst: NodeId) -> u32 {
        assert_ne!(src, dst, "self-traffic does not enter the network");
        assert!(src < self.cg.num_nodes() && dst < self.cg.num_nodes());
        self.push_packet(src, dst)
    }

    /// Creates packet `src -> dst` at the current clock: queues it at its
    /// source, counts it live (and generated, inside the measurement
    /// window) and records its `Inject` event. Returns the packet id.
    fn push_packet(&mut self, src: NodeId, dst: NodeId) -> u32 {
        let id = self.packets.len() as u32;
        self.packets.push(Packet {
            src,
            dst,
            gen_time: self.now,
            detours: 0,
        });
        self.src_queue[src as usize].push_back(id);
        self.activate_input(self.num_invc + src as usize);
        self.count_live_packet();
        if self.measuring() {
            self.packets_generated += 1;
            self.node_packets_generated[src as usize] += 1;
        }
        let (cycle, len) = (self.now, self.cfg.packet_len);
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.record(&SimEvent::Inject {
                cycle,
                pkt: id,
                src,
                dst,
                len,
            });
        }
        id
    }

    /// Changes the offered load mid-run, keeping the hoisted per-cycle
    /// packet probability (and, in geometric sampling mode, the scheduled
    /// arrivals) in sync. Use this instead of mutating the configuration.
    pub fn set_injection_rate(&mut self, rate: f64) {
        assert!(rate >= 0.0, "negative injection rate");
        self.cfg.injection_rate = rate;
        self.inject_p = (rate / self.cfg.packet_len as f64).clamp(0.0, 1.0);
        debug_assert!(
            self.inject_p.is_finite(),
            "injection probability not finite"
        );
        if self.cfg.injection_sampling == InjectionSampling::Geometric {
            self.next_arrival.clear();
            self.arrival_pending.fill(false);
            self.arm_geometric_arrivals();
        }
    }

    /// Schedules the first geometric arrival of every source (no-op in
    /// per-cycle sampling mode or at zero load).
    fn arm_geometric_arrivals(&mut self) {
        let n = self.cg.num_nodes();
        if self.cfg.injection_sampling != InjectionSampling::Geometric
            || self.inject_p == 0.0
            || n < 2
        {
            return;
        }
        for v in 0..n {
            self.schedule_arrival(v, self.now);
        }
    }

    /// Draws node `v`'s geometric gap and schedules its next arrival that
    /// many idle cycles after `from`. Callers keep one pending arrival per
    /// node (`arrival_pending`).
    fn schedule_arrival(&mut self, v: NodeId, from: u32) {
        debug_assert!(
            !self.arrival_pending[v as usize],
            "node {v} already has a pending arrival"
        );
        let skip = geometric_skip(&mut self.rng, self.inject_p);
        self.work.arrival_samples += 1;
        self.arrival_pending[v as usize] = true;
        self.next_arrival
            .push(Reverse((from.saturating_add(skip), v)));
    }

    /// Packets not yet fully delivered.
    pub fn live_packet_count(&self) -> u64 {
        self.live_packets
    }

    /// The current clock.
    pub fn now(&self) -> u32 {
        self.now
    }

    /// The simulator's configuration (kept current by
    /// [`Simulator::set_injection_rate`]).
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Clock of the last flit movement — the watchdog's anchor.
    pub fn last_progress_cycle(&self) -> u32 {
        self.last_progress
    }

    /// Physical channels of the simulated communication graph.
    pub fn num_physical_channels(&self) -> u32 {
        self.cg.num_channels()
    }

    /// Flits currently buffered in FIFOs and staging registers.
    pub fn buffered_flit_count(&self) -> u64 {
        self.buffered_flits
    }

    /// Scheduling work of the run so far. Deterministic per seed and
    /// core, so a test can pin it exactly where wall time is noise.
    pub fn work_counters(&self) -> WorkCounters {
        self.work
    }

    /// The flit conservation identity: every flit that entered the
    /// network is delivered, dropped, or still buffered. Holds at every
    /// cycle boundary, including across up-transition barriers that
    /// re-enable previously dead channels (checked by `irnet soak`).
    pub fn flits_conserved(&self) -> bool {
        self.injected_flits_total
            == self.delivered_flits_total + self.dropped_flits + self.buffered_flits
    }

    /// Worms currently holding a claimed route (headers that won
    /// arbitration and have not yet streamed their tail past it).
    pub fn active_worm_count(&self) -> u32 {
        self.route.iter().filter(|&&r| r != ROUTE_NONE).count() as u32
    }

    /// Writes the current per-channel buffer occupancy (flits in input
    /// FIFOs plus staging registers, summed over virtual channels) into
    /// `out`, resized to the channel count. Read-only snapshot for
    /// interval samplers.
    pub fn channel_occupancy(&self, out: &mut Vec<u32>) {
        let nch = self.cg.num_channels() as usize;
        out.clear();
        out.resize(nch, 0);
        let vcs = self.vcs as usize;
        for idx in 0..self.num_invc {
            let c = idx / vcs;
            out[c] += self.fifo_len[idx];
            if self.staged[idx].is_some() {
                out[c] += 1;
            }
        }
    }

    /// Cumulative link traversals per channel within the measurement
    /// window so far (all zeros during warm-up).
    pub fn channel_flits_so_far(&self) -> &[u64] {
        &self.channel_flits
    }

    /// Cumulative flits delivered per node within the measurement window
    /// so far (all zeros during warm-up).
    pub fn node_flits_so_far(&self) -> &[u64] {
        &self.node_flits_delivered
    }

    /// Channels killed by applied reconfiguration epochs.
    pub fn dead_channel_ids(&self) -> Vec<ChannelId> {
        self.dead_channel
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(c, _)| c as ChannelId)
            .collect()
    }

    /// Captures every worm that cannot advance right now — the raw
    /// material of the deadlock forensics report (`irnet-obs`).
    ///
    /// A worm is blocked when its head is stuck in arbitration
    /// (`blocked >= 1`) or when its claimed output's staging register is
    /// occupied (downstream backpressure). `holds` is every physical
    /// channel occupied by the worm's flits or claimed by its
    /// reservations; `wants` the channels its head could legally claim
    /// next (for backpressured worms, the claimed channel it needs space
    /// on). Read-only and allocation-heavy — call it after the watchdog
    /// fires, not per cycle.
    pub fn blocked_worms(&self) -> Vec<BlockedWorm> {
        use std::collections::BTreeMap;
        let vcs = self.vcs as usize;
        let ch = self.cg.channels();
        // Channels each live packet currently occupies: flits buffered in
        // an input FIFO or staged on the channel, plus claimed routes.
        let mut holds: BTreeMap<u32, Vec<ChannelId>> = BTreeMap::new();
        for idx in 0..self.num_invc {
            let c = (idx / vcs) as ChannelId;
            let base = idx * self.depth;
            let head = self.fifo_head[idx] as usize;
            for k in 0..self.fifo_len[idx] as usize {
                let pkt = self.fifo[base + (head + k) % self.depth].pkt;
                holds.entry(pkt).or_default().push(c);
            }
            if let Some(f) = self.staged[idx] {
                holds.entry(f.pkt).or_default().push(c);
            }
        }
        for i in 0..self.num_inputs {
            let r = self.route[i];
            if r != ROUTE_NONE && r != ROUTE_EJECT {
                holds
                    .entry(self.route_pkt[i])
                    .or_default()
                    .push(r / vcs as u32);
            }
        }
        for hs in holds.values_mut() {
            hs.sort_unstable();
            hs.dedup();
        }
        let mut out = Vec::new();
        for i in 0..self.num_inputs {
            let Some(flit) = self.peek_head(i) else {
                continue;
            };
            let pkt = self.packets[flit.pkt as usize];
            let v = self.input_node(i);
            let r = self.route[i];
            let mut wants: Vec<ChannelId> = Vec::new();
            let mut wants_ejection = false;
            if r == ROUTE_EJECT {
                // The ejection register drains unconditionally every
                // clock; a head routed to ejection can never wedge.
                continue;
            } else if r != ROUTE_NONE {
                // Claimed route, but the staging register is occupied:
                // waiting for space on the channel it already owns.
                if self.staged[r as usize].is_none() {
                    continue;
                }
                wants.push(r / vcs as u32);
            } else {
                // Header mid-arbitration. Only count it once it has
                // actually waited a full arbitration attempt.
                if flit.seq != 0 || self.blocked[i] == 0 {
                    continue;
                }
                if v == pkt.dst {
                    wants_ejection = true;
                } else {
                    let (mut mask, _) = self.header_masks(i, v, pkt.dst);
                    while mask != 0 {
                        let p = mask.trailing_zeros() as u8;
                        mask &= mask - 1;
                        wants.push(ch.output_at(v, p));
                    }
                }
            }
            out.push(BlockedWorm {
                pkt: flit.pkt,
                src: pkt.src,
                dst: pkt.dst,
                node: v,
                input_channel: (i < self.num_invc).then(|| (i / vcs) as ChannelId),
                holds: holds.get(&flit.pkt).cloned().unwrap_or_default(),
                wants,
                wants_ejection,
                blocked_cycles: self.blocked[i] + self.skipped_attempts(i, self.now),
            });
        }
        out
    }

    /// Finalizes the run and returns the statistics collected so far;
    /// `deadlocked` is set if the watchdog fired in any driver call.
    pub fn finish(mut self) -> SimStats {
        // Parked headers owe the blocked cycles they skipped.
        self.unpark_all();
        SimStats {
            cycles: self
                .cfg
                .measure_cycles
                .min(self.now.saturating_sub(self.cfg.warmup_cycles))
                .max(1),
            num_nodes: self.cg.num_nodes(),
            flits_delivered: self.flits_delivered,
            packets_delivered: self.packets_delivered,
            latency_sum: self.latency_sum,
            latency_max: self.latency_max,
            latency_hist: self.latency_hist,
            packets_generated: self.packets_generated,
            channel_flits: self.channel_flits,
            node_flits_delivered: self.node_flits_delivered,
            node_packets_generated: self.node_packets_generated,
            header_block_cycles: self.header_block_cycles,
            buffered_flit_cycles: self.buffered_flit_cycles,
            deadlocked: self.stalled,
            flits_in_flight: self.buffered_flits,
            dropped_flits: self.dropped_flits,
            dropped_packets: self.dropped_packets,
            reconfig_epochs: self.reconfig_epochs,
            last_progress: self.last_progress,
            flits_injected_total: self.injected_flits_total,
            flits_delivered_total: self.delivered_flits_total,
        }
    }

    #[inline]
    fn measuring(&self) -> bool {
        self.now >= self.cfg.warmup_cycles
    }

    /// Schedules a reconfiguration epoch. Epochs may be scheduled in any
    /// order and at any time before their activation cycle; each is applied
    /// at the start of the first step at or after `epoch.cycle`. At
    /// activation the epoch's revived channels and nodes come back to life,
    /// its dead ones die, every packet holding a dead resource is dropped,
    /// and all further arbitration retargets `epoch.tables`.
    ///
    /// Contract: when a node is listed dead, the channels of all its
    /// incident links must be listed dead too (a repair derived from a
    /// switch fault always satisfies this). Revived elements must currently
    /// be dead — their buffers are empty by construction, because the
    /// down-swap that killed them dropped every resident flit and the
    /// `DEAD` owner sentinel blocked any re-claim, so a revival never
    /// materializes flits. `epoch.tables` must cover the same network as
    /// the simulator's communication graph.
    pub fn schedule_reconfig(&mut self, epoch: &'a ReconfigEpoch) {
        self.settle_drains();
        assert_eq!(
            epoch.tables.num_nodes(),
            self.cg.num_nodes(),
            "epoch tables belong to a different network"
        );
        let live = &self.reconfigs[self.next_reconfig..];
        let pos = self.next_reconfig + live.partition_point(|e| e.cycle <= epoch.cycle);
        self.reconfigs.insert(pos, epoch);
    }

    /// Applies every epoch whose activation cycle has been reached.
    fn apply_due_reconfigs(&mut self) {
        while self.next_reconfig < self.reconfigs.len()
            && self.reconfigs[self.next_reconfig].cycle <= self.now
        {
            let epoch = self.reconfigs[self.next_reconfig];
            self.next_reconfig += 1;
            self.apply_reconfig(epoch);
        }
    }

    /// Applies one reconfiguration epoch: re-enables the revived
    /// resources, marks the dead ones, drops every packet holding a dead
    /// resource, retires the dead virtual channels, and swaps in the
    /// repaired routing tables.
    fn apply_reconfig(&mut self, epoch: &'a ReconfigEpoch) {
        // Revivals, deaths and the new tables can change any outcome.
        self.unpark_all();
        let vcs = self.vcs as usize;
        // Revivals first (an element can in principle flip down and up in
        // one barrier when epochs coalesce; deaths must win). A revived
        // channel comes back *empty*: the down-swap that killed it dropped
        // every resident flit and its `DEAD` owners blocked any re-claim
        // since, so flipping the owners back to `FREE` cannot materialize
        // or orphan a flit — asserted below via the conservation identity.
        for &c in &epoch.revived_channels {
            debug_assert!(
                self.dead_channel[c as usize],
                "revived channel {c} was not dead"
            );
            self.dead_channel[c as usize] = false;
            for vc in 0..vcs {
                let idx = c as usize * vcs + vc;
                debug_assert!(self.staged[idx].is_none(), "revived channel {c} not empty");
                debug_assert_eq!(self.fifo_len[idx], 0, "revived channel {c} not empty");
                if self.owner[idx] == DEAD {
                    self.owner[idx] = FREE;
                }
            }
        }
        for &v in &epoch.revived_nodes {
            debug_assert!(self.node_dead[v as usize], "revived node {v} was not dead");
            self.node_dead[v as usize] = false;
            if self.eject_owner[v as usize] == DEAD {
                self.eject_owner[v as usize] = FREE;
            }
            // The processor restarts in the quiescent state.
            self.src_on[v as usize] = false;
            // A dead node's arrival stream ends when its pending arrival
            // comes due, and the revival restarts it. An arrival drawn
            // before the death and not yet due is still a valid next
            // arrival (the geometric gap is memoryless), so the revival
            // keeps it instead of adding a second stream.
            if self.cfg.injection_sampling == InjectionSampling::Geometric
                && self.inject_p > 0.0
                && self.cg.num_nodes() >= 2
                && !self.arrival_pending[v as usize]
            {
                self.schedule_arrival(v, self.now + 1);
            }
        }
        for &c in &epoch.dead_channels {
            self.dead_channel[c as usize] = true;
        }
        for &v in &epoch.dead_nodes {
            self.node_dead[v as usize] = true;
        }
        // A packet dies when it holds a dead resource: a flit staged on or
        // buffered past a dead channel, a claimed route from or into a dead
        // channel, an ejection in progress at a dead node, or a source-queue
        // slot at a dead node. Packets merely *destined* to a dead node are
        // dropped lazily when their header next arbitrates.
        let mut drops: Vec<u32> = Vec::new();
        for &c in &epoch.dead_channels {
            for vc in 0..vcs {
                let idx = c as usize * vcs + vc;
                if let Some(f) = self.staged[idx] {
                    drops.push(f.pkt);
                }
                let head = self.fifo_head[idx] as usize;
                for k in 0..self.fifo_len[idx] as usize {
                    drops.push(self.fifo[idx * self.depth + (head + k) % self.depth].pkt);
                }
            }
        }
        for i in 0..self.num_inputs {
            let r = self.route[i];
            if r == ROUTE_NONE {
                continue;
            }
            let from_dead = i < self.num_invc && self.dead_channel[i / vcs];
            let to_dead = r != ROUTE_EJECT && self.dead_channel[r as usize / vcs];
            let eject_dead = r == ROUTE_EJECT && self.node_dead[self.input_node(i) as usize];
            if from_dead || to_dead || eject_dead {
                drops.push(self.route_pkt[i]);
            }
        }
        for &v in &epoch.dead_nodes {
            drops.extend(self.src_queue[v as usize].iter().copied());
            if let Some(f) = self.eject_staged[v as usize] {
                drops.push(f.pkt);
            }
        }
        drops.sort_unstable();
        drops.dedup();
        for pkt in drops {
            self.drop_packet(pkt);
        }
        // Dead resources can never be claimed again.
        for &c in &epoch.dead_channels {
            for vc in 0..vcs {
                self.owner[c as usize * vcs + vc] = DEAD;
            }
        }
        for &v in &epoch.dead_nodes {
            self.eject_owner[v as usize] = DEAD;
        }
        self.tables = &epoch.tables;
        self.cand.fill(None);
        self.reconfig_epochs += 1;
        // No flit materialized or vanished across the barrier: drops were
        // accounted flit-by-flit and revivals re-enable empty resources.
        debug_assert!(
            self.flits_conserved(),
            "flit conservation violated across epoch barrier at cycle {}",
            self.now
        );
        // The epoch barrier counts as progress: the repaired network gets a
        // full watchdog window before a stall is declared.
        self.note_progress();
        let (cycle, applied) = (self.now, self.reconfig_epochs);
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.record(&SimEvent::EpochSwap {
                cycle,
                epoch: applied,
                dead_channels: epoch.dead_channels.len() as u32,
                dead_nodes: epoch.dead_nodes.len() as u32,
                revived_channels: epoch.revived_channels.len() as u32,
                revived_nodes: epoch.revived_nodes.len() as u32,
            });
        }
    }

    /// Removes every trace of packet `pkt` from the network — flits in
    /// FIFOs, staging and ejection registers, claimed routes and channel
    /// ownerships, and its source-queue entry — and updates the drop
    /// accounting. Only called on fault paths; a run without faults never
    /// drops.
    fn drop_packet(&mut self, pkt: u32) {
        // A drop frees registers, FIFO slots and VCs anywhere in the
        // network; the parked entries settle first and are polled again.
        self.unpark_all();
        let flits_dropped_before = self.dropped_flits;
        let len = self.cfg.packet_len;
        // Input FIFOs: compact each ring that holds flits of the packet
        // (rings can interleave flits of different packets).
        for idx in 0..self.num_invc {
            let n = self.fifo_len[idx] as usize;
            if n == 0 {
                continue;
            }
            let head = self.fifo_head[idx] as usize;
            let base = idx * self.depth;
            let mut kept = 0usize;
            for k in 0..n {
                let f = self.fifo[base + (head + k) % self.depth];
                if f.pkt == pkt {
                    continue;
                }
                self.fifo[base + (head + kept) % self.depth] = f;
                kept += 1;
            }
            let removed = n - kept;
            if removed == 0 {
                continue;
            }
            self.fifo_len[idx] = kept as u32;
            self.buffered_flits -= removed as u64;
            self.dropped_flits += removed as u64;
            if kept == 0 {
                self.active_in.remove(idx);
            }
            if self.route[idx] == ROUTE_NONE {
                // The purged head may have been a header mid-arbitration;
                // its committed port, patience and candidates die with it.
                self.blocked[idx] = 0;
                self.pending_port[idx] = NO_PORT;
                self.cand[idx] = None;
            }
        }
        // Staging registers.
        for idx in 0..self.num_invc {
            let Some(f) = self.staged[idx] else { continue };
            if f.pkt != pkt {
                continue;
            }
            self.staged[idx] = None;
            let c = idx / self.vcs as usize;
            self.staged_count[c] -= 1;
            if self.staged_count[c] == 0 {
                self.staged_active.remove(c);
            }
            self.buffered_flits -= 1;
            self.dropped_flits += 1;
            if f.seq + 1 == len && self.owner[idx] != DEAD {
                // A staged tail still holds the channel (it is released
                // only on link traversal) even though the upstream route
                // was already reset when the tail was popped.
                self.owner[idx] = FREE;
            }
        }
        // Ejection registers.
        for v in 0..self.cg.num_nodes() as usize {
            let Some(f) = self.eject_staged[v] else {
                continue;
            };
            if f.pkt != pkt {
                continue;
            }
            self.eject_staged[v] = None;
            self.eject_active.remove(v);
            self.buffered_flits -= 1;
            self.dropped_flits += 1;
            if f.seq + 1 == len && self.eject_owner[v] != DEAD {
                self.eject_owner[v] = FREE;
            }
        }
        // Claimed routes and the channels they own.
        for i in 0..self.num_inputs {
            if self.route[i] == ROUTE_NONE || self.route_pkt[i] != pkt {
                continue;
            }
            let r = self.route[i];
            if r == ROUTE_EJECT {
                let v = self.input_node(i) as usize;
                if self.eject_owner[v] == i as u32 {
                    self.eject_owner[v] = FREE;
                }
            } else if self.owner[r as usize] == i as u32 {
                self.owner[r as usize] = FREE;
            }
            self.route[i] = ROUTE_NONE;
            self.route_pkt[i] = NO_PKT;
            self.pending_port[i] = NO_PORT;
            self.blocked[i] = 0;
            self.cand[i] = None;
        }
        // Source-queue entry (queued, or mid-injection at the front).
        let src = self.packets[pkt as usize].src as usize;
        if let Some(pos) = self.src_queue[src].iter().position(|&p| p == pkt) {
            if pos == 0 {
                self.src_sent[src] = 0;
                // The next queued packet is a new header with its own
                // destination.
                self.cand[self.num_invc + src] = None;
            }
            self.src_queue[src].remove(pos);
            if self.src_queue[src].is_empty() {
                self.active_in.remove(self.num_invc + src);
            }
        }
        self.live_packets -= 1;
        self.dropped_packets += 1;
        let (cycle, flits_lost) = (self.now, self.dropped_flits - flits_dropped_before);
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.record(&SimEvent::Drop {
                cycle,
                pkt,
                flits_lost: flits_lost as u32,
            });
        }
    }

    /// Advances the network by one clock.
    fn step(&mut self) {
        self.work.clocks += 1;
        if self.next_reconfig < self.reconfigs.len() {
            self.apply_due_reconfigs();
        }
        self.inject();
        match self.cfg.engine_core {
            EngineCore::ActiveSet => {
                self.link_stage_active();
                self.eject_stage_active();
                self.crossbar_stage_active();
                if self.live_drains > 0 || !self.ejected_headers.is_empty() {
                    self.stream_clock();
                }
            }
            EngineCore::DenseReference => {
                self.link_stage_dense();
                self.eject_stage_dense();
                self.crossbar_stage_dense();
            }
        }
        if self.measuring() {
            self.buffered_flit_cycles += self.buffered_flits;
        }
        self.now += 1;
    }

    /// Generates new packets at each node (rate `injection_rate /
    /// packet_len` packets per node per cycle).
    fn inject(&mut self) {
        if self.cg.num_nodes() < 2 || self.inject_p == 0.0 {
            return;
        }
        match self.cfg.injection_sampling {
            InjectionSampling::PerCycle => self.inject_per_cycle(),
            InjectionSampling::Geometric => self.inject_geometric(),
        }
    }

    /// One arrival-process draw per live node per cycle (the seed RNG
    /// stream).
    fn inject_per_cycle(&mut self) {
        if self.cfg.arrivals != ArrivalProcess::Bernoulli {
            self.inject_per_node();
            return;
        }
        // Each maximal run of live nodes is one Bernoulli scan: the RNG
        // skips to the next hit, the hit node draws its destination, and
        // the scan resumes after it. Every draw decides as `gen_bool` does
        // (see `rand::bernoulli_threshold`), so the stream is the per-node
        // loop's, and dead nodes still cost no draw.
        let n = self.cg.num_nodes() as usize;
        let t = rand::bernoulli_threshold(self.inject_p);
        let mut v = 0;
        while v < n {
            if self.node_dead[v] {
                v += 1;
                continue;
            }
            let end = self.node_dead[v..]
                .iter()
                .position(|&dead| dead)
                .map_or(n, |k| v + k);
            self.work.arrival_samples += (end - v) as u64;
            while v < end {
                v += self.rng.failures_before(t, (end - v) as u64) as usize;
                if v < end {
                    self.generate_packet(v as NodeId);
                    v += 1;
                }
            }
        }
    }

    /// The per-node arrival loop for stateful (on/off) sources.
    fn inject_per_node(&mut self) {
        let n = self.cg.num_nodes();
        let p = self.inject_p;
        let arrivals = self.cfg.arrivals;
        for v in 0..n {
            if self.node_dead[v as usize] {
                // A dead processor generates nothing (and costs no draw).
                continue;
            }
            self.work.arrival_samples += 1;
            let mut on = self.src_on[v as usize];
            let arrived = arrivals.arrives(&mut self.rng, &mut on, p);
            self.src_on[v as usize] = on;
            if arrived {
                self.generate_packet(v);
            }
        }
    }

    /// Calendar-queue arrivals: only sources whose pre-drawn arrival time
    /// is due cost anything this cycle; each arrival schedules the next
    /// one a geometric gap ahead.
    fn inject_geometric(&mut self) {
        while let Some(&Reverse((t, v))) = self.next_arrival.peek() {
            if t > self.now {
                break;
            }
            self.next_arrival.pop();
            self.arrival_pending[v as usize] = false;
            if self.node_dead[v as usize] {
                // A dead source's arrival stream ends: drop without re-arm.
                continue;
            }
            self.generate_packet(v);
            self.schedule_arrival(v, self.now + 1);
        }
    }

    /// Creates one packet at `v` with a freshly drawn destination.
    fn generate_packet(&mut self, v: NodeId) {
        let dst = self
            .cfg
            .traffic
            .pick_dest(&mut self.rng, v, self.cg.num_nodes());
        self.push_packet(v, dst);
    }

    /// Link stage, dense reference: every physical channel, every clock.
    fn link_stage_dense(&mut self) {
        for c in 0..self.cg.num_channels() as usize {
            self.advance_link(c);
        }
    }

    /// Link stage, active-set core: only channels with an occupied staging
    /// register that are not parked. Ascending order matches the dense
    /// scan. A channel whose every staged flit faces a full FIFO parks
    /// until `pop_head` frees a slot or a new flit is staged on it.
    fn link_stage_active(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        self.staged_active.collect(&mut scratch);
        for &c in &scratch {
            let c = c as usize;
            if self.advance_link(c) {
                self.staged_active.remove(c);
                self.parked_link.insert(c);
            }
        }
        self.scratch = scratch;
    }

    /// Moves at most one flit on physical channel `c` from its staging
    /// registers to the downstream input FIFO (1-clock link traversal).
    /// Returns `true` when nothing moved because every staged flit's
    /// downstream FIFO is full, so only a pop there can change that.
    fn advance_link(&mut self, c: usize) -> bool {
        self.work.link_visits += 1;
        let vcs = self.vcs as usize;
        let start = self.rr[c] as usize;
        let mut all_full = true;
        for k in 0..vcs {
            let vc = (start + k) % vcs;
            let idx = c * vcs + vc;
            let Some(flit) = self.staged[idx] else {
                continue;
            };
            debug_assert!(
                self.staged_active.contains(c) || self.held_in.contains(idx),
                "channel {c} staged but inactive"
            );
            if self.fifo_len[idx] as usize >= self.depth {
                continue;
            }
            all_full = false;
            if flit.time >= self.now {
                continue;
            }
            self.staged[idx] = None;
            self.staged_count[c] -= 1;
            if self.staged_count[c] == 0 {
                self.staged_active.remove(c);
            }
            // The owning input may be parked on this register.
            let o = self.owner[idx] as usize;
            if self.route.get(o) == Some(&(idx as u32)) {
                self.wake_input(o);
            }
            self.fifo_push(
                idx,
                Flit {
                    time: self.now,
                    ..flit
                },
            );
            if self.measuring() {
                self.channel_flits[c] += 1;
            }
            self.note_progress();
            if flit.seq + 1 == self.cfg.packet_len {
                // Tail has traversed the link: the virtual channel is
                // released for a new reservation.
                self.owner[idx] = FREE;
                self.wake_headers_at(self.cg.channels().start(c as ChannelId));
            }
            if flit.seq == 0 {
                let cycle = self.now;
                if let Some(rec) = self.recorder.as_deref_mut() {
                    rec.record(&SimEvent::HeaderAdvance {
                        cycle,
                        pkt: flit.pkt,
                        channel: c as ChannelId,
                        vc: vc as u32,
                    });
                }
            }
            self.rr[c] = ((vc + 1) % vcs) as u32;
            return false;
        }
        all_full
    }

    /// Ejection stage, dense reference: every node, every clock.
    fn eject_stage_dense(&mut self) {
        for v in 0..self.cg.num_nodes() as usize {
            self.advance_eject(v);
        }
    }

    /// Ejection stage, active-set core: only nodes with a pending flit.
    fn eject_stage_active(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        self.eject_active.collect(&mut scratch);
        for &v in &scratch {
            self.advance_eject(v as usize);
        }
        self.scratch = scratch;
    }

    /// Delivers at most one flit at node `v` from the ejection register to
    /// the local processor.
    fn advance_eject(&mut self, v: usize) {
        let Some(flit) = self.eject_staged[v] else {
            return;
        };
        debug_assert!(
            self.eject_active.contains(v) || self.held_in.contains(self.eject_owner[v] as usize),
            "node {v} staged but inactive"
        );
        if flit.time >= self.now {
            return;
        }
        self.eject_staged[v] = None;
        self.eject_active.remove(v);
        self.buffered_flits -= 1;
        self.delivered_flits_total += 1;
        self.note_progress();
        let measuring = self.measuring();
        if measuring {
            self.flits_delivered += 1;
            self.node_flits_delivered[v] += 1;
        }
        if flit.seq == 0 && self.streaming {
            self.ejected_headers.push(flit.pkt);
        }
        if flit.seq + 1 == self.cfg.packet_len {
            let gen_time = self.packets[flit.pkt as usize].gen_time;
            self.eject_owner[v] = FREE;
            self.wake_headers_at(v as NodeId);
            self.live_packets -= 1;
            if measuring {
                self.packets_delivered += 1;
                let lat = self.now - gen_time;
                self.latency_sum += lat as u64;
                self.latency_max = self.latency_max.max(lat);
                self.latency_hist.record(lat);
            }
            let (cycle, latency) = (self.now, self.now - gen_time);
            if let Some(rec) = self.recorder.as_deref_mut() {
                rec.record(&SimEvent::Eject {
                    cycle,
                    pkt: flit.pkt,
                    node: v as NodeId,
                    latency,
                });
            }
        }
    }

    /// Crossbar stage, dense reference: every input, every clock, in the
    /// rotated fairness order (two linear sweeps — no per-input modulo).
    fn crossbar_stage_dense(&mut self) {
        let offset = self.now as usize % self.num_inputs;
        for i in (offset..self.num_inputs).chain(0..offset) {
            self.advance_input(i);
        }
    }

    /// Crossbar stage, active-set core: only inputs with queued flits that
    /// are not parked, in the same rotated order the dense scan uses. The
    /// cursor reads `active_in` live, so an input woken ahead of it (by a
    /// drop mid-stage) still gets its turn this clock, as in the dense
    /// scan. An input whose visit found it waiting on an event parks.
    fn crossbar_stage_active(&mut self) {
        let n = self.num_inputs;
        if n == 0 {
            return;
        }
        let offset = self.now as usize % n;
        let (mut from, mut wrapped) = (offset, false);
        loop {
            let i = match self.active_in.next_at_or_after(from) {
                Some(i) if !wrapped || i < offset => i,
                _ if !wrapped => {
                    (from, wrapped) = (0, true);
                    continue;
                }
                _ => break,
            };
            self.scan_pos = if wrapped { i + n - offset } else { i - offset };
            match self.advance_input(i) {
                Visit::Waits if self.recorder.is_none() => self.park_input(i),
                Visit::Backpressured => {
                    debug_assert_ne!(self.route[i], ROUTE_EJECT, "ejection never backs up");
                    self.park_input(i);
                }
                _ => {}
            }
            from = i + 1;
        }
        self.scan_pos = 0;
    }

    /// Processes one input: (a) arbitrate if its head flit is an unrouted
    /// header, (b) move the head flit along its assigned route if the next
    /// stage is free.
    fn advance_input(&mut self, i: usize) -> Visit {
        self.work.crossbar_visits += 1;
        let head = self.peek_head(i);
        let Some(flit) = head else {
            return Visit::Done;
        };
        // The dense core double-checks the worklist bookkeeping: any input
        // with a queued flit must be in `active_in`, or held by a drain.
        debug_assert!(
            self.active_in.contains(i) || self.held_in.contains(i),
            "input {i} queued but inactive"
        );
        if flit.time >= self.now {
            return Visit::Done;
        }
        if self.route[i] == ROUTE_NONE {
            debug_assert_eq!(flit.seq, 0, "only headers arbitrate");
            match self.arbitrate(i, flit) {
                Arb::Claimed => {
                    self.blocked[i] = 0;
                    self.cand[i] = None;
                }
                Arb::Blocked { escape_due } => {
                    self.blocked[i] += 1;
                    if self.measuring() {
                        self.header_block_cycles += 1;
                    }
                    if self.recorder.is_some() {
                        let (cycle, node, waited) = (self.now, self.input_node(i), self.blocked[i]);
                        if let Some(rec) = self.recorder.as_deref_mut() {
                            rec.record(&SimEvent::Block {
                                cycle,
                                pkt: flit.pkt,
                                node,
                                waited,
                            });
                        }
                    }
                    return if escape_due {
                        Visit::Done
                    } else {
                        Visit::Waits
                    };
                }
                // The packet was destroyed; this input's head (if any) is
                // now a different packet and gets its turn next cycle.
                Arb::Dropped => return Visit::Done,
            }
        }
        let route = self.route[i];
        let moved = if route == ROUTE_EJECT {
            let v = self.input_node(i) as usize;
            if self.eject_staged[v].is_none() {
                self.eject_staged[v] = Some(Flit {
                    time: self.now,
                    ..flit
                });
                self.eject_active.insert(v);
                true
            } else {
                false
            }
        } else if self.staged[route as usize].is_none() {
            debug_assert_eq!(self.owner[route as usize], i as u32);
            self.staged[route as usize] = Some(Flit {
                time: self.now,
                ..flit
            });
            let c = route as usize / self.vcs as usize;
            self.staged_count[c] += 1;
            self.parked_link.remove(c);
            self.staged_active.insert(c);
            true
        } else {
            false
        };
        if !moved {
            return Visit::Backpressured;
        }
        self.pop_head(i);
        self.note_progress();
        if flit.seq + 1 == self.cfg.packet_len {
            self.route[i] = ROUTE_NONE;
            self.route_pkt[i] = NO_PKT;
        }
        Visit::Done
    }

    /// The node an input belongs to.
    #[inline]
    fn input_node(&self, i: usize) -> NodeId {
        if i < self.num_invc {
            self.cg.channels().sink((i / self.vcs as usize) as u32)
        } else {
            (i - self.num_invc) as NodeId
        }
    }

    /// Pushes a flit onto input FIFO `i`'s ring buffer in the flat arena.
    #[inline]
    fn fifo_push(&mut self, i: usize, flit: Flit) {
        let len = self.fifo_len[i] as usize;
        debug_assert!(len < self.depth, "FIFO overflow at input {i}");
        let pos = (self.fifo_head[i] as usize + len) % self.depth;
        self.fifo[i * self.depth + pos] = flit;
        self.fifo_len[i] = (len + 1) as u32;
        self.activate_input(i);
    }

    /// Head flit of an input, if any.
    fn peek_head(&self, i: usize) -> Option<Flit> {
        if i < self.num_invc {
            if self.fifo_len[i] == 0 {
                return None;
            }
            Some(self.fifo[i * self.depth + self.fifo_head[i] as usize])
        } else {
            let v = i - self.num_invc;
            let &pkt = self.src_queue[v].front()?;
            let seq = self.src_sent[v];
            // A source flit is ready one cycle after generation (header) or
            // one cycle after its predecessor left (body); using the packet
            // generation time for the header and `now - 1` for body flits
            // models a processor that can feed one flit per clock.
            let time = if seq == 0 {
                self.packets[pkt as usize].gen_time
            } else {
                self.now - 1
            };
            Some(Flit { pkt, seq, time })
        }
    }

    /// Consumes the head flit of an input after it moved.
    fn pop_head(&mut self, i: usize) {
        if i < self.num_invc {
            debug_assert!(self.fifo_len[i] > 0, "popped empty FIFO");
            self.fifo_head[i] = ((self.fifo_head[i] as usize + 1) % self.depth) as u32;
            self.fifo_len[i] -= 1;
            if self.fifo_len[i] == 0 {
                self.active_in.remove(i);
            }
            // A FIFO slot opened: the link feeding it may be parked.
            let c = i / self.vcs as usize;
            if self.parked_link.contains(c) {
                self.parked_link.remove(c);
                self.staged_active.insert(c);
            }
            // The flit left a FIFO and entered a staging register:
            // buffered count is unchanged.
        } else {
            let v = i - self.num_invc;
            self.src_sent[v] += 1;
            debug_assert!(!self.src_queue[v].is_empty(), "popped empty source");
            // A source flit entered the network.
            self.buffered_flits += 1;
            self.injected_flits_total += 1;
            if self.src_sent[v] == self.cfg.packet_len {
                self.src_queue[v].pop_front();
                self.src_sent[v] = 0;
                if self.src_queue[v].is_empty() {
                    self.active_in.remove(i);
                }
            }
        }
    }

    /// Tries to assign an output to the header at input `i`.
    fn arbitrate(&mut self, i: usize, header: Flit) -> Arb {
        self.work.arbitrations += 1;
        let v = self.input_node(i);
        let dst = self.packets[header.pkt as usize].dst;
        if self.node_dead[dst as usize] {
            // The destination died: the packet can never be delivered.
            self.drop_packet(header.pkt);
            return Arb::Dropped;
        }
        if v == dst {
            if self.eject_owner[v as usize] == FREE {
                self.eject_owner[v as usize] = i as u32;
                self.route[i] = ROUTE_EJECT;
                self.route_pkt[i] = header.pkt;
                return Arb::Claimed;
            }
            return Arb::Blocked { escape_due: false };
        }
        let (mask, any) = self.header_masks(i, v, dst);
        if mask == 0 {
            // Stranded: no turn-legal output still reaches the destination,
            // so the packet is dropped rather than left to wedge the
            // network.
            self.drop_packet(header.pkt);
            return Arb::Dropped;
        }
        self.cand[i] = Some((mask, any));

        // Committed modes: decide on one port up front and wait for it.
        if matches!(
            self.cfg.route_choice,
            RouteChoice::ObliviousRandom | RouteChoice::DeterministicMinimal
        ) {
            if self.pending_port[i] != NO_PORT && (mask >> self.pending_port[i]) & 1 == 0 {
                // The committed port fell out of the candidate set (a
                // reconfiguration killed it): re-decide below.
                self.pending_port[i] = NO_PORT;
            }
            if self.pending_port[i] == NO_PORT {
                self.pending_port[i] = match self.cfg.route_choice {
                    RouteChoice::DeterministicMinimal => mask.trailing_zeros() as u8,
                    _ => {
                        let nbits = mask.count_ones();
                        let pick = self.rng.gen_range(0..nbits);
                        nth_set_bit(mask, pick) as u8
                    }
                };
            }
            let p = self.pending_port[i];
            if let Some(out) = self.free_outvc(v, p) {
                self.claim(i, out, header.pkt);
                self.pending_port[i] = NO_PORT;
                return Arb::Claimed;
            }
            return Arb::Blocked { escape_due: false };
        }

        // Adaptive modes: consider every candidate port with a free VC.
        let mut free_mask = 0u16;
        let mut m = mask;
        while m != 0 {
            let p = m.trailing_zeros() as u8;
            m &= m - 1;
            if self.free_outvc(v, p).is_some() {
                free_mask |= 1 << p;
            }
        }
        let mut misrouting = false;
        if free_mask == 0 {
            // Non-minimal escape: after `misroute_patience` blocked cycles a
            // packet with remaining detour budget may claim any turn-legal,
            // non-dead-end output. Staying inside the allowed turn set keeps
            // the escape deadlock-free; the per-packet budget bounds
            // livelock.
            let Some(patience) = self.cfg.misroute_patience else {
                return Arb::Blocked { escape_due: false };
            };
            if self.packets[header.pkt as usize].detours >= self.cfg.max_detours {
                return Arb::Blocked { escape_due: false };
            }
            if self.blocked[i] < patience {
                // The escape opens after more blocked cycles alone.
                return Arb::Blocked { escape_due: true };
            }
            let escape = any & !mask;
            let mut m = escape;
            while m != 0 {
                let p = m.trailing_zeros() as u8;
                m &= m - 1;
                if self.free_outvc(v, p).is_some() {
                    free_mask |= 1 << p;
                }
            }
            if free_mask == 0 {
                return Arb::Blocked { escape_due: false };
            }
            misrouting = true;
        }
        let p = match self.cfg.route_choice {
            RouteChoice::FirstFree => free_mask.trailing_zeros() as u8,
            _ => {
                let nbits = free_mask.count_ones();
                let pick = self.rng.gen_range(0..nbits);
                nth_set_bit(free_mask, pick) as u8
            }
        };
        let out = self.free_outvc(v, p).expect("port had a free vc");
        if misrouting {
            self.packets[header.pkt as usize].detours += 1;
        }
        self.claim(i, out, header.pkt);
        Arb::Claimed
    }

    /// Candidate output ports of the header at input `i`, at node `v`
    /// bound for `dst != v`: `(route, any)`, where `any` is every
    /// turn-legal port that still reaches `dst` and `route` is its minimal
    /// subset — or, under graceful degradation, all of `any`: a packet
    /// routed under a pre-fault table can arrive at an input whose
    /// repaired minimal mask is empty. Served from `cand` while the header
    /// waits.
    fn header_masks(&self, i: usize, v: NodeId, dst: NodeId) -> (u16, u16) {
        if let Some(pair) = self.cand[i] {
            return pair;
        }
        let slot = if i < self.num_invc {
            self.cg.channels().in_port((i / self.vcs as usize) as u32) as usize + 1
        } else {
            INJECTION_SLOT
        };
        let (min, any) = self.tables.candidate_masks(dst, v, slot);
        debug_assert!(
            min != 0 || self.reconfig_epochs > 0,
            "no minimal candidate at node {v} slot {slot} for dst {dst}"
        );
        (if min == 0 { any } else { min }, any)
    }

    /// Lowest free virtual channel of output port `p` at node `v`.
    fn free_outvc(&self, v: NodeId, p: u8) -> Option<usize> {
        let c = self.cg.channels().output_at(v, p) as usize;
        let vcs = self.vcs as usize;
        (0..vcs)
            .map(|vc| c * vcs + vc)
            .find(|&idx| self.owner[idx] == FREE)
    }

    fn claim(&mut self, i: usize, out: usize, pkt: u32) {
        self.owner[out] = i as u32;
        self.route[i] = out as u32;
        self.route_pkt[i] = pkt;
        let vcs = self.vcs as usize;
        let cycle = self.now;
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.record(&SimEvent::VcAlloc {
                cycle,
                pkt,
                channel: (out / vcs) as ChannelId,
                vc: (out % vcs) as u32,
            });
        }
    }

    /// Marks input `i` occupied: back on the crossbar worklist unless it
    /// is parked, since a flit arriving behind its head changes nothing,
    /// or held by a drain, which puts it back when it lets go.
    #[inline]
    fn activate_input(&mut self, i: usize) {
        if !self.parked_in.contains(i) && !self.held_in.contains(i) {
            self.active_in.insert(i);
        }
    }

    /// Takes input `i` off the crossbar worklist until an event wakes it.
    fn park_input(&mut self, i: usize) {
        self.active_in.remove(i);
        self.parked_in.insert(i);
        self.park_cycle[i] = self.now;
    }

    /// Puts a parked input back on the crossbar worklist. A header is
    /// credited the arbitration attempts it skipped, so `blocked` and
    /// `header_block_cycles` match the dense scan.
    fn wake_input(&mut self, i: usize) {
        if !self.parked_in.contains(i) {
            return;
        }
        if self.route[i] == ROUTE_NONE {
            // If the crossbar has already passed `i` this clock, the dense
            // scan spent this clock's attempt on it too.
            let n = self.num_inputs;
            let passed = self.scan_pos > (i + n - self.now as usize % n) % n;
            let end = self.now + u32::from(passed);
            self.blocked[i] += self.skipped_attempts(i, end);
            let first_measured = (self.park_cycle[i] + 1).max(self.cfg.warmup_cycles);
            self.header_block_cycles += u64::from(end.saturating_sub(first_measured));
        }
        self.parked_in.remove(i);
        self.active_in.insert(i);
    }

    /// Arbitration attempts a parked header at input `i` skipped in the
    /// clocks before `end` (0 unless it is a parked header).
    fn skipped_attempts(&self, i: usize, end: u32) -> u32 {
        if !self.parked_in.contains(i) || self.route[i] != ROUTE_NONE {
            return 0;
        }
        debug_assert!(end > self.park_cycle[i], "woken before it parked");
        end - self.park_cycle[i] - 1
    }

    /// Wakes the parked headers at node `u`: an output or ejection VC of
    /// `u` just went free.
    fn wake_headers_at(&mut self, u: NodeId) {
        let vcs = self.vcs as usize;
        for &c in self.cg.channels().inputs(u) {
            for i in c as usize * vcs..(c as usize + 1) * vcs {
                if self.route[i] == ROUTE_NONE {
                    self.wake_input(i);
                }
            }
        }
        self.wake_input(self.num_invc + u as usize);
    }

    /// Wakes every parked input and channel, settling header credits.
    /// Called where many outcomes can change at once (drops, epoch swaps,
    /// attaching a recorder) and before the statistics are read.
    fn unpark_all(&mut self) {
        let mut from = 0;
        while let Some(i) = self.parked_in.next_at_or_after(from) {
            self.wake_input(i);
            from = i + 1;
        }
        from = 0;
        while let Some(c) = self.parked_link.next_at_or_after(from) {
            self.parked_link.remove(c);
            self.staged_active.insert(c);
            from = c + 1;
        }
    }

    #[inline]
    fn note_progress(&mut self) {
        self.last_progress = self.now;
    }

    /// Counts one more live packet, noting when the network stops being
    /// idle.
    fn count_live_packet(&mut self) {
        if self.live_packets == 0 {
            self.live_since = self.now;
        }
        self.live_packets += 1;
    }
}

/// Outcome of one header arbitration.
enum Arb {
    /// A route was claimed; the flit may move this cycle.
    Claimed,
    /// No free output: the header waits (counted as a blocked cycle).
    /// Unless `escape_due` — the misrouting escape opens after more
    /// blocked cycles — only a VC of its node freeing can change that.
    Blocked { escape_due: bool },
    /// The packet was destroyed (dead destination or stranded by a
    /// reconfiguration).
    Dropped,
}

/// What one crossbar visit found. The active-set core parks an input on
/// the two waiting outcomes; the dense core ignores them.
enum Visit {
    /// A flit moved, nothing was ready, or the packet was dropped.
    Done,
    /// The header lost arbitration, and only an output or ejection VC of
    /// its node going free can change that.
    Waits,
    /// The routed head flit's next register (staging or ejection) is full.
    Backpressured,
}

/// Scheduling work of a run: how many entries each stage visited,
/// whatever they then did, plus the header arbitration attempts and the
/// inject stage's arrival samples. The dense reference core visits every
/// channel and input every clock; the active-set core only occupied
/// entries that are not parked, and settles the moves of streaming worms
/// without visiting them. Unlike wall time, the counts are exact per
/// seed, so a test can pin them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Clocks stepped. Idle clocks the driver jumps over (no packet live,
    /// no arrival or epoch due) are not counted.
    pub clocks: u64,
    /// Channels examined by the link stage.
    pub link_visits: u64,
    /// Inputs examined by the crossbar stage.
    pub crossbar_visits: u64,
    /// Header arbitration attempts.
    pub arbitrations: u64,
    /// Arrival-process samples: one per live node per clock under
    /// [`InjectionSampling::PerCycle`] (at a positive load), one per drawn
    /// gap under [`InjectionSampling::Geometric`] — O(nodes) versus
    /// O(arrivals) per clock. The same for both cores.
    pub arrival_samples: u64,
    /// Flit moves of streaming worms that were settled in closed form
    /// instead of visited: each skipped clock of a worm with `h` path
    /// channels counts its source, `h` link, `h` crossbar and one
    /// ejection move. Always zero on the dense core.
    pub streamed_moves: u64,
}

/// Index of the `k`-th (0-based) set bit of `mask`.
fn nth_set_bit(mask: u16, k: u32) -> u32 {
    let mut m = mask;
    for _ in 0..k {
        m &= m - 1;
    }
    m.trailing_zeros()
}

/// Number of idle cycles before the next geometric arrival: the count of
/// failures before the first success of a Bernoulli(`p`) sequence, sampled
/// by inversion from one uniform draw. Uses the same 53-bit uniform
/// construction as the vendored `Rng::gen_bool`.
fn geometric_skip(rng: &mut ChaCha8Rng, p: f64) -> u32 {
    debug_assert!(p > 0.0 && p <= 1.0);
    if p >= 1.0 {
        return 0;
    }
    let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let skip = (1.0 - u).ln() / (1.0 - p).ln();
    if skip >= u32::MAX as f64 {
        u32::MAX
    } else {
        skip as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineCore, InjectionSampling};
    use irnet_baselines::{lturn, updown};
    use irnet_core::DownUp;
    use irnet_topology::gen;
    use irnet_turns::TurnTable;

    fn quick_cfg(rate: f64) -> SimConfig {
        SimConfig {
            packet_len: 8,
            injection_rate: rate,
            warmup_cycles: 300,
            measure_cycles: 1_500,
            deadlock_threshold: 3_000,
            ..SimConfig::default()
        }
    }

    #[test]
    fn nth_set_bit_works() {
        assert_eq!(nth_set_bit(0b1011, 0), 0);
        assert_eq!(nth_set_bit(0b1011, 1), 1);
        assert_eq!(nth_set_bit(0b1011, 2), 3);
    }

    #[test]
    fn low_load_latency_tracks_route_length() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 5).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let cfg = quick_cfg(0.005);
        let stats = Simulator::new(r.comm_graph(), r.routing_tables(), cfg, 1).run();
        assert!(!stats.deadlocked);
        assert!(stats.packets_delivered > 0);
        // At near-zero load latency ≈ serialization (packet_len) + a couple
        // of clocks per hop; it must exceed the packet length and stay far
        // below the congested regime.
        let lat = stats.avg_latency();
        assert!(
            lat > cfg.packet_len as f64,
            "latency {lat} below serialization floor"
        );
        assert!(
            lat < 40.0 * cfg.packet_len as f64,
            "latency {lat} absurdly high at low load"
        );
    }

    #[test]
    fn delivered_flits_are_multiples_of_progress() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(12, 4), 2).unwrap();
        let r = updown::construct_bfs(&topo).unwrap();
        let stats = Simulator::new(r.comm_graph(), r.routing_tables(), quick_cfg(0.02), 3).run();
        assert!(!stats.deadlocked);
        // Every delivered packet contributes exactly packet_len flits, but
        // flit deliveries of in-flight packets also count; the inequality
        // below must hold.
        assert!(stats.flits_delivered >= stats.packets_delivered * 8);
    }

    #[test]
    fn determinism_per_seed() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(12, 4), 7).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let a = Simulator::new(r.comm_graph(), r.routing_tables(), quick_cfg(0.05), 9).run();
        let b = Simulator::new(r.comm_graph(), r.routing_tables(), quick_cfg(0.05), 9).run();
        assert_eq!(a.flits_delivered, b.flits_delivered);
        assert_eq!(a.latency_sum, b.latency_sum);
        assert_eq!(a.channel_flits, b.channel_flits);
        let c = Simulator::new(r.comm_graph(), r.routing_tables(), quick_cfg(0.05), 10).run();
        assert_ne!(a.channel_flits, c.channel_flits);
    }

    /// The heart of the refactor's correctness argument: the active-set
    /// core and the dense reference scan must produce bit-identical
    /// statistics across routing algorithms, loads, VC counts and seeds.
    #[test]
    fn active_set_matches_dense_reference_bit_exactly() {
        for topo_seed in [5u64, 11] {
            let topo =
                gen::random_irregular(gen::IrregularParams::paper(16, 4), topo_seed).unwrap();
            let routings = [
                {
                    let (_, cg, _, rt) = DownUp::new().construct(&topo).unwrap().into_parts();
                    (cg, rt)
                },
                {
                    let (_, cg, _, rt) = lturn::construct(&topo).unwrap().into_parts();
                    (cg, rt)
                },
            ];
            for (cg, rt) in &routings {
                for rate in [0.002, 0.05, 0.8] {
                    for vcs in [1u32, 2] {
                        for sim_seed in [1u64, 2] {
                            let base = SimConfig {
                                virtual_channels: vcs,
                                ..quick_cfg(rate)
                            };
                            let dense = Simulator::new(
                                cg,
                                rt,
                                SimConfig {
                                    engine_core: EngineCore::DenseReference,
                                    ..base
                                },
                                sim_seed,
                            )
                            .run();
                            let active = Simulator::new(
                                cg,
                                rt,
                                SimConfig {
                                    engine_core: EngineCore::ActiveSet,
                                    ..base
                                },
                                sim_seed,
                            )
                            .run();
                            assert_eq!(
                                dense, active,
                                "cores diverged: topo {topo_seed} rate {rate} \
                                 vcs {vcs} seed {sim_seed}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The cores must also agree on the misrouting escape path and the
    /// committed (oblivious/deterministic) arbitration modes.
    #[test]
    fn cores_agree_on_misrouting_and_route_choices() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 8).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let configs = [
            SimConfig {
                misroute_patience: Some(4),
                max_detours: 6,
                ..quick_cfg(0.8)
            },
            SimConfig {
                route_choice: RouteChoice::ObliviousRandom,
                ..quick_cfg(0.1)
            },
            SimConfig {
                route_choice: RouteChoice::DeterministicMinimal,
                ..quick_cfg(0.1)
            },
            SimConfig {
                route_choice: RouteChoice::FirstFree,
                ..quick_cfg(0.1)
            },
            SimConfig {
                arrivals: crate::ArrivalProcess::OnOff {
                    mean_burst: 20,
                    burstiness: 3.0,
                },
                ..quick_cfg(0.1)
            },
        ];
        for (k, base) in configs.into_iter().enumerate() {
            let dense = Simulator::new(
                r.comm_graph(),
                r.routing_tables(),
                SimConfig {
                    engine_core: EngineCore::DenseReference,
                    ..base
                },
                7,
            )
            .run();
            let active = Simulator::new(
                r.comm_graph(),
                r.routing_tables(),
                SimConfig {
                    engine_core: EngineCore::ActiveSet,
                    ..base
                },
                7,
            )
            .run();
            assert_eq!(dense, active, "cores diverged on config {k}");
        }
    }

    /// Golden pins for the active-set path: 2 fixed seeds per algorithm.
    /// Pure functions of the seeded ChaCha8 stream; if one fails after an
    /// intentional change, re-derive with `PRINT_ENGINE_GOLDEN=1 cargo
    /// test -p irnet-sim print_engine_golden -- --nocapture`.
    #[test]
    fn active_set_golden_pins() {
        for (pin, want) in engine_golden_cases().into_iter().zip(ENGINE_GOLDEN) {
            assert_eq!(pin.1, want, "engine golden pin changed for {}", pin.0);
        }
    }

    /// (label, (packets_delivered, latency_sum, sum(channel_flits),
    /// deadlocked)) per golden case.
    fn engine_golden_cases() -> Vec<(String, (u64, u64, u64, bool))> {
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 5).unwrap();
        let routings = [
            ("downup", {
                let (_, cg, _, rt) = DownUp::new().construct(&topo).unwrap().into_parts();
                (cg, rt)
            }),
            ("lturn", {
                let (_, cg, _, rt) = lturn::construct(&topo).unwrap().into_parts();
                (cg, rt)
            }),
        ];
        let mut out = Vec::new();
        for (name, (cg, rt)) in &routings {
            for seed in [1u64, 2] {
                let stats = Simulator::new(cg, rt, quick_cfg(0.05), seed).run();
                out.push((
                    format!("{name}/seed{seed}"),
                    (
                        stats.packets_delivered,
                        stats.latency_sum,
                        stats.channel_flits.iter().sum(),
                        stats.deadlocked,
                    ),
                ));
            }
        }
        out
    }

    const ENGINE_GOLDEN: [(u64, u64, u64, bool); 4] = [
        (150, 2067, 2696, false), // downup/seed1
        (160, 2265, 2869, false), // downup/seed2
        (151, 2069, 2608, false), // lturn/seed1
        (163, 2285, 2850, false), // lturn/seed2
    ];

    /// Regenerates [`ENGINE_GOLDEN`] (and the geometric pins) after an
    /// intentional behavioural change.
    #[test]
    fn print_engine_golden() {
        if std::env::var("PRINT_ENGINE_GOLDEN").is_err() {
            return;
        }
        for (label, pin) in engine_golden_cases() {
            println!("{label}: {pin:?}");
        }
        for (label, pin) in geometric_golden_cases() {
            println!("{label}: {pin:?}");
        }
    }

    /// Geometric sampling has its own RNG stream, so its own pins.
    #[test]
    fn geometric_sampling_golden_pins() {
        for (pin, want) in geometric_golden_cases().into_iter().zip(GEOMETRIC_GOLDEN) {
            assert_eq!(pin.1, want, "geometric golden pin changed for {}", pin.0);
        }
    }

    fn geometric_golden_cases() -> Vec<(String, (u64, u64, u64, bool))> {
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 5).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let mut out = Vec::new();
        for seed in [1u64, 2] {
            let cfg = SimConfig {
                injection_sampling: InjectionSampling::Geometric,
                ..quick_cfg(0.05)
            };
            let stats = Simulator::new(r.comm_graph(), r.routing_tables(), cfg, seed).run();
            out.push((
                format!("geometric/seed{seed}"),
                (
                    stats.packets_delivered,
                    stats.latency_sum,
                    stats.channel_flits.iter().sum(),
                    stats.deadlocked,
                ),
            ));
        }
        out
    }

    const GEOMETRIC_GOLDEN: [(u64, u64, u64, bool); 2] = [
        (141, 2034, 2638, false), // geometric/seed1
        (137, 1870, 2332, false), // geometric/seed2
    ];

    /// Geometric skip-sampling must reproduce the Bernoulli arrival law:
    /// same long-run offered load, same delivered throughput within
    /// statistical tolerance, and identical results across cores.
    #[test]
    fn geometric_sampling_matches_bernoulli_statistically() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 3).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let rate = 0.05;
        let cfg = |sampling| SimConfig {
            injection_sampling: sampling,
            packet_len: 8,
            injection_rate: rate,
            warmup_cycles: 500,
            measure_cycles: 8_000,
            deadlock_threshold: 5_000,
            ..SimConfig::default()
        };
        let mut per_cycle = 0.0;
        let mut geometric = 0.0;
        for seed in 0..4 {
            per_cycle += Simulator::new(
                r.comm_graph(),
                r.routing_tables(),
                cfg(InjectionSampling::PerCycle),
                seed,
            )
            .run()
            .accepted_traffic();
            geometric += Simulator::new(
                r.comm_graph(),
                r.routing_tables(),
                cfg(InjectionSampling::Geometric),
                seed,
            )
            .run()
            .accepted_traffic();
        }
        per_cycle /= 4.0;
        geometric /= 4.0;
        assert!(
            (geometric / per_cycle - 1.0).abs() < 0.1,
            "geometric accepted {geometric:.5} vs per-cycle {per_cycle:.5}"
        );
        // And the two cores agree bit-exactly in geometric mode too.
        let dense = Simulator::new(
            r.comm_graph(),
            r.routing_tables(),
            SimConfig {
                engine_core: EngineCore::DenseReference,
                ..cfg(InjectionSampling::Geometric)
            },
            11,
        )
        .run();
        let active = Simulator::new(
            r.comm_graph(),
            r.routing_tables(),
            SimConfig {
                engine_core: EngineCore::ActiveSet,
                ..cfg(InjectionSampling::Geometric)
            },
            11,
        )
        .run();
        assert_eq!(dense, active);
    }

    #[test]
    fn set_injection_rate_keeps_hoisted_probability_in_sync() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(10, 4), 1).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let mut sim = Simulator::new(r.comm_graph(), r.routing_tables(), quick_cfg(0.2), 3);
        assert!((sim.inject_p - 0.2 / 8.0).abs() < 1e-12);
        sim.set_injection_rate(0.0);
        assert_eq!(sim.inject_p, 0.0);
        sim.advance(100);
        assert_eq!(sim.packets.len(), 0, "zero rate must stop injection");
        sim.set_injection_rate(0.4);
        assert!((sim.inject_p - 0.4 / 8.0).abs() < 1e-12);
        sim.advance(600);
        assert!(!sim.packets.is_empty(), "restored rate must inject again");
    }

    #[test]
    fn unrestricted_routing_on_a_ring_deadlocks_under_load() {
        // The negative control: with every turn allowed, a ring saturated
        // with traffic must produce a cyclic wait and trip the watchdog.
        let topo = gen::ring(8).unwrap();
        let tree =
            irnet_topology::CoordinatedTree::build(&topo, irnet_topology::PreorderPolicy::M1, 0)
                .unwrap();
        let cg = irnet_topology::CommGraph::build(&topo, &tree);
        let table = TurnTable::all_allowed(&cg);
        let rt = irnet_turns::RoutingTables::build(&cg, &table).unwrap();
        let cfg = SimConfig {
            packet_len: 16,
            injection_rate: 0.9,
            buffer_depth: 1,
            warmup_cycles: 0,
            measure_cycles: 50_000,
            deadlock_threshold: 2_000,
            ..SimConfig::default()
        };
        let stats = Simulator::new(&cg, &rt, cfg, 4).run();
        assert!(
            stats.deadlocked,
            "expected the watchdog to fire on an unrestricted ring"
        );
    }

    #[test]
    fn verified_routing_never_deadlocks_under_heavy_load() {
        for seed in 0..3 {
            let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), seed).unwrap();
            let r = DownUp::new().construct(&topo).unwrap();
            let cfg = SimConfig {
                packet_len: 8,
                injection_rate: 1.0,
                warmup_cycles: 0,
                measure_cycles: 6_000,
                deadlock_threshold: 3_000,
                ..SimConfig::default()
            };
            let stats = Simulator::new(r.comm_graph(), r.routing_tables(), cfg, seed).run();
            assert!(
                !stats.deadlocked,
                "DOWN/UP deadlocked at saturation (seed {seed})"
            );
            assert!(stats.accepted_traffic() > 0.0);
        }
    }

    #[test]
    fn accepted_traffic_saturates_monotonically_at_low_rates() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 11).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let mut prev = 0.0;
        for rate in [0.002, 0.01, 0.05] {
            let stats =
                Simulator::new(r.comm_graph(), r.routing_tables(), quick_cfg(rate), 2).run();
            let acc = stats.accepted_traffic();
            assert!(
                acc >= prev * 0.8,
                "throughput collapsed: {acc} after {prev}"
            );
            prev = acc;
        }
        // At very low load, accepted ≈ offered.
        let stats = Simulator::new(r.comm_graph(), r.routing_tables(), quick_cfg(0.01), 2).run();
        let acc = stats.accepted_traffic();
        assert!(
            (acc - 0.01).abs() < 0.005,
            "accepted {acc} far from offered 0.01"
        );
    }

    #[test]
    fn virtual_channels_do_not_break_anything() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(12, 4), 3).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let cfg = SimConfig {
            virtual_channels: 2,
            ..quick_cfg(0.05)
        };
        let stats = Simulator::new(r.comm_graph(), r.routing_tables(), cfg, 8).run();
        assert!(!stats.deadlocked);
        assert!(stats.packets_delivered > 0);
    }

    #[test]
    fn oblivious_and_first_free_policies_run() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(12, 4), 6).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        for choice in [
            RouteChoice::ObliviousRandom,
            RouteChoice::FirstFree,
            RouteChoice::DeterministicMinimal,
        ] {
            let cfg = SimConfig {
                route_choice: choice,
                ..quick_cfg(0.03)
            };
            let stats = Simulator::new(r.comm_graph(), r.routing_tables(), cfg, 5).run();
            assert!(!stats.deadlocked, "{choice:?} deadlocked");
            assert!(stats.packets_delivered > 0, "{choice:?} delivered nothing");
        }
    }

    #[test]
    fn deterministic_routing_narrows_channel_usage() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 9).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let det = SimConfig {
            route_choice: RouteChoice::DeterministicMinimal,
            ..quick_cfg(0.05)
        };
        let a = Simulator::new(r.comm_graph(), r.routing_tables(), det, 4).run();
        let b = Simulator::new(r.comm_graph(), r.routing_tables(), det, 4).run();
        assert_eq!(a.channel_flits, b.channel_flits);
        assert!(!a.deadlocked);
        let adaptive = Simulator::new(r.comm_graph(), r.routing_tables(), quick_cfg(0.05), 4).run();
        let used = |s: &crate::SimStats| s.channel_flits.iter().filter(|&&f| f > 0).count();
        assert!(
            used(&adaptive) >= used(&a),
            "adaptive routing should exercise at least as many channels"
        );
    }

    #[test]
    fn single_packet_latency_matches_the_timing_model() {
        // On an uncontended path s -> ... -> t with h hops, the paper's
        // timing (1 clock routing/arbitration, 1 clock crossbar, 1 clock
        // link) gives: the header reaches the destination buffer after
        // 2h clocks, takes 1 clock through the ejection crossbar and 1 to
        // deliver, and the remaining L-1 flits stream at 1 flit/clock:
        //     latency = 2h + L + 1.
        let topo = irnet_topology::Topology::new(4, 2, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let tree =
            irnet_topology::CoordinatedTree::build(&topo, irnet_topology::PreorderPolicy::M1, 0)
                .unwrap();
        let cg = irnet_topology::CommGraph::build(&topo, &tree);
        let table = TurnTable::all_allowed(&cg);
        let rt = irnet_turns::RoutingTables::build(&cg, &table).unwrap();
        for (len, hops, dst) in [(4u32, 3u32, 3u32), (8, 2, 2), (2, 1, 1)] {
            let cfg = SimConfig {
                packet_len: len,
                injection_rate: 0.0,
                warmup_cycles: 0,
                measure_cycles: 1,
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(&cg, &rt, cfg, 1);
            sim.enqueue_packet(0, dst);
            assert_eq!(
                sim.drain(10_000),
                Halt::Drained,
                "single packet failed to drain"
            );
            let stats = sim.finish();
            assert_eq!(stats.packets_delivered, 1);
            assert_eq!(
                stats.latency_max,
                2 * hops + len + 1,
                "len {len} hops {hops}: wrong latency"
            );
        }
    }

    #[test]
    fn manual_enqueue_and_drain_api() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(10, 4), 1).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let cfg = SimConfig {
            packet_len: 4,
            injection_rate: 0.0,
            warmup_cycles: 0,
            measure_cycles: 1,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(r.comm_graph(), r.routing_tables(), cfg, 2);
        for s in 0..10u32 {
            sim.enqueue_packet(s, (s + 3) % 10);
        }
        assert_eq!(sim.live_packet_count(), 10);
        assert_eq!(sim.drain(50_000), Halt::Drained);
        assert_eq!(sim.live_packet_count(), 0);
        let stats = sim.finish();
        assert_eq!(stats.packets_delivered, 10);
        assert_eq!(stats.flits_delivered, 40);
        assert!(!stats.deadlocked);
    }

    #[test]
    fn misrouting_keeps_deadlock_freedom_and_delivers() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 8).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let cfg = SimConfig {
            misroute_patience: Some(4),
            max_detours: 6,
            ..quick_cfg(0.8)
        };
        let stats = Simulator::new(r.comm_graph(), r.routing_tables(), cfg, 3).run();
        assert!(
            !stats.deadlocked,
            "misrouting must stay inside the safe turn set"
        );
        assert!(stats.packets_delivered > 0);
        // At low load misrouting never triggers: results identical to the
        // plain configuration.
        let low = SimConfig {
            misroute_patience: Some(50),
            ..quick_cfg(0.01)
        };
        let a = Simulator::new(r.comm_graph(), r.routing_tables(), low, 5).run();
        let b = Simulator::new(r.comm_graph(), r.routing_tables(), quick_cfg(0.01), 5).run();
        assert_eq!(a.channel_flits, b.channel_flits);
    }

    #[test]
    fn contention_counters_track_load() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 3).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let low = Simulator::new(r.comm_graph(), r.routing_tables(), quick_cfg(0.01), 2).run();
        let high = Simulator::new(r.comm_graph(), r.routing_tables(), quick_cfg(0.9), 2).run();
        assert!(low.header_block_rate() < high.header_block_rate());
        assert!(low.avg_network_occupancy() < high.avg_network_occupancy());
        // Little's law sanity at low load: occupancy ≈ throughput × mean
        // time in network. Just check the occupancy is in a sane range.
        assert!(low.avg_network_occupancy() > 0.0);
        assert!(high.avg_network_occupancy() < 10_000.0);
    }

    /// The full-rebuild repair epochs of `plan` on the pristine routing.
    fn full_repair(
        topo: &irnet_topology::Topology,
        r: &irnet_core::DownUpRouting,
        plan: &irnet_topology::FaultPlan,
    ) -> Result<Vec<irnet_core::ReconfigEpoch>, irnet_core::RepairError> {
        let epochs = irnet_core::plan_epochs_with(
            topo,
            r.comm_graph(),
            r.turn_table(),
            r.routing_tables(),
            plan,
            DownUp::new(),
            irnet_core::RepairStrategy::Full,
        )?;
        Ok(epochs.into_iter().map(|e| e.epoch).collect())
    }

    /// Busiest link whose scripted failure at `cycle` is repairable (not a
    /// bridge), with its repaired epoch. Ranking by a probe run's traffic
    /// guarantees the fault actually cuts worms mid-flight.
    fn link_fault_epoch(
        topo: &irnet_topology::Topology,
        r: &irnet_core::DownUpRouting,
        cycle: u32,
    ) -> irnet_core::ReconfigEpoch {
        use irnet_topology::{FaultEvent, FaultKind, FaultPlan};
        let probe = Simulator::new(r.comm_graph(), r.routing_tables(), quick_cfg(0.3), 7).run();
        let mut links: Vec<u32> = (0..topo.num_links()).collect();
        links.sort_by_key(|&l| {
            std::cmp::Reverse(
                probe.channel_flits[2 * l as usize] + probe.channel_flits[2 * l as usize + 1],
            )
        });
        for l in links {
            let (a, b) = topo.link(l);
            let plan = FaultPlan::scripted([FaultEvent::down(cycle, FaultKind::Link { a, b })]);
            if let Ok(mut epochs) = full_repair(topo, r, &plan) {
                return epochs.remove(0);
            }
        }
        panic!("every link is a bridge");
    }

    #[test]
    fn mid_run_link_failure_drops_and_recovers() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 5).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let epoch = link_fault_epoch(&topo, &r, 800);
        let cfg = SimConfig {
            packet_len: 8,
            injection_rate: 0.3,
            warmup_cycles: 0,
            measure_cycles: 4_000,
            deadlock_threshold: 2_000,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(r.comm_graph(), r.routing_tables(), cfg, 7);
        sim.schedule_reconfig(&epoch);
        let stats = sim.run();
        assert!(!stats.deadlocked, "repaired run must not stall");
        assert_eq!(stats.reconfig_epochs, 1);
        assert!(stats.dropped_flits > 0, "loaded link died carrying nothing");
        assert!(stats.dropped_packets > 0);
        assert!(
            stats.packets_delivered > 100,
            "delivery did not recover: {}",
            stats.packets_delivered
        );
    }

    #[test]
    fn link_recovery_reenables_channels_and_conserves_flits() {
        use irnet_topology::{FaultEvent, FaultKind, FaultPlan};
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 5).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let plan = (0..topo.num_links())
            .find_map(|l| {
                let (a, b) = topo.link(l);
                let plan = FaultPlan::scripted([FaultEvent::recovering(
                    800,
                    FaultKind::Link { a, b },
                    2_000,
                )]);
                topo.degrade(&plan).ok().map(|_| plan)
            })
            .expect("every link is a bridge");
        let epochs = full_repair(&topo, &r, &plan).unwrap();
        assert_eq!(epochs.len(), 2, "one down epoch, one up epoch");
        assert!(epochs[0].is_down_only());
        assert!(epochs[1].dead_channels.is_empty());
        assert_eq!(epochs[1].revived_channels.len(), 2);
        let cfg = SimConfig {
            packet_len: 8,
            injection_rate: 0.3,
            warmup_cycles: 0,
            measure_cycles: 5_000,
            deadlock_threshold: 2_000,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(r.comm_graph(), r.routing_tables(), cfg, 7);
        for e in &epochs {
            sim.schedule_reconfig(e);
        }
        let stats = sim.run();
        assert!(!stats.deadlocked, "recovered run must not stall");
        assert_eq!(stats.reconfig_epochs, 2);
        assert!(
            stats.flits_conserved(),
            "injected {} != delivered {} + dropped {} + buffered {}",
            stats.flits_injected_total,
            stats.flits_delivered_total,
            stats.dropped_flits,
            stats.flits_in_flight
        );
    }

    /// `schedule_reconfig` accepts epochs in any order and at any time
    /// before their activation cycle: the shipped down/up recovery epochs
    /// give identical statistics scheduled in order, in reverse, and with
    /// the up epoch scheduled only after the down epoch was applied.
    #[test]
    fn recovery_epochs_schedule_in_any_order_and_late() {
        use irnet_topology::FaultPlan;
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/link_recovery_128.json"
        );
        let plan = FaultPlan::from_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let topo = gen::random_irregular(gen::IrregularParams::paper(128, 4), 1).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let epochs = full_repair(&topo, &r, &plan).unwrap();
        let [down, up] = &epochs[..] else {
            panic!("expected one down and one up epoch, got {}", epochs.len());
        };
        assert!(down.is_down_only() && !up.is_down_only());
        for core in [EngineCore::ActiveSet, EngineCore::DenseReference] {
            let cfg = SimConfig {
                engine_core: core,
                packet_len: 32,
                injection_rate: 0.3,
                warmup_cycles: 1_000,
                measure_cycles: 4_500,
                deadlock_threshold: 2_000,
                ..SimConfig::default()
            };
            let (cg, rt) = (r.comm_graph(), r.routing_tables());
            let run = |order: [&ReconfigEpoch; 2]| {
                let mut sim = Simulator::new(cg, rt, cfg, 7);
                for e in order {
                    sim.schedule_reconfig(e);
                }
                sim.run()
            };
            let in_order = run([down, up]);
            let reversed = run([up, down]);
            let mut sim = Simulator::new(cg, rt, cfg, 7);
            sim.schedule_reconfig(down);
            sim.advance(down.cycle + 1);
            assert_eq!(sim.reconfig_epochs, 1);
            sim.schedule_reconfig(up);
            let late = sim.run();
            assert_eq!(in_order.reconfig_epochs, 2);
            assert!(in_order.dropped_flits > 0, "the fault cut no worm");
            assert_eq!(in_order, reversed, "{core:?}: reverse order diverged");
            assert_eq!(in_order, late, "{core:?}: late scheduling diverged");
        }
    }

    #[test]
    fn switch_recovery_rearms_geometric_injection() {
        use irnet_topology::{FaultEvent, FaultKind, FaultPlan};
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 5).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let (recovered_epochs, permanent_epochs) = (0..topo.num_nodes())
            .find_map(|node| {
                let rec = FaultPlan::scripted([FaultEvent::recovering(
                    600,
                    FaultKind::Switch { node },
                    2_600,
                )]);
                let perm = FaultPlan::scripted([FaultEvent::down(600, FaultKind::Switch { node })]);
                Some((
                    full_repair(&topo, &r, &rec).ok()?,
                    full_repair(&topo, &r, &perm).ok()?,
                ))
            })
            .expect("some switch fault must be repairable");
        assert_eq!(recovered_epochs.len(), 2);
        let dead = recovered_epochs[0].dead_nodes[0] as usize;
        assert_eq!(recovered_epochs[1].revived_nodes, vec![dead as NodeId]);
        let run = |epochs: &[irnet_core::ReconfigEpoch]| {
            let cfg = SimConfig {
                packet_len: 8,
                injection_rate: 0.2,
                warmup_cycles: 0,
                measure_cycles: 8_000,
                deadlock_threshold: 2_000,
                injection_sampling: InjectionSampling::Geometric,
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(r.comm_graph(), r.routing_tables(), cfg, 7);
            for e in epochs {
                sim.schedule_reconfig(e);
            }
            sim.run()
        };
        let recovered = run(&recovered_epochs);
        let permanent = run(&permanent_epochs);
        assert!(!recovered.deadlocked);
        assert_eq!(recovered.reconfig_epochs, 2);
        assert!(recovered.flits_conserved());
        assert!(permanent.flits_conserved());
        // The revived processor's arrival stream was re-armed: it keeps
        // generating after recovery, unlike under the permanent fault.
        assert!(
            recovered.node_packets_generated[dead] > permanent.node_packets_generated[dead],
            "revived node stayed silent: {} vs {}",
            recovered.node_packets_generated[dead],
            permanent.node_packets_generated[dead]
        );
    }

    /// A switch that dies and revives under geometric sampling keeps one
    /// arrival stream. Its arrival drawn before the death can still be
    /// pending at the revival, and so can one that a rate change made
    /// during the outage re-armed; neither may be doubled by the revival,
    /// or the node offers twice its load for the rest of the run.
    #[test]
    fn switch_revival_keeps_one_geometric_arrival_per_node() {
        use irnet_topology::{FaultEvent, FaultKind, FaultPlan};
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 5).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let epochs = (0..topo.num_nodes())
            .find_map(|node| {
                let plan = FaultPlan::scripted([FaultEvent::recovering(
                    600,
                    FaultKind::Switch { node },
                    2_600,
                )]);
                full_repair(&topo, &r, &plan).ok()
            })
            .expect("some switch fault must be repairable");
        let dead = epochs[0].dead_nodes[0];
        for core in [EngineCore::ActiveSet, EngineCore::DenseReference] {
            for rate_change_at in [None, Some(1_000)] {
                for seed in 0..50 {
                    let cfg = SimConfig {
                        engine_core: core,
                        packet_len: 8,
                        injection_rate: 0.002,
                        warmup_cycles: 0,
                        measure_cycles: 4_000,
                        injection_sampling: InjectionSampling::Geometric,
                        ..SimConfig::default()
                    };
                    let mut sim = Simulator::new(r.comm_graph(), r.routing_tables(), cfg, seed);
                    for e in &epochs {
                        sim.schedule_reconfig(e);
                    }
                    if let Some(cycle) = rate_change_at {
                        sim.advance(cycle);
                        sim.set_injection_rate(0.002);
                    }
                    sim.advance(3_000);
                    let pending = sim
                        .next_arrival
                        .iter()
                        .filter(|Reverse((_, v))| *v == dead)
                        .count();
                    assert!(
                        pending <= 1,
                        "{core:?}, seed {seed}, rate change {rate_change_at:?}: \
                         revived node {dead} holds {pending} pending arrivals"
                    );
                }
            }
        }
    }

    /// The inject stage's arrival samples are exact: per-cycle sampling
    /// draws once per node per clock, geometric sampling once per node to
    /// start and once more per generated packet.
    #[test]
    fn arrival_samples_count_the_inject_stage_draws() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 5).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let n = topo.num_nodes() as u64;
        for core in [EngineCore::ActiveSet, EngineCore::DenseReference] {
            let run = |sampling| {
                let cfg = SimConfig {
                    engine_core: core,
                    injection_sampling: sampling,
                    ..quick_cfg(0.2)
                };
                let mut sim = Simulator::new(r.comm_graph(), r.routing_tables(), cfg, 1);
                assert_eq!(sim.advance(cfg.total_cycles()), Halt::Reached);
                (
                    sim.work_counters().arrival_samples,
                    sim.packets.len() as u64,
                )
            };
            let cycles = u64::from(quick_cfg(0.2).total_cycles());
            let (per_cycle, _) = run(InjectionSampling::PerCycle);
            assert_eq!(per_cycle, n * cycles, "{core:?}");
            let (geometric, packets) = run(InjectionSampling::Geometric);
            assert_eq!(geometric, n + packets, "{core:?}");
            assert!(
                geometric < per_cycle / 10,
                "{core:?}: {geometric} vs {per_cycle}"
            );
        }
    }

    /// A link fault at moderate load, and a switch death at high load.
    /// Packets bound for a dead switch are dropped lazily when their
    /// headers next arbitrate, so those drops land in the middle of the
    /// crossbar stage while the active core has headers parked on both
    /// sides of the rotation cursor. Each drop wakes them, credited
    /// through this clock behind the cursor and through the last one
    /// ahead of it.
    #[test]
    fn cores_agree_bit_exactly_under_faults() {
        use irnet_topology::{FaultEvent, FaultKind, FaultPlan};
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 11).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let link = link_fault_epoch(&topo, &r, 500);
        let switch = (0..topo.num_nodes())
            .find_map(|node| {
                let plan = FaultPlan::scripted([FaultEvent::down(500, FaultKind::Switch { node })]);
                full_repair(&topo, &r, &plan).ok().map(|mut e| e.remove(0))
            })
            .expect("some switch fault must be repairable");
        for (epoch, rate) in [(&link, 0.4), (&switch, 0.8)] {
            let run = |core| {
                let cfg = SimConfig {
                    engine_core: core,
                    packet_len: 8,
                    injection_rate: rate,
                    warmup_cycles: 0,
                    measure_cycles: 3_000,
                    deadlock_threshold: 2_000,
                    ..SimConfig::default()
                };
                let mut sim = Simulator::new(r.comm_graph(), r.routing_tables(), cfg, 3);
                sim.schedule_reconfig(epoch);
                sim.run()
            };
            let dense = run(EngineCore::DenseReference);
            let active = run(EngineCore::ActiveSet);
            assert_eq!(
                dense, active,
                "cores diverged under a fault epoch at {rate}"
            );
            assert!(dense.dropped_flits > 0);
        }
    }

    /// Scheduling work is exact per seed, so the active core's parking is
    /// pinned: a regression back to polling every occupied entry fails
    /// here with no wall-clock noise. Re-derive the pin with
    /// `PRINT_ENGINE_GOLDEN=1` after an intentional scheduling change.
    #[test]
    fn work_counters_pin_the_active_core_parking() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 5).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let run = |core| {
            let cfg = SimConfig {
                engine_core: core,
                ..quick_cfg(0.8)
            };
            let mut sim = Simulator::new(r.comm_graph(), r.routing_tables(), cfg, 1);
            assert_eq!(sim.advance(cfg.total_cycles()), Halt::Reached);
            (sim.work_counters(), sim.finish())
        };
        let (dense_work, dense) = run(EngineCore::DenseReference);
        let (active_work, active) = run(EngineCore::ActiveSet);
        assert_eq!(dense, active);
        if std::env::var("PRINT_ENGINE_GOLDEN").is_ok() {
            println!("active {active_work:?}\ndense {dense_work:?}");
        }
        assert_eq!(active_work, ACTIVE_WORK_GOLDEN);
        assert_eq!(active_work.arrival_samples, dense_work.arrival_samples);
        assert!(active_work.crossbar_visits < dense_work.crossbar_visits);
        assert!(active_work.link_visits < dense_work.link_visits);
        assert!(active_work.arbitrations < dense_work.arbitrations);
    }

    /// Idle clocks are jumped, not stepped. A sparse geometric load, a
    /// packet enqueued late, and a switch outage whose failure and
    /// recovery land in idle spells give the driver the same statistics
    /// as calling `step` on every clock, on both cores. The jump is pinned
    /// by the clocks stepped; re-derive with `PRINT_ENGINE_GOLDEN=1`.
    #[test]
    fn idle_clocks_are_jumped_without_changing_the_run() {
        use irnet_topology::{FaultEvent, FaultKind, FaultPlan};
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 5).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let epochs = (0..topo.num_nodes())
            .find_map(|node| {
                let outage = FaultEvent::recovering(30_000, FaultKind::Switch { node }, 50_000);
                full_repair(&topo, &r, &FaultPlan::scripted([outage])).ok()
            })
            .expect("some switch outage must be repairable");
        let mut runs = Vec::new();
        for core in [EngineCore::ActiveSet, EngineCore::DenseReference] {
            let cfg = SimConfig {
                engine_core: core,
                packet_len: 8,
                injection_rate: 0.000_5,
                injection_sampling: InjectionSampling::Geometric,
                warmup_cycles: 1_000,
                measure_cycles: 99_000,
                ..SimConfig::default()
            };
            for per_clock in [false, true] {
                let mut sim = Simulator::new(r.comm_graph(), r.routing_tables(), cfg, 3);
                for e in &epochs {
                    sim.schedule_reconfig(e);
                }
                let advance = |sim: &mut Simulator, to: u32| {
                    if per_clock {
                        while sim.now < to {
                            sim.step();
                        }
                    } else {
                        assert_eq!(sim.advance(to), Halt::Reached);
                    }
                };
                advance(&mut sim, 70_000);
                sim.enqueue_packet(0, 1);
                advance(&mut sim, cfg.total_cycles());
                let clocks = sim.work_counters().clocks;
                runs.push((core, per_clock, clocks, sim.finish()));
            }
        }
        if std::env::var("PRINT_ENGINE_GOLDEN").is_ok() {
            for (core, per_clock, clocks, _) in &runs {
                println!("{core:?} per_clock={per_clock}: {clocks} clocks");
            }
        }
        let stats = &runs[0].3;
        assert_eq!(stats.reconfig_epochs, 2);
        assert!(stats.packets_delivered > 50);
        for (core, per_clock, clocks, run) in &runs {
            assert_eq!(run, stats, "{core:?} per_clock={per_clock}");
            let want = if *per_clock {
                100_000
            } else {
                IDLE_JUMP_CLOCKS
            };
            assert_eq!(*clocks, want, "{core:?} per_clock={per_clock}");
        }
    }

    const IDLE_JUMP_CLOCKS: u64 = 1_320;

    /// The 128-switch, 8-port DOWN/UP paper fabric (topology seed 1000)
    /// with the paper's 128-flit worms, 2000 + 8000 cycles, geometric
    /// arrivals: streaming settles most flit moves without visiting them.
    /// Each pin carries the link plus crossbar visits of the per-flit
    /// active core before streaming, and must stay at least 80% below
    /// them. Re-derive with `PRINT_ENGINE_GOLDEN=1`.
    #[test]
    fn streaming_skips_most_visits_on_the_paper_fabric() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(128, 8), 1000).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        for (rate, want, per_flit_visits) in PAPER_FABRIC_WORK {
            let cfg = SimConfig {
                injection_rate: rate,
                injection_sampling: InjectionSampling::Geometric,
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(r.comm_graph(), r.routing_tables(), cfg, 1);
            assert_eq!(sim.advance(cfg.total_cycles()), Halt::Reached);
            let work = sim.work_counters();
            if std::env::var("PRINT_ENGINE_GOLDEN").is_ok() {
                println!("rate {rate}: {work:?}");
            }
            assert_eq!(work, want, "rate {rate}");
            let visits = work.link_visits + work.crossbar_visits;
            assert!(
                visits * 5 <= per_flit_visits,
                "rate {rate}: {visits} visits against {per_flit_visits} per flit"
            );
        }
    }

    /// (load, pinned counters, link + crossbar visits per flit).
    const PAPER_FABRIC_WORK: [(f64, WorkCounters, u64); 2] = [
        (
            0.1,
            WorkCounters {
                clocks: 9_965,
                link_visits: 29_175,
                crossbar_visits: 42_507,
                arbitrations: 3_988,
                arrival_samples: 1_119,
                streamed_moves: 887_582,
            },
            357_329 + 486_235,
        ),
        (
            0.6,
            WorkCounters {
                clocks: 9_995,
                link_visits: 137_726,
                crossbar_visits: 204_771,
                arbitrations: 26_397,
                arrival_samples: 6_032,
                streamed_moves: 3_885_130,
            },
            1_570_299 + 2_145_854,
        ),
    ];

    const ACTIVE_WORK_GOLDEN: WorkCounters = WorkCounters {
        clocks: 1_800,
        link_visits: 26_739,
        crossbar_visits: 43_402,
        arbitrations: 7_683,
        arrival_samples: 28_800,
        streamed_moves: 3_140,
    };

    /// A wedged ring parks every worm in the active core; the forensics
    /// snapshot must still report the dense core's blocked cycles.
    #[test]
    fn wedged_ring_reports_identical_blocked_worms_on_both_cores() {
        let topo = gen::ring(8).unwrap();
        let tree =
            irnet_topology::CoordinatedTree::build(&topo, irnet_topology::PreorderPolicy::M1, 0)
                .unwrap();
        let cg = irnet_topology::CommGraph::build(&topo, &tree);
        let rt = irnet_turns::RoutingTables::build(&cg, &TurnTable::all_allowed(&cg)).unwrap();
        let run = |core| {
            let cfg = SimConfig {
                engine_core: core,
                packet_len: 16,
                injection_rate: 0.9,
                buffer_depth: 1,
                warmup_cycles: 0,
                measure_cycles: 50_000,
                deadlock_threshold: 2_000,
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(&cg, &rt, cfg, 4);
            let halt = sim.advance(cfg.total_cycles());
            assert_eq!(halt, Halt::Stalled, "the ring must wedge");
            let worms = sim.blocked_worms();
            (worms, sim.finish())
        };
        let (dense_worms, dense) = run(EngineCore::DenseReference);
        let (active_worms, active) = run(EngineCore::ActiveSet);
        assert!(dense_worms.iter().any(|w| w.blocked_cycles > 2_000));
        assert_eq!(dense_worms, active_worms);
        assert_eq!(dense, active);
    }

    /// Collects the `Block` events from clock `from` on.
    struct BlockLog {
        from: u32,
        blocks: Vec<SimEvent>,
    }

    impl Recorder for BlockLog {
        fn record(&mut self, event: &SimEvent) {
            if matches!(event, SimEvent::Block { cycle, .. } if *cycle >= self.from) {
                self.blocks.push(*event);
            }
        }
    }

    /// Headers do not park while a recorder is attached, because every
    /// blocked cycle is a `Block` event; attaching one mid-run wakes the
    /// parked headers with their exact wait so far.
    #[test]
    fn recorder_sees_every_blocked_cycle_of_the_active_core() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 5).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let cfg = quick_cfg(0.8);
        let (rt, cg) = (r.routing_tables(), r.comm_graph());
        let plain = Simulator::new(cg, rt, cfg, 2).run();
        let mut whole = BlockLog {
            from: cfg.warmup_cycles,
            blocks: Vec::new(),
        };
        let mut sim = Simulator::new(cg, rt, cfg, 2);
        sim.attach_recorder(&mut whole);
        let recorded = sim.run();
        assert_eq!(plain, recorded);
        assert_eq!(whole.blocks.len() as u64, recorded.header_block_cycles);

        let attach_at = 800;
        let mut late = BlockLog {
            from: attach_at,
            blocks: Vec::new(),
        };
        let mut sim = Simulator::new(cg, rt, cfg, 2);
        sim.advance(attach_at);
        sim.attach_recorder(&mut late);
        assert_eq!(plain, sim.run());
        whole.blocks.retain(|e| e.cycle() >= attach_at);
        assert!(!late.blocks.is_empty());
        assert_eq!(late.blocks, whole.blocks);
    }

    #[test]
    fn incremental_and_full_repair_swap_identically_mid_run() {
        use irnet_core::{plan_epochs_with, RepairStrategy};
        use irnet_topology::{FaultEvent, FaultKind, FaultPlan};
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 11).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let plan = (0..topo.num_links())
            .find_map(|l| {
                let (a, b) = topo.link(l);
                let plan = FaultPlan::scripted([FaultEvent::down(500, FaultKind::Link { a, b })]);
                topo.degrade(&plan).ok().map(|_| plan)
            })
            .expect("every link is a bridge");
        let run = |strategy| {
            let epochs = plan_epochs_with(
                &topo,
                r.comm_graph(),
                r.turn_table(),
                r.routing_tables(),
                &plan,
                DownUp::new(),
                strategy,
            )
            .unwrap();
            let cfg = SimConfig {
                packet_len: 8,
                injection_rate: 0.4,
                warmup_cycles: 0,
                measure_cycles: 3_000,
                deadlock_threshold: 2_000,
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(r.comm_graph(), r.routing_tables(), cfg, 3);
            for e in &epochs {
                sim.schedule_reconfig(&e.epoch);
            }
            sim.run()
        };
        let full = run(RepairStrategy::Full);
        let incremental = run(RepairStrategy::Incremental);
        assert_eq!(
            full, incremental,
            "strategies handed the simulator different tables"
        );
        assert_eq!(full.reconfig_epochs, 1);
    }

    #[test]
    fn switch_fault_kills_node_and_its_traffic() {
        use irnet_topology::{FaultEvent, FaultKind, FaultPlan};
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 5).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let epoch = (0..topo.num_nodes())
            .find_map(|node| {
                let plan = FaultPlan::scripted([FaultEvent::down(600, FaultKind::Switch { node })]);
                full_repair(&topo, &r, &plan).ok().map(|mut e| e.remove(0))
            })
            .expect("some switch fault must be repairable");
        let dead = epoch.dead_nodes[0] as usize;
        let cfg = SimConfig {
            packet_len: 8,
            injection_rate: 0.2,
            warmup_cycles: 0,
            measure_cycles: 4_000,
            deadlock_threshold: 2_000,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(r.comm_graph(), r.routing_tables(), cfg, 9);
        sim.schedule_reconfig(&epoch);
        let stats = sim.run();
        assert!(!stats.deadlocked);
        assert!(
            stats.dropped_packets > 0,
            "traffic to the dead switch must be purged"
        );
        assert!(stats.packets_delivered > 0);
        // The dead switch neither generates nor receives after the epoch:
        // a healthy node's counters keep growing past any level the dead
        // node could reach in 600 cycles; just check it fell silent
        // relative to the network average.
        let avg = stats.node_flits_delivered.iter().sum::<u64>() / stats.num_nodes as u64;
        assert!(
            stats.node_flits_delivered[dead] < avg,
            "dead node kept receiving"
        );
    }

    #[test]
    fn epoch_after_the_horizon_changes_nothing() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 5).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let epoch = link_fault_epoch(&topo, &r, 1_000_000);
        let baseline = Simulator::new(r.comm_graph(), r.routing_tables(), quick_cfg(0.05), 1).run();
        let mut sim = Simulator::new(r.comm_graph(), r.routing_tables(), quick_cfg(0.05), 1);
        sim.schedule_reconfig(&epoch);
        let scheduled = sim.run();
        assert_eq!(baseline, scheduled, "an unreached epoch perturbed the run");
    }

    #[test]
    fn flit_conservation_with_drops() {
        // Inject for 1000 cycles with a link failing at 500, stop
        // injection, drain: every generated packet was either delivered or
        // dropped, and no flit is left anywhere.
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 5).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let epoch = link_fault_epoch(&topo, &r, 500);
        let cfg = SimConfig {
            packet_len: 8,
            injection_rate: 0.3,
            warmup_cycles: 0,
            measure_cycles: 4_000,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(r.comm_graph(), r.routing_tables(), cfg, 12);
        sim.schedule_reconfig(&epoch);
        sim.advance(1_000);
        sim.set_injection_rate(0.0);
        let halt = sim.drain(21_000);
        assert_eq!(halt, Halt::Drained, "network failed to drain after fault");
        assert_eq!(sim.buffered_flits, 0);
        let generated = sim.packets.len() as u64;
        let stats = sim.finish();
        assert!(stats.dropped_packets > 0);
        assert_eq!(stats.packets_delivered + stats.dropped_packets, generated);
    }

    #[test]
    fn flit_conservation_when_drained() {
        // With injection only in the first half and enough time to drain,
        // everything generated must be delivered.
        let topo = gen::random_irregular(gen::IrregularParams::paper(10, 4), 4).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let cfg = SimConfig {
            packet_len: 4,
            injection_rate: 0.02,
            warmup_cycles: 0,
            measure_cycles: 4_000,
            ..SimConfig::default()
        };
        // Inject for 1000 cycles, then drain.
        let mut sim = Simulator::new(r.comm_graph(), r.routing_tables(), cfg, 12);
        sim.advance(1_000);
        // Stop generating and drain.
        sim.set_injection_rate(0.0);
        assert_eq!(sim.drain(21_000), Halt::Drained, "network failed to drain");
        assert_eq!(sim.buffered_flits, 0);
        let generated = sim.packets.len() as u64;
        assert_eq!(sim.flits_delivered, generated * 4);
        assert_eq!(sim.packets_delivered, generated);
    }
}
