//! Stage 1 — analytic channel decomposition.
//!
//! From a communication graph and a turn table alone (no routing tables,
//! no flit simulation), compute the offered load every channel would carry
//! under uniform traffic at unit injection rate. The computation mirrors
//! the simulator's `RouteChoice::AdaptiveRandom` semantics: at every hop a
//! packet picks uniformly among the minimal-cost turn-legal output ports,
//! so traffic splits as equal fractional flow over the minimal-route DAG.
//!
//! Per destination `t` this is two linear passes:
//!
//! 1. the cost kernel [`Preds::fill_costs`] — the reverse BFS over the
//!    channel-dependency-graph transpose that fills
//!    [`irnet_turns::RoutingTables`] — gives `cost(c, t)`, in one-byte
//!    cells while every cost fits (the first larger cost redoes the whole
//!    decomposition at two bytes);
//! 2. processing channels in decreasing cost order makes the minimal-route
//!    DAG topological, so each channel's inflow (injection plus transit)
//!    can be split equally among its minimal turn-legal successors in one
//!    sweep.
//!
//! Destinations are independent, so they run on worker threads; the
//! calling thread adds each finished destination into the totals strictly
//! in destination order, so every floating-point sum is the serial one and
//! the result is bit-identical at any worker count.
//!
//! Working entirely per destination keeps memory at O(channels) scratch
//! per worker, which is what lets the flow backend decompose fabrics the
//! routing-table build cannot even allocate for (65k+ switches). For such
//! fabrics a deterministic stride sample of destinations is used and the
//! totals are rescaled.

use irnet_topology::{ChannelId, CommGraph, NodeId};
use irnet_turns::{
    auto_workers, lowest_port_route, ChannelDepGraph, Cost, CostOverflow, Preds, TurnTable,
    INJECTION_SLOT,
};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};

/// Per-channel offered load under uniform traffic at unit injection rate
/// (1 flit/node/clock offered by every switch).
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// `unit_load[c]` — flits/clock channel `c` carries per unit injection.
    pub unit_load: Vec<f64>,
    /// Destinations actually walked.
    pub dests_sampled: u32,
    /// Total destinations in the fabric.
    pub total_dests: u32,
    /// Flow-weighted mean hop count of a packet (channels traversed).
    pub avg_hops: f64,
    /// Channels given a finite cost, summed over the walked destinations:
    /// the decomposition's work, the same at every worker count.
    pub channels_walked: u64,
}

impl Decomposition {
    /// The most loaded channel and its unit load (lowest id on ties).
    pub fn bottleneck(&self) -> (ChannelId, f64) {
        let mut best = (0u32, 0.0f64);
        for (c, &w) in self.unit_load.iter().enumerate() {
            if w > best.1 {
                best = (c as ChannelId, w);
            }
        }
        best
    }
}

/// Shared per-fabric state for destination-sliced cost/flow queries: the
/// transpose of the channel dependency graph and each channel's
/// turn-legal successor ports, built once.
pub struct Decomposer<'a> {
    cg: &'a CommGraph,
    table: &'a TurnTable,
    preds: Preds,
    /// `next_ports[c]`: the output ports of `sink(c)` a packet arriving
    /// on `c` may take.
    next_ports: Vec<u16>,
}

/// One destination's working set: its cost row, the flow on every
/// channel, and the channels it reached (`order`), which after the pass
/// are in the order their flow is summed. [`Decomposer::dest`] resets it.
struct Scratch<C> {
    cost: Vec<C>,
    flow: Vec<f64>,
    order: Vec<ChannelId>,
}

impl<C: Cost> Scratch<C> {
    fn new(nch: usize) -> Scratch<C> {
        Scratch {
            cost: vec![C::INF; nch],
            flow: vec![0.0; nch],
            order: Vec::with_capacity(nch + 1),
        }
    }
}

/// The running sums of a decomposition, added to strictly in destination
/// order.
struct Totals {
    unit_load: Vec<f64>,
    hops_sum: f64,
    channels: u64,
}

impl Totals {
    /// Adds one finished destination: every channel's flow into its load
    /// (an unreached channel adds `+0.0`, which changes no load), and each
    /// positive flow into the hop sum, in the destination's summation
    /// order.
    fn merge<C>(&mut self, s: &Scratch<C>) {
        for (w, &f) in self.unit_load.iter_mut().zip(&s.flow) {
            *w += f;
        }
        for &c in &s.order {
            let f = s.flow[c as usize];
            if f > 0.0 {
                self.hops_sum += f;
            }
        }
        self.channels += s.order.len() as u64;
    }
}

/// The mask of the ports whose output channel costs `k`, in one
/// branch-free scan: which ports match is data-dependent and
/// unpredictable.
#[inline]
fn ports_at<C: Cost>(cost: &[C], outs: &[ChannelId], k: C) -> u32 {
    outs.iter()
        .enumerate()
        .fold(0, |m, (p, &c)| m | (u32::from(cost[c as usize] == k) << p))
}

/// Adds `share` to the flow of every port of `mask`, in port order.
#[inline]
fn split(flow: &mut [f64], outs: &[ChannelId], mut mask: u32, share: f64) {
    while mask != 0 {
        flow[outs[mask.trailing_zeros() as usize] as usize] += share;
        mask &= mask - 1;
    }
}

impl<'a> Decomposer<'a> {
    /// Builds the dependency graph's transpose for `cg` + `table`.
    pub fn new(cg: &'a CommGraph, table: &'a TurnTable) -> Decomposer<'a> {
        let ch = cg.channels();
        Decomposer {
            cg,
            table,
            preds: Preds::build(&ChannelDepGraph::build(cg, table)),
            next_ports: (0..cg.num_channels())
                .map(|c| table.mask(ch.sink(c), ch.in_port(c)))
                .collect(),
        }
    }

    /// The communication graph this decomposer was built over.
    pub fn comm_graph(&self) -> &CommGraph {
        self.cg
    }

    /// Per-channel cost to destination `t`: the minimal number of channels
    /// still to traverse given the packet traverses that channel first
    /// (`u16::MAX` = unreachable). The cost kernel
    /// [`Preds::fill_costs`] that [`irnet_turns::RoutingTables`] is filled
    /// by, so the costs match the tables' exactly.
    pub fn costs_for(&self, t: NodeId) -> Vec<u16> {
        let mut row = Vec::new();
        self.costs_into(t, &mut row, &mut Vec::new());
        row
    }

    /// [`Decomposer::costs_for`] into a reused `row` and search queue.
    pub(crate) fn costs_into(&self, t: NodeId, row: &mut Vec<u16>, queue: &mut Vec<ChannelId>) {
        row.clear();
        row.resize(self.cg.num_channels() as usize, u16::MAX);
        self.preds
            .fill_costs(self.cg.channels(), t, None, row, queue)
            .expect("u16 cells hold every cost");
    }

    /// The deterministic lowest-port minimal route from `s` to `t`, given
    /// `costs` = [`Decomposer::costs_for`]`(t)`: the walk
    /// [`irnet_turns::RoutingTables::route`] takes. Returns `None` when `t`
    /// is unreachable from `s`.
    pub fn route(&self, costs: &[u16], s: NodeId, t: NodeId) -> Option<Vec<ChannelId>> {
        let ch = self.cg.channels();
        let allowed = |v: NodeId, slot: usize| {
            if slot == INJECTION_SLOT {
                ((1u32 << ch.outputs(v).len()) - 1) as u16
            } else {
                self.table.mask(v, (slot - 1) as u8)
            }
        };
        lowest_port_route(ch, costs, allowed, s, t)
    }

    /// Runs the decomposition. At most `max_dests` destinations are walked
    /// (0 = all): when sampling, destinations are taken at a fixed stride
    /// and the accumulated loads rescaled by `n / sampled`, which is
    /// deterministic and unbiased under the uniform traffic matrix.
    ///
    /// Destinations run on [`irnet_turns::auto_workers`] threads, as the
    /// routing-table fill does; the result is bit-identical at every
    /// worker count.
    pub fn decompose(&self, max_dests: usize) -> Decomposition {
        self.decompose_on(max_dests, auto_workers(self.cg.num_nodes()))
    }

    /// [`Decomposer::decompose`] on `workers` threads (1 = serial).
    pub(crate) fn decompose_on(&self, max_dests: usize, workers: usize) -> Decomposition {
        let n = self.cg.num_nodes();
        let dests: Vec<NodeId> = if max_dests == 0 || n as usize <= max_dests {
            (0..n).collect()
        } else {
            // Evenly strided sample, always including destination 0.
            (0..max_dests)
                .map(|j| ((j as u64 * n as u64) / max_dests as u64) as NodeId)
                .collect()
        };

        // One-byte cells first; a finite cost above 254 redoes the whole
        // decomposition at two bytes. The costs, and so every sum, are the
        // same at both widths.
        let Totals {
            mut unit_load,
            hops_sum,
            channels,
        } = match self.sweep::<u8>(&dests, workers) {
            Ok(totals) => totals,
            Err(CostOverflow) => self
                .sweep::<u16>(&dests, workers)
                .expect("u16 cells hold every cost"),
        };

        let sampled = dests.len() as u32;
        let scale = if sampled == 0 {
            0.0
        } else {
            n as f64 / sampled as f64
        };
        for w in &mut unit_load {
            *w *= scale;
        }
        // hops_sum counts flow-weighted channel traversals for `sampled`
        // destinations; each destination receives unit total packet rate.
        let avg_hops = if sampled == 0 {
            0.0
        } else {
            hops_sum / sampled as f64
        };

        Decomposition {
            unit_load,
            dests_sampled: sampled,
            total_dests: n,
            avg_hops,
            channels_walked: channels,
        }
    }

    /// Every destination of `dests` at cell width `C`, on `workers`
    /// threads, merged in `dests` order.
    ///
    /// In parallel the caller allocates `workers + 1` scratch sets and
    /// hands each out with the next destination. A worker runs the
    /// destination and sends the set back; the caller merges finished
    /// destinations strictly in order and hands each freed set out again.
    /// So a worker runs ahead of the merge by at most the spare set, no
    /// thread waits at a barrier, and every floating-point sum is made in
    /// the serial order.
    fn sweep<C: Cost>(&self, dests: &[NodeId], workers: usize) -> Result<Totals, CostOverflow> {
        let nch = self.cg.num_channels() as usize;
        let mut totals = Totals {
            unit_load: vec![0.0; nch],
            hops_sum: 0.0,
            channels: 0,
        };
        if workers <= 1 || dests.len() <= 1 {
            let mut s = Scratch::<C>::new(nch);
            for &t in dests {
                self.dest(t, &mut s)?;
                totals.merge(&s);
            }
            return Ok(totals);
        }

        type Done<C> = (
            usize,
            std::thread::Result<Result<(), CostOverflow>>,
            Scratch<C>,
        );
        let (job_tx, job_rx) = mpsc::sync_channel::<(usize, Scratch<C>)>(workers + 1);
        let (done_tx, done_rx) = mpsc::sync_channel::<Done<C>>(workers + 1);
        let job_rx = Mutex::new(job_rx);
        std::thread::scope(|sc| {
            for _ in 0..workers {
                let (job_rx, done_tx) = (&job_rx, done_tx.clone());
                sc.spawn(move || loop {
                    let job = job_rx.lock().expect("job queue lock").recv();
                    let Ok((i, mut s)) = job else { break };
                    // A panic goes back to the caller with the set, so
                    // the caller never waits for a destination that died.
                    let r = panic::catch_unwind(AssertUnwindSafe(|| self.dest(dests[i], &mut s)));
                    if done_tx.send((i, r, s)).is_err() {
                        break;
                    }
                });
            }
            drop(done_tx);
            let job_tx = job_tx; // dropped on return: idle workers then exit
            let mut next = 0;
            while next < dests.len().min(workers + 1) {
                job_tx
                    .send((next, Scratch::new(nch)))
                    .expect("workers alive");
                next += 1;
            }
            let mut finished = BTreeMap::new();
            for merged in 0..dests.len() {
                let s = loop {
                    if let Some(s) = finished.remove(&merged) {
                        break s;
                    }
                    let (i, r, s) = done_rx.recv().expect("workers alive");
                    match r {
                        Ok(r) => r?,
                        Err(payload) => panic::resume_unwind(payload),
                    }
                    finished.insert(i, s);
                };
                totals.merge(&s);
                if next < dests.len() {
                    job_tx.send((next, s)).expect("workers alive");
                    next += 1;
                }
            }
            Ok(totals)
        })
    }

    /// One destination's flow into `s`: costs by the shared kernel, then
    /// injection and transit splits. Leaves `s.order` in decreasing cost,
    /// the order [`Totals::merge`] sums in.
    fn dest<C: Cost>(&self, t: NodeId, s: &mut Scratch<C>) -> Result<(), CostOverflow> {
        let n = self.cg.num_nodes();
        let ch = self.cg.channels();
        let Scratch { cost, flow, order } = s;
        cost.fill(C::INF);
        flow.fill(0.0);
        self.preds.fill_costs(ch, t, None, cost, order)?;

        // Injection: every source splits its rate equally among its
        // minimal-cost output ports (the injection slot allows all).
        let pair_rate = if n > 1 { 1.0 / (n as f64 - 1.0) } else { 0.0 };
        for v in (0..n).filter(|&v| v != t) {
            let outs = ch.outputs(v);
            let best = outs.iter().map(|&c| cost[c as usize]).min();
            let Some(best) = best.filter(|&k| k != C::INF) else {
                continue; // disconnected pair: certified fabrics never hit this
            };
            let min = ports_at(cost, outs, best);
            split(flow, outs, min, pair_rate / f64::from(min.count_ones()));
        }

        // Transit: decreasing cost order is topological on the
        // minimal-route DAG (each hop reduces cost by exactly 1).
        order.sort_unstable_by_key(|&c| Reverse(cost[c as usize]));
        for &c in order.iter() {
            let f = flow[c as usize];
            let v = ch.sink(c);
            if f <= 0.0 || v == t {
                continue; // no flow, or delivered
            }
            // No turn-legal successor costs less than one below `c`, and
            // the minimal ones cost exactly that.
            let k = cost[c as usize].get() - 1;
            let outs = ch.outputs(v);
            let min = ports_at(cost, outs, C::fit(k).expect("a smaller cost fits"))
                & u32::from(self.next_ports[c as usize]);
            debug_assert!(min != 0, "cost-{} channel with no minimal successor", k + 1);
            if min != 0 {
                split(flow, outs, min, f / f64::from(min.count_ones()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irnet_core::DownUp;
    use irnet_topology::gen;

    /// Every bit of a decomposition, for comparing two of them.
    fn bits(dec: &Decomposition) -> (Vec<u64>, u64, u32, u64) {
        (
            dec.unit_load.iter().map(|w| w.to_bits()).collect(),
            dec.avg_hops.to_bits(),
            dec.dests_sampled,
            dec.channels_walked,
        )
    }

    /// The decomposer's costs are the routing tables', on a one-byte
    /// fabric and on a 300-switch ring whose DOWN/UP routes need two-byte
    /// costs, so the one-byte pass overflows and the decomposition is
    /// redone wide — the same at one and two workers.
    #[test]
    fn costs_match_routing_tables() {
        let irregular = gen::random_irregular(gen::IrregularParams::paper(40, 4), 2).unwrap();
        for (topo, wide) in [(irregular, false), (gen::ring(300).unwrap(), true)] {
            let r = DownUp::new().construct(&topo).unwrap();
            let d = Decomposer::new(r.comm_graph(), r.turn_table());
            let mut longest = 0;
            for t in 0..topo.num_nodes() {
                let costs = d.costs_for(t);
                for c in 0..r.comm_graph().num_channels() {
                    assert_eq!(
                        costs[c as usize],
                        r.routing_tables().cost(t, c),
                        "t={t} c={c}"
                    );
                }
                longest = longest.max(
                    costs
                        .iter()
                        .copied()
                        .filter(|&k| k != u16::MAX)
                        .max()
                        .unwrap(),
                );
            }
            assert_eq!(longest > 254, wide, "longest cost {longest}");
            let serial = d.decompose_on(0, 1);
            assert_eq!(bits(&serial), bits(&d.decompose_on(0, 2)));
            assert!(serial.avg_hops >= 1.0);
        }
    }

    #[test]
    fn flow_is_conserved() {
        // Total flow-hops / destination equals avg hops; every channel load
        // is non-negative and the per-node delivered rate sums to n·unit.
        let topo = gen::random_irregular(gen::IrregularParams::paper(32, 4), 5).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let d = Decomposer::new(r.comm_graph(), r.turn_table());
        let dec = d.decompose(0);
        assert_eq!(dec.dests_sampled, 32);
        assert!(dec.avg_hops >= 1.0, "avg hops {}", dec.avg_hops);
        assert!(dec.unit_load.iter().all(|&w| w >= 0.0));
        // Sum of channel loads == total flow-hops == n * avg_hops (each
        // node offers unit rate).
        let sum: f64 = dec.unit_load.iter().sum();
        assert!(
            (sum - 32.0 * dec.avg_hops).abs() < 1e-6,
            "sum {sum} vs {}",
            32.0 * dec.avg_hops
        );
    }

    #[test]
    fn sampled_decomposition_approximates_full() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(64, 4), 7).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let d = Decomposer::new(r.comm_graph(), r.turn_table());
        let full = d.decompose(0);
        let half = d.decompose(32);
        assert_eq!(half.dests_sampled, 32);
        let (bf, wf) = full.bottleneck();
        let wh = half.unit_load[bf as usize];
        assert!(
            (wh - wf).abs() / wf < 0.5,
            "sampled bottleneck load {wh} vs full {wf}"
        );
    }

    #[test]
    fn route_is_minimal_and_connected() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(24, 4), 3).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let d = Decomposer::new(r.comm_graph(), r.turn_table());
        let ch = r.comm_graph().channels();
        for t in [0u32, 5, 17] {
            let costs = d.costs_for(t);
            for s in 0..topo.num_nodes() {
                if s == t {
                    continue;
                }
                let path = d.route(&costs, s, t).expect("connected");
                assert_eq!(
                    path.len() as u16,
                    r.routing_tables().route_len(r.comm_graph(), s, t)
                );
                let mut v = s;
                for &c in &path {
                    assert_eq!(ch.start(c), v);
                    v = ch.sink(c);
                }
                assert_eq!(v, t);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 12,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Any worker count gives the serial decomposition bit for bit,
        /// with every destination or a strided sample of them.
        #[test]
        fn every_worker_count_matches_the_serial_decomposition(
            n in 8u32..90,
            ports in 3u32..9,
            seed in 0u64..10_000,
            sampled in proptest::bool::ANY,
        ) {
            let topo = gen::random_irregular(gen::IrregularParams::paper(n, ports), seed).unwrap();
            let (_tree, cg, table, _) = DownUp::new().construct_phases(&topo).unwrap();
            let d = Decomposer::new(&cg, &table);
            let max_dests = if sampled { (n as usize / 3).max(1) } else { 0 };
            let serial = bits(&d.decompose_on(max_dests, 1));
            for workers in [2, 3, 8] {
                proptest::prop_assert_eq!(&serial, &bits(&d.decompose_on(max_dests, workers)));
            }
        }
    }

    /// FNV-1a over the bits of every channel's unit load, then the mean
    /// hop count.
    fn digest(dec: &Decomposition) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in dec.unit_load.iter().chain([&dec.avg_hops]) {
            h ^= v.to_bits();
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Golden pin at the `flow-2048` benchmark's size: 2048-switch, 8-port
    /// fabrics 0–3 (Phases 1–3 only) sampled at 512 destinations, as the
    /// flow predictor does by default. Seconds in release mode:
    /// `cargo test --release -p irnet-flow -- --ignored`.
    #[test]
    #[ignore = "2048-switch fabrics; run in release with --ignored"]
    fn decomposition_is_pinned_on_2048_switch_fabrics() {
        let want: [u64; 4] = [
            0x4110_e85b_15ec_3fa3,
            0x966c_52f6_9b3c_b720,
            0x8342_bfd3_fffa_957d,
            0xa45a_78d4_bfe1_2d64,
        ];
        let got: Vec<u64> = (0..4u64)
            .map(|seed| {
                let topo =
                    gen::random_irregular(gen::IrregularParams::paper(2048, 8), seed).unwrap();
                let (_tree, cg, table, _) = DownUp::new().construct_phases(&topo).unwrap();
                let dec = Decomposer::new(&cg, &table).decompose(512);
                assert_eq!(dec.dests_sampled, 512);
                digest(&dec)
            })
            .collect();
        assert_eq!(got, want, "{got:#x?}");
    }
}
