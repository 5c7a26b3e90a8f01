//! Stages 3 & 4 — representative simulation and generalization.
//!
//! For every channel cluster the active-set flit engine runs once, on a
//! small neighborhood extracted around the cluster's representative
//! channel, driven so the representative carries the cluster's offered
//! load. The run's latency histogram becomes a per-hop delay [`EDist`];
//! sampled deterministic routes are then convolved hop-by-hop and mixed
//! into a network-wide latency distribution, while the bottleneck
//! cluster's measured channel capacity turns the analytic unit loads into
//! a saturation-throughput prediction.
//!
//! Determinism: destinations, sampled routes, cluster order, and every
//! representative-sim seed derive only from the caller's seed, the fabric,
//! and totally ordered [`Signature`]s — never from hash iteration order or
//! the clock — so a fixed seed reproduces the prediction bit-for-bit.

use crate::cluster::{ChannelClasses, Signature, IDLE_BUCKET};
use crate::decompose::{Decomposer, Decomposition};
use crate::edist::{convolve_rows, unit_mixture, EDist, MixScratch, ROW};
use crate::neighborhood::extract;
use irnet_core::{DownUp, DownUpRouting};
use irnet_sim::{ArrivalProcess, InjectionSampling, SimConfig, SimStats, Simulator};
use irnet_telemetry::Telemetry;
use irnet_topology::{ChannelId, CommGraph, CoordinatedTree, NodeId, Topology};
use irnet_turns::TurnTable;
use serde::Serialize;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Tuning knobs for the flow-level backend. The defaults are what
/// `flow_validate` calibrates against the exact engine.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Decomposition destination cap (0 = walk every destination). Large
    /// fabrics use a deterministic stride sample of this size.
    pub max_dests: usize,
    /// Neighborhood BFS radius around a representative channel.
    pub radius: u32,
    /// Neighborhood node cap.
    pub max_neighborhood: usize,
    /// Number of deterministic source/destination pairs whose routes are
    /// convolved for the latency prediction.
    pub route_sample: usize,
    /// BFS radius of the (single) saturation-probe neighborhood — larger
    /// than the per-cluster radius because capacity extrapolates from it.
    pub sat_radius: u32,
    /// Node cap of the saturation-probe neighborhood.
    pub sat_neighborhood: usize,
    /// Warmup cycles per capacity-probe sim — longer than the per-cluster
    /// warmup so queues reach steady state before throughput is measured.
    pub sat_warmup: u32,
    /// Measured cycles per capacity-probe sim — long enough for the
    /// accepted-traffic transient (buffers filling) to wash out.
    pub sat_measure: u32,
    /// Warmup cycles per representative sim.
    pub rep_warmup: u32,
    /// Measured cycles per representative sim.
    pub rep_measure: u32,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            max_dests: 512,
            radius: 2,
            max_neighborhood: 40,
            route_sample: 48,
            sat_radius: 6,
            sat_neighborhood: 144,
            sat_warmup: 1_500,
            sat_measure: 8_000,
            rep_warmup: 400,
            rep_measure: 2500,
        }
    }
}

/// One predicted operating point.
#[derive(Debug, Clone, Serialize)]
pub struct FlowPoint {
    /// Offered load (flits/node/clock).
    pub offered: f64,
    /// Predicted accepted traffic: `min(offered, saturation)`.
    pub accepted: f64,
    /// Predicted mean packet latency (cycles).
    pub mean_latency: f64,
    /// Predicted median packet latency.
    pub median_latency: f64,
    /// Predicted 99th-percentile packet latency.
    pub p99_latency: f64,
    /// Whether the offered load exceeds the predicted saturation point
    /// (latency figures then describe the saturated regime and are
    /// best-effort).
    pub saturated: bool,
}

/// A predicted latency/throughput curve plus the evidence that produced
/// it.
#[derive(Debug, Clone, Serialize)]
pub struct FlowCurve {
    /// One point per requested offered load, in order.
    pub points: Vec<FlowPoint>,
    /// Predicted saturation throughput (flits/node/clock).
    pub sat_throughput: f64,
    /// Cluster count at the last requested load.
    pub cluster_count: usize,
    /// Representative flit sims actually run (cache hits excluded).
    pub representative_sims: usize,
    /// The most loaded channel.
    pub bottleneck_channel: ChannelId,
    /// Its offered load per unit injection rate.
    pub bottleneck_unit_load: f64,
    /// Destinations the decomposition walked (may be a sample).
    pub dests_sampled: u32,
}

impl FlowCurve {
    /// Maximum predicted accepted traffic over the curve.
    pub fn max_throughput(&self) -> f64 {
        self.points.iter().map(|p| p.accepted).fold(0.0, f64::max)
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic per-signature simulation seed (explicit mixing — not
/// `Hash`, whose output is not stable across releases).
fn sig_seed(seed: u64, sig: Signature) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for v in [
        u64::from(sig.dir_class),
        u64::from(sig.level),
        u64::from(sig.port_class),
        sig.load_bucket as i64 as u64,
    ] {
        h ^= v
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(h << 6)
            .wrapping_add(h >> 2);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Route convolutions shared by prefix: node `i` holds the left fold
/// `constant(0) ⊛ h[k0] ⊛ … ⊛ h[ki]` of one sorted hop-signature prefix —
/// the order a route's convolution runs in — and node 0 the empty one.
struct RouteTrie {
    /// `(parent, next signature) → child`.
    children: BTreeMap<(u32, Signature), u32>,
    /// Node `i`'s quantile row is `rows[i * ROW..(i + 1) * ROW]`: one flat
    /// arena, not a heap block per node.
    rows: Vec<f64>,
    /// `ended[i]`: some route's full multiset was node `i`'s prefix.
    ended: Vec<bool>,
}

impl RouteTrie {
    fn new() -> RouteTrie {
        RouteTrie {
            children: BTreeMap::new(),
            rows: EDist::constant(0.0).row().to_vec(),
            ended: vec![false],
        }
    }

    /// Finds or makes the node of `key` (sorted), convolving `hops[sig]`
    /// onto each prefix not yet stored, and marks it as a route's end.
    /// Returns the node, the convolutions run, the midpoint run pairs
    /// they binned, and whether a route had already ended there.
    fn insert(
        &mut self,
        key: &[Signature],
        hops: &BTreeMap<Signature, EDist>,
    ) -> (u32, usize, usize, bool) {
        let mut node = 0u32;
        let (mut convolutions, mut pairs) = (0, 0);
        for &sig in key {
            node = match self.children.entry((node, sig)) {
                Entry::Occupied(child) => *child.get(),
                Entry::Vacant(slot) => {
                    let parent = node as usize * ROW;
                    let mut row = [0.0; ROW];
                    pairs +=
                        convolve_rows(&self.rows[parent..parent + ROW], hops[&sig].row(), &mut row);
                    self.rows.extend_from_slice(&row);
                    self.ended.push(false);
                    convolutions += 1;
                    *slot.insert((self.ended.len() - 1) as u32)
                }
            };
        }
        let seen = std::mem::replace(&mut self.ended[node as usize], true);
        (node, convolutions, pairs, seen)
    }

    /// Node `node`'s quantile row.
    fn row(&self, node: u32) -> &[f64] {
        let start = node as usize * ROW;
        &self.rows[start..start + ROW]
    }

    /// Payload bytes: the rows and end marks of the arena, and one key
    /// and value per child-map entry.
    fn bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<f64>()
            + self.ended.len()
            + self.children.len() * std::mem::size_of::<((u32, Signature), u32)>()
    }
}

/// A reusable flow-level predictor: [`FlowPredictor::build`] pays the
/// one-time cost (analytic decomposition, saturation probe, route sample),
/// after which [`FlowPredictor::point`] evaluates any operating point from
/// clustering + convolution alone — milliseconds per query once the
/// per-signature hop cache is warm, against seconds per flit run for the
/// exact engine.
pub struct FlowPredictor<'a> {
    topo: &'a Topology,
    base: &'a SimConfig,
    cfg: FlowConfig,
    seed: u64,
    plen: u32,
    dec: Decomposition,
    /// The fabric's channel classes, each in unit-load order.
    classes: ChannelClasses,
    sat_throughput: f64,
    routes: Vec<Vec<ChannelId>>,
    /// Per-signature hop delay distributions (filled lazily by queries).
    hop_cache: BTreeMap<Signature, EDist>,
    /// Route convolutions, keyed by the sorted multiset of contended hop
    /// signatures along a route and shared by prefix.
    trie: RouteTrie,
    cluster_count: usize,
    representative_sims: usize,
    /// Queries answered from the per-signature hop cache instead of a
    /// fresh representative sim.
    rep_sim_cache_hits: usize,
    /// Route convolutions served from / missing the route cache.
    route_cache_hits: usize,
    route_cache_misses: usize,
    /// Kernel convolutions run to extend the route trie.
    route_convolutions: usize,
    /// Midpoint run pairs those convolutions binned.
    convolve_pairs: usize,
    /// Keys the mixtures' rank selections sorted.
    mixture_sorted_keys: usize,
    /// The mixture's key buffers, reused by every query.
    mix_scratch: MixScratch,
    /// Telemetry sink: [`irnet_telemetry::current`] when the predictor
    /// was built. Strictly observational.
    tel: Telemetry,
}

impl<'a> FlowPredictor<'a> {
    /// Builds the predictor: Stage 1 decomposition, the saturation probe,
    /// and the deterministic route sample. Works from the Phase-1..3
    /// artifacts only (no [`irnet_turns::RoutingTables`] required), which
    /// is what makes 65k-switch fabrics reachable.
    ///
    /// The predictor keeps the [`irnet_telemetry::current`] handle of the
    /// building thread: decomposition and representative-sim time land in
    /// its span tree (`flow/decompose`, `flow/rep_sim`), and the cache
    /// behavior — per-signature rep-sim hits/misses, route-convolution
    /// cache hits/misses, the convolutions run
    /// (`flow/route_convolutions`), the midpoint run pairs they binned
    /// (`flow/convolve_pairs`), the route trie's size
    /// (`flow/route_trie_bytes`) and the keys each query's mixture sorted
    /// (`flow/mixture_sorted_keys`, timed by the `flow/mixture` span) —
    /// accumulates there as it serves queries. The decomposition's work
    /// goes to the counters `flow/decompose_dests` and
    /// `flow/decompose_channels` (channels given a cost, summed over
    /// destinations), the clocks every probe and representative sim steps
    /// to `flow/rep_sim_clocks`, the saturation probe's decision to the
    /// `flow/sat_*` gauges, and the route sample's size and longest route
    /// (hops) to the gauges `flow/routes` and `flow/route_hops_max`.
    pub fn build(
        topo: &'a Topology,
        tree: &'a CoordinatedTree,
        cg: &'a CommGraph,
        table: &TurnTable,
        base: &'a SimConfig,
        seed: u64,
        cfg: &FlowConfig,
    ) -> FlowPredictor<'a> {
        let tel = irnet_telemetry::current();
        let n = cg.num_nodes();
        let plen = base.packet_len.max(1);

        // Stage 1: analytic per-channel loads.
        let decompose = tel.span("flow/decompose");
        let dx = Decomposer::new(cg, table);
        let dec = dx.decompose(cfg.max_dests);
        let (bneck, w_max) = dec.bottleneck();
        decompose.finish();
        tel.counter("flow/decompose_dests")
            .add(u64::from(dec.dests_sampled));
        tel.counter("flow/decompose_channels")
            .add(dec.channels_walked);

        // Saturation: drive the bottleneck channel's neighborhood hard and
        // measure what it actually sustains.
        let rep_sim = tel.span("flow/rep_sim");
        let (sat_throughput, probe_sims) =
            measure_saturation(topo, base, bneck, w_max, seed, cfg, &tel);
        rep_sim.finish();
        tel.counter("flow/rep_sims").add(probe_sims as u64);

        // Deterministic route sample, shared by all rates (routes are
        // load-independent).
        let mut rng = seed ^ 0xD1B5_4A32_D192_ED03;
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        if n > 1 {
            while pairs.len() < cfg.route_sample {
                let s = (splitmix(&mut rng) % u64::from(n)) as NodeId;
                let t = (splitmix(&mut rng) % u64::from(n)) as NodeId;
                if s != t {
                    pairs.push((s, t));
                }
            }
        }
        // Visit the pairs grouped by destination so one cost row serves
        // each group, then keep the routes in pair order.
        let mut by_dest: Vec<usize> = (0..pairs.len()).collect();
        by_dest.sort_by_key(|&i| pairs[i].1);
        let mut routes: Vec<Option<Vec<ChannelId>>> = vec![None; pairs.len()];
        let (mut row, mut queue, mut row_dest) = (Vec::new(), Vec::new(), None);
        for i in by_dest {
            let (s, t) = pairs[i];
            if row_dest != Some(t) {
                dx.costs_into(t, &mut row, &mut queue);
                row_dest = Some(t);
            }
            routes[i] = dx.route(&row, s, t);
        }
        let routes: Vec<Vec<ChannelId>> = routes.into_iter().flatten().collect();
        // Without a route no traffic flows, so none is accepted.
        let sat_throughput = if routes.is_empty() {
            0.0
        } else {
            sat_throughput
        };
        tel.gauge("flow/routes").set(routes.len() as f64);
        tel.gauge("flow/route_hops_max")
            .set(routes.iter().map(Vec::len).max().unwrap_or(0) as f64);

        FlowPredictor {
            topo,
            base,
            cfg: cfg.clone(),
            seed,
            plen,
            classes: ChannelClasses::new(cg, tree, &dec.unit_load),
            dec,
            sat_throughput,
            routes,
            hop_cache: BTreeMap::new(),
            trie: RouteTrie::new(),
            cluster_count: 0,
            representative_sims: probe_sims,
            rep_sim_cache_hits: 0,
            route_cache_hits: 0,
            route_cache_misses: 0,
            route_convolutions: 0,
            convolve_pairs: 0,
            mixture_sorted_keys: 0,
            mix_scratch: MixScratch::default(),
            tel,
        }
    }

    /// The predicted saturation throughput (flits/node/clock); 0 without
    /// a route.
    pub fn saturation(&self) -> f64 {
        self.sat_throughput
    }

    /// The analytic decomposition the predictor was built from.
    pub fn decomposition(&self) -> &Decomposition {
        &self.dec
    }

    /// Representative flit sims run so far (probe + per-signature).
    pub fn sims_run(&self) -> usize {
        self.representative_sims
    }

    /// Queries whose channel signature was already covered by a previous
    /// representative sim — the per-signature cache doing its job.
    pub fn rep_sim_cache_hits(&self) -> usize {
        self.rep_sim_cache_hits
    }

    /// Route convolutions served straight from the route cache.
    pub fn route_cache_hits(&self) -> usize {
        self.route_cache_hits
    }

    /// Route convolutions whose full hop-signature multiset was new.
    pub fn route_cache_misses(&self) -> usize {
        self.route_cache_misses
    }

    /// Kernel convolutions run for the routes: one per hop signature past
    /// the longest prefix of a route's multiset that an earlier route
    /// already convolved.
    pub fn route_convolutions(&self) -> usize {
        self.route_convolutions
    }

    /// Midpoint run pairs the route convolutions binned: each convolution
    /// bins one per pair of runs of bit-identical midpoints in its two
    /// rows, at most `64²`, and none when either row is a point mass.
    pub fn convolve_pairs(&self) -> usize {
        self.convolve_pairs
    }

    /// Midpoint keys the route mixtures put in order: each query's
    /// selection sorts only the key-range buckets that hold one of its
    /// 65 quantiles, at most 64 keys per route, and none when every
    /// midpoint is the same.
    pub fn mixture_sorted_keys(&self) -> usize {
        self.mixture_sorted_keys
    }

    /// Predicts one operating point. The first queries run one
    /// neighborhood flit sim per previously unseen channel signature;
    /// once the signature cache covers the requested load regime, a query
    /// costs only clustering and (cached) convolution.
    ///
    /// Without a route (a fabric without a channel) nothing is delivered,
    /// as in the flit engine: accepted traffic 0 and NaN latencies.
    pub fn point(&mut self, rate: f64) -> FlowPoint {
        self.simulate_clusters(rate);
        let bases = self.route_bases(rate);
        let mixture = self.tel.span("flow/mixture");
        let parts = bases
            .iter()
            .map(|&(node, shift)| (self.trie.row(node), shift));
        let net = unit_mixture(parts, &mut self.mix_scratch);
        mixture.finish();
        let latency = |f: fn(&EDist) -> f64| net.as_ref().map_or(f64::NAN, |(d, _)| f(d));
        let sorted = net.as_ref().map_or(0, |&(_, sorted)| sorted);
        self.mixture_sorted_keys += sorted;
        self.tel
            .counter("flow/mixture_sorted_keys")
            .add(sorted as u64);

        let saturated = rate >= self.sat_throughput;
        FlowPoint {
            offered: rate,
            accepted: rate.min(self.sat_throughput),
            mean_latency: latency(EDist::mean),
            median_latency: latency(|d| d.quantile(0.5)),
            p99_latency: latency(|d| d.quantile(0.99)),
            saturated,
        }
    }

    /// Stages 2 and 3 at `rate`: walks the `(class, bucket)` runs and
    /// runs one neighborhood sim per non-idle signature the hop cache
    /// lacks. Only those signatures' clusters get members, a mean load
    /// and a representative.
    fn simulate_clusters(&mut self, rate: f64) {
        let runs = self.classes.runs(&self.dec.unit_load, rate);
        let clusters = runs.chunk_by(|a, b| a.sig == b.sig);
        self.cluster_count = clusters.clone().count();
        self.tel.counter("flow/points").inc();
        self.tel
            .gauge("flow/clusters")
            .set(self.cluster_count as f64);
        self.tel
            .histogram("flow/clusters_per_point")
            .record(self.cluster_count as u64);

        for cluster_runs in clusters {
            let sig = cluster_runs[0].sig;
            if sig.load_bucket == IDLE_BUCKET {
                continue;
            }
            if self.hop_cache.contains_key(&sig) {
                self.rep_sim_cache_hits += 1;
                self.tel.counter("flow/rep_sim_cache_hits").inc();
                continue;
            }
            let cl = self
                .classes
                .cluster(&self.dec.unit_load, rate, cluster_runs);
            let rep_sim = self.tel.span("flow/rep_sim");
            let hop =
                self.hop_distribution(cl.representative, cl.mean_load, sig_seed(self.seed, sig));
            rep_sim.finish();
            self.representative_sims += 1;
            self.tel.counter("flow/rep_sims").inc();
            self.hop_cache.insert(sig, hop);
        }
    }

    /// Stage 4 at `rate`: each sampled route's trie node and idle shift.
    /// Idle hops are exact unit shifts; contended hops are keyed by their
    /// sorted signature multiset, whose left fold of hop distributions
    /// the node holds (convolution on the quantile grid runs in sorted
    /// order, so the result is deterministic and order-independent by
    /// construction). A route convolves only past its multiset's longest
    /// prefix already in the trie.
    fn route_bases(&mut self, rate: f64) -> Vec<(u32, f64)> {
        let mut key: Vec<Signature> = Vec::new();
        let mut bases = Vec::with_capacity(self.routes.len());
        let (mut convolutions, mut pairs) = (0, 0);
        for route in &self.routes {
            let mut shift = f64::from(self.plen - 1);
            key.clear();
            for &c in route {
                let sig = self
                    .classes
                    .signature(c, self.dec.unit_load[c as usize] * rate);
                if sig.load_bucket == IDLE_BUCKET || !self.hop_cache.contains_key(&sig) {
                    // Uncontended: exactly one cycle per hop.
                    shift += 1.0;
                } else {
                    key.push(sig);
                }
            }
            key.sort_unstable();
            let (node, ran, binned, seen) = self.trie.insert(&key, &self.hop_cache);
            convolutions += ran;
            pairs += binned;
            if seen {
                self.route_cache_hits += 1;
                self.tel.counter("flow/route_cache_hits").inc();
            } else {
                self.route_cache_misses += 1;
                self.tel.counter("flow/route_cache_misses").inc();
            }
            bases.push((node, shift));
        }
        self.route_convolutions += convolutions;
        self.tel
            .counter("flow/route_convolutions")
            .add(convolutions as u64);
        self.convolve_pairs += pairs;
        self.tel.counter("flow/convolve_pairs").add(pairs as u64);
        self.tel
            .gauge("flow/route_trie_bytes")
            .set(self.trie.bytes() as f64);
        bases
    }

    /// Predicts the whole ladder and snapshots the evidence into a
    /// [`FlowCurve`].
    pub fn curve(&mut self, rates: &[f64]) -> FlowCurve {
        let points: Vec<FlowPoint> = rates.iter().map(|&r| self.point(r)).collect();
        let (bneck, w_max) = self.dec.bottleneck();
        FlowCurve {
            points,
            sat_throughput: self.sat_throughput,
            cluster_count: self.cluster_count,
            representative_sims: self.representative_sims,
            bottleneck_channel: bneck,
            bottleneck_unit_load: w_max,
            dests_sampled: self.dec.dests_sampled,
        }
    }

    /// Runs one representative neighborhood sim and turns its latency
    /// histogram into a per-hop delay distribution (floor 1 cycle/hop).
    fn hop_distribution(&self, representative: ChannelId, target_load: f64, seed: u64) -> EDist {
        let Some((stats, hops)) = self.neighborhood_sim(representative, target_load, seed) else {
            return EDist::constant(1.0);
        };
        let hops = hops.max(1.0);
        match EDist::from_buckets(stats.latency_hist.buckets()) {
            Some(lat) => lat
                .affine(1.0 / hops, -f64::from(self.plen - 1) / hops)
                .max_with(1.0),
            None => EDist::constant(1.0),
        }
    }

    /// Extracts the neighborhood, calibrates the injection rate so the
    /// mapped representative channel carries `target_load`, and runs the
    /// flit engine. Returns `(stats, neighborhood avg hops)`.
    fn neighborhood_sim(
        &self,
        representative: ChannelId,
        target_load: f64,
        seed: u64,
    ) -> Option<(SimStats, f64)> {
        let cfg = &self.cfg;
        let nb = extract(self.topo, representative, cfg.radius, cfg.max_neighborhood).ok()?;
        let routing = construct_neighborhood(&nb.topo)?;
        let sub_dec = Decomposer::new(routing.comm_graph(), routing.turn_table()).decompose(0);
        let u_c = sub_dec.unit_load[nb.center as usize];
        if u_c <= 1e-9 {
            return None;
        }
        let rate = (target_load / u_c).min(0.95);
        if rate < 1e-6 {
            return None;
        }
        let sim_cfg = internal_sim(self.base, rate, cfg.rep_warmup, cfg.rep_measure);
        let stats = run_counted(
            Simulator::new(
                routing.comm_graph(),
                routing.routing_tables(),
                sim_cfg,
                seed,
            ),
            &self.tel,
        );
        Some((stats, sub_dec.avg_hops))
    }
}

/// Runs `sim` through its windows exactly as [`Simulator::run`] does —
/// `advance` to the last clock, then `finish` — and adds the clocks it
/// stepped to the `flow/rep_sim_clocks` counter in between.
fn run_counted(mut sim: Simulator<'_>, tel: &Telemetry) -> SimStats {
    sim.advance(sim.config().total_cycles());
    tel.counter("flow/rep_sim_clocks")
        .add(sim.work_counters().clocks);
    sim.finish()
}

/// Predicts the latency/throughput curve of a fabric at the given offered
/// loads without simulating it whole — builds a [`FlowPredictor`] and
/// queries every ladder point.
#[allow(clippy::too_many_arguments)]
pub fn predict(
    topo: &Topology,
    tree: &CoordinatedTree,
    cg: &CommGraph,
    table: &TurnTable,
    base: &SimConfig,
    rates: &[f64],
    seed: u64,
    cfg: &FlowConfig,
) -> FlowCurve {
    FlowPredictor::build(topo, tree, cg, table, base, seed, cfg).curve(rates)
}

/// Injection drives (fraction of the neighborhood's max) the capacity
/// probe sweeps. Wormhole throughput peaks at saturation and *falls*
/// beyond it, so a single max-drive probe lands in the collapsed regime
/// and underestimates capacity; taking the max over a small drive ladder
/// recovers the peak.
const PROBE_DRIVES: [f64; 4] = [0.35, 0.55, 0.75, 0.95];

/// Estimates the fabric's saturation throughput (flits/node/clock) by
/// driving the bottleneck channel's neighborhood through the saturation
/// ladder.
///
/// Two regimes:
///
/// - The extracted ball covers the **whole fabric** (small fabrics): the
///   probe *is* the fabric, so its peak accepted traffic over the drive
///   ladder is the saturation throughput directly — no model transfer.
/// - The ball is a **truncated neighborhood** (large fabrics): the
///   transferable scalar is the peak *measured* channel utilization the
///   probe sustains — the occupancy a hot channel reaches under this
///   router and flow-control before throughput collapses. The full fabric
///   then saturates at `λ_sat = peak_util / w_max`, where `w_max` is the
///   analytic bottleneck load per unit injection. Measured utilization is
///   used (not analytic sub-fabric loads) because the adaptive router
///   spreads traffic away from analytic hotspots, making analytic probe
///   loads inconsistent with the simulated ones.
///
/// The decision goes to `tel` as gauges: `flow/sat_peak_accepted`,
/// `flow/sat_peak_util`, `flow/sat_ball_switches` and
/// `flow/sat_whole_fabric` (1 for the whole fabric, 0 for a truncated
/// ball).
fn measure_saturation(
    topo: &Topology,
    base: &SimConfig,
    bottleneck: ChannelId,
    w_max: f64,
    seed: u64,
    cfg: &FlowConfig,
    tel: &Telemetry,
) -> (f64, usize) {
    let Ok(nb) = extract(topo, bottleneck, cfg.sat_radius, cfg.sat_neighborhood) else {
        return (1.0, 0);
    };
    let Some(routing) = construct_neighborhood(&nb.topo) else {
        return (1.0, 0);
    };
    let whole_fabric = nb.topo.num_nodes() == topo.num_nodes();
    let mut peak_accepted = 0.0f64;
    let mut peak_util = 0.0f64;
    let mut sims = 0usize;
    for (i, &drive) in PROBE_DRIVES.iter().enumerate() {
        let sim_cfg = internal_sim(base, drive, cfg.sat_warmup, cfg.sat_measure);
        let stats = run_counted(
            Simulator::new(
                routing.comm_graph(),
                routing.routing_tables(),
                sim_cfg,
                seed ^ 0xCAFE ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            tel,
        );
        let max_util = (0..routing.comm_graph().num_channels())
            .map(|c| stats.channel_utilization(c))
            .fold(0.0f64, f64::max);
        peak_accepted = peak_accepted.max(stats.accepted_traffic());
        peak_util = peak_util.max(max_util);
        sims += 1;
    }
    tel.gauge("flow/sat_peak_accepted").set(peak_accepted);
    tel.gauge("flow/sat_peak_util").set(peak_util);
    tel.gauge("flow/sat_ball_switches")
        .set(f64::from(nb.topo.num_nodes()));
    tel.gauge("flow/sat_whole_fabric")
        .set(f64::from(u8::from(whole_fabric)));
    let sat = if whole_fabric {
        peak_accepted
    } else if w_max > 1e-12 {
        peak_util / w_max
    } else {
        1.0
    };
    (sat.clamp(1e-3, 1.0), sims)
}

/// The caller's configuration at the predictor's own load and windows.
/// Bernoulli sources are sampled geometrically: the predictor's sims are
/// internal, so only the arrival law matters, and skipping idle cycles
/// makes them O(arrivals) rather than O(nodes) per clock.
fn internal_sim(base: &SimConfig, injection_rate: f64, warmup: u32, measure: u32) -> SimConfig {
    let injection_sampling = match base.arrivals {
        ArrivalProcess::Bernoulli => InjectionSampling::Geometric,
        ArrivalProcess::OnOff { .. } => base.injection_sampling,
    };
    SimConfig {
        injection_rate,
        warmup_cycles: warmup,
        measure_cycles: measure,
        injection_sampling,
        ..*base
    }
}

/// DOWN/UP on an extracted neighborhood. Neighborhoods are internal to
/// the predictor, so their construction stays out of the caller's
/// `construction` spans.
fn construct_neighborhood(topo: &Topology) -> Option<DownUpRouting> {
    Telemetry::disabled().scope(|| DownUp::new().construct(topo).ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use irnet_topology::gen;

    fn quick_cfg() -> FlowConfig {
        FlowConfig {
            max_dests: 0,
            route_sample: 16,
            rep_warmup: 100,
            rep_measure: 600,
            ..FlowConfig::default()
        }
    }

    fn base() -> SimConfig {
        SimConfig {
            packet_len: 32,
            ..SimConfig::default()
        }
    }

    #[test]
    fn prediction_is_deterministic() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(32, 4), 1).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let rates = [0.02, 0.1, 0.4];
        let run = || {
            predict(
                &topo,
                r.tree(),
                r.comm_graph(),
                r.turn_table(),
                &base(),
                &rates,
                7,
                &quick_cfg(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(
            serde_json::to_string(&a.points).unwrap(),
            serde_json::to_string(&b.points).unwrap()
        );
        assert_eq!(a.sat_throughput.to_bits(), b.sat_throughput.to_bits());
        assert_eq!(a.cluster_count, b.cluster_count);
    }

    /// A one-switch fabric has no channel: the predictor has nothing to
    /// probe or route, and must answer without panicking. It answers what
    /// the flit engine reports there: nothing is delivered, so accepted
    /// traffic is 0 and every latency NaN, and the saturation is 0.
    #[test]
    fn a_channel_less_fabric_predicts_without_panicking() {
        let topo = Topology::new(1, 4, []).unwrap();
        let routing = DownUp::new().construct(&topo).unwrap();
        let (tree, cg, table) = (routing.tree(), routing.comm_graph(), routing.turn_table());
        assert_eq!(cg.num_channels(), 0);
        let (rates, base) = ([0.1, 0.5], base());
        let mut pred = FlowPredictor::build(&topo, tree, cg, table, &base, 7, &quick_cfg());
        assert_eq!(pred.saturation(), 0.0);
        let curve = pred.curve(&rates);
        assert_eq!(curve.points.len(), 2);
        assert_eq!(curve.representative_sims, 0);
        assert_eq!(curve.sat_throughput, 0.0);
        for (p, &rate) in curve.points.iter().zip(&rates) {
            let cfg = SimConfig {
                injection_rate: rate,
                warmup_cycles: 100,
                measure_cycles: 600,
                ..base
            };
            let stats = Simulator::new(cg, routing.routing_tables(), cfg, 7).run();
            assert_eq!(p.offered, rate);
            assert_eq!(p.accepted.to_bits(), stats.accepted_traffic().to_bits());
            assert_eq!(p.accepted, 0.0);
            assert!(p.mean_latency.is_nan() && stats.avg_latency().is_nan());
            for q in [0.5, 0.99] {
                assert_eq!(stats.latency_quantile(q), None);
            }
            assert!(p.median_latency.is_nan() && p.p99_latency.is_nan());
            assert!(p.saturated);
        }
    }

    #[test]
    fn curve_shape_is_sane() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(32, 4), 1).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let rates = [0.01, 0.05, 0.2, 0.6];
        let curve = predict(
            &topo,
            r.tree(),
            r.comm_graph(),
            r.turn_table(),
            &base(),
            &rates,
            7,
            &quick_cfg(),
        );
        assert_eq!(curve.points.len(), 4);
        assert!(curve.sat_throughput > 0.0 && curve.sat_throughput <= 1.0);
        // Accepted traffic is monotone non-decreasing in offered load and
        // capped at saturation.
        for w in curve.points.windows(2) {
            assert!(w[1].accepted >= w[0].accepted - 1e-12);
        }
        for p in &curve.points {
            assert!(p.accepted <= p.offered + 1e-12);
            // Latency at least covers serialization.
            assert!(p.median_latency >= 31.0, "median {}", p.median_latency);
            assert!(p.p99_latency >= p.median_latency);
        }
        assert!(curve.representative_sims >= 1);
        assert!(curve.cluster_count >= 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 12,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// After every query of a sequence — random, repeated or
        /// descending rates — each route's trie row equals the left fold
        /// of its sorted contended-signature multiset kept in a plain map
        /// by full multiset, bit for bit, with the same idle shift; and
        /// the trie's hits and misses are that map's.
        #[test]
        fn route_trie_matches_a_plain_map_of_folds(
            n in 6u32..28,
            ports in 3u32..6,
            seed in 0u64..10_000,
            sequence in 0u8..3,
        ) {
            let topo = gen::random_irregular(gen::IrregularParams::paper(n, ports), seed).unwrap();
            let (tree, cg, table, _) = DownUp::new().construct_phases(&topo).unwrap();
            let cfg = FlowConfig {
                route_sample: 24,
                sat_warmup: 100,
                sat_measure: 400,
                rep_warmup: 50,
                rep_measure: 200,
                ..quick_cfg()
            };
            let base = SimConfig {
                packet_len: 8,
                ..SimConfig::default()
            };
            let mut pred = FlowPredictor::build(&topo, &tree, &cg, &table, &base, seed, &cfg);
            let sat = pred.saturation();
            let mut state = seed;
            let rates: Vec<f64> = (0..8)
                .map(|i| match sequence {
                    0 => sat * (0.02 + (splitmix(&mut state) % 150) as f64 / 100.0),
                    1 => sat * [0.1, 0.6, 1.2][(splitmix(&mut state) % 3) as usize],
                    _ => sat * (1.5 - 0.2 * f64::from(i)),
                })
                .collect();
            let mut folds: BTreeMap<Vec<Signature>, EDist> = BTreeMap::new();
            let (mut hits, mut misses) = (0, 0);
            for rate in rates {
                pred.simulate_clusters(rate);
                let bases = pred.route_bases(rate);
                proptest::prop_assert_eq!(bases.len(), pred.routes.len());
                for (route, &(node, shift)) in pred.routes.iter().zip(&bases) {
                    let mut want_shift = f64::from(pred.plen - 1);
                    let mut key = Vec::new();
                    for &c in route {
                        let sig = Signature::of(&cg, &tree, c, pred.dec.unit_load[c as usize] * rate);
                        if sig.load_bucket == IDLE_BUCKET || !pred.hop_cache.contains_key(&sig) {
                            want_shift += 1.0;
                        } else {
                            key.push(sig);
                        }
                    }
                    key.sort();
                    if folds.contains_key(&key) {
                        hits += 1;
                    } else {
                        misses += 1;
                        let fold = key
                            .iter()
                            .fold(EDist::constant(0.0), |acc, sig| acc.convolve(&pred.hop_cache[sig]));
                        folds.insert(key.clone(), fold);
                    }
                    let fold = &folds[&key];
                    let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    proptest::prop_assert_eq!(bits(pred.trie.row(node)), bits(fold.row()));
                    proptest::prop_assert_eq!(shift.to_bits(), want_shift.to_bits());
                }
                proptest::prop_assert_eq!(pred.route_cache_hits(), hits);
                proptest::prop_assert_eq!(pred.route_cache_misses(), misses);
            }
        }
    }

    /// Golden pin of the query path at the `flow-2048` benchmark's size:
    /// 2048-switch, 8-port fabric 0 (Phases 1–3 only), the benchmark's
    /// simulator configuration and predictor seed (run seed 1), the
    /// ten-rate ladder, then twenty warm queries at 0.5 to 1.45 times the
    /// predicted saturation. FNV-1a over every field of every point.
    /// Seconds in release mode:
    /// `cargo test --release -p irnet-flow -- --ignored`.
    #[test]
    #[ignore = "2048-switch fabric; run in release with --ignored"]
    fn queries_are_pinned_on_a_2048_switch_fabric() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(2048, 8), 0).unwrap();
        let (tree, cg, table, _) = DownUp::new().construct_phases(&topo).unwrap();
        let base = SimConfig {
            packet_len: 32,
            warmup_cycles: 1_000,
            measure_cycles: 2_000,
            ..SimConfig::default()
        };
        // The benchmark's per-fabric seed: splitmix64 of run seed 1 and
        // fabric tag 0.
        let (run_seed, tag) = (1u64, 0u64);
        let mut z = run_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(tag.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let seed = z ^ (z >> 31);

        let cfg = FlowConfig::default();
        let mut pred = FlowPredictor::build(&topo, &tree, &cg, &table, &base, seed, &cfg);
        let mut points = pred.curve(&irnet_metrics::sweep::default_rates(10)).points;
        let sat = pred.saturation();
        for q in 0..20 {
            points.push(pred.point(sat * (0.5 + 0.05 * f64::from(q))));
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for p in &points {
            for v in [
                p.offered.to_bits(),
                p.accepted.to_bits(),
                p.mean_latency.to_bits(),
                p.median_latency.to_bits(),
                p.p99_latency.to_bits(),
                u64::from(p.saturated),
            ] {
                h ^= v;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(h, 0x9867_d52b_76aa_b131, "{h:#x}");
        // 30 queries of 48 routes. A map by full multiset records the same
        // hits and misses; convolving each missed multiset from scratch
        // takes 2,785 convolutions where the trie's shared prefixes take
        // 1,584.
        assert_eq!(pred.route_cache_hits(), 806);
        assert_eq!(pred.route_cache_misses(), 634);
        assert_eq!(pred.route_convolutions(), 1_584);
        // Binned by runs of equal midpoints, those convolutions take
        // 1,219,825 bin updates where one per midpoint pair takes
        // 1,584 · 64² = 6,488,064 (18.8%).
        assert_eq!(pred.convolve_pairs(), 1_219_825);
        // The 30 mixtures' rank selections sort 24,582 midpoint keys,
        // where sorting all of them would take 30 · 48 · 64 = 92,160.
        assert_eq!(pred.mixture_sorted_keys(), 24_582);
    }
}
