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

use crate::cluster::{cluster_channels, Signature, IDLE_BUCKET};
use crate::decompose::{Decomposer, Decomposition};
use crate::edist::EDist;
use crate::neighborhood::extract;
use irnet_core::{DownUp, DownUpRouting};
use irnet_sim::{ArrivalProcess, InjectionSampling, SimConfig, Simulator};
use irnet_telemetry::Telemetry;
use irnet_topology::{ChannelId, CommGraph, CoordinatedTree, NodeId, Topology};
use irnet_turns::TurnTable;
use serde::Serialize;
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
    /// Cluster count at the highest requested load.
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

/// A reusable flow-level predictor: [`FlowPredictor::build`] pays the
/// one-time cost (analytic decomposition, saturation probe, route sample),
/// after which [`FlowPredictor::point`] evaluates any operating point from
/// clustering + convolution alone — milliseconds per query once the
/// per-signature hop cache is warm, against seconds per flit run for the
/// exact engine.
pub struct FlowPredictor<'a> {
    topo: &'a Topology,
    tree: &'a CoordinatedTree,
    cg: &'a CommGraph,
    base: &'a SimConfig,
    cfg: FlowConfig,
    seed: u64,
    plen: u32,
    dec: Decomposition,
    sat_throughput: f64,
    routes: Vec<Vec<ChannelId>>,
    /// Per-signature hop delay distributions (filled lazily by queries).
    hop_cache: BTreeMap<Signature, EDist>,
    /// Convolutions keyed by the sorted multiset of contended hop
    /// signatures along a route — routes through statistically identical
    /// hop sequences share one convolution.
    route_cache: BTreeMap<Vec<Signature>, EDist>,
    cluster_count: usize,
    representative_sims: usize,
    /// Queries answered from the per-signature hop cache instead of a
    /// fresh representative sim.
    rep_sim_cache_hits: usize,
    /// Route convolutions served from / missing the route cache.
    route_cache_hits: usize,
    route_cache_misses: usize,
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
    /// behavior — per-signature rep-sim hits/misses and route-convolution
    /// cache hits/misses — accumulates there as it serves queries.
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

        // Saturation: drive the bottleneck channel's neighborhood hard and
        // measure what it actually sustains.
        let rep_sim = tel.span("flow/rep_sim");
        let (sat_throughput, probe_sims) = measure_saturation(topo, base, bneck, w_max, seed, cfg);
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
        let mut dest_costs: BTreeMap<NodeId, Vec<u16>> = BTreeMap::new();
        for &(_, t) in &pairs {
            dest_costs.entry(t).or_insert_with(|| dx.costs_for(t));
        }
        let routes: Vec<Vec<ChannelId>> = pairs
            .iter()
            .filter_map(|&(s, t)| dx.route(&dest_costs[&t], s, t))
            .collect();

        FlowPredictor {
            topo,
            tree,
            cg,
            base,
            cfg: cfg.clone(),
            seed,
            plen,
            dec,
            sat_throughput,
            routes,
            hop_cache: BTreeMap::new(),
            route_cache: BTreeMap::new(),
            cluster_count: 0,
            representative_sims: probe_sims,
            rep_sim_cache_hits: 0,
            route_cache_hits: 0,
            route_cache_misses: 0,
            tel,
        }
    }

    /// The predicted saturation throughput (flits/node/clock).
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

    /// Route convolutions that had to be computed (and were then cached).
    pub fn route_cache_misses(&self) -> usize {
        self.route_cache_misses
    }

    /// Predicts one operating point. The first queries run one
    /// neighborhood flit sim per previously unseen channel signature;
    /// once the signature cache covers the requested load regime, a query
    /// costs only clustering and (cached) convolution.
    pub fn point(&mut self, rate: f64) -> FlowPoint {
        let loads: Vec<f64> = self.dec.unit_load.iter().map(|&w| w * rate).collect();
        let part = cluster_channels(self.cg, self.tree, &loads);
        self.cluster_count = part.len();
        self.tel.counter("flow/points").inc();
        self.tel.gauge("flow/clusters").set(part.len() as f64);
        self.tel
            .histogram("flow/clusters_per_point")
            .record(part.len() as u64);

        // Stage 3: one neighborhood sim per previously unseen signature.
        for cl in &part.clusters {
            if cl.sig.load_bucket == IDLE_BUCKET {
                continue;
            }
            if self.hop_cache.contains_key(&cl.sig) {
                self.rep_sim_cache_hits += 1;
                self.tel.counter("flow/rep_sim_cache_hits").inc();
                continue;
            }
            let rep_sim = self.tel.span("flow/rep_sim");
            let hop = hop_distribution(
                self.topo,
                self.base,
                cl.representative,
                cl.mean_load,
                sig_seed(self.seed, cl.sig),
                &self.cfg,
                self.plen,
            );
            rep_sim.finish();
            self.representative_sims += 1;
            self.tel.counter("flow/rep_sims").inc();
            self.hop_cache.insert(cl.sig, hop);
        }

        // Stage 4: convolve per-hop distributions along sampled routes.
        // Idle hops are exact unit shifts; contended hops convolve once
        // per distinct sorted signature multiset (convolution on the
        // quantile grid is evaluated in sorted order, so the cache is
        // deterministic and order-independent by construction).
        let plen = self.plen;
        let route_dists: Vec<EDist> = self
            .routes
            .iter()
            .map(|route| {
                let mut shift = f64::from(plen - 1);
                let mut key: Vec<Signature> = Vec::with_capacity(route.len());
                for &c in route {
                    let sig = Signature::of(self.cg, self.tree, c, loads[c as usize]);
                    if sig.load_bucket == IDLE_BUCKET || !self.hop_cache.contains_key(&sig) {
                        // Uncontended: exactly one cycle per hop.
                        shift += 1.0;
                    } else {
                        key.push(sig);
                    }
                }
                key.sort_unstable();
                let base = match self.route_cache.get(&key) {
                    Some(d) => {
                        self.route_cache_hits += 1;
                        self.tel.counter("flow/route_cache_hits").inc();
                        d.clone()
                    }
                    None => {
                        let mut acc = EDist::constant(0.0);
                        for sig in &key {
                            acc = acc.convolve(&self.hop_cache[sig]);
                        }
                        self.route_cache_misses += 1;
                        self.tel.counter("flow/route_cache_misses").inc();
                        self.route_cache.insert(key, acc.clone());
                        acc
                    }
                };
                base.affine(1.0, shift)
            })
            .collect();
        let mix: Vec<(f64, &EDist)> = route_dists.iter().map(|d| (1.0, d)).collect();
        let net = EDist::mixture(&mix).unwrap_or_else(|| EDist::constant(f64::from(plen)));

        let saturated = rate >= self.sat_throughput;
        FlowPoint {
            offered: rate,
            accepted: rate.min(self.sat_throughput),
            mean_latency: net.mean(),
            median_latency: net.quantile(0.5),
            p99_latency: net.quantile(0.99),
            saturated,
        }
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

/// Runs one representative neighborhood sim and turns its latency
/// histogram into a per-hop delay distribution (floor 1 cycle/hop).
fn hop_distribution(
    topo: &Topology,
    base: &SimConfig,
    representative: ChannelId,
    target_load: f64,
    seed: u64,
    cfg: &FlowConfig,
    plen: u32,
) -> EDist {
    let Some((stats, hops)) = neighborhood_run(topo, base, representative, target_load, seed, cfg)
    else {
        return EDist::constant(1.0);
    };
    let hops = hops.max(1.0);
    match EDist::from_buckets(stats.latency_hist.buckets()) {
        Some(lat) => lat
            .affine(1.0 / hops, -f64::from(plen - 1) / hops)
            .max_with(1.0),
        None => EDist::constant(1.0),
    }
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
fn measure_saturation(
    topo: &Topology,
    base: &SimConfig,
    bottleneck: ChannelId,
    w_max: f64,
    seed: u64,
    cfg: &FlowConfig,
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
        let stats = Simulator::new(
            routing.comm_graph(),
            routing.routing_tables(),
            sim_cfg,
            seed ^ 0xCAFE ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
        .run();
        let max_util = (0..routing.comm_graph().num_channels())
            .map(|c| stats.channel_utilization(c))
            .fold(0.0f64, f64::max);
        if std::env::var_os("FLOW_DEBUG").is_some() {
            eprintln!(
                "  probe drive {drive:.2}: accepted {:.4}  max_util {max_util:.4}",
                stats.accepted_traffic(),
            );
        }
        peak_accepted = peak_accepted.max(stats.accepted_traffic());
        peak_util = peak_util.max(max_util);
        sims += 1;
    }
    if std::env::var_os("FLOW_DEBUG").is_some() {
        eprintln!(
            "  probe: nodes {} (whole={whole_fabric})  A_peak {peak_accepted:.4}  \
             peak_util {peak_util:.4}  w_max {w_max:.4}",
            nb.topo.num_nodes(),
        );
    }
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

fn neighborhood_run(
    topo: &Topology,
    base: &SimConfig,
    representative: ChannelId,
    target_load: f64,
    seed: u64,
    cfg: &FlowConfig,
) -> Option<(irnet_sim::SimStats, f64)> {
    neighborhood_sim(topo, base, representative, target_load, seed, cfg)
        .map(|(stats, hops, _)| (stats, hops))
}

/// Extracts the neighborhood, calibrates the injection rate so the mapped
/// representative channel carries `target_load`, and runs the flit engine.
/// Returns `(stats, neighborhood avg hops, mapped center channel)`.
fn neighborhood_sim(
    topo: &Topology,
    base: &SimConfig,
    representative: ChannelId,
    target_load: f64,
    seed: u64,
    cfg: &FlowConfig,
) -> Option<(irnet_sim::SimStats, f64, ChannelId)> {
    let nb = extract(topo, representative, cfg.radius, cfg.max_neighborhood).ok()?;
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
    let sim_cfg = internal_sim(base, rate, cfg.rep_warmup, cfg.rep_measure);
    let stats = Simulator::new(
        routing.comm_graph(),
        routing.routing_tables(),
        sim_cfg,
        seed,
    )
    .run();
    Some((stats, sub_dec.avg_hops, nb.center))
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
}
