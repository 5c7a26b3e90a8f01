//! Stage 2 — channel clustering by signature.
//!
//! Channels with the same `(direction class, tree level, port class,
//! quantized offered load)` signature see statistically similar contention,
//! so one representative flit-level neighborhood simulation per cluster
//! suffices (the analogue of parsimon's link clustering, which likewise
//! classifies links once and re-buckets them by load). The first three
//! fields are fixed per fabric, so a channel-class table computes them
//! once and keeps each class's channels in unit-load order; a query at a
//! rate cuts that order into its `(class, load bucket)` runs. Cluster
//! order is ascending [`Signature`] order and members are ascending, so
//! representative choice, and therefore every downstream simulation seed,
//! depends only on the fabric and the loads.

use crate::decompose::Decomposition;
use irnet_topology::{ChannelId, CommGraph, CoordinatedTree};
use serde::Serialize;

/// Load bucket for channels carrying (essentially) no traffic; their hops
/// are modeled as uncontended without running a representative sim.
pub const IDLE_BUCKET: i16 = i16::MIN;

/// The largest load bucket; buckets are clamped to
/// `-MAX_BUCKET..=MAX_BUCKET`.
const MAX_BUCKET: i16 = 1000;

/// Offered load below which a channel is modeled as uncontended (queueing
/// delay at 1% utilization is negligible next to serialization + transit).
pub const IDLE_LOAD: f64 = 0.01;

/// Octave quantization of an offered load (flits/clock): bucket
/// `round(log2(load))`. Loads below [`IDLE_LOAD`] fall into
/// [`IDLE_BUCKET`].
///
/// `round(log2(load))` is the binary exponent, plus one when the
/// significand exceeds √2. Away from √2 that is read off the bits; within
/// 2^-30 of it, and for infinities and NaN, `log2` decides. Its error is
/// far below that margin, so every bucket equals `load.log2().round()`.
#[inline]
pub fn load_bucket(load: f64) -> i16 {
    const SIGNIFICAND: u64 = (1 << 52) - 1;
    const SQRT_2: u64 = std::f64::consts::SQRT_2.to_bits() & SIGNIFICAND;
    let bits = load.to_bits();
    let exponent = (bits >> 52) as i32 - 1023;
    let significand = bits & SIGNIFICAND;
    if exponent >= 1024 || significand.abs_diff(SQRT_2) <= 1 << 22 {
        if load < IDLE_LOAD {
            return IDLE_BUCKET;
        }
        let max = f64::from(MAX_BUCKET);
        return load.log2().round().clamp(-max, max) as i16;
    }
    let bucket = (exponent + i32::from(significand > SQRT_2)).min(i32::from(MAX_BUCKET)) as i16;
    // Idle and busy channels interleave: a branch here is mispredicted.
    std::hint::select_unpredictable(load < IDLE_LOAD, IDLE_BUCKET, bucket)
}

/// A channel-equivalence class key. Derives `Ord` so partitions and every
/// iteration over them are deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub struct Signature {
    /// 0 = up (toward the root), 1 = down, 2 = level (cross links between
    /// equal tree levels).
    pub dir_class: u8,
    /// Tree level (BFS depth, `y` coordinate) of the channel's start
    /// switch, saturating at 255.
    pub level: u8,
    /// Port class: the start switch's output radix (its degree), which
    /// bounds how many flows can contend for the channel, saturating at
    /// 255.
    pub port_class: u8,
    /// Quantized offered load ([`load_bucket`]).
    pub load_bucket: i16,
}

impl Signature {
    /// The signature of channel `c` at offered load `load`.
    pub fn of(cg: &CommGraph, tree: &CoordinatedTree, c: ChannelId, load: f64) -> Signature {
        let d = cg.direction(c);
        let dir_class = if d.goes_up() {
            0
        } else if d.goes_down() {
            1
        } else {
            2
        };
        let start = cg.channels().start(c);
        Signature {
            dir_class,
            level: tree.y(start).min(255) as u8,
            port_class: cg.channels().outputs(start).len().min(255) as u8,
            load_bucket: load_bucket(load),
        }
    }
}

/// One equivalence class of channels.
#[derive(Debug, Clone, Serialize)]
pub struct Cluster {
    /// The shared signature.
    pub sig: Signature,
    /// Member channels, ascending.
    pub members: Vec<ChannelId>,
    /// The member whose load is closest to the cluster mean (lowest id on
    /// ties) — the channel whose neighborhood gets simulated.
    pub representative: ChannelId,
    /// Mean offered load over members.
    pub mean_load: f64,
}

/// A complete, deterministic partition of the fabric's channels.
#[derive(Debug, Clone, Serialize)]
pub struct Partition {
    /// Clusters in ascending signature order.
    pub clusters: Vec<Cluster>,
}

impl Partition {
    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether the partition is empty.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// `cluster_of[c]` — index into `clusters` for every channel.
    pub fn cluster_index(&self, num_channels: u32) -> Vec<u32> {
        let mut idx = vec![u32::MAX; num_channels as usize];
        for (i, cl) in self.clusters.iter().enumerate() {
            for &c in &cl.members {
                idx[c as usize] = i as u32;
            }
        }
        idx
    }
}

/// The per-fabric half of the clustering, built once from the unit loads
/// (per-channel offered load at injection rate 1): every channel's static
/// class — its signature without the load bucket, since direction class,
/// level and port class never change for a fabric — and the channels of
/// each class in unit-load order. A query at a rate then finds the
/// `(class, bucket)` runs of that order with a few binary searches
/// ([`ChannelClasses::runs`]), so its cost follows the runs and the
/// clusters it builds, not the channel count.
pub(crate) struct ChannelClasses {
    /// `class[c]`: index into `statics` of channel `c`'s class. At most
    /// `3 · 256 · (MAX_PORTS + 1)` classes exist, so a `u16` holds it.
    class: Vec<u16>,
    /// Each class's signature at [`IDLE_BUCKET`], in ascending order, so
    /// class order is signature order.
    statics: Vec<Signature>,
    /// Every channel, ordered by class, then [`segment`] of its unit load,
    /// then unit load ([`f64::total_cmp`]), then id.
    order: Vec<ChannelId>,
    /// The `(class, segment)` ranges of `order`, in order.
    segments: Vec<Segment>,
}

/// The channels of one class whose unit loads share a [`segment`]:
/// `order[start..end]`.
struct Segment {
    class: u16,
    start: u32,
    end: u32,
}

/// Where a unit load `w` sorts within its class: finite loads, then
/// infinite ones, then NaN.
///
/// Within one segment, `load_bucket(w · rate)` is monotone along
/// [`f64::total_cmp`] order of `w` at every rate (non-increasing for a
/// negative one), so each bucket is one contiguous run. [`load_bucket`]
/// is non-decreasing on every value but NaN, which it maps to bucket 0:
/// - finite `w` at a finite rate: the products are monotone and never
///   NaN (all `±0` at a zero rate);
/// - finite `w` at `±inf`: `-inf`, then NaN at `±0`, then `+inf`, or the
///   reverse — buckets idle, 0 and the largest, still monotone;
/// - infinite `w` (`-inf` before `+inf`): `±inf` in order or reversed, or
///   NaN for both at a zero or NaN rate;
/// - NaN `w`, or a NaN rate: NaN throughout.
///
/// Infinite and NaN loads need segments of their own: at a zero rate an
/// infinite load gives NaN beside the finite loads' idle products, and
/// NaN loads of either sign sort at both ends of `total_cmp` order.
fn segment(w: f64) -> u8 {
    u8::from(w.is_infinite()) + 2 * u8::from(w.is_nan())
}

/// One `(class, bucket)` run of [`ChannelClasses`]' channel order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run {
    /// The run's signature.
    pub(crate) sig: Signature,
    start: u32,
    end: u32,
}

impl ChannelClasses {
    /// Classifies every channel of the fabric and orders each class by
    /// `unit_load` (one entry per channel).
    pub(crate) fn new(cg: &CommGraph, tree: &CoordinatedTree, unit_load: &[f64]) -> ChannelClasses {
        assert_eq!(unit_load.len(), cg.num_channels() as usize);
        let mut statics: Vec<Signature> = Vec::new();
        for c in 0..cg.num_channels() {
            let sig = Signature::of(cg, tree, c, 0.0);
            if let Err(k) = statics.binary_search(&sig) {
                statics.insert(k, sig);
            }
        }
        let class: Vec<u16> = (0..cg.num_channels())
            .map(|c| {
                let sig = Signature::of(cg, tree, c, 0.0);
                statics.binary_search(&sig).expect("every class is listed") as u16
            })
            .collect();
        let key = |c: ChannelId| {
            let w = unit_load[c as usize];
            (class[c as usize], segment(w), w)
        };
        let mut order: Vec<ChannelId> = (0..cg.num_channels()).collect();
        order.sort_unstable_by(|&a, &b| {
            let ((ka, sa, wa), (kb, sb, wb)) = (key(a), key(b));
            (ka, sa)
                .cmp(&(kb, sb))
                .then(wa.total_cmp(&wb))
                .then(a.cmp(&b))
        });
        let mut segments = Vec::new();
        let mut start = 0;
        for group in order.chunk_by(|&a, &b| {
            let ((ka, sa, _), (kb, sb, _)) = (key(a), key(b));
            (ka, sa) == (kb, sb)
        }) {
            let end = start + group.len() as u32;
            segments.push(Segment {
                class: class[group[0] as usize],
                start,
                end,
            });
            start = end;
        }
        ChannelClasses {
            class,
            statics,
            order,
            segments,
        }
    }

    /// The signature of channel `c` at offered load `load` — the same as
    /// [`Signature::of`], read from the table.
    pub(crate) fn signature(&self, c: ChannelId, load: f64) -> Signature {
        Signature {
            load_bucket: load_bucket(load),
            ..self.statics[self.class[c as usize] as usize]
        }
    }

    /// The `(class, bucket)` runs of the channel order at injection rate
    /// `rate` (channel `c` offered
    /// `unit_load[c] · rate`, `unit_load` as given to [`Self::new`]), in
    /// ascending [`Signature`] order; runs of one signature are adjacent
    /// and make up its cluster.
    ///
    /// Each [`segment`] of a class has monotone buckets, so every run
    /// ends where a binary search for its bucket says: the cost is a few
    /// searches per class, not a pass over the channels. A stable sort
    /// then puts a negative rate's descending runs in order and brings
    /// one signature's runs from several segments together.
    pub(crate) fn runs(&self, unit_load: &[f64], rate: f64) -> Vec<Run> {
        debug_assert_eq!(unit_load.len(), self.order.len());
        let bucket = |c: ChannelId| load_bucket(unit_load[c as usize] * rate);
        let mut runs = Vec::new();
        for seg in &self.segments {
            let (mut start, end) = (seg.start as usize, seg.end as usize);
            while start < end {
                let b = bucket(self.order[start]);
                let len = 1 + self.order[start + 1..end].partition_point(|&c| bucket(c) == b);
                runs.push(Run {
                    sig: Signature {
                        load_bucket: b,
                        ..self.statics[seg.class as usize]
                    },
                    start: start as u32,
                    end: (start + len) as u32,
                });
                start += len;
            }
        }
        runs.sort_by_key(|run| run.sig);
        runs
    }

    /// The cluster of one signature's `runs` at injection rate `rate`:
    /// its members in ascending id order, and [`cluster`]'s mean and
    /// representative over them.
    pub(crate) fn cluster(&self, unit_load: &[f64], rate: f64, runs: &[Run]) -> Cluster {
        let mut members: Vec<ChannelId> = runs
            .iter()
            .flat_map(|run| &self.order[run.start as usize..run.end as usize])
            .copied()
            .collect();
        members.sort_unstable();
        cluster(runs[0].sig, members, |c| unit_load[c as usize] * rate)
    }

    /// Partitions all channels by signature at injection rate `rate`.
    pub(crate) fn partition(&self, unit_load: &[f64], rate: f64) -> Partition {
        let clusters = self
            .runs(unit_load, rate)
            .chunk_by(|a, b| a.sig == b.sig)
            .map(|runs| self.cluster(unit_load, rate, runs))
            .collect();
        Partition { clusters }
    }
}

/// A cluster of `members` (ascending) under per-channel loads `load`:
/// their mean load, summed in member order, and the member closest to it
/// as the representative, lowest id on ties.
fn cluster(sig: Signature, members: Vec<ChannelId>, load: impl Fn(ChannelId) -> f64) -> Cluster {
    let mean_load = members.iter().map(|&c| load(c)).sum::<f64>() / members.len() as f64;
    let distance = |c: ChannelId| (load(c) - mean_load).abs();
    let mut representative = members[0];
    let mut best = distance(representative);
    for &c in &members[1..] {
        let d = distance(c);
        if d.total_cmp(&best).is_lt() {
            (representative, best) = (c, d);
        }
    }
    Cluster {
        sig,
        members,
        representative,
        mean_load,
    }
}

/// Partitions all channels by signature at injection rate `rate`, each
/// channel offered `rate` times its unit load in `dec`.
pub fn cluster_at_rate(
    cg: &CommGraph,
    tree: &CoordinatedTree,
    dec: &Decomposition,
    rate: f64,
) -> Partition {
    ChannelClasses::new(cg, tree, &dec.unit_load).partition(&dec.unit_load, rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::Decomposer;
    use irnet_core::DownUp;
    use irnet_topology::gen;
    use std::collections::BTreeMap;

    /// The ordered-map partition, kept as the reference the run walk must
    /// equal: one map entry per signature, members pushed in ascending
    /// channel order.
    fn reference_partition(cg: &CommGraph, tree: &CoordinatedTree, loads: &[f64]) -> Partition {
        let mut groups: BTreeMap<Signature, Vec<ChannelId>> = BTreeMap::new();
        for c in 0..cg.num_channels() {
            let sig = Signature::of(cg, tree, c, loads[c as usize]);
            groups.entry(sig).or_default().push(c);
        }
        let clusters = groups
            .into_iter()
            .map(|(sig, members)| {
                let mean_load =
                    members.iter().map(|&c| loads[c as usize]).sum::<f64>() / members.len() as f64;
                let representative = members
                    .iter()
                    .copied()
                    .min_by(|&a, &b| {
                        let da = (loads[a as usize] - mean_load).abs();
                        let db = (loads[b as usize] - mean_load).abs();
                        da.total_cmp(&db).then(a.cmp(&b))
                    })
                    .expect("clusters are non-empty");
                Cluster {
                    sig,
                    members,
                    representative,
                    mean_load,
                }
            })
            .collect();
        Partition { clusters }
    }

    /// The splitmix64 stream of `seed`.
    fn stream(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Unit loads drawn from `seed`. Mode 0 picks from a small palette —
    /// idle loads, loads above 1 and many exact repeats, so
    /// representatives tie, but also -0.0, negative, subnormal, infinite
    /// and NaN loads of either sign, which fill every [`segment`]; mode 1
    /// is a real decomposition's; mode 2 draws uniformly from `[0, 4)`
    /// with about half the channels idle.
    fn unit_loads(dec: &Decomposition, mode: u8, seed: u64) -> Vec<f64> {
        const PALETTE: [f64; 17] = [
            0.0,
            0.004,
            0.01,
            0.3,
            0.3,
            0.7,
            1.0,
            1.5,
            2.9,
            40.0,
            -0.0,
            -0.25,
            5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let mut next = stream(seed);
        dec.unit_load
            .iter()
            .map(|&w| match mode {
                0 => PALETTE[(next() % PALETTE.len() as u64) as usize],
                1 => w,
                _ => {
                    let r = next();
                    if r & 1 == 0 {
                        0.0
                    } else {
                        (r >> 11) as f64 / (1u64 << 53) as f64 * 4.0
                    }
                }
            })
            .collect()
    }

    /// A query rate drawn from `seed`: a special one (zeros, negatives,
    /// infinities, NaN, subnormals, extremes); one that puts some finite
    /// positive unit load of `w` within four ulps of [`IDLE_LOAD`], a
    /// power of two or an octave edge `2^(k+½)`, exactly on it where the
    /// ulps allow; or an ordinary positive rate.
    fn rate(w: &[f64], seed: u64) -> f64 {
        const SPECIAL: [f64; 12] = [
            0.0,
            -0.0,
            -1.0,
            -0.37,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            5e-324,
            1e-310,
            f64::MIN_POSITIVE,
            1e300,
            f64::MAX,
        ];
        let mut next = stream(seed ^ 0x5EED);
        let positive: Vec<f64> = w
            .iter()
            .copied()
            .filter(|&x| x.is_finite() && x > 0.0)
            .collect();
        match next() % 3 {
            0 => SPECIAL[(next() % SPECIAL.len() as u64) as usize],
            1 if !positive.is_empty() => {
                let x = positive[(next() % positive.len() as u64) as usize];
                let k = (next() % 12) as f64 - 7.0;
                let target = match next() % 3 {
                    0 => IDLE_LOAD,
                    1 => k.exp2(),
                    _ => (k + 0.5).exp2(),
                };
                let ulps = (next() % 9) as i64 - 4;
                f64::from_bits(((target / x).to_bits() as i64 + ulps) as u64)
            }
            _ => 0.01 + (next() % 97) as f64 / 20.0,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 32,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The run walk equals the ordered-map partition field for field,
        /// `mean_load` by its bits, over several rates on one table, and
        /// the table's signatures agree with [`Signature::of`].
        #[test]
        fn run_walk_matches_the_ordered_map(
            n in 4u32..120,
            ports in 3u32..9,
            seed in 0u64..10_000,
            mode in 0u8..3,
        ) {
            let topo = gen::random_irregular(gen::IrregularParams::paper(n, ports), seed).unwrap();
            let (tree, cg, table, _) = DownUp::new().construct_phases(&topo).unwrap();
            let dec = Decomposer::new(&cg, &table).decompose(0);
            let w = unit_loads(&dec, mode, seed);
            let classes = ChannelClasses::new(&cg, &tree, &w);
            for query in 0..4u64 {
                let rate = rate(&w, seed * 4 + query);
                let loads: Vec<f64> = w.iter().map(|&x| x * rate).collect();
                let got = classes.partition(&w, rate);
                let want = reference_partition(&cg, &tree, &loads);
                proptest::prop_assert_eq!(got.len(), want.len(), "rate {:e}", rate);
                for (g, w) in got.clusters.iter().zip(&want.clusters) {
                    proptest::prop_assert_eq!(g.sig, w.sig);
                    proptest::prop_assert_eq!(&g.members, &w.members);
                    proptest::prop_assert_eq!(g.representative, w.representative);
                    proptest::prop_assert_eq!(g.mean_load.to_bits(), w.mean_load.to_bits());
                }
                for c in 0..cg.num_channels() {
                    let l = loads[c as usize];
                    proptest::prop_assert_eq!(classes.signature(c, l), Signature::of(&cg, &tree, c, l));
                }
            }
        }
    }

    #[test]
    fn partition_covers_every_channel_once() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(32, 4), 1).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let dec = Decomposer::new(r.comm_graph(), r.turn_table()).decompose(0);
        let part = cluster_at_rate(r.comm_graph(), r.tree(), &dec, 0.1);
        let idx = part.cluster_index(r.comm_graph().num_channels());
        assert!(idx.iter().all(|&i| i != u32::MAX), "uncovered channel");
        let total: usize = part.clusters.iter().map(|c| c.members.len()).sum();
        assert_eq!(total, r.comm_graph().num_channels() as usize);
        // Representatives are members of their own cluster.
        for cl in &part.clusters {
            assert!(cl.members.contains(&cl.representative));
        }
    }

    #[test]
    fn clustering_is_load_sensitive_but_stable() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(32, 4), 1).unwrap();
        let r = DownUp::new().construct(&topo).unwrap();
        let dec = Decomposer::new(r.comm_graph(), r.turn_table()).decompose(0);
        let a = cluster_at_rate(r.comm_graph(), r.tree(), &dec, 0.1);
        let b = cluster_at_rate(r.comm_graph(), r.tree(), &dec, 0.1);
        // Bit-stable: same fabric + loads => identical partition.
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        // Far fewer clusters than channels.
        assert!(a.len() < r.comm_graph().num_channels() as usize / 2);
    }

    /// The bit-level bucket equals `log2().round()` around every octave
    /// edge `2^(k+1/2)` and every power of two, inside and just outside
    /// the margin where `log2` decides, and on inputs that are not finite.
    #[test]
    fn load_buckets_match_rounded_log2() {
        let reference = |x: f64| {
            if x < IDLE_LOAD {
                IDLE_BUCKET
            } else {
                x.log2().round().clamp(-1000.0, 1000.0) as i16
            }
        };
        let mut checked = 0;
        for k in -10..=1024 {
            for edge in [(f64::from(k) + 0.5).exp2(), f64::from(k).exp2()] {
                for base in [0i64, 1 << 22, -(1 << 22)] {
                    for ulps in -40i64..=40 {
                        let x = f64::from_bits((edge.to_bits() as i64 + base + ulps) as u64);
                        assert_eq!(load_bucket(x), reference(x), "{x:e}");
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 400_000);
        for x in [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
            -1.0,
            0.0,
            -0.0,
        ] {
            assert_eq!(load_bucket(x), reference(x), "{x:e}");
        }
    }

    #[test]
    fn load_buckets_are_octaves() {
        assert_eq!(load_bucket(0.0), IDLE_BUCKET);
        assert_eq!(load_bucket(0.005), IDLE_BUCKET);
        assert_eq!(load_bucket(1.0), 0);
        assert_eq!(load_bucket(2.0), 1);
        assert_eq!(load_bucket(4.0), 2);
        assert!(load_bucket(0.25) < load_bucket(0.5));
    }
}
