//! Stage 2 — channel clustering by signature.
//!
//! Channels with the same `(direction class, tree level, port class,
//! quantized offered load)` signature see statistically similar contention,
//! so one representative flit-level neighborhood simulation per cluster
//! suffices (the analogue of parsimon's link clustering, which likewise
//! classifies links once and re-buckets them by load). The first three
//! fields are fixed per fabric, so a channel-class table computes them
//! once; a query counting-sorts the channels by `(class, load bucket)`. Cluster
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

/// The per-fabric half of the clustering: every channel's static class —
/// its signature without the load bucket — built once from `(cg, tree)`,
/// since direction class, level and port class never change for a fabric.
/// A query then only buckets the loads and counting-sorts the channels by
/// `(class, bucket)` ([`ChannelClasses::partition`]); the buffers it
/// sorts in are kept here and reused from query to query.
pub(crate) struct ChannelClasses {
    /// `class[c]`: index into `statics` of channel `c`'s class. At most
    /// `3 · 256 · (MAX_PORTS + 1)` classes exist, so a `u16` holds it.
    class: Vec<u16>,
    /// Each class's signature at [`IDLE_BUCKET`], in ascending order, so
    /// class order is signature order.
    statics: Vec<Signature>,
    /// `start[k]`: channels in the classes below `k`; one entry per class
    /// plus the channel count.
    start: Vec<u32>,
    /// Query scratch: load buckets, bucket-sorted channels, the
    /// `(class, bucket)`-sorted channels, and counting-sort offsets.
    buckets: Vec<i16>,
    by_bucket: Vec<ChannelId>,
    order: Vec<ChannelId>,
    offsets: Vec<u32>,
}

/// Counting-sort slot of a load bucket: the idle bucket first, then
/// `-MAX_BUCKET..=MAX_BUCKET` in order.
fn bucket_rank(bucket: i16) -> usize {
    (i32::from(bucket) + i32::from(MAX_BUCKET) + 1).max(0) as usize
}

/// Number of [`bucket_rank`] slots.
const BUCKET_RANKS: usize = 2 * MAX_BUCKET as usize + 2;

/// Turns counts into exclusive prefix sums: each slot's first position.
fn exclusive_prefix(counts: &mut [u32]) {
    let mut below = 0;
    for count in counts {
        below += std::mem::replace(count, below);
    }
}

impl ChannelClasses {
    /// Classifies every channel of the fabric.
    pub(crate) fn new(cg: &CommGraph, tree: &CoordinatedTree) -> ChannelClasses {
        let mut statics: Vec<Signature> = Vec::new();
        for c in 0..cg.num_channels() {
            let sig = Signature::of(cg, tree, c, 0.0);
            if let Err(k) = statics.binary_search(&sig) {
                statics.insert(k, sig);
            }
        }
        let mut start = vec![0u32; statics.len() + 1];
        let class: Vec<u16> = (0..cg.num_channels())
            .map(|c| {
                let sig = Signature::of(cg, tree, c, 0.0);
                let k = statics.binary_search(&sig).expect("every class is listed");
                start[k] += 1;
                k as u16
            })
            .collect();
        exclusive_prefix(&mut start);
        let n = class.len();
        ChannelClasses {
            class,
            buckets: vec![0; n],
            by_bucket: vec![0; n],
            order: vec![0; n],
            offsets: Vec::with_capacity(BUCKET_RANKS.max(start.len())),
            statics,
            start,
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

    /// Partitions all channels by signature under the given per-channel
    /// loads (`loads[c]`, flits/clock — typically `rate · unit_load` from
    /// a [`Decomposition`]).
    ///
    /// Two stable counting sorts, by load bucket and then by class, order
    /// the channels by `(class, bucket)` with ascending ids inside each
    /// group. Class order is signature order and the idle bucket sorts
    /// first, so the groups come out in ascending [`Signature`] order.
    pub(crate) fn partition(&mut self, loads: &[f64]) -> Partition {
        assert_eq!(loads.len(), self.class.len());
        self.offsets.clear();
        self.offsets.resize(BUCKET_RANKS, 0);
        let (buckets, by_bucket, order) = (
            &mut self.buckets[..],
            &mut self.by_bucket[..],
            &mut self.order[..],
        );
        let offsets = &mut self.offsets[..];
        for (bucket, &load) in buckets.iter_mut().zip(loads) {
            *bucket = load_bucket(load);
        }
        for &bucket in &*buckets {
            offsets[bucket_rank(bucket)] += 1;
        }
        exclusive_prefix(offsets);
        for (c, &bucket) in buckets.iter().enumerate() {
            let slot = &mut offsets[bucket_rank(bucket)];
            by_bucket[*slot as usize] = c as ChannelId;
            *slot += 1;
        }

        self.offsets.clear();
        self.offsets.extend_from_slice(&self.start);
        let offsets = &mut self.offsets[..];
        for &c in &*by_bucket {
            let slot = &mut offsets[self.class[c as usize] as usize];
            order[*slot as usize] = c;
            *slot += 1;
        }

        let mut clusters = Vec::new();
        for (static_sig, range) in self.statics.iter().zip(self.start.windows(2)) {
            let class = &self.order[range[0] as usize..range[1] as usize];
            let bucket = |c: &ChannelId| self.buckets[*c as usize];
            for members in class.chunk_by(|a, b| bucket(a) == bucket(b)) {
                let sig = Signature {
                    load_bucket: bucket(&members[0]),
                    ..*static_sig
                };
                clusters.push(cluster(sig, members.to_vec(), loads));
            }
        }
        Partition { clusters }
    }
}

/// A cluster of `members` (ascending): their mean load, and the member
/// closest to it as the representative, lowest id on ties.
fn cluster(sig: Signature, members: Vec<ChannelId>, loads: &[f64]) -> Cluster {
    let mean_load = members.iter().map(|&c| loads[c as usize]).sum::<f64>() / members.len() as f64;
    let distance = |c: ChannelId| (loads[c as usize] - mean_load).abs();
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

/// Partitions all channels by signature under the given per-channel loads
/// (`loads[c]`, flits/clock — typically `rate · unit_load` from a
/// [`Decomposition`]): the fabric's channel classes, built for this one
/// call, counting-sorted by load bucket.
pub fn cluster_channels(cg: &CommGraph, tree: &CoordinatedTree, loads: &[f64]) -> Partition {
    ChannelClasses::new(cg, tree).partition(loads)
}

/// Convenience: partition at a given injection rate straight from a
/// decomposition.
pub fn cluster_at_rate(
    cg: &CommGraph,
    tree: &CoordinatedTree,
    dec: &Decomposition,
    rate: f64,
) -> Partition {
    let loads: Vec<f64> = dec.unit_load.iter().map(|&w| w * rate).collect();
    cluster_channels(cg, tree, &loads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::Decomposer;
    use irnet_core::DownUp;
    use irnet_topology::gen;
    use std::collections::BTreeMap;

    /// The ordered-map partition the counting sort replaced, kept as the
    /// reference it must equal: one map entry per signature, members
    /// pushed in ascending channel order.
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

    /// Loads drawn from `seed`. Mode 0 picks from a small palette — idle
    /// loads, loads above 1 and many exact repeats, so representatives
    /// tie; mode 1 scales a real decomposition; mode 2 draws uniformly
    /// from `[0, 4)` with about half the channels idle.
    fn loads(dec: &Decomposition, mode: u8, seed: u64) -> Vec<f64> {
        const PALETTE: [f64; 10] = [0.0, 0.004, 0.01, 0.3, 0.3, 0.7, 1.0, 1.5, 2.9, 40.0];
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let rate = 0.01 + (seed % 97) as f64 / 20.0;
        dec.unit_load
            .iter()
            .map(|&w| match mode {
                0 => PALETTE[(next() % PALETTE.len() as u64) as usize],
                1 => w * rate,
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 24,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The class-table partition equals the ordered-map one field for
        /// field, `mean_load` by its bits, over several queries on one
        /// table (so reused buffers carry nothing over).
        #[test]
        fn class_table_partition_matches_the_ordered_map(
            n in 4u32..120,
            ports in 3u32..9,
            seed in 0u64..10_000,
            mode in 0u8..3,
        ) {
            let topo = gen::random_irregular(gen::IrregularParams::paper(n, ports), seed).unwrap();
            let (tree, cg, table, _) = DownUp::new().construct_phases(&topo).unwrap();
            let dec = Decomposer::new(&cg, &table).decompose(0);
            let mut classes = ChannelClasses::new(&cg, &tree);
            for query in 0..3u64 {
                let loads = loads(&dec, mode, seed * 3 + query);
                let got = classes.partition(&loads);
                let want = reference_partition(&cg, &tree, &loads);
                proptest::prop_assert_eq!(got.len(), want.len());
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
