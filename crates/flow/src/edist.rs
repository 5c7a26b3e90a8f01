//! Empirical delay distributions ("edists").
//!
//! A distribution is stored as its values at `N_Q + 1` evenly spaced
//! quantiles — a compact, closed-under-arithmetic representation in the
//! spirit of parsimon's `EDistribution`. Convolution (for summing
//! independent per-hop delays along a route) and weighted mixture (for
//! merging per-route latency distributions into a network-wide one) both
//! reduce to building a weighted sample set and re-extracting the quantile
//! grid, so every operation is deterministic: no RNG, no hashing, no
//! wall-clock input.

/// Number of equal-probability quantile intervals in the grid.
const N_Q: usize = 64;

/// An empirical distribution over `f64` values, stored as the quantile
/// grid `q = 0, 1/N, …, 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct EDist {
    /// `qs[i]` is the value at quantile `i / N_Q`; non-decreasing.
    qs: Vec<f64>,
}

impl EDist {
    /// The degenerate distribution concentrated at `v`.
    pub fn constant(v: f64) -> EDist {
        EDist {
            qs: vec![v; N_Q + 1],
        }
    }

    /// Builds from weighted samples. Returns `None` when the total weight
    /// is zero (no samples). The input order does not matter — samples are
    /// sorted by value internally.
    pub fn from_weighted(samples: &[(f64, f64)]) -> Option<EDist> {
        let mut sorted: Vec<(u64, f64)> = samples
            .iter()
            .filter(|&&(_, w)| w > 0.0)
            .map(|&(v, w)| (order_key(v), w))
            .collect();
        let total: f64 = sorted.iter().map(|&(_, w)| w).sum();
        sorted.sort_by_key(|&(key, _)| key);
        Self::from_sorted(&sorted, total)
    }

    /// The quantile grid of positively weighted samples, keyed by
    /// [`order_key`] and in stable key order, whose weights sum to
    /// `total`. `None` when `total` is not positive.
    fn from_sorted(sorted: &[(u64, f64)], total: f64) -> Option<EDist> {
        if total <= 0.0 {
            return None;
        }
        let mut qs = Vec::with_capacity(N_Q + 1);
        let mut cum = 0.0;
        let mut idx = 0;
        for i in 0..=N_Q {
            let target = total * i as f64 / N_Q as f64;
            while idx < sorted.len() - 1 && cum + sorted[idx].1 < target {
                cum += sorted[idx].1;
                idx += 1;
            }
            qs.push(from_order_key(sorted[idx].0));
        }
        Some(EDist { qs })
    }

    /// Builds from histogram buckets `(value floor, count)` in increasing
    /// value order (the shape [`irnet_sim::Histogram::buckets`] yields).
    pub fn from_buckets(buckets: impl Iterator<Item = (u32, u64)>) -> Option<EDist> {
        let samples: Vec<(f64, f64)> = buckets.map(|(v, c)| (v as f64, c as f64)).collect();
        Self::from_weighted(&samples)
    }

    /// The value at quantile `q ∈ [0, 1]`, linearly interpolated on the
    /// grid.
    pub fn quantile(&self, q: f64) -> f64 {
        let pos = q.clamp(0.0, 1.0) * N_Q as f64;
        let lo = (pos.floor() as usize).min(N_Q);
        let hi = (lo + 1).min(N_Q);
        let frac = pos - lo as f64;
        self.qs[lo] * (1.0 - frac) + self.qs[hi] * frac
    }

    /// Mean, via the midpoint rule over the equal-probability intervals.
    pub fn mean(&self) -> f64 {
        let mut sum = 0.0;
        for i in 0..N_Q {
            sum += (self.qs[i] + self.qs[i + 1]) / 2.0;
        }
        sum / N_Q as f64
    }

    /// Applies `x ↦ x * scale + shift` to the distribution.
    pub fn affine(&self, scale: f64, shift: f64) -> EDist {
        let mut qs: Vec<f64> = self.qs.iter().map(|&v| v * scale + shift).collect();
        if scale < 0.0 {
            qs.reverse();
        }
        EDist { qs }
    }

    /// Clamps every value to at least `floor`.
    pub fn max_with(&self, floor: f64) -> EDist {
        EDist {
            qs: self.qs.iter().map(|&v| v.max(floor)).collect(),
        }
    }

    /// Whether the distribution is a point mass (all quantiles equal).
    pub fn is_point(&self) -> bool {
        self.qs[0] == self.qs[N_Q]
    }

    /// The distribution of the sum of two independent draws — one from
    /// `self`, one from `other` — approximated on the quantile grid by
    /// summing every pair of equal-probability interval midpoints. Adding
    /// a point mass is an exact shift, taken as a fast path.
    ///
    /// The `N_Q²` equal-weight pair sums are binned into a fixed uniform
    /// histogram spanning their support and the quantile grid is read off
    /// the cumulative counts — O(N_Q²) with small constants instead of a
    /// sort, which keeps warm flow-predictor queries in the millisecond
    /// range. The bin count (32× the quantile grid) keeps the binning
    /// error well below the midpoint-atom approximation error already
    /// inherent in the representation.
    pub fn convolve(&self, other: &EDist) -> EDist {
        if other.is_point() {
            return self.affine(1.0, other.qs[0]);
        }
        if self.is_point() {
            return other.affine(1.0, self.qs[0]);
        }
        let a = self.midpoints();
        let b = other.midpoints();
        let lo = a[0] + b[0];
        let hi = a[N_Q - 1] + b[N_Q - 1];
        if hi <= lo {
            return EDist::constant(lo);
        }
        const BINS: usize = 32 * N_Q;
        let scale = BINS as f64 / (hi - lo);
        let mut counts = [0u32; BINS];
        for &x in &a {
            for &y in &b {
                let bin = (((x + y) - lo) * scale) as usize;
                counts[bin.min(BINS - 1)] += 1;
            }
        }
        let total = (N_Q * N_Q) as f64;
        let mut qs = Vec::with_capacity(N_Q + 1);
        qs.push(lo);
        let mut cum = 0u32;
        let mut bin = 0usize;
        for i in 1..=N_Q {
            let target = total * i as f64 / N_Q as f64;
            while bin < BINS - 1 && f64::from(cum + counts[bin]) < target {
                cum += counts[bin];
                bin += 1;
            }
            if i == N_Q {
                qs.push(hi);
            } else {
                qs.push(lo + (bin as f64 + 0.5) / scale);
            }
        }
        EDist { qs }
    }

    /// The weighted mixture of several distributions. Returns `None` when
    /// `parts` is empty or all weights are zero.
    ///
    /// Each positively weighted part contributes its `N_Q` interval
    /// midpoints at its weight. Midpoints are already in value order, so
    /// the parts' runs are merged pairwise, bottom up, instead of sorted;
    /// ties go to the lower part index, then the earlier position. That is
    /// the order a stable sort of all the samples gives, so the result is
    /// that of [`EDist::from_weighted`] on them, bit for bit. The total
    /// weight is summed sample by sample in input order, as there.
    pub fn mixture(parts: &[(f64, &EDist)]) -> Option<EDist> {
        let (samples, total) = merged_samples(parts);
        EDist::from_sorted(&samples, total)
    }

    /// Midpoints of the equal-probability intervals: `N_Q` atoms of mass
    /// `1/N_Q` each.
    fn midpoints(&self) -> Vec<f64> {
        (0..N_Q)
            .map(|i| (self.qs[i] + self.qs[i + 1]) / 2.0)
            .collect()
    }
}

/// `x`'s bits, mapped so that unsigned order is [`f64::total_cmp`]
/// order: a non-negative value gains the sign bit, a negative one has
/// every bit flipped.
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((bits as i64 >> 63) as u64 | 1 << 63)
}

/// The value [`order_key`] was taken from.
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key ^ 1 << 63 } else { !key })
}

/// The midpoint samples of every positively weighted part, keyed by
/// [`order_key`], in stable key order, and their total weight summed in
/// input order ([`EDist::mixture`]).
fn merged_samples(parts: &[(f64, &EDist)]) -> (Vec<(u64, f64)>, f64) {
    let mut samples: Vec<(u64, f64)> = Vec::with_capacity(parts.len() * N_Q);
    let mut total = 0.0;
    for &(w, d) in parts.iter().filter(|&&(w, _)| w > 0.0) {
        let run = samples.len();
        for m in d.midpoints() {
            samples.push((order_key(m), w));
            total += w;
        }
        // A no-op on ordered midpoints; it orders a run that holds a NaN,
        // or a -0.0 after a 0.0.
        samples[run..].sort_by_key(|&(key, _)| key);
    }
    let mut merged = samples.clone();
    let mut width = N_Q;
    while width < samples.len() {
        for (src, dst) in samples.chunks(2 * width).zip(merged.chunks_mut(2 * width)) {
            let (left, right) = src.split_at(width.min(src.len()));
            merge_into(left, right, dst);
        }
        std::mem::swap(&mut samples, &mut merged);
        width *= 2;
    }
    (samples, total)
}

/// Merges two runs in key order into `out`, taking from `left` on ties.
fn merge_into(left: &[(u64, f64)], right: &[(u64, f64)], out: &mut [(u64, f64)]) {
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < left.len() && j < right.len() {
        let (l, r) = (left[i], right[j]);
        let take_right = r.0 < l.0;
        out[k] = if take_right { r } else { l };
        j += usize::from(take_right);
        i += usize::from(!take_right);
        k += 1;
    }
    let rest = if i < left.len() {
        &left[i..]
    } else {
        &right[j..]
    };
    out[k..].copy_from_slice(rest);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_has_flat_quantiles() {
        let d = EDist::constant(3.0);
        assert_eq!(d.quantile(0.0), 3.0);
        assert_eq!(d.quantile(0.5), 3.0);
        assert_eq!(d.quantile(1.0), 3.0);
        assert_eq!(d.mean(), 3.0);
    }

    #[test]
    fn from_weighted_recovers_quantiles() {
        // 100 samples 1..=100, uniform weights.
        let samples: Vec<(f64, f64)> = (1..=100).map(|v| (v as f64, 1.0)).collect();
        let d = EDist::from_weighted(&samples).unwrap();
        assert!((d.quantile(0.5) - 50.0).abs() <= 2.0, "{}", d.quantile(0.5));
        assert!((d.mean() - 50.5).abs() <= 1.0, "{}", d.mean());
        assert!(d.quantile(1.0) >= 99.0);
    }

    #[test]
    fn empty_weights_yield_none() {
        assert!(EDist::from_weighted(&[]).is_none());
        assert!(EDist::from_weighted(&[(1.0, 0.0)]).is_none());
    }

    #[test]
    fn convolution_of_constants_adds() {
        let d = EDist::constant(2.0).convolve(&EDist::constant(5.0));
        assert!((d.mean() - 7.0).abs() < 1e-9);
        assert!((d.quantile(0.9) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn convolution_means_add() {
        let a = EDist::from_weighted(&[(1.0, 1.0), (3.0, 1.0)]).unwrap();
        let b = EDist::from_weighted(&[(10.0, 1.0), (20.0, 3.0)]).unwrap();
        let c = a.convolve(&b);
        assert!(
            (c.mean() - (a.mean() + b.mean())).abs() < 0.3,
            "{}",
            c.mean()
        );
    }

    #[test]
    fn mixture_interpolates() {
        let a = EDist::constant(0.0);
        let b = EDist::constant(10.0);
        let m = EDist::mixture(&[(1.0, &a), (3.0, &b)]).unwrap();
        assert!((m.mean() - 7.5).abs() < 0.2, "{}", m.mean());
    }

    /// The sort-based construction the key-ordered one replaced: a stable
    /// sort by `total_cmp`, then the same quantile walk.
    fn sorted_from_weighted(samples: &[(f64, f64)]) -> Option<EDist> {
        let mut sorted: Vec<(f64, f64)> =
            samples.iter().filter(|&&(_, w)| w > 0.0).copied().collect();
        let total: f64 = sorted.iter().map(|&(_, w)| w).sum();
        if total <= 0.0 {
            return None;
        }
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut qs = Vec::with_capacity(N_Q + 1);
        let mut cum = 0.0;
        let mut idx = 0;
        for i in 0..=N_Q {
            let target = total * i as f64 / N_Q as f64;
            while idx < sorted.len() - 1 && cum + sorted[idx].1 < target {
                cum += sorted[idx].1;
                idx += 1;
            }
            qs.push(sorted[idx].0);
        }
        Some(EDist { qs })
    }

    /// The sort-based mixture the merge replaced: every midpoint sample
    /// of every positively weighted part, sorted.
    fn sorted_mixture(parts: &[(f64, &EDist)]) -> Option<EDist> {
        let mut samples = Vec::new();
        for &(w, d) in parts {
            if w <= 0.0 {
                continue;
            }
            for m in d.midpoints() {
                samples.push((m, w));
            }
        }
        sorted_from_weighted(&samples)
    }

    fn bits(d: Option<EDist>) -> Option<Vec<u64>> {
        d.map(|d| d.qs.iter().map(|v| v.to_bits()).collect())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 200,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The merged mixture equals the sort-based one bit for bit, and
        /// the key-ordered `from_weighted` the sort-based one. Values come
        /// from a few small integers, so midpoints tie within and across
        /// parts; with `special` set they also include -0.0, 0.0, NaN and
        /// infinities, which put runs out of `total_cmp` order. Weights
        /// repeat, differ, or are zero.
        #[test]
        fn merged_mixture_matches_the_sorted_one(
            parts in 0usize..60,
            spread in 1u64..6,
            seed in 0u64..1_000_000,
            special in proptest::bool::ANY,
        ) {
            let mut state = seed;
            let mut next = move || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            const WEIGHTS: [f64; 6] = [0.0, 1.0, 1.0, 0.5, 3.0, 1e-3];
            const SPECIAL: [f64; 5] = [-0.0, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            let dists: Vec<(f64, EDist)> = (0..parts)
                .map(|_| {
                    let samples: Vec<(f64, f64)> = (0..1 + next() % 5)
                        .map(|_| {
                            let r = next();
                            let v = if special && r % 3 == 0 {
                                SPECIAL[(r / 3 % SPECIAL.len() as u64) as usize]
                            } else {
                                (r % spread) as f64
                            };
                            (v, (1 + next() % 3) as f64)
                        })
                        .collect();
                    proptest::prop_assert_eq!(
                        bits(EDist::from_weighted(&samples)),
                        bits(sorted_from_weighted(&samples))
                    );
                    let w = WEIGHTS[(next() % WEIGHTS.len() as u64) as usize];
                    (w, EDist::from_weighted(&samples).unwrap())
                })
                .collect();
            let refs: Vec<(f64, &EDist)> = dists.iter().map(|(w, d)| (*w, d)).collect();
            proptest::prop_assert_eq!(bits(EDist::mixture(&refs)), bits(sorted_mixture(&refs)));
            // The merge's order itself is the stable sort's: on tied
            // values the weights, which differ between parts, show it.
            let mut stable: Vec<(f64, f64)> = refs
                .iter()
                .filter(|&&(w, _)| w > 0.0)
                .flat_map(|&(w, d)| d.midpoints().into_iter().map(move |m| (m, w)))
                .collect();
            stable.sort_by(|a, b| a.0.total_cmp(&b.0));
            let merged: Vec<(u64, u64)> = merged_samples(&refs)
                .0
                .iter()
                .map(|&(key, w)| (from_order_key(key).to_bits(), w.to_bits()))
                .collect();
            let stable: Vec<(u64, u64)> =
                stable.iter().map(|&(v, w)| (v.to_bits(), w.to_bits())).collect();
            proptest::prop_assert_eq!(merged, stable);
        }
    }

    #[test]
    fn affine_shifts_and_scales() {
        let d = EDist::constant(4.0).affine(0.5, -1.0);
        assert!((d.mean() - 1.0).abs() < 1e-9);
        let clamped = d.max_with(2.0);
        assert!((clamped.mean() - 2.0).abs() < 1e-9);
    }
}
