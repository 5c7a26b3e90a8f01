//! Empirical delay distributions ("edists").
//!
//! A distribution is stored as its values at `N_Q + 1` evenly spaced
//! quantiles — a compact, closed-under-arithmetic representation in the
//! spirit of parsimon's `EDistribution`. Convolution (for summing
//! independent per-hop delays along a route) and mixture (for merging
//! per-route latency distributions into a network-wide one) both reduce
//! to a sample set of interval midpoints and re-extracting the quantile
//! grid, so every operation is deterministic: no RNG, no hashing, no
//! wall-clock input.

/// Number of equal-probability quantile intervals in the grid.
const N_Q: usize = 64;

/// Values in a quantile row: the grid `q = 0, 1/N_Q, …, 1`.
pub(crate) const ROW: usize = N_Q + 1;

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
        EDist { qs: vec![v; ROW] }
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
    /// The buckets are already in key order, so they go to the quantile
    /// walk as they come: the result is that of [`EDist::from_weighted`]
    /// on them, bit for bit.
    pub fn from_buckets(buckets: impl Iterator<Item = (u32, u64)>) -> Option<EDist> {
        let mut total = 0.0;
        let sorted: Vec<(u64, f64)> = buckets
            .filter(|&(_, c)| c > 0)
            .map(|(v, c)| {
                let w = c as f64;
                total += w;
                (order_key(f64::from(v)), w)
            })
            .collect();
        debug_assert!(sorted.is_sorted_by_key(|&(key, _)| key));
        Self::from_sorted(&sorted, total)
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
    /// the cumulative counts: no sort. The bin count (32× the quantile
    /// grid) keeps the binning error well below the midpoint-atom
    /// approximation error already inherent in the representation. The
    /// pairs are binned by runs of bit-identical midpoints, one bin update
    /// per pair of runs, so the cost is O(runs(self) · runs(other)) plus
    /// the walk over the bins; the counts, hence the result, are those of
    /// binning every pair, bit for bit.
    pub fn convolve(&self, other: &EDist) -> EDist {
        let mut qs = vec![0.0; ROW];
        convolve_rows(&self.qs, &other.qs, &mut qs);
        EDist { qs }
    }

    /// The quantile row: [`ROW`] non-decreasing values.
    pub(crate) fn row(&self) -> &[f64] {
        &self.qs
    }

    /// The distribution whose quantile row is `row`.
    #[cfg(test)]
    pub(crate) fn from_row(row: &[f64]) -> EDist {
        assert_eq!(
            row.len(),
            ROW,
            "a quantile row has one value per grid point"
        );
        EDist { qs: row.to_vec() }
    }
}

/// Midpoints of a quantile row's equal-probability intervals.
fn midpoints(row: &[f64]) -> [f64; N_Q] {
    std::array::from_fn(|i| (row[i] + row[i + 1]) / 2.0)
}

/// Histogram bins of [`convolve_rows`]: 32× the quantile grid.
const BINS: usize = 32 * N_Q;

/// [`EDist::convolve`] on quantile rows: writes the row of the sum of a
/// draw from the distribution with row `a` and one from that with row
/// `b` to `out`, so a caller can keep its rows in one flat arena. Returns
/// the run pairs binned (see [`bin_runs`]); a point mass on either side
/// or an empty support bins none.
pub(crate) fn convolve_rows(a: &[f64], b: &[f64], out: &mut [f64]) -> usize {
    convolve_binned(a, b, out, bin_runs)
}

/// [`convolve_rows`] with the midpoint pair sums binned by `binning`,
/// which is handed both midpoint arrays, the support's low end and the
/// bins per unit, and returns the work it counts.
fn convolve_binned(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    binning: impl FnOnce(&[f64; N_Q], &[f64; N_Q], f64, f64, &mut [u32; BINS]) -> usize,
) -> usize {
    let is_point = |row: &[f64]| row[0] == row[N_Q];
    // `v + by` is `affine(1.0, by)` bit for bit, since `v * 1.0` is exact.
    let shifted = |row: &[f64], by: f64, out: &mut [f64]| {
        for (o, &v) in out.iter_mut().zip(row) {
            *o = v + by;
        }
    };
    if is_point(b) {
        shifted(a, b[0], out);
        return 0;
    }
    if is_point(a) {
        shifted(b, a[0], out);
        return 0;
    }
    let a = midpoints(a);
    let b = midpoints(b);
    let lo = a[0] + b[0];
    let hi = a[N_Q - 1] + b[N_Q - 1];
    if hi <= lo {
        out.fill(lo);
        return 0;
    }
    let scale = BINS as f64 / (hi - lo);
    let mut counts = [0u32; BINS];
    let work = binning(&a, &b, lo, scale, &mut counts);
    let total = (N_Q * N_Q) as f64;
    out[0] = lo;
    out[N_Q] = hi;
    let mut cum = 0u32;
    let mut bin = 0usize;
    for (i, q) in out.iter_mut().enumerate().take(N_Q).skip(1) {
        let target = total * i as f64 / N_Q as f64;
        while bin < BINS - 1 && f64::from(cum + counts[bin]) < target {
            cum += counts[bin];
            bin += 1;
        }
        *q = lo + (bin as f64 + 0.5) / scale;
    }
    work
}

/// Bins every pair sum `x + y` of `a` and `b` by walking the runs of
/// bit-identical values in both: a run pair's sums are all the same sum,
/// so its bin gets the pair count `len_a · len_b` at once. The counts are
/// those of binning the `N_Q²` pairs one at a time, bit for bit, however
/// the runs lie (`-0.0` next to `0.0`, NaN, infinities). Returns the run
/// pairs binned.
fn bin_runs(
    a: &[f64; N_Q],
    b: &[f64; N_Q],
    lo: f64,
    scale: f64,
    counts: &mut [u32; BINS],
) -> usize {
    let mut b_runs = [(0.0, 0u32); N_Q];
    let mut b_len = 0;
    for run in b.chunk_by(|x, y| x.to_bits() == y.to_bits()) {
        b_runs[b_len] = (run[0], run.len() as u32);
        b_len += 1;
    }
    let b_runs = &b_runs[..b_len];
    let mut pairs = 0;
    for run in a.chunk_by(|x, y| x.to_bits() == y.to_bits()) {
        let (x, len_a) = (run[0], run.len() as u32);
        for &(y, len_b) in b_runs {
            let bin = (((x + y) - lo) * scale) as usize;
            counts[bin.min(BINS - 1)] += len_a * len_b;
        }
        pairs += b_len;
    }
    pairs
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

/// Key-range buckets of [`unit_mixture`]'s rank selection.
const MIX_BUCKETS: usize = 4096;

/// Reusable buffers of [`unit_mixture`], so a query allocates nothing
/// but its result once they have grown: every midpoint key, and the keys
/// of the buckets that hold a selected rank.
#[derive(Debug, Default)]
pub(crate) struct MixScratch {
    keys: Vec<u64>,
    picked: Vec<u64>,
}

/// The mixture, at weight 1 each, of the distributions whose quantile
/// rows are `row + shift` for every `(row, shift)` part. Returns the
/// mixture and the keys its selection sorted, or `None` without parts.
///
/// The samples are the parts' `N_Q` interval midpoints, each taken of
/// the shifted row, `((r[j] + s) + (r[j + 1] + s)) / 2`. With unit
/// weights the quantile walk of [`EDist::from_weighted`] is exact integer
/// arithmetic: over `n` parts the total is `N_Q · n` and grid point `i`
/// targets `n · i`, so it reads the sample of rank `n · i − 1` in key
/// order (rank 0 for `i = 0`). Tied keys are the same bits, so no tie
/// order changes a value. The selection therefore buckets the keys by
/// their high bits over the range they span and sorts only the buckets
/// that hold one of the `N_Q + 1` ranks: on the same midpoints the result
/// is the weighted merge's, bit for bit, NaN, infinities and `-0.0`
/// included.
pub(crate) fn unit_mixture<'r>(
    parts: impl IntoIterator<Item = (&'r [f64], f64)>,
    scratch: &mut MixScratch,
) -> Option<(EDist, usize)> {
    let keys = &mut scratch.keys;
    keys.clear();
    for (row, shift) in parts {
        let shifted: [f64; ROW] = std::array::from_fn(|j| row[j] + shift);
        keys.extend(midpoints(&shifted).map(order_key));
    }
    let n = keys.len() / N_Q;
    if n == 0 {
        return None;
    }
    let rank = |i: usize| (n * i).saturating_sub(1);
    let (lo, hi) = keys
        .iter()
        .fold((u64::MAX, 0), |(lo, hi), &k| (lo.min(k), hi.max(k)));
    if lo == hi {
        return Some((EDist::constant(from_order_key(lo)), 0));
    }
    // `(key - lo) >> low_bits` is below `MIX_BUCKETS` for every key.
    let low_bits = (u64::BITS - (hi - lo).leading_zeros()).saturating_sub(MIX_BUCKETS.ilog2());
    let bucket = |k: u64| ((k - lo) >> low_bits) as usize;
    let mut counts = [0u32; MIX_BUCKETS];
    for &k in keys.iter() {
        counts[bucket(k)] += 1;
    }
    // Each rank's bucket and position among the picked keys; `slot[b]` is
    // the next write position of a picked bucket `b`.
    let mut slot = [u32::MAX; MIX_BUCKETS];
    let mut picked_buckets = [(0usize, 0u32); ROW];
    let mut picked_len = 0;
    let mut at = [0u32; ROW];
    let (mut b, mut below, mut picked) = (0, 0u32, 0u32);
    for (i, at) in at.iter_mut().enumerate() {
        let r = rank(i) as u32;
        while below + counts[b] <= r {
            below += counts[b];
            b += 1;
        }
        if slot[b] == u32::MAX {
            slot[b] = picked;
            picked_buckets[picked_len] = (b, picked);
            picked_len += 1;
            picked += counts[b];
        }
        *at = slot[b] + (r - below);
    }
    let out = &mut scratch.picked;
    out.clear();
    out.resize(picked as usize, 0);
    for &k in keys.iter() {
        let s = &mut slot[bucket(k)];
        if *s != u32::MAX {
            out[*s as usize] = k;
            *s += 1;
        }
    }
    for &(b, start) in &picked_buckets[..picked_len] {
        let start = start as usize;
        out[start..start + counts[b] as usize].sort_unstable();
    }
    let qs = at
        .iter()
        .map(|&p| from_order_key(out[p as usize]))
        .collect();
    Some((EDist { qs }, picked as usize))
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
        let m = weighted_mixture(&[(1.0, &a), (3.0, &b)]).unwrap();
        assert!((m.mean() - 7.5).abs() < 0.2, "{}", m.mean());
        let mut scratch = MixScratch::default();
        let (m, _) = unit_mixture([(a.row(), 0.0), (b.row(), 0.0)], &mut scratch).unwrap();
        assert!((m.mean() - 5.0).abs() < 0.2, "{}", m.mean());
        assert!(unit_mixture([], &mut scratch).is_none());
    }

    /// The weighted mixture [`unit_mixture`] replaced, kept as its
    /// reference: each positively weighted part contributes its `N_Q`
    /// interval midpoints at its weight, merged in stable key order, and
    /// the quantile walk of [`EDist::from_weighted`] runs on them. `None`
    /// when `parts` is empty or all weights are zero.
    fn weighted_mixture(parts: &[(f64, &EDist)]) -> Option<EDist> {
        let (samples, total) = merged_samples(parts);
        EDist::from_sorted(&samples, total)
    }

    /// The midpoint samples of every positively weighted part, keyed by
    /// [`order_key`], in stable key order, and their total weight summed
    /// in input order. Midpoints are already in value order, so the
    /// parts' runs are merged pairwise, bottom up; ties go to the lower
    /// part index, then the earlier position.
    fn merged_samples(parts: &[(f64, &EDist)]) -> (Vec<(u64, f64)>, f64) {
        let mut samples: Vec<(u64, f64)> = Vec::with_capacity(parts.len() * N_Q);
        let mut total = 0.0;
        for &(w, d) in parts.iter().filter(|&&(w, _)| w > 0.0) {
            let run = samples.len();
            for m in midpoints(&d.qs) {
                samples.push((order_key(m), w));
                total += w;
            }
            // A no-op on ordered midpoints; it orders a run that holds a
            // NaN, or a -0.0 after a 0.0.
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
            for m in midpoints(&d.qs) {
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
            proptest::prop_assert_eq!(bits(weighted_mixture(&refs)), bits(sorted_mixture(&refs)));
            // The merge's order itself is the stable sort's: on tied
            // values the weights, which differ between parts, show it.
            let mut stable: Vec<(f64, f64)> = refs
                .iter()
                .filter(|&&(w, _)| w > 0.0)
                .flat_map(|&(w, d)| midpoints(&d.qs).into_iter().map(move |m| (m, w)))
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

    /// The binning [`bin_runs`] replaced: every one of the `N_Q²` pair
    /// sums, one bin update each. Returns the pairs binned.
    fn bin_pairs(
        a: &[f64; N_Q],
        b: &[f64; N_Q],
        lo: f64,
        scale: f64,
        counts: &mut [u32; BINS],
    ) -> usize {
        for &x in a {
            for &y in b {
                let bin = (((x + y) - lo) * scale) as usize;
                counts[bin.min(BINS - 1)] += 1;
            }
        }
        N_Q * N_Q
    }

    /// A quantile row for the convolution kernel's property test, drawn
    /// from `next`: a point mass, or values from a few small integers
    /// (long runs), with `special` also `±0.0`, NaN of either sign,
    /// infinities, huge values and subnormals; sorted in `total_cmp`
    /// order or not, and with the `max_with(1.0)` head or not.
    fn kernel_row(next: &mut impl FnMut() -> u64, special: bool) -> Vec<f64> {
        const SPECIAL: [f64; 10] = [
            -0.0,
            0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE / 2.0,
        ];
        let spread = 1 + next() % 8;
        let draw = |r: u64| {
            if special && r.is_multiple_of(3) {
                SPECIAL[(r / 3 % SPECIAL.len() as u64) as usize]
            } else {
                (r / 3 % spread) as f64 * 0.75
            }
        };
        if next().is_multiple_of(6) {
            return vec![draw(next()); ROW];
        }
        let mut row: Vec<f64> = (0..ROW).map(|_| draw(next())).collect();
        if !next().is_multiple_of(4) {
            row.sort_by(f64::total_cmp);
        }
        if next().is_multiple_of(2) {
            row = EDist::from_row(&row).max_with(1.0).qs;
        }
        row
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 2000,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The run kernel writes the row the pair loop writes, bit for
        /// bit, and bins one pair per pair of runs.
        #[test]
        fn run_kernel_matches_the_pair_loop(
            seed in 0u64..1_000_000_000,
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
            let a = kernel_row(&mut next, special);
            let b = kernel_row(&mut next, special);
            let (mut runs, mut pairs) = ([0.0; ROW], [0.0; ROW]);
            let run_pairs = convolve_rows(&a, &b, &mut runs);
            let all_pairs = convolve_binned(&a, &b, &mut pairs, bin_pairs);
            let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&runs), bits(&pairs));
            let count = |row: &[f64]| {
                midpoints(row)
                    .chunk_by(|x, y| x.to_bits() == y.to_bits())
                    .count()
            };
            if all_pairs == 0 {
                proptest::prop_assert_eq!(run_pairs, 0);
            } else {
                proptest::prop_assert_eq!(run_pairs, count(&a) * count(&b));
            }
        }
    }

    /// The kernel's edge rows, each against the pair loop: a point-mass
    /// head next to spread values, `-0.0` runs next to `0.0` runs, NaN of
    /// either sign, infinities and subnormals, and point masses on either
    /// side (the shift fast path, which bins nothing).
    #[test]
    fn run_kernel_matches_the_pair_loop_on_edge_rows() {
        let ramp = |f: fn(usize) -> f64| (0..ROW).map(f).collect::<Vec<f64>>();
        let rows = [
            ramp(|i| (i as f64 - 24.0).max(1.0)),
            ramp(|i| if i < 30 { -0.0 } else { 0.0 }),
            ramp(|i| {
                if i < 20 {
                    -0.0
                } else if i < 40 {
                    0.0
                } else {
                    i as f64
                }
            }),
            ramp(|i| {
                if i < 10 {
                    -f64::NAN
                } else if i > 60 {
                    f64::NAN
                } else {
                    i as f64
                }
            }),
            ramp(|i| {
                if i < 5 {
                    f64::NEG_INFINITY
                } else if i > 50 {
                    f64::INFINITY
                } else {
                    1.0
                }
            }),
            ramp(|i| [5e-324, -5e-324, f64::MIN_POSITIVE / 2.0, 0.0][i % 4]),
            ramp(|i| (i / 16) as f64 * 1e300),
            vec![3.0; ROW],
            vec![-0.0; ROW],
        ];
        let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for a in &rows {
            for b in &rows {
                let (mut runs, mut pairs) = ([0.0; ROW], [0.0; ROW]);
                let run_pairs = convolve_rows(a, b, &mut runs);
                let all_pairs = convolve_binned(a, b, &mut pairs, bin_pairs);
                assert_eq!(bits(&runs), bits(&pairs), "{a:?} ⊛ {b:?}");
                assert!(run_pairs <= all_pairs, "{a:?} ⊛ {b:?}");
            }
        }
        // The max_with(1.0) head is one run: 25 midpoints at 1.0 and 39
        // distinct ones above, so 40² run pairs where the loop bins 64².
        let (head, mut out) = (&rows[0], [0.0; ROW]);
        assert_eq!(convolve_rows(head, head, &mut out), 40 * 40);
        assert_eq!(convolve_rows(head, &rows[7], &mut out), 0);
        assert_eq!(convolve_rows(&rows[7], head, &mut out), 0);
    }

    type Mixed = (Option<Vec<u64>>, Option<Vec<u64>>, usize);

    /// [`unit_mixture`] of `parts` and the weighted merge of the same rows
    /// shifted by `affine(1.0, shift)` at weight 1, as the predictor's
    /// route distributions were built: both rows' bits and the keys the
    /// selection sorted.
    fn unit_and_weighted(parts: &[(Vec<f64>, f64)]) -> Mixed {
        let dists: Vec<EDist> = parts
            .iter()
            .map(|(row, shift)| EDist::from_row(row).affine(1.0, *shift))
            .collect();
        let refs: Vec<(f64, &EDist)> = dists.iter().map(|d| (1.0, d)).collect();
        let mut scratch = MixScratch::default();
        let unit = unit_mixture(
            parts.iter().map(|(row, shift)| (row.as_slice(), *shift)),
            &mut scratch,
        );
        let sorted = unit.as_ref().map_or(0, |&(_, sorted)| sorted);
        (
            bits(unit.map(|(d, _)| d)),
            bits(weighted_mixture(&refs)),
            sorted,
        )
    }

    /// A route row as the predictor's trie holds them, drawn from `next`:
    /// either a kernel test row (long runs, point masses, and with
    /// `special` the special values), or the fold of one to three hop
    /// rows, each a random latency histogram scaled per hop and clamped
    /// at 1 cycle, whose values carry full mantissas.
    fn trie_row(next: &mut impl FnMut() -> u64, special: bool) -> Vec<f64> {
        if next().is_multiple_of(4) {
            return kernel_row(next, special);
        }
        let mut row = EDist::constant(0.0);
        for _ in 0..1 + next() % 3 {
            let mut floor = 0u32;
            let buckets: Vec<(u32, u64)> = (0..1 + next() % 12)
                .map(|_| {
                    floor += 1 + (next() % 20) as u32;
                    (floor, next() % 50)
                })
                .collect();
            let hops = (1 + next() % 7) as f64;
            let hop = EDist::from_buckets(buckets.into_iter())
                .map_or(EDist::constant(1.0), |lat| {
                    lat.affine(1.0 / hops, -31.0 / hops).max_with(1.0)
                });
            row = row.convolve(&hop);
        }
        row.qs
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 1000,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The rank selection is the weighted merge at weight 1, bit for
        /// bit: one to 48 parts of trie-like rows, a part repeated or not,
        /// and shifts that are the predictor's (serialization plus idle
        /// hops) or, with `special`, `±0.0`, huge, subnormal, NaN of
        /// either sign or infinite. No addition meets NaNs of opposite
        /// signs. It sorts at most every key.
        #[test]
        fn unit_mixture_matches_the_weighted_merge(
            seed in 0u64..1_000_000_000,
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
            const SHIFTS: [f64; 12] = [
                -0.0,
                0.0,
                1e300,
                f64::MAX,
                -f64::MAX,
                9_007_199_254_740_993.0,
                5e-324,
                -5e-324,
                f64::NAN,
                -f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ];
            let n = if next().is_multiple_of(4) { 1 } else { 1 + next() % 48 };
            let repeat = next().is_multiple_of(3);
            let mut parts: Vec<(Vec<f64>, f64)> = Vec::new();
            for _ in 0..n {
                if repeat && !parts.is_empty() && !next().is_multiple_of(3) {
                    parts.push(parts[(next() % parts.len() as u64) as usize].clone());
                    continue;
                }
                let shift = if special && next().is_multiple_of(3) {
                    SHIFTS[(next() % SHIFTS.len() as u64) as usize]
                } else {
                    (31 + next() % 12) as f64
                };
                let mut row = trie_row(&mut next, special);
                while meets_nan(&row, shift) {
                    row = trie_row(&mut next, special);
                }
                parts.push((row, shift));
            }
            let (unit, weighted, sorted) = unit_and_weighted(&parts);
            proptest::prop_assert_eq!(unit, weighted);
            proptest::prop_assert!(sorted <= N_Q * parts.len());
        }
    }

    /// Whether a part's midpoints add two NaNs of opposite signs: a NaN
    /// shift onto a row NaN of the other sign, or two shifted values side
    /// by side, each a NaN of the row or one that `inf + -inf` made. Which
    /// operand's NaN an addition of two NaNs returns is left to the
    /// compiler (Rust specifies only that the result is NaN), so two
    /// compilations of one sum can differ in its sign there, which moves
    /// its rank; the comparisons leave those parts out. The predictor's
    /// rows and shifts hold no NaN.
    fn meets_nan(row: &[f64], shift: f64) -> bool {
        let opposite = |a: f64, b: f64| {
            a.is_nan() && b.is_nan() && a.is_sign_negative() != b.is_sign_negative()
        };
        let shifted: Vec<f64> = row.iter().map(|&v| v + shift).collect();
        row.iter().any(|&v| opposite(v, shift)) || shifted.windows(2).any(|w| opposite(w[0], w[1]))
    }

    /// The rank selection on edge rows, each against the weighted merge:
    /// the kernel's edge rows (point-mass heads, `-0.0` runs next to `0.0`
    /// runs, NaN of either sign, infinities, subnormals, huge values,
    /// point masses) alone, in pairs, all at once and one repeated 48
    /// times, under shifts of `±0.0`, 31, huge values, NaN and infinities.
    #[test]
    fn unit_mixture_matches_the_weighted_merge_on_edge_rows() {
        let ramp = |f: fn(usize) -> f64| (0..ROW).map(f).collect::<Vec<f64>>();
        let rows = [
            ramp(|i| (i as f64 - 24.0).max(1.0)),
            ramp(|i| if i < 30 { -0.0 } else { 0.0 }),
            ramp(|i| {
                if i < 10 {
                    -f64::NAN
                } else if i > 60 {
                    f64::NAN
                } else {
                    i as f64 / 3.0
                }
            }),
            ramp(|i| {
                if i < 5 {
                    f64::NEG_INFINITY
                } else if i > 50 {
                    f64::INFINITY
                } else {
                    1.0
                }
            }),
            ramp(|i| [5e-324, -5e-324, f64::MIN_POSITIVE / 2.0, 0.0][i % 4]),
            ramp(|i| (i / 16) as f64 * 1e300),
            ramp(|i| 40.0 + (i as f64 * 0.7).sqrt()),
            vec![3.0; ROW],
            vec![-0.0; ROW],
        ];
        let shifts = [
            0.0,
            -0.0,
            31.0,
            1e300,
            f64::MAX,
            f64::NAN,
            f64::NEG_INFINITY,
        ];
        let check = |parts: &[(Vec<f64>, f64)]| {
            let (unit, weighted, sorted) = unit_and_weighted(parts);
            assert_eq!(unit, weighted, "{parts:?}");
            assert!(sorted <= N_Q * parts.len(), "{parts:?}");
        };
        for &shift in &shifts {
            for a in rows.iter().filter(|a| !meets_nan(a, shift)) {
                check(&[(a.clone(), shift)]);
                check(&vec![(a.clone(), shift); 48]);
                for b in &rows {
                    check(&[(a.clone(), shift), (b.clone(), 31.0)]);
                }
            }
            let all: Vec<(Vec<f64>, f64)> = rows
                .iter()
                .filter(|a| !meets_nan(a, shift))
                .map(|a| (a.clone(), shift))
                .collect();
            check(&all);
        }
        // A point mass selects without sorting; a spread row sorts only the
        // buckets that hold a rank.
        let mut scratch = MixScratch::default();
        let point = unit_mixture([(rows[7].as_slice(), 1.0)], &mut scratch).unwrap();
        assert_eq!((point.0.qs, point.1), (vec![4.0; ROW], 0));
        let spread = unit_mixture([(rows[6].as_slice(), 31.0)], &mut scratch).unwrap();
        assert!(spread.1 <= N_Q, "{}", spread.1);
    }

    #[test]
    fn affine_shifts_and_scales() {
        let d = EDist::constant(4.0).affine(0.5, -1.0);
        assert!((d.mean() - 1.0).abs() < 1e-9);
        let clamped = d.max_with(2.0);
        assert!((clamped.mean() - 2.0).abs() < 1e-9);
    }
}
