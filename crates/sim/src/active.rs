//! Dense bitset worklists for the occupancy-driven simulator core.
//!
//! The engine keeps one [`ActiveSet`] per pipeline stage (occupied staging
//! registers per channel, non-empty input FIFOs/source queues, pending
//! ejections), plus one per parked kind (inputs and channels that the
//! active-set core set aside until an event can change their outcome).
//! Membership updates are O(1) bit operations; iteration cost
//! is O(words + live entries) instead of O(universe), which is what makes
//! a nearly idle cycle cheap. Iteration order is always ascending by index
//! (the crossbar rotates it by an offset with a live cursor), so the
//! active-set schedule visits live entries in exactly the order the dense
//! reference scan would, and the two cores stay bit-exact.

/// A fixed-universe set of `u32` indices backed by a `u64` bitmap.
#[derive(Debug, Clone)]
pub(crate) struct ActiveSet {
    words: Vec<u64>,
    len: usize,
}

impl ActiveSet {
    /// An empty set over the universe `0..len`.
    pub(crate) fn new(len: usize) -> ActiveSet {
        ActiveSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Adds `i` to the set (idempotent).
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Removes `i` from the set (idempotent).
    #[inline]
    pub(crate) fn remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Membership test.
    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Appends the members in ascending order to `out` (not cleared).
    pub(crate) fn collect(&self, out: &mut Vec<u32>) {
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros();
                out.push((w * 64) as u32 + b);
                bits &= bits - 1;
            }
        }
    }

    /// The smallest member `>= from`, if any. A cursor built on this sees
    /// the set as it is at each step, so members inserted ahead of it are
    /// still visited — unlike a snapshot taken with [`ActiveSet::collect`].
    #[inline]
    pub(crate) fn next_at_or_after(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = *self.words.get(w)? & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = *self.words.get(w)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_collect() {
        let mut s = ActiveSet::new(200);
        for i in [0usize, 63, 64, 65, 130, 199] {
            s.insert(i);
        }
        s.insert(65); // idempotent
        s.remove(130);
        s.remove(130);
        let mut v = Vec::new();
        s.collect(&mut v);
        assert_eq!(v, [0, 63, 64, 65, 199]);
        assert!(s.contains(199) && !s.contains(130));
    }

    #[test]
    fn next_at_or_after_walks_members_in_order() {
        let mut s = ActiveSet::new(200);
        for i in [1usize, 63, 64, 130, 199] {
            s.insert(i);
        }
        let next: Vec<Option<usize>> = [0, 1, 2, 64, 65, 131, 199, 200]
            .iter()
            .map(|&f| s.next_at_or_after(f))
            .collect();
        assert_eq!(
            next,
            [
                Some(1),
                Some(1),
                Some(63),
                Some(64),
                Some(130),
                Some(199),
                Some(199),
                None
            ]
        );
        assert_eq!(ActiveSet::new(0).next_at_or_after(0), None);
        assert_eq!(ActiveSet::new(64).next_at_or_after(64), None);
    }

    #[test]
    fn collect_appends_without_clearing() {
        let mut s = ActiveSet::new(8);
        s.insert(3);
        let mut v = vec![99u32];
        s.collect(&mut v);
        assert_eq!(v, [99, 3]);
    }
}
