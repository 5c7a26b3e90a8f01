//! Generic per-node release of redundant prohibited turns.
//!
//! Both the DOWN/UP routing (§4.3 of the paper) and the L-turn routing it
//! compares against run a *cycle detection* pass after applying their global
//! prohibited-turn sets: a prohibited turn at a node is redundant if
//! re-allowing it cannot close a turn cycle in this particular communication
//! graph, and releasing redundant turns gives packets more (and shorter)
//! legal paths.
//!
//! The safety test is channel-level: releasing the candidate `(e1, e2)` at
//! node `v` closes a cycle iff the current channel dependency graph has a
//! directed path from `e2` back to `e1` (a path that used the candidate edge
//! mid-way would pass through `e1` first, so searching without the candidate
//! edge is equivalent). Candidates are scanned in node-id order, then
//! (input port, output port) order, and each release commits before the next
//! test — the deterministic sequential pass the paper describes.
//!
//! The pass answers every test from a reachability closure instead of one
//! graph search per candidate. Let `X` be the distinct in-channels and `Y`
//! the distinct out-channels of the candidates. `C[y] ⊆ X` holds the
//! in-channels `y` reaches (including `y` itself), so `(x, y)` is rejected
//! iff `x ∈ C[y]`. One bitset sweep of the base graph in topological order
//! fills `C`, 64 sources per machine word. A release adds the edge `x → y`,
//! and afterwards a channel reaches everything `y` reaches iff it reached
//! `x`: `y` cannot reach `x`, or the turn would not have been released, so
//! no path from `y` uses the new edge. The release therefore ORs `C[y]`
//! into every row that contains `x`, and `C` stays exact.
//!
//! Cost: the sweep is `O(⌈|Y|/64⌉ · |E⃗|)` word operations, each release
//! `O(|Y| · |X|/64)`, and `C` takes `|X| · |Y| / 8` bytes. A cyclic base
//! graph has no topological order; there the sweep repeats until nothing
//! changes, so the answers stay exact (DESIGN.md §13).
//!
//! The same closure answers the question for callers that commit nothing:
//! [`cycle_closing`] tests each turn of a list alone, which is the
//! analyzer's prohibition-minimality audit. The reconfiguration check of
//! `irnet-verify` is itself a release pass over the old table.

use crate::cdg::ChannelDepGraph;
use crate::turn_table::TurnTable;
use irnet_topology::{ChannelId, CommGraph};

/// What a release pass decided, and what its reachability closure cost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReleasePass {
    /// The released `(in_ch, out_ch)` pairs, in pass order.
    pub released: Vec<(ChannelId, ChannelId)>,
    /// Candidates tested: prohibited, non-U-turn pairs the filter accepted.
    pub candidates: usize,
    /// Heap bytes of the reachability closure `C`.
    pub closure_bytes: usize,
}

/// Releases every redundant prohibited turn accepted by `candidate`,
/// mutating `table`. The filter sees each prohibited, non-U-turn pair once,
/// in pass order.
///
/// The resulting table is deadlock-free whenever the input table was: each
/// release is individually checked against the up-to-date dependency graph
/// (base graph plus every previously committed release).
pub fn release_redundant_turns(
    cg: &CommGraph,
    table: &mut TurnTable,
    mut candidate: impl FnMut(ChannelId, ChannelId) -> bool,
) -> ReleasePass {
    let mut pairs = table.prohibited_pairs(cg);
    pairs.retain(|&(x, y)| candidate(x, y));
    // Phase 3 keeps a few percent of the prohibited turns: give the rest
    // back before the dependency graph and the closure are allocated.
    pairs.shrink_to_fit();
    if pairs.is_empty() {
        return ReleasePass::default();
    }
    let mut closure = Closure::build(cg, table, &pairs);
    let mut released = Vec::new();
    for (k, &(x, y)) in pairs.iter().enumerate() {
        if !closure.closes_cycle(k) {
            closure.add_turn(k);
            table.release(cg, x, y);
            released.push((x, y));
        }
    }
    ReleasePass {
        released,
        candidates: pairs.len(),
        closure_bytes: closure.bytes(),
    }
}

/// Whether each of `turns`, released alone into `table`, would close a
/// cycle in its dependency graph, and the heap bytes of the closure that
/// answered. Nothing is committed, so the answers are independent of each
/// other and of the list's order.
pub fn cycle_closing(
    cg: &CommGraph,
    table: &TurnTable,
    turns: &[(ChannelId, ChannelId)],
) -> (Vec<bool>, usize) {
    let closure = Closure::build(cg, table, turns);
    let closes = (0..turns.len()).map(|k| closure.closes_cycle(k)).collect();
    (closes, closure.bytes())
}

/// The reachability closure `C` over the turns it was built for: row `y`
/// is a bitset over the indices of `X`, `words` machine words long.
struct Closure {
    /// Each turn's `(x, y)` as indices into `X` and `Y`.
    turns: Vec<(usize, usize)>,
    bits: Vec<u64>,
    words: usize,
}

impl Closure {
    /// Indexes the distinct in-channels (`X`) and out-channels (`Y`) of
    /// `turns` and fills `C[y]` for every `y` from the dependency graph of
    /// `table`.
    fn build(cg: &CommGraph, table: &TurnTable, turns: &[(ChannelId, ChannelId)]) -> Closure {
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        let nch = cg.num_channels() as usize;
        let (mut x_of, mut y_of) = (vec![u32::MAX; nch], vec![u32::MAX; nch]);
        let index = |c: ChannelId, of: &mut Vec<u32>, list: &mut Vec<ChannelId>| {
            if of[c as usize] == u32::MAX {
                of[c as usize] = list.len() as u32;
                list.push(c);
            }
            of[c as usize] as usize
        };
        let turns = turns
            .iter()
            .map(|&(x, y)| (index(x, &mut x_of, &mut xs), index(y, &mut y_of, &mut ys)))
            .collect();

        let dep = ChannelDepGraph::build(cg, table);
        let words = xs.len().div_ceil(64);
        let mut bits = vec![0u64; ys.len() * words];
        let (order, acyclic) = sweep_order(&dep);
        // `reach[c]` bit `b`: source `64 * batch + b` reaches channel `c`.
        let mut reach = vec![0u64; order.len()];
        for (batch, sources) in ys.chunks(64).enumerate() {
            reach.fill(0);
            for (b, &y) in sources.iter().enumerate() {
                reach[y as usize] |= 1 << b;
            }
            // One pass in topological order is exact. A cyclic base has no
            // such order: pass again until nothing changes.
            loop {
                let mut changed = false;
                for &c in &order {
                    let from = reach[c as usize];
                    if from == 0 {
                        continue;
                    }
                    for &s in dep.successors(c) {
                        let to = reach[s as usize] | from;
                        changed |= to != reach[s as usize];
                        reach[s as usize] = to;
                    }
                }
                if acyclic || !changed {
                    break;
                }
            }
            for (xi, &x) in xs.iter().enumerate() {
                let mut sources = reach[x as usize];
                while sources != 0 {
                    let yi = batch * 64 + sources.trailing_zeros() as usize;
                    sources &= sources - 1;
                    bits[yi * words + xi / 64] |= 1 << (xi % 64);
                }
            }
        }
        Closure { turns, bits, words }
    }

    /// Whether turn `k` would close a cycle: its `y` reaches its `x`.
    fn closes_cycle(&self, k: usize) -> bool {
        let (xi, yi) = self.turns[k];
        self.bits[yi * self.words + xi / 64] >> (xi % 64) & 1 == 1
    }

    /// Adds turn `k`'s edge `x → y`, which must not close a cycle: every
    /// row that contains `x` gains row `y`.
    fn add_turn(&mut self, k: usize) {
        let (xi, yi) = self.turns[k];
        let w = self.words;
        let row: Vec<u64> = self.bits[yi * w..(yi + 1) * w].to_vec();
        for r in self.bits.chunks_exact_mut(w) {
            if r[xi / 64] >> (xi % 64) & 1 == 1 {
                for (a, &b) in r.iter_mut().zip(&row) {
                    *a |= b;
                }
            }
        }
    }

    /// Heap bytes of `C`.
    fn bytes(&self) -> usize {
        self.bits.len() * std::mem::size_of::<u64>()
    }
}

/// Every channel of `dep`, in topological order when `dep` is acyclic
/// (Kahn's algorithm), and whether it is. Channels on or behind a cycle
/// follow in id order.
fn sweep_order(dep: &ChannelDepGraph) -> (Vec<ChannelId>, bool) {
    let n = dep.num_channels();
    let mut indeg = vec![0u32; n as usize];
    for c in 0..n {
        for &s in dep.successors(c) {
            indeg[s as usize] += 1;
        }
    }
    let mut order: Vec<ChannelId> = (0..n).filter(|&c| indeg[c as usize] == 0).collect();
    let mut head = 0;
    while head < order.len() {
        let c = order[head];
        head += 1;
        for &s in dep.successors(c) {
            indeg[s as usize] -= 1;
            if indeg[s as usize] == 0 {
                order.push(s);
            }
        }
    }
    let acyclic = order.len() == n as usize;
    order.extend((0..n).filter(|&c| indeg[c as usize] > 0));
    (order, acyclic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use irnet_topology::{gen, CommGraph, CoordinatedTree, PreorderPolicy};

    #[test]
    fn releasing_everything_possible_keeps_acyclicity() {
        for seed in 0..4 {
            let topo = gen::random_irregular(gen::IrregularParams::paper(20, 4), seed).unwrap();
            let tree = CoordinatedTree::build(&topo, PreorderPolicy::M1, 0).unwrap();
            let cg = CommGraph::build(&topo, &tree);
            // Start from a very restrictive rule and release greedily.
            let mut table = TurnTable::from_direction_rule(&cg, |din, dout| {
                !din.goes_down()
                    && !matches!(
                        din,
                        irnet_topology::Direction::LCross | irnet_topology::Direction::RCross
                    )
                    || dout.goes_down()
            });
            let dep0 = ChannelDepGraph::build(&cg, &table);
            assert!(dep0.is_acyclic());
            let released = release_redundant_turns(&cg, &mut table, |_, _| true).released;
            let dep1 = ChannelDepGraph::build(&cg, &table);
            assert!(
                dep1.is_acyclic(),
                "greedy release broke acyclicity (seed {seed})"
            );
            assert!(dep1.num_edges() >= dep0.num_edges() + released.len());
        }
    }

    /// The pre-oracle implementation: rebuild the dependency graph after
    /// every committed release and query it directly. Kept as the reference
    /// the incremental pass must match decision-for-decision.
    fn release_naive(
        cg: &CommGraph,
        table: &mut TurnTable,
        mut candidate: impl FnMut(ChannelId, ChannelId) -> bool,
    ) -> Vec<(ChannelId, ChannelId)> {
        let ch = cg.channels();
        let mut released = Vec::new();
        let mut dep = ChannelDepGraph::build(cg, table);
        for v in 0..cg.num_nodes() {
            for &in_ch in ch.inputs(v) {
                for &out_ch in ch.outputs(v) {
                    if out_ch == ch.reverse(in_ch)
                        || table.is_allowed(cg, in_ch, out_ch)
                        || !candidate(in_ch, out_ch)
                    {
                        continue;
                    }
                    if !dep.has_path(out_ch, in_ch) {
                        table.release(cg, in_ch, out_ch);
                        released.push((in_ch, out_ch));
                        dep = ChannelDepGraph::build(cg, table);
                    }
                }
            }
        }
        released
    }

    #[test]
    fn incremental_pass_matches_the_rebuilding_reference() {
        for seed in 0..6 {
            let topo = gen::random_irregular(gen::IrregularParams::paper(24, 4), seed).unwrap();
            let tree = CoordinatedTree::build(&topo, PreorderPolicy::M1, 0).unwrap();
            let cg = CommGraph::build(&topo, &tree);
            let make_table = || {
                TurnTable::from_direction_rule(&cg, |din, dout| {
                    !din.goes_down()
                        && !matches!(
                            din,
                            irnet_topology::Direction::LCross | irnet_topology::Direction::RCross
                        )
                        || dout.goes_down()
                })
            };
            let mut fast_table = make_table();
            let mut naive_table = make_table();
            let fast = release_redundant_turns(&cg, &mut fast_table, |_, _| true).released;
            let naive = release_naive(&cg, &mut naive_table, |_, _| true);
            assert_eq!(fast, naive, "release decisions diverged (seed {seed})");
            assert_eq!(fast_table, naive_table, "tables diverged (seed {seed})");
        }
    }

    #[test]
    fn filter_restricts_candidates() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(20, 4), 1).unwrap();
        let tree = CoordinatedTree::build(&topo, PreorderPolicy::M1, 0).unwrap();
        let cg = CommGraph::build(&topo, &tree);
        let mut table = TurnTable::from_direction_rule(&cg, |_, _| false);
        let pass = release_redundant_turns(&cg, &mut table, |_, _| false);
        assert_eq!(pass, ReleasePass::default());
        assert_eq!(table, TurnTable::from_direction_rule(&cg, |_, _| false));
    }
}
