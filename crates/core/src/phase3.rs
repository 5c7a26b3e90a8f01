//! Phase 3 — releasing redundant per-node prohibited turns
//! (the paper's `cycle_detection` algorithm, §4.3).
//!
//! Applying the global set `PT` to every node over-constrains some of them:
//! a prohibited turn at a node is *redundant* if allowing it cannot close
//! any turn cycle in this particular communication graph. Following the
//! paper, only the turns `T(LU_CROSS → RD_TREE)` and
//! `T(RU_CROSS → RD_TREE)` are candidates for release — they are the ones
//! that let traffic flow from a cross-ascent back down the tree, i.e. they
//! push traffic toward the leaves.
//!
//! The release test is the channel-level statement of the paper's DFS:
//! releasing the candidate turn `(e1, e2)` at node `v` closes a cycle iff
//! the current channel dependency graph (with every previously released
//! turn included) contains a directed path from `e2` back to `e1`. A path
//! that would use the candidate edge itself mid-way necessarily passes
//! through `e1` first, so searching the graph *without* the candidate edge
//! is equivalent.
//!
//! Releases are processed in node-id order and, within a node, in
//! (input port, output port) order; each successful release is committed
//! before the next candidate is tested, matching the sequential pass of
//! the paper. Granularity is per channel pair, the strictly safe reading
//! of the algorithm (see DESIGN.md §4).

use irnet_topology::{ChannelId, CommGraph, Direction};
use irnet_turns::{release_redundant_turns, TurnTable};

/// A turn released by `cycle_detection`, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReleasedTurn {
    /// The node at which the turn was released.
    pub node: u32,
    /// The incoming channel (`LU_CROSS` or `RU_CROSS`).
    pub in_ch: ChannelId,
    /// The outgoing channel (`RD_TREE`).
    pub out_ch: ChannelId,
}

/// What one `cycle_detection` pass decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase3 {
    /// The released turns, in pass order.
    pub released: Vec<ReleasedTurn>,
    /// Candidate turns tested.
    pub candidates: usize,
    /// Heap bytes of the pass's reachability closure.
    pub closure_bytes: usize,
}

/// Runs the paper's `cycle_detection` release pass over `table`, mutating
/// it in place. Returns the released turns and the pass's work.
///
/// Only `T(LU_CROSS → RD_TREE)` and `T(RU_CROSS → RD_TREE)` are candidates
/// (paper §4.3). The paper runs one DFS per candidate, `O(k · |E⃗|)` for
/// `k` candidates (its `O(d · |V|²)` bound). This pass answers every test
/// from the reachability closure of [`release_redundant_turns`] instead:
/// one bitset sweep of the dependency graph per 64 distinct `RD_TREE`
/// out-channels, then a row update per release. The decisions are the
/// same, candidate for candidate.
pub fn cycle_detection(cg: &CommGraph, table: &mut TurnTable) -> Phase3 {
    let pass = release_redundant_turns(cg, table, |in_ch, out_ch| {
        matches!(cg.direction(in_ch), Direction::LuCross | Direction::RuCross)
            && cg.direction(out_ch) == Direction::RdTree
    });
    Phase3 {
        released: pass
            .released
            .into_iter()
            .map(|(in_ch, out_ch)| ReleasedTurn {
                node: cg.channels().sink(in_ch),
                in_ch,
                out_ch,
            })
            .collect(),
        candidates: pass.candidates,
        closure_bytes: pass.closure_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase2::turn_allowed;
    use irnet_topology::{gen, CoordinatedTree, PreorderPolicy};
    use irnet_turns::ChannelDepGraph;

    fn downup_table(topo: &irnet_topology::Topology) -> (CommGraph, TurnTable) {
        let tree = CoordinatedTree::build(topo, PreorderPolicy::M1, 0).unwrap();
        let cg = CommGraph::build(topo, &tree);
        let table = TurnTable::from_direction_rule(&cg, turn_allowed);
        (cg, table)
    }

    #[test]
    fn releases_keep_the_table_deadlock_free() {
        for seed in 0..6 {
            let topo = gen::random_irregular(gen::IrregularParams::paper(24, 4), seed).unwrap();
            let (cg, mut table) = downup_table(&topo);
            let before = table.num_prohibited_turns(&cg);
            let released = cycle_detection(&cg, &mut table).released;
            let after = table.num_prohibited_turns(&cg);
            assert_eq!(before - after, released.len());
            let dep = ChannelDepGraph::build(&cg, &table);
            assert!(
                dep.is_acyclic(),
                "release pass broke deadlock freedom (seed {seed})"
            );
        }
    }

    #[test]
    fn released_turns_are_up_cross_to_rd_tree_only() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(32, 8), 5).unwrap();
        let (cg, mut table) = downup_table(&topo);
        for r in cycle_detection(&cg, &mut table).released {
            assert!(matches!(
                cg.direction(r.in_ch),
                Direction::LuCross | Direction::RuCross
            ));
            assert_eq!(cg.direction(r.out_ch), Direction::RdTree);
            assert_eq!(cg.channels().sink(r.in_ch), r.node);
            assert_eq!(cg.channels().start(r.out_ch), r.node);
            assert!(table.is_allowed(&cg, r.in_ch, r.out_ch));
        }
    }

    #[test]
    fn release_pass_is_idempotent() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(24, 4), 2).unwrap();
        let (cg, mut table) = downup_table(&topo);
        let first = cycle_detection(&cg, &mut table).released;
        let second = cycle_detection(&cg, &mut table).released;
        assert!(
            second.is_empty(),
            "second pass released {} more turns",
            second.len()
        );
        // A maximality-flavored sanity check: re-prohibiting a released turn
        // and re-running reproduces it.
        if let Some(&r) = first.first() {
            table.prohibit(&cg, r.in_ch, r.out_ch);
            let again = cycle_detection(&cg, &mut table).released;
            assert_eq!(again, vec![r]);
        }
    }

    #[test]
    fn some_topologies_have_releasable_turns() {
        // Over a set of seeds, at least one network must contain redundant
        // prohibited turns — otherwise phase 3 would be vacuous.
        let mut total = 0usize;
        for seed in 0..8 {
            let topo = gen::random_irregular(gen::IrregularParams::paper(24, 4), seed).unwrap();
            let (cg, mut table) = downup_table(&topo);
            total += cycle_detection(&cg, &mut table).released.len();
        }
        assert!(
            total > 0,
            "phase 3 never released anything across 8 topologies"
        );
    }
}
