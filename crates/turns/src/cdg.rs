use crate::turn_table::TurnTable;
use irnet_topology::{ChannelId, CommGraph};

/// A witness turn cycle: the sequence of channels `c0 → c1 → … → c0`, each
/// consecutive pair an allowed turn.
pub type ChannelCycle = Vec<ChannelId>;

/// The *channel dependency graph* induced by a turn table: one node per
/// communication channel, and an edge `c1 → c2` whenever a packet holding
/// `c1` may request `c2` next (the turn `c1 → c2` is allowed at their shared
/// switch).
///
/// By the classical wormhole argument (and Lemma 1 of the paper), the
/// routing defined by the turn table is deadlock-free iff this graph is
/// acyclic. Injection and ejection channels never participate in cycles
/// (injection has no predecessors, ejection no successors) and are omitted.
#[derive(Debug, Clone)]
pub struct ChannelDepGraph {
    /// CSR offsets, length `num_channels + 1`.
    offsets: Vec<u32>,
    /// Flattened successor lists.
    succ: Vec<ChannelId>,
}

impl ChannelDepGraph {
    /// Builds the dependency graph of `table` over `cg`.
    pub fn build(cg: &CommGraph, table: &TurnTable) -> ChannelDepGraph {
        let ch = cg.channels();
        let nch = cg.num_channels() as usize;
        let mut offsets = Vec::with_capacity(nch + 1);
        offsets.push(0u32);
        let mut succ = Vec::new();
        for c in 0..cg.num_channels() {
            let v = ch.sink(c);
            let q = ch.in_port(c);
            let mask = table.mask(v, q);
            for (p, &out) in ch.outputs(v).iter().enumerate() {
                if (mask >> p) & 1 == 1 {
                    succ.push(out);
                }
            }
            offsets.push(succ.len() as u32);
        }
        ChannelDepGraph { offsets, succ }
    }

    /// Builds a dependency graph from an explicit edge list over
    /// `num_channels` channels (duplicates are merged, self-loops kept —
    /// a worm waiting on a channel it also holds is a genuine cycle).
    ///
    /// This is the runtime-forensics entry point: the waits-for graph of
    /// blocked worms captured at a watchdog stall is certified with the
    /// same Kahn's-algorithm + shortest-core-cycle minimizer the static
    /// certifier uses.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a channel `>= num_channels`.
    pub fn from_edges(num_channels: u32, edges: &[(ChannelId, ChannelId)]) -> ChannelDepGraph {
        let n = num_channels as usize;
        let mut sorted: Vec<(ChannelId, ChannelId)> = edges.to_vec();
        for &(a, b) in &sorted {
            assert!(
                a < num_channels && b < num_channels,
                "edge ({a}, {b}) outside channel range {num_channels}"
            );
        }
        sorted.sort_unstable();
        sorted.dedup();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut succ = Vec::with_capacity(sorted.len());
        let mut k = 0usize;
        for c in 0..num_channels {
            while k < sorted.len() && sorted[k].0 == c {
                succ.push(sorted[k].1);
                k += 1;
            }
            offsets.push(succ.len() as u32);
        }
        ChannelDepGraph { offsets, succ }
    }

    /// The edge-wise union of two dependency graphs over the same channel
    /// set — the UPR reconfiguration-safety object: a live transition from
    /// the routing behind `self` to the one behind `other` is deadlock-free
    /// iff this union is acyclic (packets routed under either function can
    /// coexist during the drain).
    ///
    /// # Panics
    ///
    /// Panics if the two graphs have different channel counts.
    pub fn union(&self, other: &ChannelDepGraph) -> ChannelDepGraph {
        assert_eq!(
            self.num_channels(),
            other.num_channels(),
            "dependency union needs identical channel sets"
        );
        let n = self.num_channels();
        let mut offsets = Vec::with_capacity(n as usize + 1);
        offsets.push(0u32);
        let mut succ = Vec::with_capacity(self.num_edges().max(other.num_edges()));
        let mut merged: Vec<ChannelId> = Vec::new();
        for c in 0..n {
            merged.clear();
            merged.extend_from_slice(self.successors(c));
            merged.extend_from_slice(other.successors(c));
            merged.sort_unstable();
            merged.dedup();
            succ.extend_from_slice(&merged);
            offsets.push(succ.len() as u32);
        }
        ChannelDepGraph { offsets, succ }
    }

    /// Number of channel nodes.
    pub fn num_channels(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of dependency edges.
    pub fn num_edges(&self) -> usize {
        self.succ.len()
    }

    /// Successors of channel `c`.
    #[inline]
    pub fn successors(&self, c: ChannelId) -> &[ChannelId] {
        &self.succ[self.offsets[c as usize] as usize..self.offsets[c as usize + 1] as usize]
    }

    /// Returns a witness cycle if one exists, `None` if the graph is acyclic
    /// (i.e. the routing is deadlock-free).
    ///
    /// Iterative three-color DFS; no recursion so deep graphs cannot
    /// overflow the stack.
    pub fn find_cycle(&self) -> Option<ChannelCycle> {
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let n = self.num_channels();
        let mut color = vec![WHITE; n as usize];
        // DFS stack of (node, next successor index); `path` mirrors the
        // gray chain for witness extraction.
        let mut stack: Vec<(ChannelId, u32)> = Vec::new();
        let mut path: Vec<ChannelId> = Vec::new();
        for root in 0..n {
            if color[root as usize] != WHITE {
                continue;
            }
            color[root as usize] = GRAY;
            stack.push((root, 0));
            path.push(root);
            while let Some(&mut (v, ref mut next)) = stack.last_mut() {
                let succs = self.successors(v);
                if (*next as usize) < succs.len() {
                    let w = succs[*next as usize];
                    *next += 1;
                    match color[w as usize] {
                        WHITE => {
                            color[w as usize] = GRAY;
                            stack.push((w, 0));
                            path.push(w);
                        }
                        GRAY => {
                            // Found a back edge; the cycle is the suffix of
                            // `path` starting at `w`.
                            let start = path.iter().position(|&c| c == w).expect("gray on path");
                            return Some(path[start..].to_vec());
                        }
                        _ => {}
                    }
                } else {
                    color[v as usize] = BLACK;
                    stack.pop();
                    path.pop();
                }
            }
        }
        None
    }

    /// Whether the dependency graph is acyclic (deadlock freedom).
    pub fn is_acyclic(&self) -> bool {
        self.find_cycle().is_none()
    }

    /// Whether a directed path exists from `from` to `to`: the paper's
    /// Phase-3 test, under which releasing the turn `e1 → e2` at a node is
    /// safe iff there is no path from `e2` back to `e1`. The release pass
    /// itself answers that test from a reachability closure
    /// ([`crate::release_redundant_turns`]), and so do batch callers
    /// ([`crate::cycle_closing`]); this search is the reference.
    pub fn has_path(&self, from: ChannelId, to: ChannelId) -> bool {
        if from == to {
            return true;
        }
        let n = self.num_channels() as usize;
        let mut seen = vec![false; n];
        let mut stack = vec![from];
        seen[from as usize] = true;
        while let Some(v) = stack.pop() {
            for &w in self.successors(v) {
                if w == to {
                    return true;
                }
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irnet_topology::{gen, CommGraph, CoordinatedTree, Direction, PreorderPolicy, Topology};

    fn cg_of(topo: &Topology) -> CommGraph {
        let tree = CoordinatedTree::build(topo, PreorderPolicy::M1, 0).unwrap();
        CommGraph::build(topo, &tree)
    }

    #[test]
    fn unrestricted_ring_has_a_cycle() {
        let topo = gen::ring(4).unwrap();
        let cg = cg_of(&topo);
        let table = TurnTable::all_allowed(&cg);
        let dep = ChannelDepGraph::build(&cg, &table);
        let cycle = dep
            .find_cycle()
            .expect("a ring with all turns allowed must deadlock");
        assert!(cycle.len() >= 3);
        // The witness really is a closed walk of allowed turns.
        for i in 0..cycle.len() {
            let a = cycle[i];
            let b = cycle[(i + 1) % cycle.len()];
            assert!(dep.successors(a).contains(&b));
        }
    }

    #[test]
    fn up_down_rule_is_acyclic_on_random_topologies() {
        for seed in 0..8 {
            let topo = gen::random_irregular(gen::IrregularParams::paper(24, 4), seed).unwrap();
            let cg = cg_of(&topo);
            // Classic up*/down* expressed over the 8 directions: forbid
            // every up-direction output after a down-direction input.
            let table = TurnTable::from_direction_rule(&cg, |din, dout| {
                !(din.goes_down() && dout.goes_up())
            });
            let dep = ChannelDepGraph::build(&cg, &table);
            // Not necessarily acyclic: horizontal channels can still cycle.
            // The strict version (down or flat never followed by up or flat
            // in the other X direction) must be acyclic:
            let strict = TurnTable::from_direction_rule(&cg, |din, dout| {
                !din.goes_down() && !matches!(din, Direction::LCross | Direction::RCross)
                    || dout.goes_down()
            });
            let dep_strict = ChannelDepGraph::build(&cg, &strict);
            assert!(
                dep_strict.is_acyclic(),
                "strict downward rule must be deadlock-free (seed {seed})"
            );
            // Keep `dep` alive for edge-count sanity.
            assert!(dep.num_edges() >= dep_strict.num_edges());
        }
    }

    #[test]
    fn tree_topology_with_all_turns_is_acyclic() {
        // On a pure tree there are no cross links and no cycles at all.
        let topo = gen::kary_tree(15, 2).unwrap();
        let cg = cg_of(&topo);
        let table = TurnTable::all_allowed(&cg);
        let dep = ChannelDepGraph::build(&cg, &table);
        assert!(dep.is_acyclic());
    }

    #[test]
    fn has_path_follows_edges() {
        let topo = gen::kary_tree(7, 2).unwrap();
        let cg = cg_of(&topo);
        let table = TurnTable::all_allowed(&cg);
        let dep = ChannelDepGraph::build(&cg, &table);
        let ch = cg.channels();
        // From any leaf-upward channel there is a path to the root's
        // outgoing channels.
        // Leaf 3 sits in the subtree of node 1; climbing 3 -> 1 -> 0 and
        // then descending into the other subtree (0 -> 2) is a valid
        // dependency path. The 0 -> 1 channel is not reachable this way
        // because re-entering it from 1 -> 0 would be a 180° turn.
        let leaf_up = (0..cg.num_channels())
            .find(|&c| cg.direction(c) == Direction::LuTree && ch.start(c) == 3)
            .unwrap();
        let root_down = (0..cg.num_channels())
            .find(|&c| ch.start(c) == 0 && ch.sink(c) == 2)
            .unwrap();
        assert!(dep.has_path(leaf_up, root_down));
        let other_down = (0..cg.num_channels())
            .find(|&c| ch.start(c) == 0 && ch.sink(c) == 1)
            .unwrap();
        assert!(!dep.has_path(leaf_up, other_down));
        assert!(dep.has_path(leaf_up, leaf_up));
    }

    #[test]
    fn union_merges_edges_and_preserves_cycles() {
        let topo = gen::ring(4).unwrap();
        let cg = cg_of(&topo);
        let open = ChannelDepGraph::build(&cg, &TurnTable::all_allowed(&cg));
        let closed = ChannelDepGraph::build(&cg, &TurnTable::from_channel_rule(&cg, |_, _| false));
        assert_eq!(closed.num_edges(), 0);
        assert!(closed.is_acyclic());
        // closed ∪ open == open, edge for edge.
        let u = closed.union(&open);
        assert_eq!(u.num_edges(), open.num_edges());
        assert!(!u.is_acyclic());
        for c in 0..u.num_channels() {
            let mut expect = open.successors(c).to_vec();
            expect.sort_unstable();
            assert_eq!(u.successors(c), expect);
        }
        // Union with itself is idempotent.
        let uu = open.union(&open);
        assert_eq!(uu.num_edges(), open.num_edges());
        // Two acyclic halves can still cycle jointly: split the ring's
        // dependency edges between two tables.
        let half_a = TurnTable::from_channel_rule(&cg, |i, _| i % 2 == 0);
        let half_b = TurnTable::from_channel_rule(&cg, |i, _| i % 2 == 1);
        let da = ChannelDepGraph::build(&cg, &half_a);
        let db = ChannelDepGraph::build(&cg, &half_b);
        let joint = da.union(&db);
        assert_eq!(joint.num_edges(), open.num_edges());
        assert!(!joint.is_acyclic());
    }

    #[test]
    fn from_edges_builds_the_listed_graph() {
        let dep = ChannelDepGraph::from_edges(5, &[(3, 1), (0, 2), (0, 1), (0, 2), (4, 4)]);
        assert_eq!(dep.num_channels(), 5);
        assert_eq!(dep.num_edges(), 4); // duplicate (0,2) merged
        assert_eq!(dep.successors(0), &[1, 2]);
        assert_eq!(dep.successors(3), &[1]);
        assert_eq!(dep.successors(4), &[4]); // self-loop kept
        assert!(dep.successors(1).is_empty());
        assert!(dep.find_cycle().is_some());
        assert!(ChannelDepGraph::from_edges(3, &[(0, 1), (1, 2)]).is_acyclic());
    }

    #[test]
    fn u_turns_are_never_dependencies() {
        let topo = gen::ring(5).unwrap();
        let cg = cg_of(&topo);
        let table = TurnTable::all_allowed(&cg);
        let dep = ChannelDepGraph::build(&cg, &table);
        let ch = cg.channels();
        for c in 0..cg.num_channels() {
            assert!(!dep.successors(c).contains(&ch.reverse(c)));
        }
    }
}
