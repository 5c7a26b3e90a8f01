//! The L-turn routing (Jouraku, Funahashi, Amano, Koibuchi — ICPP 2001 /
//! I-SPAN 2002), the baseline the DOWN/UP paper compares against.
//!
//! # Reconstruction notes (see DESIGN.md §5)
//!
//! The original prohibited-turn figure is not retrievable in this offline
//! environment, so this module implements a documented reconstruction with
//! every property the 2004 paper attributes to L-turn:
//!
//! * **Uniform link treatment** — tree links and cross links share one
//!   channel classification (the very uniformity §1 of the DOWN/UP paper
//!   criticises). Channels are classified into the four 2-D directions of
//!   the L-R tree: vertical `Up` (level decreases) / `Down` (level
//!   increases, *with same-level channels counted as Down*), crossed with
//!   horizontal `Left`/`Right` by preorder coordinate.
//! * **Prohibited turns**: every turn from a right-moving channel
//!   (`UR`, `DR`) to a left-moving channel (`UL`, `DL`) — four of the
//!   twelve direction turns. This set is *maximal*: all remaining direction
//!   cycles are X-monotone (every direction strictly moves X), so no turn
//!   cycle can form, and adding any of the four back admits one.
//! * **Up-then-down connectivity** — climbing to the LCA uses `UL`
//!   channels (tree child→parent is always left-up), the turnaround
//!   `UL → DR` is allowed, and the descent uses `DR`.
//! * **Down→up adaptivity** — unlike up\*/down\*, the turns `DL → UL`,
//!   `DL → UR` and `DR → UR` remain allowed, which shortens paths but (as
//!   the 2004 paper observes) still lets traffic concentrate near the root.
//! * **Per-node release** — like the original (reference \[4\] of the paper runs a cycle-detection
//!   pass of its own), redundant prohibited turns are released per node.
//!
//! Every constructed instance is additionally machine-checked deadlock-free
//! and connected by the test-suite (and by `irnet_turns::verify_routing` in
//! downstream property tests).

use crate::TurnModel;
use irnet_topology::{
    ChannelId, CommGraph, CoordinatedTree, PreorderPolicy, Quadrant, Topology, TopologyError,
};
use irnet_turns::{release_redundant_turns, TurnTable};

/// The four 2-D directions of the L-R tree classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir4 {
    /// Up and to the left (includes all tree child→parent channels).
    UpLeft,
    /// Up and to the right.
    UpRight,
    /// Down or level and to the left.
    DownLeft,
    /// Down or level and to the right (includes tree parent→child).
    DownRight,
}

impl Dir4 {
    /// Whether the direction moves right in `X`.
    pub fn is_right(self) -> bool {
        matches!(self, Dir4::UpRight | Dir4::DownRight)
    }
}

/// Classifies a channel into its [`Dir4`] with respect to a coordinated
/// tree. Same-level channels are classified as `Down` (the L-R tree
/// convention: moving sideways does not approach the root).
pub fn classify(tree: &CoordinatedTree, cg: &CommGraph, c: ChannelId) -> Dir4 {
    let ch = cg.channels();
    let q = Quadrant::of(tree, ch.start(c), ch.sink(c));
    match (q.goes_up(), q.goes_left()) {
        (true, true) => Dir4::UpLeft,
        (true, false) => Dir4::UpRight,
        (false, true) => Dir4::DownLeft,
        (false, false) => Dir4::DownRight,
    }
}

/// Whether the L-turn rule allows the direction turn `from → to`
/// (same-direction transitions are always allowed).
pub fn turn_allowed(from: Dir4, to: Dir4) -> bool {
    from == to || !from.is_right() || to.is_right()
}

/// Options for the L-turn constructor.
#[derive(Debug, Clone, Copy)]
pub struct LTurnOptions {
    /// Preorder policy for the underlying coordinated (L-R) tree.
    pub policy: PreorderPolicy,
    /// Seed for the `M2` policy.
    pub seed: u64,
    /// Run the per-node redundant-turn release pass (default: true).
    pub release: bool,
}

impl Default for LTurnOptions {
    fn default() -> Self {
        LTurnOptions {
            policy: PreorderPolicy::M1,
            seed: 0,
            release: true,
        }
    }
}

/// Constructs the L-turn routing over `topo` with default options.
pub fn construct(topo: &Topology) -> Result<TurnModel, TopologyError> {
    construct_with(topo, LTurnOptions::default())
}

/// Constructs the L-turn routing with explicit options.
pub fn construct_with(topo: &Topology, opts: LTurnOptions) -> Result<TurnModel, TopologyError> {
    let tree = CoordinatedTree::build(topo, opts.policy, opts.seed)?;
    let cg = CommGraph::build(topo, &tree);
    let mut table = TurnTable::all_allowed(&cg);
    let ch = cg.channels();
    for v in 0..cg.num_nodes() {
        for &in_ch in ch.inputs(v) {
            let din = classify(&tree, &cg, in_ch);
            for &out_ch in ch.outputs(v) {
                if out_ch == ch.reverse(in_ch) {
                    continue;
                }
                let dout = classify(&tree, &cg, out_ch);
                if !turn_allowed(din, dout) {
                    table.prohibit(&cg, in_ch, out_ch);
                }
            }
        }
    }
    if opts.release {
        release_redundant_turns(&cg, &mut table, |_, _| true);
    }
    Ok((tree, cg, table))
}

#[cfg(test)]
mod tests {
    use super::*;
    use irnet_topology::gen;
    use irnet_turns::{verify_routing, DirGraph, Movement, RoutingTables};

    #[test]
    fn rule_prohibits_exactly_right_to_left() {
        use Dir4::*;
        let dirs = [UpLeft, UpRight, DownLeft, DownRight];
        let mut prohibited = Vec::new();
        for &a in &dirs {
            for &b in &dirs {
                if a != b && !turn_allowed(a, b) {
                    prohibited.push((a, b));
                }
            }
        }
        assert_eq!(
            prohibited,
            vec![
                (UpRight, UpLeft),
                (UpRight, DownLeft),
                (DownRight, UpLeft),
                (DownRight, DownLeft)
            ]
        );
    }

    #[test]
    fn direction_level_set_is_safe_and_maximal() {
        // Model the strict-movement subcase (DL/DR strictly down) and the
        // flat subcase separately: both must be cycle-free, and adding any
        // prohibited turn must create a realizable cycle in at least one.
        use Dir4::*;
        let dirs = [UpLeft, UpRight, DownLeft, DownRight];
        let idx = |d: Dir4| dirs.iter().position(|&x| x == d).unwrap();
        let mut g = DirGraph::empty(4);
        for &a in &dirs {
            for &b in &dirs {
                if a != b && turn_allowed(a, b) {
                    g.add_edge(idx(a), idx(b));
                }
            }
        }
        let strict = [
            Movement::new(-1, -1),
            Movement::new(1, -1),
            Movement::new(-1, 1),
            Movement::new(1, 1),
        ];
        let flat_down = [
            Movement::new(-1, -1),
            Movement::new(1, -1),
            Movement::new(-1, 0),
            Movement::new(1, 0),
        ];
        assert!(g.is_safe(&strict));
        assert!(g.is_safe(&flat_down));
        // Maximality: each prohibited turn, when added, creates a
        // realizable cycle under at least one movement model.
        for (a, b) in [
            (UpRight, UpLeft),
            (UpRight, DownLeft),
            (DownRight, UpLeft),
            (DownRight, DownLeft),
        ] {
            let mut probe = g.clone();
            probe.add_edge(idx(a), idx(b));
            assert!(
                !probe.is_safe(&strict) || !probe.is_safe(&flat_down),
                "adding {a:?}->{b:?} creates no realizable cycle"
            );
        }
    }

    #[test]
    fn verifies_on_random_networks_all_policies() {
        for seed in 0..4 {
            for ports in [4u32, 8] {
                let topo =
                    gen::random_irregular(gen::IrregularParams::paper(28, ports), seed).unwrap();
                for policy in PreorderPolicy::ALL {
                    for release in [false, true] {
                        let (_, cg, table) = construct_with(
                            &topo,
                            LTurnOptions {
                                policy,
                                seed,
                                release,
                            },
                        )
                        .unwrap();
                        let report = verify_routing(&cg, &table);
                        assert!(
                            report.is_ok(),
                            "seed {seed} ports {ports} {policy} release={release}: \
                             cycle={:?} disc={:?}",
                            report.cycle,
                            report.disconnected
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tree_channels_classify_as_ul_and_dr() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(20, 4), 1).unwrap();
        let tree = CoordinatedTree::build(&topo, PreorderPolicy::M1, 0).unwrap();
        let cg = CommGraph::build(&topo, &tree);
        for c in 0..cg.num_channels() {
            if cg.direction(c).is_tree() {
                let d = classify(&tree, &cg, c);
                if cg.direction(c) == irnet_topology::Direction::LuTree {
                    assert_eq!(d, Dir4::UpLeft);
                } else {
                    assert_eq!(d, Dir4::DownRight);
                }
            }
        }
    }

    #[test]
    fn release_shortens_or_keeps_routes() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(24, 4), 9).unwrap();
        let avg_route_len = |release| {
            let (_, cg, table) = construct_with(
                &topo,
                LTurnOptions {
                    release,
                    ..Default::default()
                },
            )
            .unwrap();
            let tables = RoutingTables::build(&cg, &table).unwrap();
            tables.route_len_stats(&cg).0
        };
        assert!(avg_route_len(true) <= avg_route_len(false) + 1e-12);
    }
}
