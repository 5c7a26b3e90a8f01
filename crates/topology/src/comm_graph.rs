use crate::channel::{ChannelId, ChannelTable};
use crate::coord_tree::CoordinatedTree;
use crate::graph::{NodeId, Topology};

/// Whether a link belongs to the spanning tree (`E'`) or is a cross link
/// (`E - E'`), paper Definition 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// A link of the spanning tree (`E'`).
    Tree,
    /// A link outside the spanning tree (`E - E'`).
    Cross,
}

/// The geometric relation of a channel's sink node relative to its start
/// node in coordinated-tree coordinates (paper Definition 4).
///
/// `X` is a unique preorder index so `X(v2) == X(v1)` never happens; the six
/// relations below are exhaustive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quadrant {
    /// `X(v2) < X(v1)` and `Y(v2) < Y(v1)`.
    LeftUp,
    /// `X(v2) < X(v1)` and `Y(v2) == Y(v1)`.
    Left,
    /// `X(v2) < X(v1)` and `Y(v2) > Y(v1)`.
    LeftDown,
    /// `X(v2) > X(v1)` and `Y(v2) < Y(v1)`.
    RightUp,
    /// `X(v2) > X(v1)` and `Y(v2) == Y(v1)`.
    Right,
    /// `X(v2) > X(v1)` and `Y(v2) > Y(v1)`.
    RightDown,
}

impl Quadrant {
    /// Computes the relation of `to` as seen from `from`.
    pub fn of(tree: &CoordinatedTree, from: NodeId, to: NodeId) -> Quadrant {
        let (x1, y1) = (tree.x(from), tree.y(from));
        let (x2, y2) = (tree.x(to), tree.y(to));
        debug_assert_ne!(x1, x2, "preorder X coordinates are unique");
        if x2 < x1 {
            match y2.cmp(&y1) {
                std::cmp::Ordering::Less => Quadrant::LeftUp,
                std::cmp::Ordering::Equal => Quadrant::Left,
                std::cmp::Ordering::Greater => Quadrant::LeftDown,
            }
        } else {
            match y2.cmp(&y1) {
                std::cmp::Ordering::Less => Quadrant::RightUp,
                std::cmp::Ordering::Equal => Quadrant::Right,
                std::cmp::Ordering::Greater => Quadrant::RightDown,
            }
        }
    }

    /// True if the sink is strictly closer to the root level (`Y` decreases).
    pub fn goes_up(self) -> bool {
        matches!(self, Quadrant::LeftUp | Quadrant::RightUp)
    }

    /// True if the sink is strictly deeper (`Y` increases).
    pub fn goes_down(self) -> bool {
        matches!(self, Quadrant::LeftDown | Quadrant::RightDown)
    }

    /// True if `X` decreases.
    pub fn goes_left(self) -> bool {
        matches!(self, Quadrant::LeftUp | Quadrant::Left | Quadrant::LeftDown)
    }
}

/// The eight channel directions of the DOWN/UP communication graph
/// (paper Definition 5). Tree-link channels use the `*_TREE` directions;
/// cross-link channels use the six `*_CROSS` directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Direction {
    /// Tree channel toward the parent (`left-up` relation).
    LuTree = 0,
    /// Tree channel toward a child (`right-down` relation).
    RdTree = 1,
    /// Cross channel whose sink is left-up of its start.
    LuCross = 2,
    /// Cross channel whose sink is left-down of its start.
    LdCross = 3,
    /// Cross channel whose sink is right-up of its start.
    RuCross = 4,
    /// Cross channel whose sink is right-down of its start.
    RdCross = 5,
    /// Cross channel within the same level, to the right.
    RCross = 6,
    /// Cross channel within the same level, to the left.
    LCross = 7,
}

impl Direction {
    /// Number of directions in the complete direction graph.
    pub const COUNT: usize = 8;

    /// All directions, indexable by `Direction::index`.
    pub const ALL: [Direction; 8] = [
        Direction::LuTree,
        Direction::RdTree,
        Direction::LuCross,
        Direction::LdCross,
        Direction::RuCross,
        Direction::RdCross,
        Direction::RCross,
        Direction::LCross,
    ];

    /// Dense index in `0..8`.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`Direction::index`].
    #[inline]
    pub fn from_index(i: usize) -> Direction {
        Direction::ALL[i]
    }

    /// Paper-style name, e.g. `LU_TREE`.
    pub fn name(self) -> &'static str {
        match self {
            Direction::LuTree => "LU_TREE",
            Direction::RdTree => "RD_TREE",
            Direction::LuCross => "LU_CROSS",
            Direction::LdCross => "LD_CROSS",
            Direction::RuCross => "RU_CROSS",
            Direction::RdCross => "RD_CROSS",
            Direction::RCross => "R_CROSS",
            Direction::LCross => "L_CROSS",
        }
    }

    /// Whether this direction belongs to a tree link.
    pub fn is_tree(self) -> bool {
        matches!(self, Direction::LuTree | Direction::RdTree)
    }

    /// Whether `Y` strictly decreases along this direction (traffic moves
    /// toward the root level).
    pub fn goes_up(self) -> bool {
        matches!(
            self,
            Direction::LuTree | Direction::LuCross | Direction::RuCross
        )
    }

    /// Whether `Y` strictly increases (traffic moves toward the leaves).
    pub fn goes_down(self) -> bool {
        matches!(
            self,
            Direction::RdTree | Direction::LdCross | Direction::RdCross
        )
    }

    /// Whether `X` strictly decreases along this direction. Every direction
    /// strictly changes `X` (preorder indices are unique), which is what
    /// makes same-direction channel chains acyclic.
    pub fn goes_left(self) -> bool {
        matches!(
            self,
            Direction::LuTree | Direction::LuCross | Direction::LdCross | Direction::LCross
        )
    }

    /// Classifies a channel from its link kind and geometric relation.
    ///
    /// In a coordinated tree a child→parent channel is always `left-up`
    /// (the parent precedes all descendants in preorder and sits one level
    /// up) and a parent→child channel is always `right-down`, so tree
    /// channels only ever map to `LU_TREE`/`RD_TREE`.
    pub fn classify(kind: LinkKind, q: Quadrant) -> Direction {
        match (kind, q) {
            (LinkKind::Tree, Quadrant::LeftUp) => Direction::LuTree,
            (LinkKind::Tree, Quadrant::RightDown) => Direction::RdTree,
            (LinkKind::Tree, other) => {
                unreachable!("tree channel cannot have relation {other:?}")
            }
            (LinkKind::Cross, Quadrant::LeftUp) => Direction::LuCross,
            (LinkKind::Cross, Quadrant::LeftDown) => Direction::LdCross,
            (LinkKind::Cross, Quadrant::RightUp) => Direction::RuCross,
            (LinkKind::Cross, Quadrant::RightDown) => Direction::RdCross,
            (LinkKind::Cross, Quadrant::Right) => Direction::RCross,
            (LinkKind::Cross, Quadrant::Left) => Direction::LCross,
        }
    }
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The *communication graph* `CG = (V, E⃗)` (paper Definition 5): every
/// bidirectional link contributes its two directed channels, each labelled
/// with one of the eight [`Direction`]s derived from the coordinated tree.
#[derive(Debug, Clone)]
pub struct CommGraph {
    channels: ChannelTable,
    /// `direction[c]` — the direction label of channel `c`.
    direction: Vec<Direction>,
    num_nodes: u32,
}

impl CommGraph {
    /// Builds the communication graph of `topo` with respect to `tree`.
    pub fn build(topo: &Topology, tree: &CoordinatedTree) -> Self {
        let channels = ChannelTable::build(topo);
        let nch = channels.num_channels();
        let mut direction = Vec::with_capacity(nch as usize);
        for c in 0..nch {
            let kind = if tree.is_tree_link(c / 2) {
                LinkKind::Tree
            } else {
                LinkKind::Cross
            };
            let q = Quadrant::of(tree, channels.start(c), channels.sink(c));
            direction.push(Direction::classify(kind, q));
        }
        CommGraph {
            channels,
            direction,
            num_nodes: topo.num_nodes(),
        }
    }

    /// Number of switches.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Number of directed channels.
    #[inline]
    pub fn num_channels(&self) -> u32 {
        self.channels.num_channels()
    }

    /// The channel table (endpoints, ports).
    #[inline]
    pub fn channels(&self) -> &ChannelTable {
        &self.channels
    }

    /// The direction `d(c)` of a channel.
    #[inline]
    pub fn direction(&self, c: ChannelId) -> Direction {
        self.direction[c as usize]
    }

    /// Count of channels with each direction, indexed by `Direction::index`.
    pub fn direction_histogram(&self) -> [u32; Direction::COUNT] {
        let mut hist = [0u32; Direction::COUNT];
        for &d in &self.direction {
            hist[d.index()] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord_tree::PreorderPolicy;

    fn sample() -> (Topology, CoordinatedTree, CommGraph) {
        let topo = Topology::new(
            5,
            4,
            [(0, 2), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
        )
        .unwrap();
        let tree = CoordinatedTree::build(&topo, PreorderPolicy::M1, 0).unwrap();
        let cg = CommGraph::build(&topo, &tree);
        (topo, tree, cg)
    }

    #[test]
    fn every_channel_has_a_direction_and_reverse_is_opposite() {
        let (_, tree, cg) = sample();
        for c in 0..cg.num_channels() {
            let d = cg.direction(c);
            let r = cg.direction(cg.channels().reverse(c));
            // A channel and its reverse move in opposite X directions.
            assert_ne!(d.goes_left(), r.goes_left(), "channel {c}: {d} vs {r}");
            // Tree-ness is a property of the link.
            assert_eq!(d.is_tree(), r.is_tree());
            // Direction labels are consistent with coordinates.
            let from = cg.channels().start(c);
            let to = cg.channels().sink(c);
            assert_eq!(d.goes_left(), tree.x(to) < tree.x(from));
            if d.goes_up() {
                assert!(tree.y(to) < tree.y(from));
            }
            if d.goes_down() {
                assert!(tree.y(to) > tree.y(from));
            }
        }
    }

    #[test]
    fn tree_channels_are_lu_or_rd_tree() {
        let (topo, tree, cg) = sample();
        for l in 0..topo.num_links() {
            let up = cg.direction(2 * l).is_tree();
            assert_eq!(up, tree.is_tree_link(l));
            if tree.is_tree_link(l) {
                let (d0, d1) = (cg.direction(2 * l), cg.direction(2 * l + 1));
                assert!(matches!(
                    (d0, d1),
                    (Direction::LuTree, Direction::RdTree) | (Direction::RdTree, Direction::LuTree)
                ));
            }
        }
    }

    #[test]
    fn child_to_parent_is_lu_tree() {
        let (_, tree, cg) = sample();
        for v in 0..cg.num_nodes() {
            if let Some(p) = tree.parent(v) {
                let l = tree.parent_link(v).unwrap();
                // Channel from v to p.
                let c = if cg.channels().start(2 * l) == v {
                    2 * l
                } else {
                    2 * l + 1
                };
                assert_eq!(cg.channels().sink(c), p);
                assert_eq!(cg.direction(c), Direction::LuTree);
                assert_eq!(cg.direction(cg.channels().reverse(c)), Direction::RdTree);
            }
        }
    }

    #[test]
    fn direction_histogram_sums_to_channel_count() {
        let (_, _, cg) = sample();
        let hist = cg.direction_histogram();
        assert_eq!(hist.iter().sum::<u32>(), cg.num_channels());
        // 4 tree links -> 4 LU_TREE + 4 RD_TREE channels.
        assert_eq!(hist[Direction::LuTree.index()], 4);
        assert_eq!(hist[Direction::RdTree.index()], 4);
    }

    #[test]
    fn direction_roundtrip_and_names() {
        for d in Direction::ALL {
            assert_eq!(Direction::from_index(d.index()), d);
            assert!(!d.name().is_empty());
            // Exactly one of left/right.
            let _ = d.goes_left();
            // Up and down are mutually exclusive.
            assert!(!(d.goes_up() && d.goes_down()));
        }
    }

    #[test]
    fn quadrant_relations_are_antisymmetric() {
        let (topo, tree, _) = sample();
        for l in 0..topo.num_links() {
            let (a, b) = topo.link(l);
            let q1 = Quadrant::of(&tree, a, b);
            let q2 = Quadrant::of(&tree, b, a);
            assert_ne!(q1.goes_left(), q2.goes_left());
            assert_eq!(q1.goes_up(), q2.goes_down());
        }
    }
}
