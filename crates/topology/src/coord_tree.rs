use crate::error::TopologyError;
use crate::graph::{LinkId, NodeId, Topology};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The preorder-traversal policy used to assign X coordinates
/// (paper §5: methods `M1`, `M2`, `M3`).
///
/// The BFS spanning tree itself is always built by scanning neighbors in
/// increasing node-id order (paper §4.1, Steps 1–5); only the preorder
/// traversal of Step 6 differs:
///
/// * `M1` — visit children smallest-node-number first. This is the policy
///   the paper proposes and shows to perform best (Remark 1).
/// * `M2` — visit children in random order (seeded, reproducible).
/// * `M3` — visit children largest-node-number first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PreorderPolicy {
    /// Smallest node number first (the paper's proposal).
    M1,
    /// Random child order (seeded).
    M2,
    /// Largest node number first.
    M3,
}

impl PreorderPolicy {
    /// All three policies, in paper order.
    pub const ALL: [PreorderPolicy; 3] =
        [PreorderPolicy::M1, PreorderPolicy::M2, PreorderPolicy::M3];

    /// The paper's label for this policy.
    pub fn label(self) -> &'static str {
        match self {
            PreorderPolicy::M1 => "M1",
            PreorderPolicy::M2 => "M2",
            PreorderPolicy::M3 => "M3",
        }
    }

    /// Parses a policy label, either case (`"M1"` or `"m1"`).
    pub fn parse(s: &str) -> Option<PreorderPolicy> {
        match s {
            "M1" | "m1" => Some(PreorderPolicy::M1),
            "M2" | "m2" => Some(PreorderPolicy::M2),
            "M3" | "m3" => Some(PreorderPolicy::M3),
            _ => None,
        }
    }
}

impl std::fmt::Display for PreorderPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How the spanning-tree root is chosen.
///
/// The paper always roots at the smallest node id (§4.1 Step 2). Root
/// placement is a known performance lever for tree-based routings
/// (Schroeder et al. discuss it for up\*/down\*), so the library also
/// offers rooting at a graph center, which shortens the tree and typically
/// spreads level-0/1 traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RootPolicy {
    /// Node 0 — the paper's choice.
    #[default]
    Smallest,
    /// A node of minimum eccentricity (smallest id among ties).
    Center,
}

impl RootPolicy {
    /// Resolves the policy to a concrete root for `topo`.
    pub fn pick(self, topo: &Topology) -> NodeId {
        match self {
            RootPolicy::Smallest => 0,
            RootPolicy::Center => {
                let n = topo.num_nodes() as usize;
                let mut best = (u32::MAX, 0u32);
                let mut dist = vec![u32::MAX; n];
                let mut queue = std::collections::VecDeque::new();
                for s in 0..topo.num_nodes() {
                    dist.iter_mut().for_each(|d| *d = u32::MAX);
                    dist[s as usize] = 0;
                    queue.clear();
                    queue.push_back(s);
                    let mut ecc = 0;
                    while let Some(v) = queue.pop_front() {
                        ecc = ecc.max(dist[v as usize]);
                        for &(w, _) in topo.neighbors(v) {
                            if dist[w as usize] == u32::MAX {
                                dist[w as usize] = dist[v as usize] + 1;
                                queue.push_back(w);
                            }
                        }
                    }
                    if ecc < best.0 {
                        best = (ecc, s);
                    }
                }
                best.1
            }
        }
    }
}

/// A *coordinated tree* (paper Definition 2): a BFS spanning tree of the
/// topology in which every node `v` carries coordinates
/// `X(v) = preorder index` and `Y(v) = BFS level`.
///
/// The root is the smallest node id (node 0) by default, matching §4.1;
/// see [`CoordinatedTree::build_rooted`] and [`RootPolicy`] for
/// alternatives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordinatedTree {
    root: NodeId,
    policy: PreorderPolicy,
    /// `parent[v]` — BFS parent, `u32::MAX` for the root.
    parent: Vec<NodeId>,
    /// `parent_link[v]` — link to the parent, undefined for the root.
    parent_link: Vec<LinkId>,
    /// Children of each node in the order they are preorder-visited (CSR).
    child_offsets: Vec<u32>,
    children: Vec<NodeId>,
    /// `x[v]` — preorder index (unique in `0..n`).
    x: Vec<u32>,
    /// `y[v]` — BFS level of `v` (root has level 0).
    y: Vec<u32>,
    /// `tree_link[l]` — whether link `l` of the topology is a tree link.
    tree_link: Vec<bool>,
    num_tree_links: u32,
    max_level: u32,
}

impl CoordinatedTree {
    /// Builds the coordinated tree of `topo` rooted at node 0 (the
    /// paper's §4.1 construction).
    ///
    /// `seed` only matters for [`PreorderPolicy::M2`], which shuffles each
    /// node's child list with a seeded RNG so results are reproducible.
    pub fn build(
        topo: &Topology,
        policy: PreorderPolicy,
        seed: u64,
    ) -> Result<Self, TopologyError> {
        Self::build_rooted(topo, 0, policy, seed)
    }

    /// Builds the coordinated tree rooted at an explicit node.
    pub fn build_rooted(
        topo: &Topology,
        root: NodeId,
        policy: PreorderPolicy,
        seed: u64,
    ) -> Result<Self, TopologyError> {
        if topo.num_nodes() == 0 {
            return Err(TopologyError::EmptyNetwork);
        }
        if root >= topo.num_nodes() {
            return Err(TopologyError::NodeOutOfRange {
                node: root,
                num_nodes: topo.num_nodes(),
            });
        }
        let n = topo.num_nodes() as usize;

        // Steps 1-5: BFS from the root, scanning neighbors in increasing id
        // order (Topology::neighbors is already sorted).
        let mut visited = vec![false; n];
        let mut parent = vec![u32::MAX; n];
        let mut parent_link = vec![u32::MAX; n];
        let mut y = vec![0u32; n];
        let mut children_tmp: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut queue = std::collections::VecDeque::with_capacity(n);
        visited[root as usize] = true;
        queue.push_back(root);
        let mut tree_link = vec![false; topo.num_links() as usize];
        let mut max_level = 0u32;
        while let Some(v) = queue.pop_front() {
            for &(w, l) in topo.neighbors(v) {
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    parent[w as usize] = v;
                    parent_link[w as usize] = l;
                    y[w as usize] = y[v as usize] + 1;
                    max_level = max_level.max(y[w as usize]);
                    tree_link[l as usize] = true;
                    children_tmp[v as usize].push(w);
                    queue.push_back(w);
                }
            }
        }
        // Connectivity is already validated by Topology::new; keep the guard
        // for topologies constructed through other (test) paths.
        debug_assert!(visited.iter().all(|&v| v));

        // Order children per the preorder policy. BFS discovered them in
        // increasing id order already (M1).
        match policy {
            PreorderPolicy::M1 => {}
            PreorderPolicy::M2 => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                for kids in &mut children_tmp {
                    kids.shuffle(&mut rng);
                }
            }
            PreorderPolicy::M3 => {
                for kids in &mut children_tmp {
                    kids.reverse();
                }
            }
        }

        // Step 6: preorder traversal assigns X. Iterative stack; children
        // must be pushed in reverse so the first child is visited first.
        let mut x = vec![0u32; n];
        let mut order = 0u32;
        let mut stack = Vec::with_capacity(n);
        stack.push(root);
        while let Some(v) = stack.pop() {
            x[v as usize] = order;
            order += 1;
            for &c in children_tmp[v as usize].iter().rev() {
                stack.push(c);
            }
        }
        debug_assert_eq!(order as usize, n);

        // Flatten children into CSR.
        let mut child_offsets = vec![0u32; n + 1];
        for v in 0..n {
            child_offsets[v + 1] = child_offsets[v] + children_tmp[v].len() as u32;
        }
        let mut children = Vec::with_capacity(n - 1);
        for kids in &children_tmp {
            children.extend_from_slice(kids);
        }

        let num_tree_links = tree_link.iter().filter(|&&t| t).count() as u32;
        debug_assert_eq!(num_tree_links as usize, n - 1);

        Ok(CoordinatedTree {
            root,
            policy,
            parent,
            parent_link,
            child_offsets,
            children,
            x,
            y,
            tree_link,
            num_tree_links,
            max_level,
        })
    }

    /// The root of the spanning tree (node 0 unless built with
    /// [`RootPolicy::Center`]).
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The preorder policy this tree was built with.
    #[inline]
    pub fn policy(&self) -> PreorderPolicy {
        self.policy
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        self.x.len() as u32
    }

    /// `X(v)` — the preorder index of `v` (paper Definition 2).
    #[inline]
    pub fn x(&self, v: NodeId) -> u32 {
        self.x[v as usize]
    }

    /// `Y(v)` — the BFS level of `v` (paper Definition 2).
    #[inline]
    pub fn y(&self, v: NodeId) -> u32 {
        self.y[v as usize]
    }

    /// BFS parent of `v`, or `None` for the root.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        (v != self.root).then(|| self.parent[v as usize])
    }

    /// The tree link connecting `v` to its parent, or `None` for the root.
    #[inline]
    pub fn parent_link(&self, v: NodeId) -> Option<LinkId> {
        (v != self.root).then(|| self.parent_link[v as usize])
    }

    /// Children of `v`, in preorder-visit order.
    #[inline]
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children
            [self.child_offsets[v as usize] as usize..self.child_offsets[v as usize + 1] as usize]
    }

    /// Whether topology link `l` is a tree link (`E'`); otherwise it is a
    /// cross link (`E - E'`, Definition 3).
    #[inline]
    pub fn is_tree_link(&self, l: LinkId) -> bool {
        self.tree_link[l as usize]
    }

    /// Number of tree links (always `n - 1`).
    #[inline]
    pub fn num_tree_links(&self) -> u32 {
        self.num_tree_links
    }

    /// Deepest BFS level.
    #[inline]
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// True if `v` has no children (a leaf of the coordinated tree).
    #[inline]
    pub fn is_leaf(&self, v: NodeId) -> bool {
        self.children(v).is_empty()
    }

    /// All leaves of the tree, in increasing id order.
    pub fn leaves(&self) -> Vec<NodeId> {
        (0..self.num_nodes()).filter(|&v| self.is_leaf(v)).collect()
    }

    /// All nodes at a given BFS level, in increasing id order.
    pub fn nodes_at_level(&self, level: u32) -> Vec<NodeId> {
        (0..self.num_nodes())
            .filter(|&v| self.y(v) == level)
            .collect()
    }

    /// Depth-first least common ancestor of `a` and `b` (walks parents; fine
    /// for analysis code, not meant for hot loops).
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let (mut a, mut b) = (a, b);
        while self.y(a) > self.y(b) {
            a = self.parent[a as usize];
        }
        while self.y(b) > self.y(a) {
            b = self.parent[b as usize];
        }
        while a != b {
            a = self.parent[a as usize];
            b = self.parent[b as usize];
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The example network of Figure 1(b): 5 switches.
    /// Links: (1,3),(1,5),(2,4),(2,5),(3,4),(3,5),(4,5) with 1-based ids in
    /// the paper; we use 0-based ids 0..5.
    fn figure1_topology() -> Topology {
        Topology::new(
            5,
            4,
            [(0, 2), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
        )
        .unwrap()
    }

    #[test]
    fn policy_labels_round_trip_through_parse() {
        for policy in PreorderPolicy::ALL {
            let label = policy.to_string();
            assert_eq!(PreorderPolicy::parse(&label), Some(policy));
            assert_eq!(PreorderPolicy::parse(&label.to_lowercase()), Some(policy));
        }
        assert_eq!(PreorderPolicy::parse("M4"), None);
    }

    #[test]
    fn bfs_tree_levels_match_figure1() {
        let topo = figure1_topology();
        let ct = CoordinatedTree::build(&topo, PreorderPolicy::M1, 0).unwrap();
        // Root = v1 (id 0) at level 0; its BFS children are v3 (id 2) and
        // v5 (id 4) at level 1; v2 (id 1) and v4 (id 3) hang below.
        assert_eq!(ct.root(), 0);
        assert_eq!(ct.y(0), 0);
        assert_eq!(ct.y(2), 1);
        assert_eq!(ct.y(4), 1);
        assert_eq!(ct.max_level(), 2);
        assert_eq!(ct.num_tree_links(), 4);
    }

    #[test]
    fn x_is_a_permutation_and_preorder_consistent() {
        let topo = figure1_topology();
        for policy in PreorderPolicy::ALL {
            let ct = CoordinatedTree::build(&topo, policy, 42).unwrap();
            let mut xs: Vec<u32> = (0..5).map(|v| ct.x(v)).collect();
            xs.sort_unstable();
            assert_eq!(xs, vec![0, 1, 2, 3, 4]);
            // Parent is visited before any descendant: X(parent) < X(child).
            for v in 0..5u32 {
                if let Some(p) = ct.parent(v) {
                    assert!(ct.x(p) < ct.x(v), "policy {policy}: X({p}) >= X({v})");
                    assert_eq!(ct.y(v), ct.y(p) + 1);
                }
            }
        }
    }

    #[test]
    fn m1_visits_children_in_id_order() {
        let topo = figure1_topology();
        let ct = CoordinatedTree::build(&topo, PreorderPolicy::M1, 0).unwrap();
        for v in 0..5u32 {
            let kids = ct.children(v);
            for w in kids.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
        // Root preorder: 0 first, then subtree of node 2 before subtree of 4.
        assert_eq!(ct.x(0), 0);
        assert!(ct.x(2) < ct.x(4));
    }

    #[test]
    fn m3_reverses_child_order() {
        let topo = figure1_topology();
        let ct = CoordinatedTree::build(&topo, PreorderPolicy::M3, 0).unwrap();
        // With M3 the larger-id child subtree is visited first.
        assert!(ct.x(4) < ct.x(2));
    }

    #[test]
    fn m2_is_reproducible_per_seed() {
        let topo = figure1_topology();
        let a = CoordinatedTree::build(&topo, PreorderPolicy::M2, 7).unwrap();
        let b = CoordinatedTree::build(&topo, PreorderPolicy::M2, 7).unwrap();
        for v in 0..5u32 {
            assert_eq!(a.x(v), b.x(v));
        }
    }

    #[test]
    fn tree_links_count_and_leaves() {
        let topo = figure1_topology();
        let ct = CoordinatedTree::build(&topo, PreorderPolicy::M1, 0).unwrap();
        let tree_count = (0..topo.num_links())
            .filter(|&l| ct.is_tree_link(l))
            .count();
        assert_eq!(tree_count, 4);
        for leaf in ct.leaves() {
            assert!(ct.is_leaf(leaf));
            assert!(ct.children(leaf).is_empty());
        }
        assert!(!ct.is_leaf(0));
    }

    #[test]
    fn lca_of_siblings_is_parent() {
        let topo = figure1_topology();
        let ct = CoordinatedTree::build(&topo, PreorderPolicy::M1, 0).unwrap();
        // Nodes 2 and 4 are both children of the root.
        assert_eq!(ct.lca(2, 4), 0);
        assert_eq!(ct.lca(3, 3), 3);
        let p = ct.parent(3).unwrap();
        assert_eq!(ct.lca(3, p), p);
    }

    #[test]
    fn build_rooted_relocates_the_root() {
        let topo = figure1_topology();
        let ct = CoordinatedTree::build_rooted(&topo, 3, PreorderPolicy::M1, 0).unwrap();
        assert_eq!(ct.root(), 3);
        assert_eq!(ct.y(3), 0);
        assert_eq!(ct.x(3), 0);
        for v in 0..5u32 {
            if let Some(p) = ct.parent(v) {
                assert!(ct.x(p) < ct.x(v));
                assert_eq!(ct.y(v), ct.y(p) + 1);
            }
        }
        assert!(CoordinatedTree::build_rooted(&topo, 9, PreorderPolicy::M1, 0).is_err());
    }

    #[test]
    fn center_root_minimizes_eccentricity() {
        // A path 0-1-2-3-4: the center is node 2.
        let path = Topology::new(5, 2, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        assert_eq!(RootPolicy::Center.pick(&path), 2);
        assert_eq!(RootPolicy::Smallest.pick(&path), 0);
        // Center-rooted tree is shallower than edge-rooted.
        let edge = CoordinatedTree::build_rooted(&path, 0, PreorderPolicy::M1, 0).unwrap();
        let center = CoordinatedTree::build_rooted(&path, 2, PreorderPolicy::M1, 0).unwrap();
        assert!(center.max_level() < edge.max_level());
    }

    #[test]
    fn nodes_at_level_partitions_nodes() {
        let topo = figure1_topology();
        let ct = CoordinatedTree::build(&topo, PreorderPolicy::M1, 0).unwrap();
        let total: usize = (0..=ct.max_level())
            .map(|l| ct.nodes_at_level(l).len())
            .sum();
        assert_eq!(total, 5);
        assert_eq!(ct.nodes_at_level(0), vec![0]);
    }
}
