use crate::error::TopologyError;
use serde::{Deserialize, Serialize};

/// Identifier of a switch in the network (paper: a node of `G = (V, E)`).
pub type NodeId = u32;

/// Identifier of a bidirectional link (an element of `E`).
pub type LinkId = u32;

/// The largest per-switch port budget: turn-table and routing-table port
/// masks are `u16`, one bit per output port.
pub const MAX_PORTS: u32 = 16;

/// A switch-based network with arbitrary (irregular) interconnection,
/// per Definition 1 of the paper: an undirected graph `G = (V, E)` where `V`
/// is the set of switches and `E` the set of bidirectional links.
///
/// The structure is immutable after construction and validated to be
/// simple (no self-loops, no duplicate links), connected, and within the
/// per-switch port budget. Adjacency is stored in CSR form so traversals
/// allocate nothing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    num_nodes: u32,
    /// Per-switch port budget (number of ports available for inter-switch
    /// links; the attached processor does not count against it).
    ports: u32,
    /// Endpoint pairs, `links[l] = (a, b)` with `a < b`.
    links: Vec<(NodeId, NodeId)>,
    /// CSR offsets into `adj`, length `num_nodes + 1`.
    offsets: Vec<u32>,
    /// Flattened neighbor lists; each entry is `(neighbor, link)`.
    /// Neighbors of every node are sorted by id.
    adj: Vec<(NodeId, LinkId)>,
}

impl Topology {
    /// Builds and validates a topology from a list of bidirectional links.
    ///
    /// `ports` is the per-switch port budget, at most [`MAX_PORTS`]: a
    /// node's degree must not exceed it. The graph must be simple and
    /// connected.
    pub fn new(
        num_nodes: u32,
        ports: u32,
        links: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Result<Self, TopologyError> {
        if num_nodes == 0 {
            return Err(TopologyError::EmptyNetwork);
        }
        if ports > MAX_PORTS {
            return Err(TopologyError::TooManyPorts { ports });
        }
        let mut canon: Vec<(NodeId, NodeId)> = Vec::new();
        for (a, b) in links {
            if a >= num_nodes {
                return Err(TopologyError::NodeOutOfRange { node: a, num_nodes });
            }
            if b >= num_nodes {
                return Err(TopologyError::NodeOutOfRange { node: b, num_nodes });
            }
            if a == b {
                return Err(TopologyError::SelfLoop { node: a });
            }
            canon.push((a.min(b), a.max(b)));
        }
        let mut sorted = canon.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            if w[0] == w[1] {
                return Err(TopologyError::DuplicateLink {
                    a: w[0].0,
                    b: w[0].1,
                });
            }
        }

        // Degree / CSR construction.
        let n = num_nodes as usize;
        let mut degree = vec![0u32; n];
        for &(a, b) in &canon {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        for (node, &d) in degree.iter().enumerate() {
            if d > ports {
                return Err(TopologyError::PortBudgetExceeded {
                    node: node as u32,
                    degree: d,
                    ports,
                });
            }
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut adj = vec![(0u32, 0u32); canon.len() * 2];
        for (l, &(a, b)) in canon.iter().enumerate() {
            adj[cursor[a as usize] as usize] = (b, l as u32);
            cursor[a as usize] += 1;
            adj[cursor[b as usize] as usize] = (a, l as u32);
            cursor[b as usize] += 1;
        }
        for i in 0..n {
            adj[offsets[i] as usize..offsets[i + 1] as usize].sort_unstable();
        }

        let topo = Topology {
            num_nodes,
            ports,
            links: canon,
            offsets,
            adj,
        };
        let reached = topo.count_reachable(0);
        if reached != num_nodes {
            return Err(TopologyError::Disconnected { reached, num_nodes });
        }
        Ok(topo)
    }

    /// Number of switches `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Number of bidirectional links `|E|`.
    #[inline]
    pub fn num_links(&self) -> u32 {
        self.links.len() as u32
    }

    /// Per-switch port budget this topology was validated against.
    #[inline]
    pub fn ports(&self) -> u32 {
        self.ports
    }

    /// The endpoints `(a, b)` of link `l`, with `a < b`.
    #[inline]
    pub fn link(&self, l: LinkId) -> (NodeId, NodeId) {
        self.links[l as usize]
    }

    /// All links as `(a, b)` pairs with `a < b`.
    #[inline]
    pub fn links(&self) -> &[(NodeId, NodeId)] {
        &self.links
    }

    /// Degree (number of inter-switch links) of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> u32 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Neighbors of `v` in increasing id order, with the connecting link.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[(NodeId, LinkId)] {
        &self.adj[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Returns the link between `a` and `b` if one exists.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.neighbors(a)
            .binary_search_by_key(&b, |&(n, _)| n)
            .ok()
            .map(|i| self.neighbors(a)[i].1)
    }

    /// Maximum node degree in the topology.
    pub fn max_degree(&self) -> u32 {
        (0..self.num_nodes)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Average node degree.
    pub fn avg_degree(&self) -> f64 {
        2.0 * self.num_links() as f64 / self.num_nodes as f64
    }

    /// Number of nodes reachable from `start` (used by the connectivity
    /// validation; exposed for diagnostics).
    pub fn count_reachable(&self, start: NodeId) -> u32 {
        let n = self.num_nodes as usize;
        let mut seen = vec![false; n];
        let mut stack = vec![start];
        seen[start as usize] = true;
        let mut count = 0u32;
        while let Some(v) = stack.pop() {
            count += 1;
            for &(w, _) in self.neighbors(v) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        count
    }

    /// Graph diameter in hops (BFS from every node). Intended for reporting,
    /// not hot paths.
    pub fn diameter(&self) -> u32 {
        let n = self.num_nodes as usize;
        let mut diameter = 0u32;
        let mut dist = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        for s in 0..self.num_nodes {
            dist.iter_mut().for_each(|d| *d = u32::MAX);
            dist[s as usize] = 0;
            queue.clear();
            queue.push_back(s);
            while let Some(v) = queue.pop_front() {
                for &(w, _) in self.neighbors(v) {
                    if dist[w as usize] == u32::MAX {
                        dist[w as usize] = dist[v as usize] + 1;
                        queue.push_back(w);
                    }
                }
            }
            diameter = diameter.max(dist.iter().copied().max().unwrap_or(0));
        }
        diameter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology {
        Topology::new(3, 4, [(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn builds_simple_triangle() {
        let t = triangle();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_links(), 3);
        assert_eq!(t.degree(0), 2);
        assert_eq!(
            t.neighbors(1).iter().map(|&(n, _)| n).collect::<Vec<_>>(),
            vec![0, 2]
        );
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            Topology::new(0, 4, []).unwrap_err(),
            TopologyError::EmptyNetwork
        );
    }

    #[test]
    fn rejects_port_budgets_wider_than_the_port_masks() {
        // A 21-switch star needs 20 hub ports; masks carry only 16.
        let star = (1..21).map(|v| (0, v));
        assert_eq!(
            Topology::new(21, 20, star).unwrap_err(),
            TopologyError::TooManyPorts { ports: 20 }
        );
        assert!(Topology::new(17, MAX_PORTS, (1..17).map(|v| (0, v))).is_ok());
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            Topology::new(2, 4, [(0, 0), (0, 1)]).unwrap_err(),
            TopologyError::SelfLoop { node: 0 }
        );
    }

    #[test]
    fn rejects_duplicate_even_if_reversed() {
        assert_eq!(
            Topology::new(2, 4, [(0, 1), (1, 0)]).unwrap_err(),
            TopologyError::DuplicateLink { a: 0, b: 1 }
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert_eq!(
            Topology::new(2, 4, [(0, 5)]).unwrap_err(),
            TopologyError::NodeOutOfRange {
                node: 5,
                num_nodes: 2
            }
        );
    }

    #[test]
    fn rejects_disconnected() {
        assert_eq!(
            Topology::new(4, 4, [(0, 1), (2, 3)]).unwrap_err(),
            TopologyError::Disconnected {
                reached: 2,
                num_nodes: 4
            }
        );
    }

    #[test]
    fn rejects_port_overflow() {
        // Node 0 with degree 3 under a 2-port budget.
        assert_eq!(
            Topology::new(4, 2, [(0, 1), (0, 2), (0, 3)]).unwrap_err(),
            TopologyError::PortBudgetExceeded {
                node: 0,
                degree: 3,
                ports: 2
            }
        );
    }

    #[test]
    fn link_between_finds_links_both_ways() {
        let t = triangle();
        let l = t.link_between(2, 0).unwrap();
        assert_eq!(t.link(l), (0, 2));
        assert_eq!(t.link_between(0, 2), Some(l));
        // Non-edges return None on larger graphs.
        let path = Topology::new(3, 4, [(0, 1), (1, 2)]).unwrap();
        assert_eq!(path.link_between(0, 2), None);
    }

    #[test]
    fn diameter_of_path() {
        let path = Topology::new(4, 4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(path.diameter(), 3);
        assert_eq!(triangle().diameter(), 1);
    }

    #[test]
    fn degree_statistics() {
        let star = Topology::new(4, 3, [(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(star.max_degree(), 3);
        assert!((star.avg_degree() - 1.5).abs() < 1e-12);
    }
}
