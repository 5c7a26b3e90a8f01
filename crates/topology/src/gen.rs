//! Topology generators.
//!
//! The paper evaluates on "randomly generated" irregular networks of 128
//! switches with 4- and 8-port configurations (10 samples each). The exact
//! recipe is unspecified; [`random_irregular`] follows the standard setup of
//! this literature (Jouraku/Koibuchi's IRFlexSim experiments): build a random
//! spanning tree to guarantee connectivity, then keep pairing free ports at
//! random until no legal link can be added. The result is connected, simple,
//! and as close to port-saturated as the random pairing allows.
//!
//! Regular families (ring, mesh, torus, hypercube, star, full tree, complete)
//! are provided for tests, examples, and sanity baselines.

use crate::error::TopologyError;
use crate::graph::{NodeId, Topology};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Parameters for the random irregular generator.
#[derive(Debug, Clone, Copy)]
pub struct IrregularParams {
    /// Number of switches.
    pub num_nodes: u32,
    /// Per-switch port budget for inter-switch links.
    pub ports: u32,
    /// Fraction of remaining free ports to consume with extra (cross)
    /// links after the spanning tree, in `0.0..=1.0`. `1.0` saturates ports
    /// as far as random pairing allows (the default, matching IRFlexSim).
    pub fill: f64,
}

impl IrregularParams {
    /// Paper configuration: `num_nodes` switches, `ports` ports, saturated.
    pub fn paper(num_nodes: u32, ports: u32) -> Self {
        IrregularParams {
            num_nodes,
            ports,
            fill: 1.0,
        }
    }
}

/// Generates a random connected irregular network. Deterministic per seed.
pub fn random_irregular(params: IrregularParams, seed: u64) -> Result<Topology, TopologyError> {
    let IrregularParams {
        num_nodes: n,
        ports,
        fill,
    } = params;
    if n == 0 {
        return Err(TopologyError::EmptyNetwork);
    }
    if n > 1 && ports < 1 {
        return Err(TopologyError::Unsatisfiable(
            "need at least one port per switch to connect the network".into(),
        ));
    }
    if !(0.0..=1.0).contains(&fill) {
        return Err(TopologyError::Unsatisfiable(format!(
            "fill {fill} outside 0..=1"
        )));
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut free = vec![ports; n as usize];
    let mut links: Vec<(NodeId, NodeId)> = Vec::new();
    let mut has_link = std::collections::HashSet::<(u32, u32)>::new();

    // Random spanning tree via a random permutation: attach each new node to
    // a random already-attached node that still has a free port. Preferring
    // low-degree attach points keeps the tree feasible even for ports = 2
    // (it degenerates to a path) and spreads degrees realistically.
    //
    // Both phases draw from a list kept up to date rather than re-collected
    // per draw: a node leaves its list only when its last port fills, so
    // the list always equals the filtered collection and each draw indexes
    // the same node. No draw scans all n nodes; the order-keeping removal
    // is one memmove per filled node.
    let mut order: Vec<NodeId> = (0..n).collect();
    order.shuffle(&mut rng);
    // Attached nodes with at least one free port, in attach order.
    let mut candidates: Vec<NodeId> = vec![order[0]];
    for (attached, &v) in order[1..].iter().enumerate() {
        if candidates.is_empty() {
            return Err(TopologyError::Unsatisfiable(format!(
                "ran out of free ports while building the spanning tree \
                 ({} of {} nodes attached; ports = {})",
                attached + 1,
                n,
                ports
            )));
        }
        // The draw `candidates.choose(&mut rng)` makes.
        let i = rng.gen_range(0..candidates.len());
        let u = candidates[i];
        links.push((u.min(v), u.max(v)));
        has_link.insert((u.min(v), u.max(v)));
        free[u as usize] -= 1;
        free[v as usize] -= 1;
        if free[u as usize] == 0 {
            candidates.remove(i);
        }
        if free[v as usize] > 0 {
            candidates.push(v);
        }
    }

    // Fill phase: random pairing of free ports.
    let mut budget = {
        let total_free: u32 = free.iter().sum();
        ((total_free as f64 * fill) / 2.0).floor() as u32
    };
    // Nodes with at least one free port, in id order.
    let mut open: Vec<NodeId> = (0..n).filter(|&v| free[v as usize] > 0).collect();
    let mut stale = 0u32;
    while budget > 0 {
        if open.len() < 2 {
            break;
        }
        let ia = rng.gen_range(0..open.len());
        let ib = rng.gen_range(0..open.len());
        let (a, b) = (open[ia], open[ib]);
        let key = (a.min(b), a.max(b));
        if a == b || has_link.contains(&key) {
            stale += 1;
            // Give up when random pairing keeps colliding: the remaining free
            // ports cannot be matched into new simple links.
            if stale > 64 * n {
                break;
            }
            continue;
        }
        stale = 0;
        has_link.insert(key);
        links.push(key);
        free[a as usize] -= 1;
        free[b as usize] -= 1;
        // The higher index first, so the lower one still points at its node.
        for i in [ia.max(ib), ia.min(ib)] {
            if free[open[i] as usize] == 0 {
                open.remove(i);
            }
        }
        budget -= 1;
    }

    Topology::new(n, ports, links)
}

/// Parameters for the clustered (rack-based) generator.
#[derive(Debug, Clone, Copy)]
pub struct ClusteredParams {
    /// Number of clusters (racks).
    pub clusters: u32,
    /// Switches per cluster.
    pub cluster_size: u32,
    /// Per-switch port budget.
    pub ports: u32,
    /// Inter-cluster links per cluster pair (subject to port budget);
    /// intra-cluster connectivity is made as dense as ports allow.
    pub uplinks: u32,
}

/// Generates a clustered irregular network: switches grouped into racks
/// with dense intra-rack wiring and sparse random uplinks between racks —
/// the topology shape of real switch-based clusters (NOW/SAN), as opposed
/// to the fully random [`random_irregular`]. Deterministic per seed.
pub fn clustered(params: ClusteredParams, seed: u64) -> Result<Topology, TopologyError> {
    let ClusteredParams {
        clusters,
        cluster_size,
        ports,
        uplinks,
    } = params;
    if clusters == 0 || cluster_size == 0 {
        return Err(TopologyError::EmptyNetwork);
    }
    let n = clusters * cluster_size;
    if clusters > 1 && (uplinks == 0 || ports < 2) {
        return Err(TopologyError::Unsatisfiable(
            "multi-cluster networks need uplinks and at least 2 ports".into(),
        ));
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut free = vec![ports; n as usize];
    let mut links: Vec<(NodeId, NodeId)> = Vec::new();
    let mut has_link = std::collections::HashSet::<(u32, u32)>::new();
    let mut add = |a: NodeId, b: NodeId, free: &mut Vec<u32>| -> bool {
        let key = (a.min(b), a.max(b));
        if a == b || has_link.contains(&key) || free[a as usize] == 0 || free[b as usize] == 0 {
            return false;
        }
        has_link.insert(key);
        links.push(key);
        free[a as usize] -= 1;
        free[b as usize] -= 1;
        true
    };

    // Intra-cluster: a ring (or path) backbone, then random chords while
    // ports and budget remain. Reserve `uplinks`-worth of ports per
    // cluster for inter-cluster wiring.
    for c in 0..clusters {
        let base = c * cluster_size;
        for i in 0..cluster_size.saturating_sub(1) {
            add(base + i, base + i + 1, &mut free);
        }
        if cluster_size >= 3 {
            add(base, base + cluster_size - 1, &mut free);
        }
        // Chords: up to one extra per switch, keeping a one-port reserve on
        // low-index switches for uplinks.
        for _ in 0..cluster_size {
            let a = base + rng.gen_range(0..cluster_size);
            let b = base + rng.gen_range(0..cluster_size);
            if free[a as usize] > 1 && free[b as usize] > 1 {
                add(a, b, &mut free);
            }
        }
    }

    // Inter-cluster: connect consecutive clusters (guaranteeing
    // connectivity), then `uplinks` random pairs per cluster pair.
    for c in 1..clusters {
        let mut attached = false;
        'outer: for i in 0..cluster_size {
            for j in 0..cluster_size {
                if add((c - 1) * cluster_size + i, c * cluster_size + j, &mut free) {
                    attached = true;
                    break 'outer;
                }
            }
        }
        if !attached {
            return Err(TopologyError::Unsatisfiable(format!(
                "no free ports to attach cluster {c}"
            )));
        }
    }
    for a in 0..clusters {
        for b in (a + 1)..clusters {
            for _ in 0..uplinks {
                let u = a * cluster_size + rng.gen_range(0..cluster_size);
                let v = b * cluster_size + rng.gen_range(0..cluster_size);
                add(u, v, &mut free);
            }
        }
    }
    Topology::new(n, ports, links)
}

/// A ring of `n` switches.
pub fn ring(n: u32) -> Result<Topology, TopologyError> {
    if n < 3 {
        return Err(TopologyError::Unsatisfiable(
            "ring needs at least 3 nodes".into(),
        ));
    }
    Topology::new(n, 2, (0..n).map(|i| (i, (i + 1) % n)))
}

/// A `w x h` 2-D mesh.
pub fn mesh(w: u32, h: u32) -> Result<Topology, TopologyError> {
    if w == 0 || h == 0 {
        return Err(TopologyError::EmptyNetwork);
    }
    let id = |x: u32, y: u32| y * w + x;
    let mut links = Vec::new();
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                links.push((id(x, y), id(x + 1, y)));
            }
            if y + 1 < h {
                links.push((id(x, y), id(x, y + 1)));
            }
        }
    }
    Topology::new(w * h, 4, links)
}

/// A `w x h` 2-D torus (requires `w, h >= 3` so wraparounds stay simple).
pub fn torus(w: u32, h: u32) -> Result<Topology, TopologyError> {
    if w < 3 || h < 3 {
        return Err(TopologyError::Unsatisfiable("torus needs w, h >= 3".into()));
    }
    let id = |x: u32, y: u32| y * w + x;
    let mut links = Vec::new();
    for y in 0..h {
        for x in 0..w {
            links.push((id(x, y), id((x + 1) % w, y)));
            links.push((id(x, y), id(x, (y + 1) % h)));
        }
    }
    Topology::new(w * h, 4, links)
}

/// A hypercube of dimension `dim` (`2^dim` switches, `dim` ports each).
pub fn hypercube(dim: u32) -> Result<Topology, TopologyError> {
    if dim == 0 || dim > 16 {
        return Err(TopologyError::Unsatisfiable(
            "hypercube dim must be 1..=16".into(),
        ));
    }
    let n = 1u32 << dim;
    let mut links = Vec::new();
    for v in 0..n {
        for b in 0..dim {
            let w = v ^ (1 << b);
            if v < w {
                links.push((v, w));
            }
        }
    }
    Topology::new(n, dim, links)
}

/// A star: node 0 connected to all others.
pub fn star(n: u32) -> Result<Topology, TopologyError> {
    if n < 2 {
        return Err(TopologyError::Unsatisfiable(
            "star needs at least 2 nodes".into(),
        ));
    }
    Topology::new(n, n - 1, (1..n).map(|v| (0, v)))
}

/// A complete graph on `n` switches.
pub fn complete(n: u32) -> Result<Topology, TopologyError> {
    if n < 2 {
        return Err(TopologyError::Unsatisfiable(
            "complete graph needs at least 2 nodes".into(),
        ));
    }
    let mut links = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            links.push((a, b));
        }
    }
    Topology::new(n, n - 1, links)
}

/// A full `k`-ary tree with `n` nodes (node `v`'s parent is `(v-1)/k`).
pub fn kary_tree(n: u32, k: u32) -> Result<Topology, TopologyError> {
    if n == 0 {
        return Err(TopologyError::EmptyNetwork);
    }
    if k == 0 {
        return Err(TopologyError::Unsatisfiable(
            "arity must be positive".into(),
        ));
    }
    Topology::new(n, k + 1, (1..n).map(|v| ((v - 1) / k, v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn irregular_is_connected_and_within_ports() {
        for seed in 0..5 {
            let t = random_irregular(IrregularParams::paper(64, 4), seed).unwrap();
            assert_eq!(t.num_nodes(), 64);
            assert_eq!(t.count_reachable(0), 64);
            assert!(t.max_degree() <= 4);
            // Saturated fill should get reasonably close to the port budget.
            assert!(
                t.avg_degree() > 2.5,
                "avg degree {} too sparse",
                t.avg_degree()
            );
        }
    }

    #[test]
    fn irregular_is_deterministic_per_seed() {
        let a = random_irregular(IrregularParams::paper(32, 8), 9).unwrap();
        let b = random_irregular(IrregularParams::paper(32, 8), 9).unwrap();
        assert_eq!(a.links(), b.links());
        let c = random_irregular(IrregularParams::paper(32, 8), 10).unwrap();
        assert_ne!(a.links(), c.links());
    }

    #[test]
    fn irregular_fill_zero_gives_spanning_tree() {
        let t = random_irregular(
            IrregularParams {
                num_nodes: 40,
                ports: 4,
                fill: 0.0,
            },
            3,
        )
        .unwrap();
        assert_eq!(t.num_links(), 39);
    }

    #[test]
    fn ring_mesh_torus_shapes() {
        let r = ring(6).unwrap();
        assert_eq!(r.num_links(), 6);
        assert_eq!(r.max_degree(), 2);
        let m = mesh(3, 4).unwrap();
        assert_eq!(m.num_nodes(), 12);
        assert_eq!(m.num_links(), 3 * 3 + 2 * 4);
        let t = torus(4, 4).unwrap();
        assert_eq!(t.num_links(), 32);
        assert_eq!(t.max_degree(), 4);
    }

    #[test]
    fn hypercube_and_complete() {
        let h = hypercube(4).unwrap();
        assert_eq!(h.num_nodes(), 16);
        assert_eq!(h.num_links(), 32);
        assert_eq!(h.max_degree(), 4);
        let k = complete(5).unwrap();
        assert_eq!(k.num_links(), 10);
    }

    #[test]
    fn kary_tree_and_star() {
        let t = kary_tree(7, 2).unwrap();
        assert_eq!(t.num_links(), 6);
        assert_eq!(t.degree(0), 2);
        let s = star(5).unwrap();
        assert_eq!(s.degree(0), 4);
    }

    #[test]
    fn generators_reject_bad_params() {
        assert!(ring(2).is_err());
        assert!(torus(2, 4).is_err());
        assert!(hypercube(0).is_err());
        assert!(random_irregular(
            IrregularParams {
                num_nodes: 0,
                ports: 4,
                fill: 1.0
            },
            0
        )
        .is_err());
        assert!(random_irregular(
            IrregularParams {
                num_nodes: 8,
                ports: 4,
                fill: 2.0
            },
            0
        )
        .is_err());
    }

    #[test]
    fn clustered_is_connected_and_within_ports() {
        for seed in 0..4 {
            let t = clustered(
                ClusteredParams {
                    clusters: 4,
                    cluster_size: 8,
                    ports: 6,
                    uplinks: 2,
                },
                seed,
            )
            .unwrap();
            assert_eq!(t.num_nodes(), 32);
            assert_eq!(t.count_reachable(0), 32);
            assert!(t.max_degree() <= 6);
        }
    }

    #[test]
    fn clustered_has_rack_locality() {
        let t = clustered(
            ClusteredParams {
                clusters: 4,
                cluster_size: 8,
                ports: 6,
                uplinks: 1,
            },
            1,
        )
        .unwrap();
        let intra = t.links().iter().filter(|&&(a, b)| a / 8 == b / 8).count();
        let inter = t.num_links() as usize - intra;
        assert!(
            intra > inter,
            "expected rack locality: intra {intra} vs inter {inter}"
        );
    }

    #[test]
    fn clustered_single_cluster_and_bad_params() {
        let t = clustered(
            ClusteredParams {
                clusters: 1,
                cluster_size: 6,
                ports: 4,
                uplinks: 0,
            },
            0,
        )
        .unwrap();
        assert_eq!(t.num_nodes(), 6);
        assert!(clustered(
            ClusteredParams {
                clusters: 0,
                cluster_size: 4,
                ports: 4,
                uplinks: 1
            },
            0
        )
        .is_err());
        assert!(clustered(
            ClusteredParams {
                clusters: 3,
                cluster_size: 4,
                ports: 4,
                uplinks: 0
            },
            0
        )
        .is_err());
    }

    #[test]
    fn clustered_is_deterministic() {
        let p = ClusteredParams {
            clusters: 3,
            cluster_size: 6,
            ports: 5,
            uplinks: 2,
        };
        assert_eq!(
            clustered(p, 9).unwrap().links(),
            clustered(p, 9).unwrap().links()
        );
    }

    #[test]
    fn two_port_networks_degenerate_to_paths_or_rings() {
        let t = random_irregular(
            IrregularParams {
                num_nodes: 12,
                ports: 2,
                fill: 1.0,
            },
            5,
        )
        .unwrap();
        assert!(t.max_degree() <= 2);
        assert_eq!(t.count_reachable(0), 12);
    }
}
