//! The up\*/down\* routing (Schroeder et al., DEC SRC Autonet, 1990).
//!
//! Every channel is labelled *up* or *down* with respect to a spanning
//! tree; a legal route traverses zero or more up channels followed by zero
//! or more down channels — i.e. every down→up turn is prohibited. This
//! crate provides the two standard spanning-tree flavours:
//!
//! * **BFS** (the original): `up` points to the endpoint with the smaller
//!   `(BFS level, node id)` pair.
//! * **DFS** (Robles/Sancho/Duato, ISHPC 2000): `up` points to the endpoint
//!   with the smaller DFS preorder number, which empirically spreads the
//!   prohibited turns away from the root.
//!
//! Deadlock freedom: each channel strictly decreases (up) or increases
//! (down) its endpoint order, and down→up is prohibited, so a dependency
//! cycle would have to be order-monotone — impossible. Connectivity: the
//! tree path climbs to the LCA (all up) and descends (all down).

use crate::TurnModel;
use irnet_topology::{
    ChannelId, CommGraph, CoordinatedTree, NodeId, PreorderPolicy, Topology, TopologyError,
};
use irnet_turns::TurnTable;

/// Spanning-tree flavour for up\*/down\*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeKind {
    /// Breadth-first tree, root = node 0 (the original Autonet scheme).
    Bfs,
    /// Depth-first tree, root = node 0 (Robles et al.).
    Dfs,
}

/// Constructs the up\*/down\* routing over `topo` with the given tree kind.
pub fn construct(topo: &Topology, kind: TreeKind) -> Result<TurnModel, TopologyError> {
    // The coordinated tree doubles as our BFS tree and supplies the
    // communication graph (channel table). Channel labels below do not use
    // its X coordinates except as documentation; `up` is defined by `order`.
    let tree = CoordinatedTree::build(topo, PreorderPolicy::M1, 0)?;
    let cg = CommGraph::build(topo, &tree);
    let order = node_order(topo, &tree, kind);

    let up = |c: ChannelId| -> bool {
        let ch = cg.channels();
        order[ch.sink(c) as usize] < order[ch.start(c) as usize]
    };

    // Prohibit every down→up pair, channel by channel.
    let mut table = TurnTable::all_allowed(&cg);
    let ch = cg.channels();
    for v in 0..cg.num_nodes() {
        for &in_ch in ch.inputs(v) {
            if up(in_ch) {
                continue;
            }
            for &out_ch in ch.outputs(v) {
                if out_ch != ch.reverse(in_ch) && up(out_ch) {
                    table.prohibit(&cg, in_ch, out_ch);
                }
            }
        }
    }
    Ok((tree, cg, table))
}

/// Total order on nodes: smaller = closer to "up".
fn node_order(topo: &Topology, tree: &CoordinatedTree, kind: TreeKind) -> Vec<u64> {
    let n = topo.num_nodes() as usize;
    match kind {
        TreeKind::Bfs => {
            // Lexicographic (level, id).
            (0..n)
                .map(|v| ((tree.y(v as NodeId) as u64) << 32) | v as u64)
                .collect()
        }
        TreeKind::Dfs => {
            // DFS preorder from node 0, scanning neighbors in id order.
            let mut order = vec![u64::MAX; n];
            let mut next = 0u64;
            let mut stack = vec![0 as NodeId];
            let mut seen = vec![false; n];
            seen[0] = true;
            while let Some(v) = stack.pop() {
                order[v as usize] = next;
                next += 1;
                // Push in reverse so the smallest-id neighbor is visited
                // first.
                for &(w, _) in topo.neighbors(v).iter().rev() {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        stack.push(w);
                    }
                }
            }
            order
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irnet_topology::gen;
    use irnet_turns::{verify_routing, RoutingTables};

    #[test]
    fn both_flavours_verify_on_random_networks() {
        for seed in 0..6 {
            let topo = gen::random_irregular(gen::IrregularParams::paper(28, 4), seed).unwrap();
            for kind in [TreeKind::Bfs, TreeKind::Dfs] {
                let (_, cg, table) = construct(&topo, kind).unwrap();
                let report = verify_routing(&cg, &table);
                assert!(
                    report.is_ok(),
                    "{kind:?} seed {seed}: cycle={:?} disc={:?}",
                    report.cycle,
                    report.disconnected
                );
            }
        }
    }

    #[test]
    fn routes_never_go_down_then_up() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(20, 4), 2).unwrap();
        let (tree, cg, table) = construct(&topo, TreeKind::Bfs).unwrap();
        let tables = RoutingTables::build(&cg, &table).unwrap();
        let ch = cg.channels();
        let order = |v: u32| -> u64 { ((tree.y(v) as u64) << 32) | v as u64 };
        for s in 0..topo.num_nodes() {
            for t in 0..topo.num_nodes() {
                if s == t {
                    continue;
                }
                let path = tables.route(&cg, s, t);
                let mut gone_down = false;
                for &c in &path {
                    let goes_up = order(ch.sink(c)) < order(ch.start(c));
                    if !goes_up {
                        gone_down = true;
                    }
                    assert!(!(gone_down && goes_up), "route {s}->{t} went down then up");
                }
            }
        }
    }

    #[test]
    fn dfs_variant_usually_differs_from_bfs() {
        let mut differs = false;
        for seed in 0..4 {
            let topo = gen::random_irregular(gen::IrregularParams::paper(24, 4), seed).unwrap();
            let (_, _, bfs) = construct(&topo, TreeKind::Bfs).unwrap();
            let (_, _, dfs) = construct(&topo, TreeKind::Dfs).unwrap();
            if bfs != dfs {
                differs = true;
            }
        }
        assert!(differs, "BFS and DFS up*/down* coincided on every topology");
    }

    #[test]
    fn works_on_regular_topologies() {
        for topo in [
            gen::ring(8).unwrap(),
            gen::mesh(4, 4).unwrap(),
            gen::torus(3, 3).unwrap(),
        ] {
            let (_, cg, table) = construct(&topo, TreeKind::Bfs).unwrap();
            assert!(verify_routing(&cg, &table).is_ok());
        }
    }
}
