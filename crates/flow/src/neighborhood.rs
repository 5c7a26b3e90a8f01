//! Stage 3 support — representative neighborhood extraction.
//!
//! To measure a cluster's per-hop delay empirically, the flit engine runs
//! on a small induced subgraph around the representative channel instead
//! of the whole fabric. The ball is grown by breadth-first search from the
//! channel's two endpoint switches (neighbors visited in ascending id
//! order, so the extraction is deterministic), truncated at a radius and a
//! node cap, and the induced subgraph keeps every link between selected
//! switches — BFS growth guarantees connectivity, which `Topology::new`
//! requires.

use irnet_topology::{ChannelId, NodeId, Topology, TopologyError};
use std::collections::VecDeque;

/// An induced sub-fabric around one channel.
#[derive(Debug)]
pub struct Neighborhood {
    /// The extracted sub-topology.
    pub topo: Topology,
    /// `nodes[new_id] = old_id`, ascending (the id compaction map).
    pub nodes: Vec<NodeId>,
    /// The representative channel, re-expressed in the sub-topology's
    /// channel space.
    pub center: ChannelId,
}

/// Extracts the `radius`-hop ball around channel `center` of `topo`,
/// capped at `max_nodes` switches (the cap truncates the BFS frontier but
/// never disconnects the ball).
///
/// # Errors
///
/// [`TopologyError::ChannelOutOfRange`] when `topo` has no channel
/// `center` (a one-switch fabric has none); otherwise propagates
/// [`TopologyError`] from sub-topology validation, which cannot fail on a
/// connected input.
pub fn extract(
    topo: &Topology,
    center: ChannelId,
    radius: u32,
    max_nodes: usize,
) -> Result<Neighborhood, TopologyError> {
    let link = center / 2;
    if link >= topo.num_links() {
        return Err(TopologyError::ChannelOutOfRange {
            channel: center,
            num_channels: 2 * topo.num_links(),
        });
    }
    let (a, b) = topo.link(link);
    let max_nodes = max_nodes.max(2);

    let mut depth = vec![u32::MAX; topo.num_nodes() as usize];
    let mut order: Vec<NodeId> = Vec::new();
    let mut queue = VecDeque::new();
    for seed in [a.min(b), a.max(b)] {
        depth[seed as usize] = 0;
        order.push(seed);
        queue.push_back(seed);
    }
    while let Some(v) = queue.pop_front() {
        if order.len() >= max_nodes {
            break;
        }
        let d = depth[v as usize];
        if d >= radius {
            continue;
        }
        for &(w, _) in topo.neighbors(v) {
            if depth[w as usize] == u32::MAX {
                depth[w as usize] = d + 1;
                order.push(w);
                queue.push_back(w);
                if order.len() >= max_nodes {
                    break;
                }
            }
        }
    }

    // Compact ids in ascending old-id order.
    let mut nodes = order;
    nodes.sort_unstable();
    let mut new_id = vec![u32::MAX; topo.num_nodes() as usize];
    for (i, &old) in nodes.iter().enumerate() {
        new_id[old as usize] = i as u32;
    }

    // Induced links, in original link order; remember where the center's
    // link lands.
    let mut links: Vec<(NodeId, NodeId)> = Vec::new();
    let mut center_link_new = u32::MAX;
    for (l, &(x, y)) in topo.links().iter().enumerate() {
        let (nx, ny) = (new_id[x as usize], new_id[y as usize]);
        if nx != u32::MAX && ny != u32::MAX {
            if l as u32 == link {
                center_link_new = links.len() as u32;
            }
            links.push((nx.min(ny), nx.max(ny)));
        }
    }
    debug_assert_ne!(center_link_new, u32::MAX);

    // Channel 2l runs small-endpoint -> large-endpoint. Preserve the
    // center channel's orientation through the id remap.
    let old_start = if center.is_multiple_of(2) {
        a.min(b)
    } else {
        a.max(b)
    };
    let new_start = new_id[old_start as usize];
    let (la, lb) = links[center_link_new as usize];
    let center_new = if new_start == la.min(lb) {
        2 * center_link_new
    } else {
        2 * center_link_new + 1
    };

    let sub = Topology::new(nodes.len() as u32, topo.ports(), links)?;
    Ok(Neighborhood {
        topo: sub,
        nodes,
        center: center_new,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use irnet_topology::gen;

    #[test]
    fn ball_contains_center_and_respects_cap() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(64, 4), 11).unwrap();
        for c in [0u32, 7, 33] {
            let nb = extract(&topo, c, 2, 24).unwrap();
            assert!(nb.topo.num_nodes() <= 24);
            assert!(nb.topo.num_nodes() >= 2);
            // The center channel exists and its endpoints map back to the
            // original link's endpoints.
            let (a, b) = topo.link(c / 2);
            let sub_link = nb.center / 2;
            let (sa, sb) = nb.topo.link(sub_link);
            let mapped = [nb.nodes[sa as usize], nb.nodes[sb as usize]];
            assert!(mapped.contains(&a) && mapped.contains(&b));
        }
    }

    #[test]
    fn orientation_is_preserved() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(48, 4), 3).unwrap();
        for link in [0u32, 5, 20] {
            let (a, b) = topo.link(link);
            // Channel 2*link starts at min(a, b).
            let nb = extract(&topo, 2 * link, 2, 32).unwrap();
            let (sa, sb) = nb.topo.link(nb.center / 2);
            let start_new = if nb.center.is_multiple_of(2) {
                sa.min(sb)
            } else {
                sa.max(sb)
            };
            assert_eq!(nb.nodes[start_new as usize], a.min(b));
        }
    }

    #[test]
    fn a_channel_the_fabric_lacks_is_an_error() {
        let single = Topology::new(1, 4, []).unwrap();
        assert_eq!(
            extract(&single, 0, 2, 8).unwrap_err(),
            TopologyError::ChannelOutOfRange {
                channel: 0,
                num_channels: 0
            }
        );
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 1).unwrap();
        let past_end = 2 * topo.num_links();
        assert!(matches!(
            extract(&topo, past_end, 2, 8),
            Err(TopologyError::ChannelOutOfRange { channel, .. }) if channel == past_end
        ));
        assert!(extract(&topo, past_end - 1, 2, 8).is_ok());
    }

    #[test]
    fn extraction_is_deterministic() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(96, 4), 5).unwrap();
        let x = extract(&topo, 13, 2, 48).unwrap();
        let y = extract(&topo, 13, 2, 48).unwrap();
        assert_eq!(x.nodes, y.nodes);
        assert_eq!(x.center, y.center);
        assert_eq!(x.topo.links(), y.topo.links());
    }
}
