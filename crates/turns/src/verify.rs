use crate::cdg::{ChannelCycle, ChannelDepGraph};
use crate::routing::{RoutingError, RoutingTables};
use crate::turn_table::TurnTable;
use irnet_topology::CommGraph;

/// The result of verifying a turn table: deadlock freedom, connectivity,
/// and path-quality statistics.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// `None` means the channel dependency graph is acyclic.
    pub cycle: Option<ChannelCycle>,
    /// `None` means every ordered pair of switches is connected.
    pub disconnected: Option<RoutingError>,
    /// Average minimal route length over all pairs; `None` if disconnected.
    pub avg_route_len: Option<f64>,
    /// Longest minimal route; `None` if disconnected.
    pub max_route_len: Option<u16>,
    /// Prohibited non-180° channel pairs in the table.
    pub prohibited_pairs: usize,
}

impl VerifyReport {
    /// Deadlock-free and fully connected.
    pub fn is_ok(&self) -> bool {
        self.cycle.is_none() && self.disconnected.is_none()
    }
}

/// Verifies a turn table over a communication graph: checks the channel
/// dependency graph for cycles (deadlock) and builds the routing tables to
/// check connectivity. This is the machine-checked form of the paper's
/// Theorem 1.
pub fn verify_routing(cg: &CommGraph, table: &TurnTable) -> VerifyReport {
    let dep = ChannelDepGraph::build(cg, table);
    let cycle = dep.find_cycle();
    let (disconnected, avg, max) = match RoutingTables::build(cg, table) {
        Ok(rt) => {
            let (avg, max) = rt.route_len_stats(cg);
            (None, Some(avg), Some(max))
        }
        Err(e) => (Some(e), None, None),
    };
    VerifyReport {
        cycle,
        disconnected,
        avg_route_len: avg,
        max_route_len: max,
        prohibited_pairs: table.num_prohibited_turns(cg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irnet_topology::{gen, CoordinatedTree, PreorderPolicy};

    #[test]
    fn verify_flags_deadlock_on_unrestricted_torus() {
        let topo = gen::torus(3, 3).unwrap();
        let tree = CoordinatedTree::build(&topo, PreorderPolicy::M1, 0).unwrap();
        let cg = CommGraph::build(&topo, &tree);
        let report = verify_routing(&cg, &TurnTable::all_allowed(&cg));
        assert!(report.cycle.is_some());
        assert!(report.disconnected.is_none());
        assert!(!report.is_ok());
    }

    #[test]
    fn verify_accepts_safe_rule_on_tree() {
        let topo = gen::kary_tree(10, 3).unwrap();
        let tree = CoordinatedTree::build(&topo, PreorderPolicy::M1, 0).unwrap();
        let cg = CommGraph::build(&topo, &tree);
        let report = verify_routing(&cg, &TurnTable::all_allowed(&cg));
        assert!(
            report.is_ok(),
            "pure trees cannot deadlock: {:?}",
            report.cycle
        );
        assert!(report.avg_route_len.unwrap() > 0.0);
        assert!(report.max_route_len.unwrap() > 0);
        assert_eq!(report.prohibited_pairs, 0);
    }

    #[test]
    fn disconnected_tables_have_no_route_stats() {
        let topo = gen::kary_tree(7, 2).unwrap();
        let tree = CoordinatedTree::build(&topo, PreorderPolicy::M1, 0).unwrap();
        let cg = CommGraph::build(&topo, &tree);
        // Prohibit every direction-changing turn everywhere: inner switches
        // cannot forward, so the tree disconnects.
        let table = TurnTable::from_direction_rule(&cg, |_, _| false);
        let report = verify_routing(&cg, &table);
        assert!(report.disconnected.is_some());
        assert_eq!(report.avg_route_len, None);
        assert_eq!(report.max_route_len, None);
        assert!(!report.is_ok());
    }
}
