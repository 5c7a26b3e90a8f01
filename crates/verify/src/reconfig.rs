//! Reconfiguration-epoch certification.
//!
//! A repaired routing function is only half the story: the *transition* to
//! it must also be deadlock-free. Following UPR (Crespo et al.,
//! arXiv:2006.02332), a live reconfiguration is safe when the union of the
//! old and new channel-dependency graphs is acyclic — during the drain,
//! packets routed under either function hold and request channels, so a
//! deadlock can thread dependencies from both.
//!
//! [`certify_transition`] therefore issues *two* Dally–Seitz certificates
//! per epoch, both restricted to the surviving channels:
//!
//! * **degraded** — the repaired turn table alone (steady state after the
//!   drain);
//! * **union** — the old∪new dependency union (the live transition
//!   window).
//!
//! Each is a standard [`Certificate`]: a total channel numbering when
//! acyclic, a minimized witness cycle otherwise — independently
//! re-checkable with [`crate::recheck`].

use crate::certificate::{certify_dep, Certificate};
use irnet_topology::{ChannelId, CommGraph};
use irnet_turns::{release_redundant_turns, ChannelDepGraph, TurnTable};
use serde::{Deserialize, Serialize};

/// The two deadlock-freedom certificates of one reconfiguration epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochCertificates {
    /// Certificate for the repaired (degraded) turn table alone.
    pub degraded: Certificate,
    /// Certificate for the UPR-style old∪new dependency union.
    pub union: Certificate,
}

impl EpochCertificates {
    /// True when both the steady state and the transition are certified
    /// deadlock-free.
    pub fn is_deadlock_free(&self) -> bool {
        self.degraded.is_deadlock_free() && self.union.is_deadlock_free()
    }
}

/// Certifies the transition from `old` to `new` on `cg` with
/// `dead_channel` flagging the channels dead in the **new** epoch.
///
/// Both tables are restricted to the surviving channels first: packets on
/// a dead channel were dropped, not drained, so dependencies through dead
/// channels cannot participate in a deadlock (and the repaired table
/// already prohibits them).
///
/// The same call certifies a **recovery (up) transition** — pass the
/// channels still dead *after* the revival. A channel revived by the
/// transition was prohibited by the old epoch's table (it was dead then),
/// so it is isolated in the old dependency graph and only acquires
/// dependencies from `new`; the union therefore soundly covers worms
/// routed under either function while the revived capacity comes online.
pub fn certify_transition(
    cg: &CommGraph,
    old: &TurnTable,
    new: &TurnTable,
    dead_channel: &[bool],
) -> EpochCertificates {
    assert_eq!(dead_channel.len(), cg.num_channels() as usize);
    let alive = |i: ChannelId, o: ChannelId| !dead_channel[i as usize] && !dead_channel[o as usize];
    let old_live = TurnTable::from_channel_rule(cg, |i, o| alive(i, o) && old.is_allowed(cg, i, o));
    let new_live = TurnTable::from_channel_rule(cg, |i, o| alive(i, o) && new.is_allowed(cg, i, o));
    let old_dep = ChannelDepGraph::build(cg, &old_live);
    let new_dep = ChannelDepGraph::build(cg, &new_live);
    EpochCertificates {
        degraded: certify_dep(&new_dep),
        union: certify_dep(&old_dep.union(&new_dep)),
    }
}

/// Incrementally re-certifies the old∪new transition union by checking only
/// the dependency edges the repair *added*.
///
/// The old (live-restricted) dependency graph is acyclic by the epoch-chain
/// invariant — every table in the chain carries a Dally–Seitz certificate —
/// so the union can only acquire a cycle through an edge present in `new`
/// but not in `old`. The check is a release pass
/// ([`release_redundant_turns`]) over the old live table whose candidates
/// are those added turns: each is released unless it closes a cycle with
/// the old graph and every added turn before it, so the union is acyclic
/// iff every candidate is released.
///
/// Returns the number of added dependency edges when the union is acyclic,
/// or the first added turn `(input, output)` that closes a cycle. The full
/// [`certify_transition`] remains the exhaustive oracle; this is the
/// `O(delta)` fast path used by incremental repair.
pub fn union_acyclic_delta(
    cg: &CommGraph,
    old: &TurnTable,
    new: &TurnTable,
    dead_channel: &[bool],
) -> Result<usize, (ChannelId, ChannelId)> {
    assert_eq!(dead_channel.len(), cg.num_channels() as usize);
    let alive = |i: ChannelId, o: ChannelId| !dead_channel[i as usize] && !dead_channel[o as usize];
    let mut old_live =
        TurnTable::from_channel_rule(cg, |i, o| alive(i, o) && old.is_allowed(cg, i, o));
    debug_assert!(
        ChannelDepGraph::build(cg, &old_live).is_acyclic(),
        "epoch chain carried a cyclic table"
    );
    let mut added = Vec::new();
    let pass = release_redundant_turns(cg, &mut old_live, |i, o| {
        let new_only = alive(i, o) && new.is_allowed(cg, i, o);
        if new_only {
            added.push((i, o));
        }
        new_only
    });
    // Until the first rejection, the pass released every added turn in order.
    let ok = added
        .iter()
        .zip(&pass.released)
        .take_while(|(a, r)| a == r)
        .count();
    match added.get(ok) {
        Some(&turn) => Err(turn),
        None => Ok(ok),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::{recheck, Verdict};
    use irnet_topology::{gen, CoordinatedTree, PreorderPolicy};

    fn cg_of(topo: &irnet_topology::Topology) -> CommGraph {
        let tree = CoordinatedTree::build(topo, PreorderPolicy::M1, 0).unwrap();
        CommGraph::build(topo, &tree)
    }

    #[test]
    fn identical_tables_certify_trivially() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(20, 4), 4).unwrap();
        let cg = cg_of(&topo);
        // A known deadlock-free table: strictly downward routing.
        let table = TurnTable::from_direction_rule(&cg, |din, dout| {
            !din.goes_down()
                && !matches!(
                    din,
                    irnet_topology::Direction::LCross | irnet_topology::Direction::RCross
                )
                || dout.goes_down()
        });
        let dead = vec![false; cg.num_channels() as usize];
        let certs = certify_transition(&cg, &table, &table, &dead);
        assert!(certs.is_deadlock_free());
        // The union of a table with itself has the same dependency count.
        assert_eq!(certs.union.num_edges, certs.degraded.num_edges);
        // Both certificates recheck against independently rebuilt graphs.
        let dep = ChannelDepGraph::build(&cg, &table);
        recheck(&certs.degraded, &dep).unwrap();
        recheck(&certs.union, &dep.union(&dep)).unwrap();
    }

    #[test]
    fn unsafe_transition_yields_union_witness() {
        // On a ring, two "one-way" tables can each be acyclic while their
        // union closes the loop. Build one table that only follows even
        // input channels and one that only follows odd ones.
        let topo = gen::ring(6).unwrap();
        let cg = cg_of(&topo);
        let all = TurnTable::all_allowed(&cg);
        let half_a =
            TurnTable::from_channel_rule(&cg, |i, o| i % 2 == 0 && all.is_allowed(&cg, i, o));
        let half_b =
            TurnTable::from_channel_rule(&cg, |i, o| i % 2 == 1 && all.is_allowed(&cg, i, o));
        let dead = vec![false; cg.num_channels() as usize];
        let certs = certify_transition(&cg, &half_a, &half_b, &dead);
        // Each half alone may be fine; the union must carry a witness.
        assert!(!certs.union.is_deadlock_free());
        match &certs.union.verdict {
            Verdict::Deadlock { witness } => {
                assert!(witness.len() >= 3);
                // Every witness edge exists in old∪new.
                let da = ChannelDepGraph::build(&cg, &half_a);
                let db = ChannelDepGraph::build(&cg, &half_b);
                let u = da.union(&db);
                for k in 0..witness.len() {
                    let x = witness[k];
                    let y = witness[(k + 1) % witness.len()];
                    assert!(u.successors(x).contains(&y));
                }
            }
            Verdict::DeadlockFree { .. } => unreachable!(),
        }
    }

    #[test]
    fn dead_channels_are_excluded_from_both_certificates() {
        let topo = gen::ring(4).unwrap();
        let cg = cg_of(&topo);
        // All turns allowed deadlocks on a ring…
        let table = TurnTable::all_allowed(&cg);
        let live = vec![false; cg.num_channels() as usize];
        assert!(!certify_transition(&cg, &table, &table, &live).is_deadlock_free());
        // …but killing one link's channels breaks the only cycle.
        let mut dead = vec![false; cg.num_channels() as usize];
        dead[0] = true;
        dead[1] = true;
        let certs = certify_transition(&cg, &table, &table, &dead);
        assert!(certs.is_deadlock_free());
    }

    #[test]
    fn delta_recertifier_agrees_with_exhaustive_union() {
        // Safe transition: widening a strictly-down table stays acyclic and
        // the delta count matches the edge-count difference.
        let topo = gen::random_irregular(gen::IrregularParams::paper(20, 4), 4).unwrap();
        let cg = cg_of(&topo);
        let down = TurnTable::from_direction_rule(&cg, |_, dout| dout.goes_down());
        let dead = vec![false; cg.num_channels() as usize];
        let certs = certify_transition(&cg, &down, &down, &dead);
        assert!(certs.is_deadlock_free());
        assert_eq!(union_acyclic_delta(&cg, &down, &down, &dead), Ok(0));

        // Unsafe transition: the two ring halves union into a cycle, and the
        // delta recertifier reports an added turn certify_transition also
        // rejects.
        let ring = gen::ring(6).unwrap();
        let rcg = cg_of(&ring);
        let all = TurnTable::all_allowed(&rcg);
        let half_a =
            TurnTable::from_channel_rule(&rcg, |i, o| i % 2 == 0 && all.is_allowed(&rcg, i, o));
        let half_b =
            TurnTable::from_channel_rule(&rcg, |i, o| i % 2 == 1 && all.is_allowed(&rcg, i, o));
        let rdead = vec![false; rcg.num_channels() as usize];
        let (i, o) = union_acyclic_delta(&rcg, &half_a, &half_b, &rdead).unwrap_err();
        assert!(half_b.is_allowed(&rcg, i, o));
        assert!(!half_a.is_allowed(&rcg, i, o));
        assert!(!certify_transition(&rcg, &half_a, &half_b, &rdead).is_deadlock_free());
    }

    #[test]
    fn delta_recertifier_ignores_turns_through_dead_channels() {
        // All-allowed on a ring is cyclic, but once one link's channels die
        // the union restricted to survivors is acyclic; the delta pass must
        // skip the dead pairs certify_transition also excludes.
        let ring = gen::ring(4).unwrap();
        let cg = cg_of(&ring);
        let table = TurnTable::all_allowed(&cg);
        let none = TurnTable::from_channel_rule(&cg, |_, _| false);
        let mut dead = vec![false; cg.num_channels() as usize];
        dead[0] = true;
        dead[1] = true;
        let added = union_acyclic_delta(&cg, &none, &table, &dead).unwrap();
        let live = TurnTable::from_channel_rule(&cg, |i, o| {
            !dead[i as usize] && !dead[o as usize] && table.is_allowed(&cg, i, o)
        });
        let expect = ChannelDepGraph::build(&cg, &live).num_edges();
        assert_eq!(added, expect);
    }

    #[test]
    fn up_transition_certifies_with_revived_channels_isolated_in_old() {
        // A recovery epoch: the old table routed around dead channels 0/1,
        // the new table uses them again, and nothing is dead any more. The
        // revived channels carried no turns under the old table, so the
        // old∪new union adds exactly the new table's dependencies — the
        // certificate must be deadlock-free and the union must not exceed
        // the steady state.
        let topo = gen::random_irregular(gen::IrregularParams::paper(20, 4), 4).unwrap();
        let cg = cg_of(&topo);
        let down = TurnTable::from_direction_rule(&cg, |_, dout| dout.goes_down());
        let was_dead = |c: ChannelId| c == 0 || c == 1;
        let old = TurnTable::from_channel_rule(&cg, |i, o| {
            !was_dead(i) && !was_dead(o) && down.is_allowed(&cg, i, o)
        });
        let none_dead = vec![false; cg.num_channels() as usize];
        let certs = certify_transition(&cg, &old, &down, &none_dead);
        assert!(certs.is_deadlock_free());
        // old ⊆ new once restricted to the live set, so the transition
        // union collapses onto the repaired steady state.
        assert_eq!(certs.union.num_edges, certs.degraded.num_edges);
        // And the delta recertifier agrees: every added edge touches a
        // revived channel, none closes a cycle.
        let added = union_acyclic_delta(&cg, &old, &down, &none_dead).unwrap();
        let old_edges = ChannelDepGraph::build(&cg, &old).num_edges();
        assert_eq!(added, certs.union.num_edges - old_edges);
    }

    #[test]
    fn epoch_certificates_serialize() {
        let topo = gen::ring(4).unwrap();
        let cg = cg_of(&topo);
        let table = TurnTable::all_allowed(&cg);
        let dead = vec![false; cg.num_channels() as usize];
        let certs = certify_transition(&cg, &table, &table, &dead);
        let json = serde_json::to_string(&certs).unwrap();
        let back: EpochCertificates = serde_json::from_str(&json).unwrap();
        assert_eq!(certs, back);
    }
}
