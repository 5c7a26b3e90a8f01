//! The closure-based release pass (`release_redundant_turns`) against two
//! graph-search references: decision for decision, on the tables DOWN/UP
//! Phase 3 and L-turn feed it, and on a base table that is already cyclic.
//!
//! The scale tests are `#[ignore]`d; run them in release mode:
//!
//! ```text
//! cargo test --release --test release_equivalence -- --ignored
//! ```

use irnet::baselines::lturn::{self, LTurnOptions};
use irnet::prelude::*;
use irnet::topology::ChannelId;
use irnet::turns::{release_redundant_turns, PathOracle};

/// Rebuilds the dependency graph after every committed release and runs one
/// search per candidate: the pass as the paper states it.
fn release_naive(
    cg: &CommGraph,
    table: &mut TurnTable,
    candidate: &mut dyn FnMut(ChannelId, ChannelId) -> bool,
) -> Vec<(ChannelId, ChannelId)> {
    let ch = cg.channels();
    let mut released = Vec::new();
    let mut dep = ChannelDepGraph::build(cg, table);
    for v in 0..cg.num_nodes() {
        for &in_ch in ch.inputs(v) {
            for &out_ch in ch.outputs(v) {
                if out_ch == ch.reverse(in_ch)
                    || table.is_allowed(cg, in_ch, out_ch)
                    || !candidate(in_ch, out_ch)
                {
                    continue;
                }
                if !dep.has_path(out_ch, in_ch) {
                    table.release(cg, in_ch, out_ch);
                    released.push((in_ch, out_ch));
                    dep = ChannelDepGraph::build(cg, table);
                }
            }
        }
    }
    released
}

/// The previous production pass: one `PathOracle` search per candidate,
/// each release layered onto the oracle as an extra edge. Fast enough for
/// the 2048- and 4096-switch comparisons, where `release_naive` is not.
fn release_oracle(
    cg: &CommGraph,
    table: &mut TurnTable,
    candidate: &mut dyn FnMut(ChannelId, ChannelId) -> bool,
) -> Vec<(ChannelId, ChannelId)> {
    let ch = cg.channels();
    let mut released = Vec::new();
    let dep = ChannelDepGraph::build(cg, table);
    let mut oracle = PathOracle::new(&dep);
    for v in 0..cg.num_nodes() {
        for &in_ch in ch.inputs(v) {
            for &out_ch in ch.outputs(v) {
                if out_ch == ch.reverse(in_ch)
                    || table.is_allowed(cg, in_ch, out_ch)
                    || !candidate(in_ch, out_ch)
                {
                    continue;
                }
                if !oracle.has_path(out_ch, in_ch) {
                    table.release(cg, in_ch, out_ch);
                    released.push((in_ch, out_ch));
                    oracle.add_edge(in_ch, out_ch);
                }
            }
        }
    }
    released
}

/// `release_naive` or `release_oracle`.
type Reference = fn(
    &CommGraph,
    &mut TurnTable,
    &mut dyn FnMut(ChannelId, ChannelId) -> bool,
) -> Vec<(ChannelId, ChannelId)>;

/// The candidates of the paper's `cycle_detection`: `LU_CROSS`/`RU_CROSS`
/// into `RD_TREE`.
fn downup_filter(cg: &CommGraph) -> impl FnMut(ChannelId, ChannelId) -> bool + '_ {
    |i, o| {
        matches!(cg.direction(i), Direction::LuCross | Direction::RuCross)
            && cg.direction(o) == Direction::RdTree
    }
}

/// DOWN/UP after Phase 2: the table Phase 3 starts from.
fn downup_phase2(topo: &Topology, policy: PreorderPolicy) -> (CommGraph, TurnTable) {
    let (_, cg, table, released) = DownUp::new()
        .policy(policy)
        .release(false)
        .construct_phases(topo)
        .unwrap();
    assert!(released.is_empty());
    (cg, table)
}

/// L-turn before its release pass.
fn lturn_unreleased(topo: &Topology, policy: PreorderPolicy) -> (CommGraph, TurnTable) {
    let opts = LTurnOptions {
        policy,
        seed: 0,
        release: false,
    };
    let (_, cg, table, _) = lturn::construct_with(topo, opts).unwrap().into_parts();
    (cg, table)
}

/// Runs the closure pass and `reference` on copies of `table` under the
/// same filter and asserts equal decisions and tables; returns the
/// candidate and release counts.
fn assert_same_pass(
    cg: &CommGraph,
    table: &TurnTable,
    mut filter: impl FnMut(ChannelId, ChannelId) -> bool,
    reference: Reference,
    what: &str,
) -> (usize, usize) {
    let mut fast_table = table.clone();
    let mut ref_table = table.clone();
    let fast = release_redundant_turns(cg, &mut fast_table, &mut filter);
    let want = reference(cg, &mut ref_table, &mut filter);
    assert_eq!(fast.released, want, "release decisions diverged: {what}");
    assert_eq!(fast_table, ref_table, "tables diverged: {what}");
    assert!(fast.candidates >= want.len(), "{what}");
    (fast.candidates, want.len())
}

fn fabric(switches: u32, ports: u32, seed: u64) -> Topology {
    gen::random_irregular(gen::IrregularParams::paper(switches, ports), seed).unwrap()
}

#[test]
fn downup_phase3_matches_the_rebuilding_reference() {
    let mut released = 0;
    for (switches, ports) in [(24, 4), (64, 8), (128, 16), (256, 4), (256, 8), (256, 16)] {
        for seed in 0..2 {
            let topo = fabric(switches, ports, seed);
            for policy in PreorderPolicy::ALL {
                let (cg, table) = downup_phase2(&topo, policy);
                let what = format!("DOWN/UP {switches}x{ports} seed {seed} {policy:?}");
                released +=
                    assert_same_pass(&cg, &table, downup_filter(&cg), release_naive, &what).1;
            }
        }
    }
    assert!(released > 0, "no case released a turn");
}

#[test]
fn lturn_release_matches_the_rebuilding_reference() {
    // L-turn's prohibitions are already minimal on these fabrics, so every
    // candidate is rejected: this checks the closure's rejections.
    let mut candidates = 0;
    for (switches, ports) in [(24, 4), (64, 8), (128, 16), (256, 4), (256, 8), (256, 16)] {
        let topo = fabric(switches, ports, 1);
        for policy in [PreorderPolicy::M1, PreorderPolicy::M3] {
            let (cg, table) = lturn_unreleased(&topo, policy);
            let what = format!("L-turn {switches}x{ports} {policy:?}");
            candidates += assert_same_pass(&cg, &table, |_, _| true, release_naive, &what).0;
        }
    }
    assert!(candidates > 0, "no case had a candidate");
}

#[test]
fn cyclic_base_tables_get_exact_answers() {
    // A 6-ring with every clockwise turn allowed (one dependency cycle) and
    // every counter-clockwise turn prohibited: five of the six
    // counter-clockwise turns release, the sixth would close a second cycle.
    let topo = gen::ring(6).unwrap();
    let tree = CoordinatedTree::build(&topo, PreorderPolicy::M1, 0).unwrap();
    let cg = CommGraph::build(&topo, &tree);
    let ch = cg.channels();
    let clockwise = |c: ChannelId| ch.sink(c) == (ch.start(c) + 1) % 6;
    let table = TurnTable::from_channel_rule(&cg, |i, _| clockwise(i));
    assert!(!ChannelDepGraph::build(&cg, &table).is_acyclic());
    let counts = assert_same_pass(&cg, &table, |_, _| true, release_naive, "6-ring");
    assert_eq!(counts, (6, 5));

    // Random prohibitions on random fabrics: cyclic bases with many back
    // edges, so the closure's sweep has to iterate to its fixpoint.
    for seed in 0..4u64 {
        let topo = fabric(32, 4, seed);
        let tree = CoordinatedTree::build(&topo, PreorderPolicy::M1, 0).unwrap();
        let cg = CommGraph::build(&topo, &tree);
        let table = TurnTable::from_channel_rule(&cg, |i, o| {
            (u64::from(i) * 2_654_435_761 + u64::from(o) * 40_503 + seed) % 5 < 2
        });
        assert!(!ChannelDepGraph::build(&cg, &table).is_acyclic());
        assert_same_pass(
            &cg,
            &table,
            |_, _| true,
            release_naive,
            &format!("seed {seed}"),
        );
    }
}

#[test]
#[ignore = "scale check; run with --release -- --ignored"]
fn closure_pass_matches_the_oracle_pass_at_scale() {
    for switches in [2048, 4096] {
        let topo = fabric(switches, 8, 7);
        let (cg, table) = downup_phase2(&topo, PreorderPolicy::M1);
        let what = format!("DOWN/UP {switches}x8");
        assert_same_pass(&cg, &table, downup_filter(&cg), release_oracle, &what);
    }
    let topo = fabric(2048, 8, 7);
    let (cg, table) = lturn_unreleased(&topo, PreorderPolicy::M1);
    assert_same_pass(&cg, &table, |_, _| true, release_oracle, "L-turn 2048x8");
}
