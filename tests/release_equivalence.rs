//! The closure-based release pass (`release_redundant_turns`) against two
//! graph-search references: decision for decision, on the tables DOWN/UP
//! Phase 3 and L-turn feed it, and on a base table that is already cyclic.
//! The reconfiguration check (`union_acyclic_delta`), itself a release pass,
//! is held to the search it replaced on random transitions.
//!
//! The scale tests are `#[ignore]`d; run them in release mode:
//!
//! ```text
//! cargo test --release --test release_equivalence -- --ignored
//! ```

use irnet::baselines::lturn::{self, LTurnOptions};
use irnet::prelude::*;
use irnet::topology::ChannelId;
use irnet::turns::release_redundant_turns;
use irnet::verify::union_acyclic_delta;

/// Incremental reachability over a base dependency graph plus a growing set
/// of extra edges: one search per query, with added edges kept in
/// per-channel overflow lists and a reusable visit-stamp buffer. The
/// reference the closure is checked against where `release_naive` is too
/// slow.
struct PathOracle<'g> {
    base: &'g ChannelDepGraph,
    /// Extra successors of each channel, on top of `base`.
    extra: Vec<Vec<ChannelId>>,
    /// Visit stamps; `stamp[v] == cur` means `v` was reached this query.
    stamp: Vec<u32>,
    cur: u32,
    stack: Vec<ChannelId>,
}

impl<'g> PathOracle<'g> {
    fn new(base: &'g ChannelDepGraph) -> PathOracle<'g> {
        let n = base.num_channels() as usize;
        PathOracle {
            base,
            extra: vec![Vec::new(); n],
            stamp: vec![0; n],
            cur: 0,
            stack: Vec::new(),
        }
    }

    /// Adds the dependency edge `from → to` on top of the base graph.
    fn add_edge(&mut self, from: ChannelId, to: ChannelId) {
        self.extra[from as usize].push(to);
    }

    /// Whether the base graph plus every added edge has a path from `from`
    /// to `to` (`true` when `from == to`, like `ChannelDepGraph::has_path`).
    fn has_path(&mut self, from: ChannelId, to: ChannelId) -> bool {
        if from == to {
            return true;
        }
        self.cur += 1;
        let cur = self.cur;
        self.stack.clear();
        self.stack.push(from);
        self.stamp[from as usize] = cur;
        while let Some(v) = self.stack.pop() {
            let base_succ = self.base.successors(v).iter();
            for &w in base_succ.chain(self.extra[v as usize].iter()) {
                if w == to {
                    return true;
                }
                if self.stamp[w as usize] != cur {
                    self.stamp[w as usize] = cur;
                    self.stack.push(w);
                }
            }
        }
        false
    }
}

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
    let (_, cg, table) = lturn::construct_with(topo, opts).unwrap();
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

fn cg_of(topo: &Topology) -> CommGraph {
    let tree = CoordinatedTree::build(topo, PreorderPolicy::M1, 0).unwrap();
    CommGraph::build(topo, &tree)
}

#[test]
fn path_oracle_matches_has_path_on_random_graphs() {
    for seed in 0..4 {
        let cg = cg_of(&fabric(20, 4, seed));
        let table =
            TurnTable::from_direction_rule(&cg, |din, dout| !(din.goes_down() && dout.goes_up()));
        let dep = ChannelDepGraph::build(&cg, &table);
        let mut oracle = PathOracle::new(&dep);
        for from in 0..dep.num_channels() {
            for to in 0..dep.num_channels() {
                assert_eq!(
                    oracle.has_path(from, to),
                    dep.has_path(from, to),
                    "oracle disagrees on {from} -> {to} (seed {seed})"
                );
            }
        }
    }
}

#[test]
fn path_oracle_with_extra_edges_matches_a_rebuilt_graph() {
    // Adding edges to the oracle must answer exactly like a graph that was
    // rebuilt with those edges included.
    let cg = cg_of(&fabric(16, 4, 2));
    let restrictive = TurnTable::from_direction_rule(&cg, |din, dout| {
        !din.goes_down() && !matches!(din, Direction::LCross | Direction::RCross)
            || dout.goes_down()
    });
    let base = ChannelDepGraph::build(&cg, &restrictive);
    let full = ChannelDepGraph::build(&cg, &TurnTable::all_allowed(&cg));
    // The edges present in `full` but not `base`, to feed in one by one.
    let mut missing: Vec<(ChannelId, ChannelId)> = Vec::new();
    for c in 0..full.num_channels() {
        for &s in full.successors(c) {
            if !base.successors(c).contains(&s) {
                missing.push((c, s));
            }
        }
    }
    assert!(!missing.is_empty());
    let mut oracle = PathOracle::new(&base);
    let mut table = restrictive;
    for &(from, to) in missing.iter().take(12) {
        oracle.add_edge(from, to);
        // Mirror the edge into the table and rebuild for reference.
        table.release(&cg, from, to);
        let rebuilt = ChannelDepGraph::build(&cg, &table);
        for probe in 0..base.num_channels() {
            assert_eq!(
                oracle.has_path(probe, from),
                rebuilt.has_path(probe, from),
                "probe {probe} -> {from} after adding {from}->{to}"
            );
            assert_eq!(
                oracle.has_path(to, probe),
                rebuilt.has_path(to, probe),
                "probe {to} -> {probe} after adding {from}->{to}"
            );
        }
    }
}

/// The reconfiguration check as it stood before it became a release pass:
/// one oracle search per added turn, stopping at the first that closes a
/// cycle.
fn union_delta_oracle(
    cg: &CommGraph,
    old: &TurnTable,
    new: &TurnTable,
    dead: &[bool],
) -> Result<usize, (ChannelId, ChannelId)> {
    let alive = |i: ChannelId, o: ChannelId| !dead[i as usize] && !dead[o as usize];
    let old_live = TurnTable::from_channel_rule(cg, |i, o| alive(i, o) && old.is_allowed(cg, i, o));
    let old_dep = ChannelDepGraph::build(cg, &old_live);
    let mut oracle = PathOracle::new(&old_dep);
    let ch = cg.channels();
    let mut added = 0;
    for v in 0..cg.num_nodes() {
        for &in_ch in ch.inputs(v) {
            for &out_ch in ch.outputs(v) {
                if !alive(in_ch, out_ch)
                    || out_ch == ch.reverse(in_ch)
                    || !new.is_allowed(cg, in_ch, out_ch)
                    || old_live.is_allowed(cg, in_ch, out_ch)
                {
                    continue;
                }
                if oracle.has_path(out_ch, in_ch) {
                    return Err((in_ch, out_ch));
                }
                oracle.add_edge(in_ch, out_ch);
                added += 1;
            }
        }
    }
    Ok(added)
}

/// A deterministic pseudo-random draw in `0..1_000` from a key.
fn draw(key: u64) -> u64 {
    let mut z = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % 1_000
}

#[test]
fn union_delta_matches_the_oracle_on_random_transitions() {
    let (mut acyclic, mut cyclic) = (0, 0);
    for case in 0..48u64 {
        let ports = [3, 4, 6][(case % 3) as usize];
        let topo = fabric(12 + 4 * (case % 6) as u32, ports, case);
        let routing = DownUp::new().construct(&topo).unwrap();
        let (cg, base) = (routing.comm_graph(), routing.turn_table());
        let nch = u64::from(cg.num_channels());
        let turn = |salt: u64, i: ChannelId, o: ChannelId| {
            draw((case << 40) ^ (salt << 32) ^ (u64::from(i) * nch + u64::from(o)))
        };
        // Old: the acyclic DOWN/UP table with a random share of its turns
        // prohibited. New: the whole DOWN/UP table, whose union with old is
        // acyclic, plus in most cases a random share of the other turns, so
        // that most of those unions close a cycle.
        let old = TurnTable::from_channel_rule(cg, |i, o| {
            base.is_allowed(cg, i, o) && turn(1, i, o) >= [0, 100, 300][(case % 3) as usize]
        });
        let extra = [0, 2, 10, 100][(case / 3 % 4) as usize];
        let new = TurnTable::from_channel_rule(cg, |i, o| {
            base.is_allowed(cg, i, o) || turn(2, i, o) < extra
        });
        // About `case % 4` dead channels.
        let dead: Vec<bool> = (0..cg.num_channels())
            .map(|c| draw((case << 40) ^ (3 << 32) ^ u64::from(c)) * nch < 1_000 * (case % 4))
            .collect();
        let want = union_delta_oracle(cg, &old, &new, &dead);
        assert_eq!(
            union_acyclic_delta(cg, &old, &new, &dead),
            want,
            "case {case}"
        );
        match want {
            Ok(_) => acyclic += 1,
            Err(_) => cyclic += 1,
        }
    }
    assert!(
        acyclic > 0 && cyclic > 0,
        "{acyclic} acyclic, {cyclic} cyclic"
    );
}
