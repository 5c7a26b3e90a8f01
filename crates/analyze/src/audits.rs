//! Whole-table property audits: static proofs over a built routing
//! instance that the per-turn lint battery in `irnet-verify` does not
//! cover. Four properties are checked:
//!
//! 1. **Reachability / black holes** (`IRNET-E006`): every misroute-closure
//!    state a packet can reach — `(destination, switch, input slot)` tuples
//!    expanded through the non-minimal escape sets — has at least one legal
//!    escape port. A reachable state with an empty escape set is a silent
//!    black hole the simulator would only find by losing a packet.
//! 2. **Stretch** (`IRNET-E008` / `IRNET-W003`): minimal legal route
//!    lengths versus BFS shortest paths. A route longer than the switch
//!    count provably revisits a switch (error); pairs stretched beyond
//!    [`STRETCH_WARN`] are aggregated into one warning, and the full
//!    distribution is exported as a [`StretchHistogram`].
//! 3. **Turn-prohibition minimality** (`IRNET-W004`): a prohibited turn is
//!    *load-bearing* when releasing it would close a channel-dependency
//!    cycle, i.e. the dependency graph already has a path from the turn's
//!    out-channel back to its in-channel. One reachability closure answers
//!    that for every prohibited turn ([`cycle_closing`], the closure behind
//!    the Phase-3 release pass). Turns that are not load-bearing could be
//!    released for free adaptivity.
//! 4. **Livelock freedom** (`IRNET-E009`): every edge of every escape set
//!    must strictly climb the certificate's channel numbering. Then any
//!    sequence of misroutes is a strictly increasing walk in a finite
//!    order, so misrouting terminates — a static no-livelock proof.
//!
//! Findings reuse the [`Finding`] / severity plumbing from `irnet-verify`,
//! so JSON export and exit-code policy are uniform with `irnet lint`.
//!
//! Each audit is timed as a child of the `analyze/audit` span
//! (`black_holes`, `stretch`, `minimality`, `livelock`) and counts its work
//! in [`irnet_telemetry::current`]: `analyze/audit_states` (misroute states
//! walked), `analyze/audit_pairs` (stretch pairs), `analyze/minimality_turns`
//! (prohibited turns tested) and the `analyze/minimality_closure_bytes`
//! gauge.

use irnet_topology::{ChannelId, CommGraph, NodeId};
use irnet_turns::{cycle_closing, RoutingTables, TurnTable, INJECTION_SLOT};
use irnet_verify::{Certificate, Finding, LintCode, Severity, Verdict};
use serde::{Serialize, Value};

/// Pairs stretched beyond this ratio are reported under `IRNET-W003`.
pub const STRETCH_WARN: f64 = 2.0;

/// Cap on per-state detail findings for one code; the remainder collapses
/// into a single aggregate finding so broken tables cannot flood reports.
const MAX_DETAIL: usize = 8;

/// Distribution of minimal-route stretch (route length / BFS distance)
/// over all audited ordered pairs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StretchHistogram {
    /// Ordered pairs audited (active source and destination, `s != t`).
    pub pairs: u64,
    /// Worst stretch ratio observed.
    pub max: f64,
    /// Mean stretch ratio.
    pub mean: f64,
    /// Buckets: `= 1`, `(1, 1.25]`, `(1.25, 1.5]`, `(1.5, 2]`, `> 2`.
    pub buckets: [u64; 5],
}

impl StretchHistogram {
    fn record(&mut self, stretch: f64) {
        self.pairs += 1;
        self.max = self.max.max(stretch);
        self.mean += stretch;
        let b = if stretch <= 1.0 {
            0
        } else if stretch <= 1.25 {
            1
        } else if stretch <= 1.5 {
            2
        } else if stretch <= STRETCH_WARN {
            3
        } else {
            4
        };
        self.buckets[b] += 1;
    }

    fn finish(&mut self) {
        if self.pairs > 0 {
            self.mean /= self.pairs as f64;
        }
    }
}

impl Serialize for StretchHistogram {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("pairs".to_string(), Value::U64(self.pairs)),
            ("max".to_string(), Value::F64(self.max)),
            ("mean".to_string(), Value::F64(self.mean)),
            (
                "buckets".to_string(),
                Value::Map(
                    ["eq_1", "le_1_25", "le_1_5", "le_2", "gt_2"]
                        .iter()
                        .zip(self.buckets.iter())
                        .map(|(k, &n)| ((*k).to_string(), Value::U64(n)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The result of running all four audits over one routing instance.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Findings across all four audits, errors first, then by code.
    pub findings: Vec<Finding>,
    /// Stretch distribution over audited pairs.
    pub stretch: StretchHistogram,
    /// Total prohibited turns in the table.
    pub prohibited_turns: u32,
    /// Prohibited turns that are *not* load-bearing (releasable).
    pub redundant_prohibitions: u32,
    /// Reachable misroute states with no escape (black holes).
    pub black_hole_states: u64,
}

impl AuditReport {
    /// Whether all four audits passed, i.e. no error-level finding.
    /// Warnings (`W003`/`W004`) are informational and do not fail an audit.
    pub fn passed(&self) -> bool {
        !self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// Number of findings with the given code.
    pub fn count(&self, code: LintCode) -> usize {
        self.findings.iter().filter(|f| f.code == code).count()
    }
}

impl Serialize for AuditReport {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("passed".to_string(), Value::Bool(self.passed())),
            (
                "findings".to_string(),
                Value::Seq(self.findings.iter().map(Serialize::to_value).collect()),
            ),
            ("stretch".to_string(), self.stretch.to_value()),
            (
                "prohibited_turns".to_string(),
                Value::U64(u64::from(self.prohibited_turns)),
            ),
            (
                "redundant_prohibitions".to_string(),
                Value::U64(u64::from(self.redundant_prohibitions)),
            ),
            (
                "black_hole_states".to_string(),
                Value::U64(self.black_hole_states),
            ),
        ])
    }
}

fn finding(
    code: LintCode,
    message: String,
    node: Option<NodeId>,
    channels: Vec<ChannelId>,
) -> Finding {
    Finding {
        code,
        severity: code.severity(),
        message,
        node,
        channels,
    }
}

/// Runs the four whole-table audits over one routing instance.
///
/// `cert` is the deadlock-freedom certificate for the same `(cg, table)`
/// pair (normally `certify(cg, table)`); its numbering anchors the
/// livelock audit. Inactive destinations — switches whose injection masks
/// are zero everywhere, as produced for dead nodes by masked builds — are
/// skipped, so the auditor works unchanged on degraded instances.
pub fn audit(
    cg: &CommGraph,
    table: &TurnTable,
    tables: &RoutingTables,
    cert: &Certificate,
) -> AuditReport {
    let ch = cg.channels();
    let n = tables.num_nodes();
    let slots = tables.slots();
    let mut findings = Vec::new();
    let tel = irnet_telemetry::current();

    // An "active" destination receives traffic from at least one source.
    let active: Vec<bool> = (0..n)
        .map(|t| (0..n).any(|s| s != t && tables.candidates(t, s, INJECTION_SLOT) != 0))
        .collect();

    // --- Audit 1: reachability / black holes (E006) --------------------
    let span = tel.span("analyze/audit/black_holes");
    let mut states = 0u64;
    let mut black_holes = 0u64;
    let mut detail = Vec::new();
    let mut seen = vec![false; n as usize * slots];
    for t in 0..n {
        if !active[t as usize] {
            continue;
        }
        seen.fill(false);
        let mut stack: Vec<(NodeId, usize)> = Vec::new();
        for s in 0..n {
            if s != t && tables.candidates_any(t, s, INJECTION_SLOT) != 0 {
                seen[s as usize * slots + INJECTION_SLOT] = true;
                stack.push((s, INJECTION_SLOT));
            }
        }
        while let Some((v, slot)) = stack.pop() {
            states += 1;
            let mask = tables.candidates_any(t, v, slot);
            if mask == 0 {
                // Reachable state with no legal escape: a black hole.
                black_holes += 1;
                if detail.len() < MAX_DETAIL {
                    detail.push(finding(
                        LintCode::BlackHole,
                        format!(
                            "packet to {t} at switch {v} (input slot {slot}) has no \
                             legal escape port"
                        ),
                        Some(v),
                        Vec::new(),
                    ));
                }
                continue;
            }
            for (p, &c) in ch.outputs(v).iter().enumerate() {
                if (mask >> p) & 1 == 0 {
                    continue;
                }
                let w = ch.sink(c);
                let next = ch.in_port(c) as usize + 1;
                if w != t && !seen[w as usize * slots + next] {
                    seen[w as usize * slots + next] = true;
                    stack.push((w, next));
                }
            }
        }
    }
    let shown = detail.len() as u64;
    findings.append(&mut detail);
    if black_holes > shown {
        findings.push(finding(
            LintCode::BlackHole,
            format!("{} more black-hole state(s) elided", black_holes - shown),
            None,
            Vec::new(),
        ));
    }
    tel.counter("analyze/audit_states").add(states);
    span.finish();

    // --- Audit 2: stretch vs BFS shortest paths (E008 / W003) ----------
    let span = tel.span("analyze/audit/stretch");
    let mut stretch = StretchHistogram::default();
    let mut overlong = Vec::new();
    let mut worst: Option<(NodeId, NodeId, f64)> = None;
    let mut stretched_pairs = 0u64;
    let mut dist = vec![u32::MAX; n as usize];
    let mut queue = std::collections::VecDeque::new();
    for t in 0..n {
        if !active[t as usize] {
            continue;
        }
        // BFS distance *to* t over the symmetric channel graph.
        dist.fill(u32::MAX);
        dist[t as usize] = 0;
        queue.clear();
        queue.push_back(t);
        while let Some(v) = queue.pop_front() {
            for &c in ch.outputs(v) {
                let w = ch.sink(c);
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = dist[v as usize] + 1;
                    queue.push_back(w);
                }
            }
        }
        for s in 0..n {
            if s == t {
                continue;
            }
            let len = tables.route_len(cg, s, t);
            if len == u16::MAX || dist[s as usize] == u32::MAX {
                // Inactive or unreachable source (the black-hole audit's
                // job), or a pair outside the fabric.
                continue;
            }
            if u32::from(len) >= n && overlong.len() < MAX_DETAIL {
                overlong.push(finding(
                    LintCode::RouteOverlong,
                    format!(
                        "minimal route {s} -> {t} takes {len} hops across {n} \
                         switches, so it revisits a switch"
                    ),
                    Some(s),
                    Vec::new(),
                ));
            }
            let ratio = f64::from(len) / f64::from(dist[s as usize]);
            stretch.record(ratio);
            if ratio > STRETCH_WARN {
                stretched_pairs += 1;
                if worst.is_none_or(|(_, _, w)| ratio > w) {
                    worst = Some((s, t, ratio));
                }
            }
        }
    }
    stretch.finish();
    tel.counter("analyze/audit_pairs").add(stretch.pairs);
    findings.append(&mut overlong);
    if let Some((s, t, ratio)) = worst {
        findings.push(finding(
            LintCode::ExcessStretch,
            format!(
                "{stretched_pairs} pair(s) stretched beyond {STRETCH_WARN}x their BFS \
                 distance; worst is {s} -> {t} at {ratio:.2}x"
            ),
            Some(s),
            Vec::new(),
        ));
    }
    span.finish();

    // --- Audit 3: turn-prohibition minimality (W004) -------------------
    let span = tel.span("analyze/audit/minimality");
    let prohibited = table.prohibited_pairs(cg);
    // Load-bearing iff releasing in_ch -> out_ch would close a cycle, i.e.
    // the dependency graph already walks out_ch back to in_ch.
    let (load_bearing, closure_bytes) = cycle_closing(cg, table, &prohibited);
    tel.counter("analyze/minimality_turns")
        .add(prohibited.len() as u64);
    tel.gauge("analyze/minimality_closure_bytes")
        .set(closure_bytes as f64);
    let mut redundant = 0u32;
    let mut examples: Vec<ChannelId> = Vec::new();
    for (&(in_ch, out_ch), &load_bearing) in prohibited.iter().zip(&load_bearing) {
        if !load_bearing {
            redundant += 1;
            if examples.len() < 2 * MAX_DETAIL {
                examples.push(in_ch);
                examples.push(out_ch);
            }
        }
    }
    if redundant > 0 {
        findings.push(finding(
            LintCode::RedundantProhibition,
            format!(
                "{redundant} of {} prohibited turn(s) are not load-bearing: \
                 releasing them keeps the dependency graph acyclic",
                prohibited.len()
            ),
            None,
            examples,
        ));
    }
    span.finish();

    // --- Audit 4: livelock freedom via certificate rank (E009) ---------
    let span = tel.span("analyze/audit/livelock");
    match &cert.verdict {
        Verdict::DeadlockFree { numbering } => {
            let mut violations = Vec::new();
            let mut total = 0u64;
            for t in 0..n {
                if !active[t as usize] {
                    continue;
                }
                for v in 0..n {
                    if v == t {
                        continue;
                    }
                    for slot in 1..slots {
                        let mask = tables.candidates_any(t, v, slot);
                        if mask == 0 || slot > ch.inputs(v).len() {
                            continue;
                        }
                        let in_ch = ch.input_at(v, (slot - 1) as u8);
                        for (p, &c) in ch.outputs(v).iter().enumerate() {
                            if (mask >> p) & 1 == 0 {
                                continue;
                            }
                            if numbering[in_ch as usize] >= numbering[c as usize] {
                                total += 1;
                                if violations.len() < MAX_DETAIL {
                                    violations.push(finding(
                                        LintCode::RankViolation,
                                        format!(
                                            "escape turn {in_ch} -> {c} at switch {v} \
                                             (destination {t}) does not climb the \
                                             certificate numbering"
                                        ),
                                        Some(v),
                                        vec![in_ch, c],
                                    ));
                                }
                            }
                        }
                    }
                }
            }
            let shown = violations.len() as u64;
            findings.append(&mut violations);
            if total > shown {
                findings.push(finding(
                    LintCode::RankViolation,
                    format!("{} more rank violation(s) elided", total - shown),
                    None,
                    Vec::new(),
                ));
            }
        }
        Verdict::Deadlock { witness } => {
            findings.push(finding(
                LintCode::RankViolation,
                "certificate reports deadlock: no acyclic rank exists to bound \
                 misrouting"
                    .to_string(),
                None,
                witness.clone(),
            ));
        }
    }
    span.finish();

    findings.sort_by(|a, b| {
        let k = |f: &Finding| (f.severity == Severity::Warning, f.code.code(), f.node);
        k(a).cmp(&k(b))
    });
    AuditReport {
        findings,
        stretch,
        prohibited_turns: prohibited.len() as u32,
        redundant_prohibitions: redundant,
        black_hole_states: black_holes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irnet_core::DownUp;
    use irnet_metrics::Algo;
    use irnet_topology::{gen, PreorderPolicy};
    use irnet_turns::ChannelDepGraph;
    use irnet_verify::certify;
    use proptest::prelude::*;

    #[test]
    fn well_built_instances_pass_all_four_audits() {
        for seed in 0..4 {
            let topo = gen::random_irregular(gen::IrregularParams::paper(20, 4), seed).unwrap();
            let built = DownUp::new().construct(&topo).unwrap();
            let (_, cg, table, tables) = built.into_parts();
            let cert = certify(&cg, &table);
            let report = audit(&cg, &table, &tables, &cert);
            assert!(report.passed(), "audit failed: {:?}", report.findings);
            assert_eq!(report.black_hole_states, 0);
            assert_eq!(report.count(LintCode::RouteOverlong), 0);
            assert_eq!(report.count(LintCode::RankViolation), 0);
            assert_eq!(
                report.stretch.pairs,
                u64::from(topo.num_nodes()) * u64::from(topo.num_nodes() - 1)
            );
            assert!(report.stretch.max >= 1.0);
        }
    }

    #[test]
    fn scrambled_numbering_trips_the_rank_audit() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 1).unwrap();
        let built = DownUp::new().construct(&topo).unwrap();
        let (_, cg, table, tables) = built.into_parts();
        let mut cert = certify(&cg, &table);
        if let Verdict::DeadlockFree { numbering } = &mut cert.verdict {
            numbering.reverse();
        }
        let report = audit(&cg, &table, &tables, &cert);
        assert!(!report.passed());
        assert!(report.count(LintCode::RankViolation) > 0);
    }

    const ALGOS: [Algo; 7] = [
        Algo::DownUp { release: true },
        Algo::DownUp { release: false },
        Algo::DownUpCenterRoot,
        Algo::LTurn { release: true },
        Algo::LTurn { release: false },
        Algo::UpDownBfs,
        Algo::UpDownDfs,
    ];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// W004's count and example channels equal a recount that runs one
        /// dependency-graph search per prohibited turn, for every algorithm.
        #[test]
        fn minimality_counts_agree_with_a_direct_recount(
            n in 8u32..=40,
            wide in proptest::bool::ANY,
            seed in 0u64..10_000,
        ) {
            let ports = if wide { 8 } else { 4 };
            let topo = gen::random_irregular(gen::IrregularParams::paper(n, ports), seed).unwrap();
            for algo in ALGOS {
                let inst = algo.construct(&topo, PreorderPolicy::M1, seed).unwrap();
                let (cg, table) = (&inst.cg, &inst.table);
                let report = audit(cg, table, &inst.tables, &certify(cg, table));
                let prohibited = table.prohibited_pairs(cg);
                let dep = ChannelDepGraph::build(cg, table);
                let redundant: Vec<(ChannelId, ChannelId)> = prohibited
                    .iter()
                    .copied()
                    .filter(|&(i, o)| !dep.has_path(o, i))
                    .collect();
                prop_assert_eq!(report.prohibited_turns as usize, prohibited.len(), "{algo}");
                prop_assert_eq!(report.redundant_prohibitions as usize, redundant.len(), "{algo}");
                let w004: Vec<&Finding> = report
                    .findings
                    .iter()
                    .filter(|f| f.code == LintCode::RedundantProhibition)
                    .collect();
                if redundant.is_empty() {
                    prop_assert!(w004.is_empty(), "{algo}");
                } else {
                    let examples: Vec<ChannelId> = redundant
                        .iter()
                        .take(MAX_DETAIL)
                        .flat_map(|&(i, o)| [i, o])
                        .collect();
                    prop_assert_eq!(w004.len(), 1, "{algo}");
                    prop_assert_eq!(&w004[0].channels, &examples, "{algo}");
                }
            }
        }
    }
}
