//! Calls shared by the workloads: seeded inputs, DOWN/UP construction
//! (split into its layers when traced), certification, and digests of the
//! library's outputs.

use crate::run::Run;
use crate::stats::Digest;
use crate::trace::{SpanId, Tracer};
use irnet_core::DownUp;
use irnet_sim::SimStats;
use irnet_topology::{gen, CommGraph, CoordinatedTree, Topology};
use irnet_turns::{RoutingTables, TurnTable};

/// A seed for generator `tag` of a run with seed `seed` (splitmix64).
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random irregular fabric of the paper's kind, inside a
/// `topology.gen` span.
pub fn topology(tr: &Tracer, parent: SpanId, switches: u32, ports: u32, seed: u64) -> Topology {
    tr.span("topology.gen", parent, |_| {
        gen::random_irregular(gen::IrregularParams::paper(switches, ports), seed)
            .expect("the paper's generator parameters are valid")
    })
}

/// A DOWN/UP routing with its tables. Untraced this is the user's one
/// call, `DownUp::construct`; traced, Phases 1–3 and the table fill are
/// issued separately so each gets its own span.
pub fn downup(
    tr: &Tracer,
    parent: SpanId,
    topo: &Topology,
    builder: DownUp,
) -> (CoordinatedTree, CommGraph, TurnTable, RoutingTables) {
    if !tr.is_on() {
        return builder
            .construct(topo)
            .expect("DOWN/UP constructs on every connected fabric")
            .into_parts();
    }
    let (tree, cg, table, _) = tr.span("core.phases", parent, |_| {
        builder
            .construct_phases(topo)
            .expect("DOWN/UP Phases 1-3 run on every connected fabric")
    });
    let tables = tr.span("turns.table_fill", parent, |_| {
        RoutingTables::build(&cg, &table).expect("DOWN/UP connects every pair")
    });
    (tree, cg, table, tables)
}

/// The traced run builds DOWN/UP from its layers; what it built must equal
/// what the user's one call builds.
pub fn check_split(
    r: &mut Run,
    topo: &Topology,
    builder: DownUp,
    table: &TurnTable,
    tables: &RoutingTables,
) {
    let reference = builder
        .construct(topo)
        .expect("DOWN/UP constructs on every connected fabric");
    let same = reference.turn_table() == table && reference.routing_tables() == tables;
    r.check(same, || {
        "traced DOWN/UP construction differs from DownUp::construct".into()
    });
}

/// Gates a turn table on an `irnet_verify` deadlock-free certificate.
pub fn certify(r: &mut Run, cg: &CommGraph, table: &TurnTable, what: &str) {
    let cert =
        r.tr.span("verify.certify", None, |_| irnet_verify::certify(cg, table));
    r.check(cert.is_deadlock_free(), || {
        format!("{what}: turn table is not certified deadlock-free")
    });
}

/// Folds every turn mask of `table` into `d`.
pub fn digest_turns(d: &mut Digest, cg: &CommGraph, table: &TurnTable) {
    for v in 0..cg.num_nodes() {
        for q in 0..cg.channels().inputs(v).len() {
            d.u64(table.mask(v, u8::try_from(q).expect("port fits u8")).into());
        }
    }
}

/// Folds the cost rows of every `stride`-th destination of `tables` into
/// `d`.
pub fn digest_costs(d: &mut Digest, cg: &CommGraph, tables: &RoutingTables, stride: usize) {
    for t in (0..cg.num_nodes()).step_by(stride) {
        for c in 0..cg.num_channels() {
            d.u64(tables.cost(t, c).into());
        }
    }
}

/// Folds every counter of one flit run into `d`.
pub fn digest_stats(d: &mut Digest, s: &SimStats) {
    for v in [
        u64::from(s.cycles),
        s.flits_delivered,
        s.packets_delivered,
        s.latency_sum,
        u64::from(s.latency_max),
        s.packets_generated,
        s.header_block_cycles,
        s.buffered_flit_cycles,
        u64::from(s.deadlocked),
        s.flits_in_flight,
        u64::from(s.last_progress),
        s.flits_injected_total,
        s.flits_delivered_total,
    ] {
        d.u64(v);
    }
    for &f in &s.channel_flits {
        d.u64(f);
    }
}

/// Checks one flit run — conservation is a correctness property, a
/// deadlock a failed operation — and counts its work for the trace. Only
/// runs of the guaranteed prefix feed the counts that must repeat exactly.
pub fn record_run(r: &mut Run, s: &SimStats, prefix: bool, what: &str) {
    r.attempted += 1;
    r.failed += u64::from(s.deadlocked);
    r.check(s.flits_conserved(), || {
        format!("{what}: flits not conserved")
    });
    let hops = s.channel_flits.iter().sum::<u64>() as f64;
    r.add("sim.flit_hops_all", hops);
    if prefix {
        r.add("sim.flit_hops", hops);
        r.add("sim.header_block_sum", s.header_block_rate());
        r.add("sim.prefix_runs", 1.0);
        r.add("sim.deadlocked_runs", f64::from(u8::from(s.deadlocked)));
    }
}
