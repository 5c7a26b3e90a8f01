use crate::cdg::ChannelDepGraph;
use crate::turn_table::TurnTable;
use irnet_topology::{ChannelId, ChannelTable, CommGraph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Input-slot index used for freshly injected packets (no input channel).
/// Input port `q` maps to slot `q + 1`.
pub const INJECTION_SLOT: usize = 0;

/// Below this node count an auto-threaded per-destination pass (the table
/// fill, the flow decomposition) stays serial: the whole pass is about a
/// millisecond and thread spawn overhead would dominate.
const PARALLEL_BUILD_MIN_NODES: u32 = 192;

/// Routing construction failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutingError {
    /// No legal path from `src` to `dst` under the turn restrictions —
    /// the turn table violates the connectivity requirement.
    Disconnected {
        /// The source switch.
        src: NodeId,
        /// The unreachable destination.
        dst: NodeId,
    },
}

impl std::fmt::Display for RoutingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoutingError::Disconnected { src, dst } => {
                write!(f, "no turn-legal path from {src} to {dst}")
            }
        }
    }
}

impl std::error::Error for RoutingError {}

/// Touched-region accounting of one [`RoutingTables::patch_masked`] call —
/// the evidence that an incremental repair really was O(affected region).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PatchStats {
    /// Channel-dependency edges the turn-table delta removed.
    pub removed_edges: usize,
    /// Channel-dependency edges the turn-table delta added.
    pub added_edges: usize,
    /// Per-destination cost entries that changed value, summed over all
    /// destinations.
    pub changed_costs: u64,
    /// `(destination, switch)` rows whose candidate masks may have changed
    /// and whose connectivity was re-checked.
    pub touched_rows: u64,
    /// Destinations with at least one cost or mask change.
    pub touched_destinations: u32,
    /// Distinct switches whose rows were re-checked for at least one
    /// destination.
    pub touched_switches: u32,
}

/// The CSR transpose (predecessor lists) of a channel dependency graph:
/// the graph the per-destination reverse BFS ([`Preds::fill_costs`])
/// walks. The table fill, the incremental patch and the flow backend's
/// decomposition share it.
pub struct Preds {
    /// The predecessors of channel `c` are `pred[off[c]..off[c + 1]]`.
    off: Vec<u32>,
    pred: Vec<ChannelId>,
}

impl Preds {
    /// Transposes `dep`. Each predecessor list is in increasing channel
    /// order.
    pub fn build(dep: &ChannelDepGraph) -> Preds {
        let nch = dep.num_channels();
        let mut indeg = vec![0u32; nch as usize];
        for c in 0..nch {
            for &s in dep.successors(c) {
                indeg[s as usize] += 1;
            }
        }
        let mut off = vec![0u32; nch as usize + 1];
        for i in 0..nch as usize {
            off[i + 1] = off[i] + indeg[i];
        }
        let mut cursor = off[..nch as usize].to_vec();
        let mut pred = vec![0u32; dep.num_edges()];
        for c in 0..nch {
            for &s in dep.successors(c) {
                pred[cursor[s as usize] as usize] = c;
                cursor[s as usize] += 1;
            }
        }
        Preds { off, pred }
    }

    /// The channels with a dependency edge into `c`.
    fn of(&self, c: ChannelId) -> &[ChannelId] {
        &self.pred[self.off[c as usize] as usize..self.off[c as usize + 1] as usize]
    }

    /// The per-destination cost kernel: fills `row` (all [`Cost::INF`] on
    /// entry) with every channel's cost to `t` — the least number of
    /// channels a packet still traverses when it takes that channel next —
    /// by a reverse breadth-first search from the channels into `t`.
    /// Channels flagged in `dead_channel` keep `INF` and are never crossed.
    ///
    /// On return `queue` holds exactly the channels given a finite cost,
    /// in the order the search reached them: by nondecreasing cost, and
    /// within one cost in a fixed order. A caller resets `row` through it.
    ///
    /// # Errors
    ///
    /// [`CostOverflow`] when a finite cost does not fit `C`; `row` and
    /// `queue` then hold a partial search.
    pub fn fill_costs<C: Cost>(
        &self,
        ch: &ChannelTable,
        t: NodeId,
        dead_channel: Option<&[bool]>,
        row: &mut [C],
        queue: &mut Vec<ChannelId>,
    ) -> Result<(), CostOverflow> {
        match dead_channel {
            None => self.search(ch, t, |_| false, row, queue),
            Some(dead) => self.search(ch, t, |c| dead[c as usize], row, queue),
        }
    }

    /// [`Preds::fill_costs`] with the dead test inlined.
    #[inline]
    fn search<C: Cost>(
        &self,
        ch: &ChannelTable,
        t: NodeId,
        dead: impl Fn(ChannelId) -> bool,
        row: &mut [C],
        queue: &mut Vec<ChannelId>,
    ) -> Result<(), CostOverflow> {
        // Every channel enters the queue at most once; the spare slot
        // takes the unconditional write of the last visit.
        queue.clear();
        queue.resize(row.len() + 1, 0);
        let mut len = 0;
        // Seeds: channels whose sink is the destination cost exactly 1.
        let one = C::fit(1).ok_or(CostOverflow)?;
        for &c in ch.inputs(t) {
            if !dead(c) {
                row[c as usize] = one;
                queue[len] = c;
                len += 1;
            }
        }
        // Breadth-first, one level at a time: the unreached predecessors
        // of `queue[head..end]`, which cost `d`, cost `d + 1`.
        let (mut head, mut d) = (0, 1);
        while head < len {
            let end = len;
            d += 1;
            let Some(cell) = C::fit(d) else {
                let open = queue[head..end].iter().any(|&c| {
                    self.of(c)
                        .iter()
                        .any(|&p| !dead(p) && row[p as usize] == C::INF)
                });
                queue.truncate(len);
                return if open { Err(CostOverflow) } else { Ok(()) };
            };
            for i in head..end {
                // Whether a predecessor is new is data-dependent and
                // unpredictable, so it selects values instead of branching.
                for &p in self.of(queue[i]) {
                    let old = row[p as usize];
                    let fresh = old == C::INF && !dead(p);
                    row[p as usize] = if fresh { cell } else { old };
                    queue[len] = p;
                    len += usize::from(fresh);
                }
            }
            head = end;
        }
        queue.truncate(len);
        Ok(())
    }
}

/// A finite cost did not fit the cell width of a [`Preds::fill_costs`]
/// row: redo it wider.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostOverflow;

/// The lowest-port minimal route from `s` to `t` over `t`'s cost row
/// (filled by [`Preds::fill_costs`]): at every switch `v`, among the
/// output ports `allowed(v, slot)` permits for the input slot the packet
/// arrived on ([`INJECTION_SLOT`] at `s`, `input port + 1` after a hop),
/// take the lowest-numbered port of least finite cost. Empty when
/// `s == t`; `None` when a switch on the way has no such port, which at
/// `s` means `t` is unreachable.
pub fn lowest_port_route<C: Cost>(
    ch: &ChannelTable,
    row: &[C],
    allowed: impl Fn(NodeId, usize) -> u16,
    s: NodeId,
    t: NodeId,
) -> Option<Vec<ChannelId>> {
    let mut path = Vec::new();
    let (mut v, mut slot) = (s, INJECTION_SLOT);
    while v != t {
        let outs = ch.outputs(v);
        let mut mask = allowed(v, slot);
        let (mut best, mut next) = (C::INF, None);
        while mask != 0 {
            let c = outs[mask.trailing_zeros() as usize];
            mask &= mask - 1;
            if row[c as usize] < best {
                best = row[c as usize];
                next = Some(c);
            }
        }
        let c = next?;
        path.push(c);
        slot = ch.in_port(c) as usize + 1;
        v = ch.sink(c);
    }
    Some(path)
}

/// Worker threads for a per-destination pass over `nodes` switches when
/// the caller names none: one below 192 switches (`PARALLEL_BUILD_MIN_NODES`), else
/// [`std::thread::available_parallelism`].
pub fn auto_workers(nodes: u32) -> usize {
    if nodes < PARALLEL_BUILD_MIN_NODES {
        1
    } else {
        std::thread::available_parallelism().map_or(1, usize::from)
    }
}

/// One cost cell, `u8` or `u16`. The cost kernel, the fill, the patch and
/// the mask lookup are each written once over this trait and run at
/// whichever width the caller holds. Each width's largest value means
/// unreachable, so unreachable sorts after every finite cost at both
/// widths.
pub trait Cost: Copy + Ord + Send + Sync {
    /// The unreachable marker.
    const INF: Self;
    /// The cost as the public `u16` (`INF` is `u16::MAX`).
    fn get(self) -> u16;
    /// The cell holding `v` (`u16::MAX` is `INF`), or `None` if a finite
    /// `v` does not fit.
    fn fit(v: u16) -> Option<Self>;
}

impl Cost for u8 {
    const INF: u8 = u8::MAX;
    #[inline]
    fn get(self) -> u16 {
        if self == u8::MAX {
            u16::MAX
        } else {
            u16::from(self)
        }
    }
    #[inline]
    fn fit(v: u16) -> Option<u8> {
        match v {
            u16::MAX => Some(u8::MAX),
            0..=254 => Some(v as u8),
            _ => None,
        }
    }
}

impl Cost for u16 {
    const INF: u16 = u16::MAX;
    #[inline]
    fn get(self) -> u16 {
        self
    }
    #[inline]
    fn fit(v: u16) -> Option<u16> {
        Some(v)
    }
}

/// The `cost` array at the narrowest width its finite costs fit: one byte
/// per cell while every finite cost is at most 254, two bytes otherwise.
/// The width is a function of the costs alone, never of how they were
/// reached, so equal tables compare equal and report equal `heap_bytes`.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Costs {
    Narrow(Vec<u8>),
    Wide(Vec<u16>),
}

impl Costs {
    /// Narrows wide cells when every finite cost fits one byte again.
    fn refit(&mut self) {
        if let Costs::Wide(wide) = self {
            if wide.iter().all(|&c| u8::fit(c).is_some()) {
                // Every cell is at most 254 or `u16::MAX`, which truncates
                // to the narrow `INF`.
                *self = Costs::Narrow(wide.iter().map(|&c| c as u8).collect());
            }
        }
    }
}

/// Why a fill or patch at one cell width stopped early.
enum Stop {
    /// A real failure, reported as is.
    Routing(RoutingError),
    /// A finite cost does not fit the cell width: redo it wider.
    Overflow,
}

impl From<RoutingError> for Stop {
    fn from(e: RoutingError) -> Stop {
        Stop::Routing(e)
    }
}

impl From<CostOverflow> for Stop {
    fn from(_: CostOverflow) -> Stop {
        Stop::Overflow
    }
}

impl Stop {
    /// The routing error of a stop that is not a one-byte overflow.
    fn wide(self) -> RoutingError {
        match self {
            Stop::Routing(e) => e,
            Stop::Overflow => unreachable!("u16 cells hold every cost"),
        }
    }
}

/// Turn-legal port mask of every `(switch, input slot)`, laid out as
/// [`RoutingTables`]'s `turn` row. Dead switches get all-zero rows.
fn turn_rows(cg: &CommGraph, table: &TurnTable, alive: Option<&[bool]>, slots: usize) -> Vec<u16> {
    let ch = cg.channels();
    let mut turn = vec![0u16; cg.num_nodes() as usize * slots];
    for v in 0..cg.num_nodes() {
        if alive.is_some_and(|a| !a[v as usize]) {
            continue;
        }
        let row = &mut turn[v as usize * slots..][..slots];
        row[INJECTION_SLOT] = ((1u32 << ch.outputs(v).len()) - 1) as u16;
        for q in 0..ch.inputs(v).len() {
            row[1 + q] = table.mask(v, q as u8);
        }
    }
    turn
}

/// Whether some channel of `outs` has a finite cost in `cost_row` — the
/// connectivity check of one `(source, destination)` pair.
fn reaches<C: Cost>(outs: &[ChannelId], cost_row: &[C]) -> bool {
    outs.iter().any(|&c| cost_row[c as usize] != C::INF)
}

/// The per-destination pass of a table build: the cost kernel plus the
/// connectivity check.
struct Fill<'a> {
    n: u32,
    ch: &'a ChannelTable,
    preds: Preds,
    dead_channel: Option<&'a [bool]>,
    alive_node: Option<&'a [bool]>,
}

impl Fill<'_> {
    fn node_alive(&self, v: NodeId) -> bool {
        self.alive_node.is_none_or(|a| a[v as usize])
    }

    /// Fills destination `t`'s row (all `INF` on entry) and checks that
    /// every alive source reaches `t`.
    fn dest<C: Cost>(
        &self,
        t: NodeId,
        cost_row: &mut [C],
        queue: &mut Vec<ChannelId>,
    ) -> Result<(), Stop> {
        if !self.node_alive(t) {
            return Ok(()); // dead destinations keep INF costs
        }
        self.preds
            .fill_costs(self.ch, t, self.dead_channel, cost_row, queue)?;

        // Connectivity: every alive source needs a finite-cost output.
        // Dead channels never acquire a finite cost.
        match (0..self.n)
            .find(|&v| v != t && self.node_alive(v) && !reaches(self.ch.outputs(v), cost_row))
        {
            Some(v) => Err(RoutingError::Disconnected { src: v, dst: t }.into()),
            None => Ok(()),
        }
    }

    /// Every destination's row on `workers` threads. The result, and on
    /// failure the stop reported, are the serial fill's: the stop is the
    /// one of the smallest failing destination.
    fn rows<C: Cost>(&self, workers: usize) -> Result<Vec<C>, Stop> {
        let (n, row_nch) = (self.n as usize, self.ch.num_channels() as usize);
        let mut cost = vec![C::INF; n * row_nch];
        if workers <= 1 || row_nch == 0 {
            let mut queue = Vec::with_capacity(row_nch + 1);
            for t in 0..n {
                let cost_row = &mut cost[t * row_nch..(t + 1) * row_nch];
                self.dest(t as NodeId, cost_row, &mut queue)?;
            }
            return Ok(cost);
        }
        // One destination = one disjoint `cost` row, so the fill is
        // embarrassingly parallel: contiguous destination chunks, one
        // scoped worker each, any partition bit-identical. Joining in
        // chunk order and keeping each worker's first stop makes the
        // reported stop the serial one: the failing destination is minimal
        // within its chunk, and earlier chunks hold smaller destinations.
        let per = n.div_ceil(workers);
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(workers);
            for (k, cost_c) in cost.chunks_mut(per * row_nch).enumerate() {
                handles.push(s.spawn(move || {
                    let mut queue = Vec::with_capacity(row_nch + 1);
                    for (i, cost_row) in cost_c.chunks_mut(row_nch).enumerate() {
                        self.dest((k * per + i) as NodeId, cost_row, &mut queue)?;
                    }
                    Ok(())
                }));
            }
            let mut first: Result<(), Stop> = Ok(());
            for h in handles {
                let r = h.join().expect("routing-table worker panicked");
                if first.is_ok() {
                    first = r;
                }
            }
            first
        })?;
        Ok(cost)
    }
}

/// Turn-constrained shortest-path routing tables.
///
/// For every destination `t` the table stores, per channel `c`, the minimal
/// number of channels a packet must still traverse given that it traverses
/// `c` first (`cost`). That is the only per-destination array: the bitmask
/// of output ports lying on *some* minimal legal path ("shortest possible
/// paths", as the paper's simulation uses) is derived at lookup from a
/// `cost` row and two small per-switch rows — each port's output channel
/// and each input slot's turn-legal port mask. At each hop the simulator
/// picks among that mask — randomly or adaptively — which keeps the route
/// set inside the deadlock-free turn set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTables {
    num_nodes: u32,
    num_channels: u32,
    slots: usize,
    /// `cost[t as usize * num_channels + c]`, one byte per cell while
    /// every finite cost fits, two bytes otherwise.
    cost: Costs,
    /// `out_ch[v * (slots - 1) + p]`: the output channel on port `p` of `v`
    /// (ports `v` lacks hold 0; no turn row ever names them).
    out_ch: Vec<ChannelId>,
    /// `turn[v * slots + slot]`: the output ports a packet arriving at `v`
    /// on `slot` may legally take — every port at the injection slot, none
    /// at a dead switch.
    turn: Vec<u16>,
}

impl RoutingTables {
    /// Builds the tables and verifies full connectivity: every ordered pair
    /// of distinct switches must be reachable from injection.
    pub fn build(cg: &CommGraph, table: &TurnTable) -> Result<RoutingTables, RoutingError> {
        Self::build_inner(cg, table, None, None, 0)
    }

    /// Like [`RoutingTables::build`] but with an explicit worker-thread
    /// count: `1` forces the serial reference build, `0` picks
    /// [`std::thread::available_parallelism`]. The result is bit-identical
    /// for every thread count — each destination's `cost` row is disjoint
    /// and filled by the same arithmetic, and on disconnection the error
    /// reported is the one the serial build would hit first (smallest
    /// destination, then smallest source).
    pub fn build_with_threads(
        cg: &CommGraph,
        table: &TurnTable,
        threads: usize,
    ) -> Result<RoutingTables, RoutingError> {
        Self::build_inner(cg, table, None, None, threads)
    }

    /// Like [`RoutingTables::build`], but over the surviving sub-network of
    /// a degraded fabric: channels flagged in `dead_channel` never appear
    /// in any candidate mask (including the injection slot, which ignores
    /// the turn table), and nodes flagged dead in `alive_node` are skipped
    /// both as destinations and as route hops. Connectivity is only
    /// required between pairs of *alive* switches.
    pub fn build_masked(
        cg: &CommGraph,
        table: &TurnTable,
        dead_channel: &[bool],
        alive_node: &[bool],
    ) -> Result<RoutingTables, RoutingError> {
        assert_eq!(dead_channel.len(), cg.num_channels() as usize);
        assert_eq!(alive_node.len(), cg.num_nodes() as usize);
        Self::build_inner(cg, table, Some(dead_channel), Some(alive_node), 0)
    }

    fn build_inner(
        cg: &CommGraph,
        table: &TurnTable,
        dead_channel: Option<&[bool]>,
        alive_node: Option<&[bool]>,
        threads: usize,
    ) -> Result<RoutingTables, RoutingError> {
        let n = cg.num_nodes();
        let ch = cg.channels();
        let preds = Preds::build(&ChannelDepGraph::build(cg, table));
        let fill = Fill {
            n,
            ch,
            preds,
            dead_channel,
            alive_node,
        };

        let max_ports = (0..n).map(|v| ch.outputs(v).len()).max().unwrap_or(0);
        let slots = max_ports + 1;
        let mut out_ch = vec![0; n as usize * max_ports];
        for v in 0..n {
            let outs = ch.outputs(v);
            out_ch[v as usize * max_ports..][..outs.len()].copy_from_slice(outs);
        }

        let workers = match threads {
            0 => auto_workers(n),
            explicit => explicit,
        }
        .clamp(1, n.max(1) as usize);

        // One-byte cells first; the first finite cost above 254 redoes the
        // fill at two bytes. The narrow pass stops at the smallest failing
        // destination, and every smaller one filled identically at both
        // widths, so a `Disconnected` it reports is the wide build's too.
        let cost = match fill.rows::<u8>(workers) {
            Ok(narrow) => Costs::Narrow(narrow),
            Err(Stop::Overflow) => Costs::Wide(fill.rows::<u16>(workers).map_err(Stop::wide)?),
            Err(Stop::Routing(e)) => return Err(e),
        };

        Ok(RoutingTables {
            num_nodes: n,
            num_channels: cg.num_channels(),
            slots,
            cost,
            out_ch,
            turn: turn_rows(cg, table, alive_node, slots),
        })
    }

    /// Patches `self` — previously equal to
    /// [`RoutingTables::build_masked`]`(cg, old_table, …)` under the
    /// *previous* fault state — in place, into exactly the tables
    /// `build_masked(cg, new_table, dead_channel, alive_node)` would
    /// produce, re-solving only the rows whose shortest paths traverse the
    /// affected region.
    ///
    /// `dead_channel` / `alive_node` describe the *current* (cumulative)
    /// fault state; `newly_dead_channels` / `newly_dead_nodes` list exactly
    /// the elements that died since `self` was built. Both turn tables live
    /// in `cg`'s original channel space, and `new_table` must prohibit
    /// every pair touching a dead channel (the repair lift guarantees
    /// this), so every dependency edge into or out of a newly dead channel
    /// appears in the removed-edge delta.
    ///
    /// The update is exact, not heuristic. Per destination:
    ///
    /// 1. *invalidate* — channels whose recorded cost was supported through
    ///    a removed dependency edge or a newly dead channel go unreachable,
    ///    cascading to dependents that lose their last support;
    /// 2. *decrease* — every surviving finite cost is now an achievable
    ///    upper bound, so one decrease-only Dijkstra over the new
    ///    dependency graph (unit weights), seeded from the edges into the
    ///    invalidated set and from the added dependency edges (Phase-3
    ///    releases that came back), lowers every cost to its exact value —
    ///    including channels that were unreachable before the patch;
    /// 3. only switches with a changed output-channel cost or a changed
    ///    turn mask get their connectivity re-checked, exactly as the full
    ///    build checks it.
    ///
    /// The per-switch turn rows are refreshed from `new_table` and
    /// `alive_node` once, in O(switches × slots). Total cost is
    /// O(destinations × delta) instead of the full build's
    /// O(destinations × dependency edges).
    ///
    /// The cell width follows the costs as in the full build: a one-byte
    /// table whose patch needs a cost above 254 is widened in place at
    /// that destination, and a two-byte table narrows again once every
    /// finite cost fits.
    ///
    /// # Errors
    ///
    /// [`RoutingError::Disconnected`] if some alive pair loses every
    /// turn-legal route, exactly as the full build would report.
    ///
    /// # Panics
    ///
    /// Panics if the mask/table dimensions disagree with `cg` or with the
    /// tables `self` was built over.
    // The argument list mirrors `build_masked` plus the three delta inputs;
    // bundling them into a struct would only move the noise to the caller.
    #[allow(clippy::too_many_arguments)]
    pub fn patch_masked(
        &mut self,
        cg: &CommGraph,
        old_table: &TurnTable,
        new_table: &TurnTable,
        dead_channel: &[bool],
        alive_node: &[bool],
        newly_dead_channels: &[ChannelId],
        newly_dead_nodes: &[NodeId],
    ) -> Result<PatchStats, RoutingError> {
        let n = cg.num_nodes();
        let nch = cg.num_channels();
        assert_eq!(self.num_nodes, n);
        assert_eq!(self.num_channels, nch);
        assert_eq!(dead_channel.len(), nch as usize);
        assert_eq!(alive_node.len(), n as usize);
        let ch = cg.channels();
        self.turn = turn_rows(cg, new_table, Some(alive_node), self.slots);

        // Turn-table delta: removed/added dependency edges, plus the
        // switches whose candidate masks change even without a cost change
        // (e.g. a Phase-3 release granted under one tree but not the other).
        let mut removed: Vec<(ChannelId, ChannelId)> = Vec::new();
        let mut added: Vec<(ChannelId, ChannelId)> = Vec::new();
        let mut turn_dirty_nodes: Vec<NodeId> = Vec::new();
        for v in 0..n {
            let outs = ch.outputs(v);
            let mut dirty = false;
            for (q, &in_ch) in ch.inputs(v).iter().enumerate() {
                let before = old_table.mask(v, q as u8);
                let after = new_table.mask(v, q as u8);
                let mut delta = before ^ after;
                dirty |= delta != 0;
                while delta != 0 {
                    let p = delta.trailing_zeros() as usize;
                    delta &= delta - 1;
                    if (before >> p) & 1 == 1 {
                        removed.push((in_ch, outs[p]));
                    } else {
                        added.push((in_ch, outs[p]));
                    }
                }
            }
            if dirty {
                turn_dirty_nodes.push(v);
            }
        }

        // Dependency graph of the new table (dead channels are isolated in
        // it) and its transpose, shared across destinations.
        let dep = ChannelDepGraph::build(cg, new_table);
        let mut patch = Patch {
            ch,
            stats: PatchStats {
                removed_edges: removed.len(),
                added_edges: added.len(),
                ..PatchStats::default()
            },
            preds: Preds::build(&dep),
            dep,
            removed,
            added,
            turn_dirty_nodes,
            dead_channel,
            alive_node,
            newly_dead_channels,
            newly_dead_nodes,
            saved_gen: vec![0; nch as usize],
            saved_val: vec![0; nch as usize],
            saved_list: Vec::new(),
            node_gen: vec![0; n as usize],
            dirty_nodes: Vec::new(),
            switch_touched: vec![false; n as usize],
            queue: Vec::new(),
            invalidated: Vec::new(),
            heap: BinaryHeap::new(),
        };

        let row_nch = nch as usize;
        for t in 0..n {
            let row = t as usize * row_nch..(t as usize + 1) * row_nch;
            let done = match &mut self.cost {
                Costs::Narrow(cost) => patch.dest(t, &mut cost[row.clone()]),
                Costs::Wide(cost) => patch.dest(t, &mut cost[row.clone()]),
            };
            match (done, &self.cost) {
                (Ok(()), _) => {}
                // A one-byte row overflowed: widen the table, put back the
                // row's pre-patch costs and redo `t` at two bytes.
                (Err(Stop::Overflow), Costs::Narrow(narrow)) => {
                    let mut wide: Vec<u16> = narrow.iter().map(|&c| c.get()).collect();
                    patch.restore(&mut wide[row.clone()]);
                    patch.dest(t, &mut wide[row]).map_err(Stop::wide)?;
                    self.cost = Costs::Wide(wide);
                }
                (Err(stop), _) => return Err(stop.wide()),
            }
        }
        self.cost.refit();
        Ok(patch.stats)
    }

    /// Bytes held by the table arrays: each array's length times its
    /// element size. Deterministic for a given fabric, unlike RSS.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        let cost = match &self.cost {
            Costs::Narrow(c) => size_of_val(&c[..]),
            Costs::Wide(c) => size_of_val(&c[..]),
        };
        cost + size_of_val(&self.out_ch[..]) + size_of_val(&self.turn[..])
    }

    /// Number of switches.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Input slots per node (max ports + 1).
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Remaining-hop count for a packet to `t` that traverses `c` next
    /// (`u16::MAX` if that is a dead end).
    #[inline]
    pub fn cost(&self, t: NodeId, c: ChannelId) -> u16 {
        let i = t as usize * self.num_channels as usize + c as usize;
        match &self.cost {
            Costs::Narrow(cost) => cost[i].get(),
            Costs::Wide(cost) => cost[i],
        }
    }

    /// Both candidate masks of a packet to `t` at `v` arriving on `slot`,
    /// derived in one pass over the turn-legal ports: the ports of least
    /// finite cost ([`RoutingTables::candidates`]) and every port of finite
    /// cost ([`RoutingTables::candidates_any`]). Both are zero at `v == t`.
    #[inline]
    pub fn candidate_masks(&self, t: NodeId, v: NodeId, slot: usize) -> (u16, u16) {
        debug_assert!(slot < self.slots);
        if v == t {
            return (0, 0);
        }
        match &self.cost {
            Costs::Narrow(cost) => self.masks_in(cost, t, v, slot),
            Costs::Wide(cost) => self.masks_in(cost, t, v, slot),
        }
    }

    /// [`RoutingTables::candidate_masks`] over `cost` cells of one width.
    #[inline]
    fn masks_in<C: Cost>(&self, cost: &[C], t: NodeId, v: NodeId, slot: usize) -> (u16, u16) {
        let cost_row = &cost[t as usize * self.num_channels as usize..];
        let outs = &self.out_ch[v as usize * (self.slots - 1)..];
        let mut allowed = self.turn[v as usize * self.slots + slot];
        let (mut best, mut min, mut any) = (C::INF, 0u16, 0u16);
        while allowed != 0 {
            let p = allowed.trailing_zeros() as usize;
            allowed &= allowed - 1;
            let cost = cost_row[outs[p] as usize];
            if cost == C::INF {
                continue;
            }
            any |= 1 << p;
            if cost < best {
                best = cost;
                min = 1 << p;
            } else if cost == best {
                min |= 1 << p;
            }
        }
        (min, any)
    }

    /// Minimal legal output ports for a packet to `t` at node `v` arriving
    /// on `slot` ([`INJECTION_SLOT`] or `input port + 1`). Zero only for
    /// (slot, destination) combinations that cannot occur on minimal routes.
    #[inline]
    pub fn candidates(&self, t: NodeId, v: NodeId, slot: usize) -> u16 {
        self.candidate_masks(t, v, slot).0
    }

    /// Every turn-legal output port with a finite remaining cost to `t` —
    /// the candidate set for *non-minimal* (misrouting) modes. Both
    /// algorithms in the paper are non-minimal adaptive; the simulator's
    /// `misroute_patience` option uses this mask as the escape set.
    /// Always a superset of [`RoutingTables::candidates`].
    #[inline]
    pub fn candidates_any(&self, t: NodeId, v: NodeId, slot: usize) -> u16 {
        self.candidate_masks(t, v, slot).1
    }

    /// Hop count (number of channels) of a minimal legal route from `s` to
    /// `t` — the least cost over `s`'s output channels; `0` when `s == t`
    /// and `u16::MAX` when `t` is unreachable.
    pub fn route_len(&self, cg: &CommGraph, s: NodeId, t: NodeId) -> u16 {
        if s == t {
            return 0;
        }
        let outs = cg.channels().outputs(s).iter();
        outs.map(|&c| self.cost(t, c)).min().unwrap_or(u16::MAX)
    }

    /// Extracts one concrete minimal route (sequence of channels) from `s`
    /// to `t`, always taking the lowest-numbered candidate port
    /// ([`lowest_port_route`] over `t`'s cost row and the turn rows).
    ///
    /// # Panics
    ///
    /// Panics if `t` is unreachable from `s`.
    pub fn route(&self, cg: &CommGraph, s: NodeId, t: NodeId) -> Vec<ChannelId> {
        let ch = cg.channels();
        let row =
            t as usize * self.num_channels as usize..(t as usize + 1) * self.num_channels as usize;
        let turn = |v: NodeId, slot: usize| self.turn[v as usize * self.slots + slot];
        match &self.cost {
            Costs::Narrow(cost) => lowest_port_route(ch, &cost[row], turn, s, t),
            Costs::Wide(cost) => lowest_port_route(ch, &cost[row], turn, s, t),
        }
        .unwrap_or_else(|| panic!("route extraction from {s} to {t} hit a dead end"))
    }

    /// Average and longest minimal route length over all ordered pairs
    /// `s != t`, as [`RoutingTables::route_len`] gives them (an unreachable
    /// pair counts `u16::MAX`), in one destination-major pass: each cost
    /// row is read once, in channel order, into the least cost out of each
    /// switch. `(0.0, 0)` below two switches.
    pub fn route_len_stats(&self, cg: &CommGraph) -> (f64, u16) {
        if self.num_nodes < 2 {
            return (0.0, 0);
        }
        match &self.cost {
            Costs::Narrow(cost) => self.route_len_stats_in(cost, cg),
            Costs::Wide(cost) => self.route_len_stats_in(cost, cg),
        }
    }

    /// [`RoutingTables::route_len_stats`] over `cost` cells of one width.
    fn route_len_stats_in<C: Cost>(&self, cost: &[C], cg: &CommGraph) -> (f64, u16) {
        let ch = cg.channels();
        let n = self.num_nodes as usize;
        let start: Vec<usize> = (0..self.num_channels)
            .map(|c| ch.start(c) as usize)
            .collect();
        let mut best = vec![C::INF; n];
        let (mut sum, mut max) = (0u64, 0u16);
        for (t, row) in cost.chunks_exact(self.num_channels as usize).enumerate() {
            best.fill(C::INF);
            for (&cell, &s) in row.iter().zip(&start) {
                best[s] = best[s].min(cell);
            }
            for (s, &b) in best.iter().enumerate() {
                if s != t {
                    sum += u64::from(b.get());
                    max = max.max(b.get());
                }
            }
        }
        (sum as f64 / (n as u64 * (n as u64 - 1)) as f64, max)
    }
}

/// The per-destination repair of [`RoutingTables::patch_masked`]: the
/// turn-table delta, the new dependency graph and its transpose, and
/// scratch stamped by `t + 1` so nothing is cleared between destinations.
struct Patch<'a> {
    ch: &'a ChannelTable,
    dep: ChannelDepGraph,
    preds: Preds,
    removed: Vec<(ChannelId, ChannelId)>,
    added: Vec<(ChannelId, ChannelId)>,
    turn_dirty_nodes: Vec<NodeId>,
    dead_channel: &'a [bool],
    alive_node: &'a [bool],
    newly_dead_channels: &'a [ChannelId],
    newly_dead_nodes: &'a [NodeId],
    /// `saved_*` records each channel's pre-patch cost the first time it
    /// is overwritten; the final changed set is the records whose value
    /// really differs.
    saved_gen: Vec<u32>,
    saved_val: Vec<u16>,
    saved_list: Vec<ChannelId>,
    node_gen: Vec<u32>,
    dirty_nodes: Vec<NodeId>,
    switch_touched: Vec<bool>,
    queue: Vec<ChannelId>,
    invalidated: Vec<ChannelId>,
    heap: BinaryHeap<Reverse<(u16, ChannelId)>>,
    stats: PatchStats,
}

impl Patch<'_> {
    /// Records `c`'s pre-patch cost `cost` unless already recorded for
    /// the destination stamped `gen`.
    fn save(&mut self, gen: u32, c: ChannelId, cost: u16) {
        if self.saved_gen[c as usize] != gen {
            self.saved_gen[c as usize] = gen;
            self.saved_val[c as usize] = cost;
            self.saved_list.push(c);
        }
    }

    /// Repairs destination `t`'s row. Stops with [`Stop::Overflow`] when a
    /// lowered cost does not fit the cell width, before it touches the
    /// statistics; [`Patch::restore`] then undoes the row.
    fn dest<C: Cost>(&mut self, t: NodeId, row: &mut [C]) -> Result<(), Stop> {
        let (ch, dead_channel, alive_node) = (self.ch, self.dead_channel, self.alive_node);
        if !alive_node[t as usize] {
            // A newly dead destination surrenders its whole row;
            // previously dead destinations are already blank.
            if self.newly_dead_nodes.contains(&t) {
                row.fill(C::INF);
            }
            return Ok(());
        }
        let gen = t + 1;
        self.saved_list.clear();
        self.invalidated.clear();
        self.queue.clear();

        // Suspect seeds: a removed edge (u, v) only matters where it
        // carried u's shortest path — evaluated against the *pre-patch*
        // costs, before newly dead channels are zapped below.
        for &(u, v) in &self.removed {
            if dead_channel[u as usize] {
                continue;
            }
            let (cu, cv) = (row[u as usize], row[v as usize]);
            if cu != C::INF && cv != C::INF && cu.get() == cv.get() + 1 {
                self.queue.push(u);
            }
        }
        for &d in self.newly_dead_channels {
            let cd = row[d as usize];
            if cd != C::INF {
                self.save(gen, d, cd.get());
                row[d as usize] = C::INF;
            }
        }

        // Invalidate: a channel keeps its cost only while some
        // successor still supports it at cost − 1. Invalidating a
        // supporter re-enqueues its dependents, so the cascade reaches
        // a fixpoint even when support chains are examined out of
        // order (support sums of +1 cannot cycle).
        while let Some(p) = self.queue.pop() {
            let cp = row[p as usize];
            if cp == C::INF || dead_channel[p as usize] || ch.sink(p) == t {
                continue; // settled, dead, or an always-cost-1 seed
            }
            let cp = cp.get();
            let supported = self.dep.successors(p).iter().any(|&s| {
                let cs = row[s as usize];
                cs != C::INF && cs.get() + 1 == cp
            });
            if supported {
                continue;
            }
            self.save(gen, p, cp);
            row[p as usize] = C::INF;
            self.invalidated.push(p);
            for &q in self.preds.of(p) {
                if row[q as usize].get() == cp + 1 {
                    self.queue.push(q);
                }
            }
        }

        // Decrease: every finite cost left standing is an achievable
        // upper bound, so the exact costs are reached by lowering alone.
        // A cost can drop only where a channel's support crosses into
        // the invalidated region or runs over an added edge: seed each
        // invalidated channel from its best successor, each added edge
        // where it improves, and relax predecessors to the fixpoint.
        // Previously unreachable channels are just `INF` costs to lower.
        self.heap.clear();
        for &u in &self.invalidated {
            let best = self
                .dep
                .successors(u)
                .iter()
                .map(|&s| row[s as usize])
                .min();
            if let Some(cs) = best.filter(|&c| c != C::INF) {
                self.heap.push(Reverse((cs.get() + 1, u)));
            }
        }
        for &(u, v) in &self.added {
            let cv = row[v as usize];
            if cv != C::INF && cv.get() + 1 < row[u as usize].get() {
                self.heap.push(Reverse((cv.get() + 1, u)));
            }
        }
        while let Some(Reverse((d, u))) = self.heap.pop() {
            let cu = row[u as usize].get();
            if d >= cu {
                continue;
            }
            self.save(gen, u, cu);
            row[u as usize] = C::fit(d).ok_or(Stop::Overflow)?;
            for &q in self.preds.of(u) {
                if d + 1 < row[q as usize].get() {
                    self.heap.push(Reverse((d + 1, q)));
                }
            }
        }

        // Dirty switches: a changed output-channel cost or a changed
        // turn mask changes the derived candidate masks; nothing else
        // can.
        self.dirty_nodes.clear();
        let mut changed_any = false;
        for &c in &self.saved_list {
            if row[c as usize].get() != self.saved_val[c as usize] {
                changed_any = true;
                self.stats.changed_costs += 1;
                let v = ch.start(c);
                if alive_node[v as usize] && v != t && self.node_gen[v as usize] != gen {
                    self.node_gen[v as usize] = gen;
                    self.dirty_nodes.push(v);
                }
            }
        }
        for &v in &self.turn_dirty_nodes {
            if alive_node[v as usize] && v != t && self.node_gen[v as usize] != gen {
                self.node_gen[v as usize] = gen;
                self.dirty_nodes.push(v);
            }
        }
        if changed_any || !self.dirty_nodes.is_empty() {
            self.stats.touched_destinations += 1;
        }

        // Re-check the dirty rows' connectivity as the full build does.
        for &v in &self.dirty_nodes {
            self.stats.touched_rows += 1;
            if !self.switch_touched[v as usize] {
                self.switch_touched[v as usize] = true;
                self.stats.touched_switches += 1;
            }
            if !reaches(ch.outputs(v), row) {
                return Err(RoutingError::Disconnected { src: v, dst: t }.into());
            }
        }
        Ok(())
    }

    /// Puts back, into the widened `row`, the pre-patch costs an
    /// overflowed [`Patch::dest`] pass overwrote, and forgets the records,
    /// so the destination can be redone in full.
    fn restore(&mut self, row: &mut [u16]) {
        for &c in &self.saved_list {
            row[c as usize] = self.saved_val[c as usize];
            self.saved_gen[c as usize] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irnet_topology::{gen, CommGraph, CoordinatedTree, PreorderPolicy};

    fn cg_of(topo: &irnet_topology::Topology) -> CommGraph {
        let tree = CoordinatedTree::build(topo, PreorderPolicy::M1, 0).unwrap();
        CommGraph::build(topo, &tree)
    }

    #[test]
    fn unrestricted_routing_matches_graph_distance() {
        let topo = gen::mesh(4, 4).unwrap();
        let cg = cg_of(&topo);
        let table = TurnTable::all_allowed(&cg);
        let rt = RoutingTables::build(&cg, &table).unwrap();
        // In a mesh with all turns allowed, route lengths equal Manhattan
        // distance.
        let id = |x: u32, y: u32| y * 4 + x;
        assert_eq!(rt.route_len(&cg, id(0, 0), id(3, 3)), 6);
        assert_eq!(rt.route_len(&cg, id(1, 1), id(1, 2)), 1);
        assert_eq!(rt.route_len(&cg, id(2, 2), id(2, 2)), 0);
    }

    #[test]
    fn routes_are_consistent_with_costs() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(20, 4), 3).unwrap();
        let cg = cg_of(&topo);
        let table = TurnTable::all_allowed(&cg);
        let rt = RoutingTables::build(&cg, &table).unwrap();
        let ch = cg.channels();
        for s in 0..topo.num_nodes() {
            for t in 0..topo.num_nodes() {
                if s == t {
                    continue;
                }
                let path = rt.route(&cg, s, t);
                assert_eq!(path.len() as u16, rt.route_len(&cg, s, t));
                // Path is connected and ends at t.
                let mut v = s;
                for &c in &path {
                    assert_eq!(ch.start(c), v);
                    v = ch.sink(c);
                }
                assert_eq!(v, t);
            }
        }
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        for seed in 0..4u64 {
            let topo = gen::random_irregular(gen::IrregularParams::paper(48, 4), seed).unwrap();
            let cg = cg_of(&topo);
            let table = TurnTable::from_direction_rule(&cg, |din, dout| {
                !(din.goes_down() && dout.goes_up())
            });
            let serial = RoutingTables::build_with_threads(&cg, &table, 1).unwrap();
            for threads in [2, 3, 5, 8] {
                let par = RoutingTables::build_with_threads(&cg, &table, threads).unwrap();
                assert_eq!(serial, par, "threads={threads} seed={seed}");
            }
            // The auto-threaded default path must agree too.
            assert_eq!(serial, RoutingTables::build(&cg, &table).unwrap());
        }
    }

    #[test]
    fn parallel_build_reports_the_serial_error() {
        // Prohibiting every turn leaves only single-hop routes, so the
        // first multi-hop pair in (dst, src) scan order is the witness.
        let topo = gen::random_irregular(gen::IrregularParams::paper(40, 4), 9).unwrap();
        let cg = cg_of(&topo);
        let table = TurnTable::from_direction_rule(&cg, |_, _| false);
        let serial = RoutingTables::build_with_threads(&cg, &table, 1).unwrap_err();
        for threads in [2, 3, 8] {
            let par = RoutingTables::build_with_threads(&cg, &table, threads).unwrap_err();
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn turn_restrictions_can_lengthen_routes() {
        // A ring restricted to "clockwise after clockwise only" forces long
        // ways around for some pairs.
        let topo = gen::ring(6).unwrap();
        let cg = cg_of(&topo);
        let free = RoutingTables::build(&cg, &TurnTable::all_allowed(&cg)).unwrap();
        // up*/down*-like rule on the ring: never follow a down channel with
        // an up channel.
        let restricted =
            TurnTable::from_direction_rule(&cg, |din, dout| !(din.goes_down() && dout.goes_up()));
        let rt = RoutingTables::build(&cg, &restricted).unwrap();
        let (avg, max) = rt.route_len_stats(&cg);
        let (free_avg, free_max) = free.route_len_stats(&cg);
        assert!(avg >= free_avg);
        assert!(max >= free_max);
    }

    /// The one-pass statistics equal the pairwise `route_len` walk, over
    /// one-byte and two-byte cost cells.
    #[test]
    fn route_len_stats_match_the_pairwise_walk() {
        let rings = [gen::ring(254).unwrap(), gen::ring(255).unwrap()];
        let irregular = gen::random_irregular(gen::IrregularParams::paper(40, 4), 3).unwrap();
        for topo in rings.iter().chain([&irregular]) {
            let cg = cg_of(topo);
            let rt = RoutingTables::build(&cg, &TurnTable::all_allowed(&cg)).unwrap();
            let n = topo.num_nodes();
            let lens: Vec<u16> = (0..n)
                .flat_map(|s| (0..n).filter(move |&t| t != s).map(move |t| (s, t)))
                .map(|(s, t)| rt.route_len(&cg, s, t))
                .collect();
            let sum: u64 = lens.iter().map(|&l| u64::from(l)).sum();
            let want = (sum as f64 / lens.len() as f64, *lens.iter().max().unwrap());
            assert_eq!(rt.route_len_stats(&cg), want, "{n} switches");
        }
        let single = irnet_topology::Topology::new(1, 2, []).unwrap();
        let cg = cg_of(&single);
        let rt = RoutingTables::build(&cg, &TurnTable::all_allowed(&cg)).unwrap();
        assert_eq!(rt.route_len_stats(&cg), (0.0, 0));
    }

    #[test]
    fn disconnection_is_reported() {
        // Prohibit every turn: on a path graph of 3 nodes, node 0 cannot
        // reach node 2 (the middle node would need a turn).
        let topo = irnet_topology::Topology::new(3, 2, [(0, 1), (1, 2)]).unwrap();
        let cg = cg_of(&topo);
        let table = TurnTable::from_direction_rule(&cg, |_, _| false);
        // Same-direction transitions are always allowed; on this path the
        // two hops 0->1->2 share a direction only if both links point the
        // same way in the tree. Build and inspect.
        match RoutingTables::build(&cg, &table) {
            Ok(rt) => {
                // If it built, connectivity must genuinely hold.
                assert_ne!(rt.candidates(2, 0, INJECTION_SLOT), 0);
            }
            Err(RoutingError::Disconnected { .. }) => {}
        }
        // A truly disconnecting table: prohibit every pair at node 1
        // explicitly.
        let mut hard = TurnTable::all_allowed(&cg);
        let ch = cg.channels();
        for &in_ch in ch.inputs(1) {
            for &out_ch in ch.outputs(1) {
                if out_ch != ch.reverse(in_ch) {
                    hard.prohibit(&cg, in_ch, out_ch);
                }
            }
        }
        assert!(matches!(
            RoutingTables::build(&cg, &hard),
            Err(RoutingError::Disconnected { .. })
        ));
    }

    #[test]
    fn masked_build_with_no_faults_matches_plain_build() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(20, 4), 3).unwrap();
        let cg = cg_of(&topo);
        let table = TurnTable::all_allowed(&cg);
        let plain = RoutingTables::build(&cg, &table).unwrap();
        let dead = vec![false; cg.num_channels() as usize];
        let alive = vec![true; cg.num_nodes() as usize];
        let masked = RoutingTables::build_masked(&cg, &table, &dead, &alive).unwrap();
        for t in 0..topo.num_nodes() {
            for c in 0..cg.num_channels() {
                assert_eq!(plain.cost(t, c), masked.cost(t, c));
            }
            for v in 0..topo.num_nodes() {
                for slot in 0..plain.slots() {
                    assert_eq!(plain.candidates(t, v, slot), masked.candidates(t, v, slot));
                    assert_eq!(
                        plain.candidates_any(t, v, slot),
                        masked.candidates_any(t, v, slot)
                    );
                }
            }
        }
    }

    #[test]
    fn masked_build_excludes_dead_channels_everywhere() {
        // Square 0-1-2-3-0 with a diagonal 1-3; kill the diagonal.
        let topo =
            irnet_topology::Topology::new(4, 4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]).unwrap();
        let cg = cg_of(&topo);
        let ch = cg.channels();
        let table = TurnTable::all_allowed(&cg);
        let l = topo.link_between(1, 3).unwrap();
        let mut dead = vec![false; cg.num_channels() as usize];
        dead[2 * l as usize] = true;
        dead[2 * l as usize + 1] = true;
        let alive = vec![true; 4];
        let rt = RoutingTables::build_masked(&cg, &table, &dead, &alive).unwrap();
        // No candidate mask — injection or transit, minimal or any — may
        // contain a dead output port.
        for t in 0..4u32 {
            for v in 0..4u32 {
                if t == v {
                    continue;
                }
                for slot in 0..rt.slots() {
                    let any = rt.candidates_any(t, v, slot);
                    for (p, &c) in ch.outputs(v).iter().enumerate() {
                        if dead[c as usize] {
                            assert_eq!((any >> p) & 1, 0, "dead channel {c} in mask");
                        }
                    }
                }
            }
        }
        // 1 -> 3 must now detour through 0 or 2: two hops instead of one.
        assert_eq!(rt.route_len(&cg, 1, 3), 2);
        // Unmasked, the diagonal is a one-hop route.
        let free = RoutingTables::build(&cg, &table).unwrap();
        assert_eq!(free.route_len(&cg, 1, 3), 1);
    }

    #[test]
    fn masked_build_skips_dead_nodes() {
        // Path 0-1-2 plus 0-2 chord: node 1 dies, 0<->2 still routable.
        let topo = irnet_topology::Topology::new(3, 4, [(0, 1), (1, 2), (0, 2)]).unwrap();
        let cg = cg_of(&topo);
        let table = TurnTable::all_allowed(&cg);
        let mut dead = vec![false; cg.num_channels() as usize];
        for l in [
            topo.link_between(0, 1).unwrap(),
            topo.link_between(1, 2).unwrap(),
        ] {
            dead[2 * l as usize] = true;
            dead[2 * l as usize + 1] = true;
        }
        let alive = vec![true, false, true];
        let rt = RoutingTables::build_masked(&cg, &table, &dead, &alive).unwrap();
        assert_eq!(rt.route_len(&cg, 0, 2), 1);
        // Dead destination: no masks at all.
        assert_eq!(rt.candidates(1, 0, INJECTION_SLOT), 0);
        assert_eq!(rt.candidates_any(1, 0, INJECTION_SLOT), 0);
        // Disconnecting the alive pair is still an error.
        let mut all_dead = vec![true; cg.num_channels() as usize];
        let chord = topo.link_between(0, 2).unwrap();
        all_dead[2 * chord as usize] = false;
        // Reverse of the chord stays dead: 2 cannot reach 0.
        let err = RoutingTables::build_masked(&cg, &table, &all_dead, &alive).unwrap_err();
        assert!(matches!(err, RoutingError::Disconnected { .. }));
    }

    #[test]
    fn any_mask_is_a_superset_of_minimal_mask() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(20, 4), 5).unwrap();
        let cg = cg_of(&topo);
        let table =
            TurnTable::from_direction_rule(&cg, |din, dout| !(din.goes_down() && dout.goes_up()));
        let rt = RoutingTables::build(&cg, &table).unwrap();
        let ch = cg.channels();
        let mut strictly_larger_somewhere = false;
        for t in 0..topo.num_nodes() {
            for v in 0..topo.num_nodes() {
                if t == v {
                    continue;
                }
                for slot in 0..=ch.inputs(v).len() {
                    let min = rt.candidates(t, v, slot);
                    let any = rt.candidates_any(t, v, slot);
                    assert_eq!(any & min, min, "minimal not within any");
                    if any != min {
                        strictly_larger_somewhere = true;
                    }
                }
            }
        }
        assert!(
            strictly_larger_somewhere,
            "non-minimal options never exist?"
        );
    }

    /// Element-wise equality of two tables over every stored array.
    fn assert_tables_equal(a: &RoutingTables, b: &RoutingTables, ctx: &str) {
        assert_eq!(a.num_nodes, b.num_nodes, "{ctx}: num_nodes");
        assert_eq!(a.num_channels, b.num_channels, "{ctx}: num_channels");
        assert_eq!(a.slots, b.slots, "{ctx}: slots");
        assert_eq!(a.cost, b.cost, "{ctx}: cost");
        assert_eq!(a.out_ch, b.out_ch, "{ctx}: out_ch");
        assert_eq!(a.turn, b.turn, "{ctx}: turn");
    }

    /// Reference oracle: an explicit per-slot fill (least turn-legal cost,
    /// then the ports at it and the ports of any finite cost) over the
    /// costs of a fresh `build_masked`, independent of `candidate_masks`.
    /// Returns `(minimal, any)` masks laid out
    /// `[(t * n + v) * slots + slot]`.
    fn reference_masks(
        cg: &CommGraph,
        table: &TurnTable,
        dead: &[bool],
        alive: &[bool],
    ) -> (Vec<u16>, Vec<u16>) {
        let rt = RoutingTables::build_masked(cg, table, dead, alive).unwrap();
        let (n, slots, ch) = (cg.num_nodes(), rt.slots(), cg.channels());
        let mut port_mask = vec![0u16; n as usize * n as usize * slots];
        let mut any_mask = port_mask.clone();
        for t in 0..n {
            if !alive[t as usize] {
                continue;
            }
            for v in 0..n {
                if v == t || !alive[v as usize] {
                    continue;
                }
                let outs = ch.outputs(v);
                let mbase = (t as usize * n as usize + v as usize) * slots;
                // Injection slot: every output is turn-legal.
                let all = ((1u32 << outs.len()) - 1) as u16;
                let allowed_of = |slot: usize| match slot {
                    INJECTION_SLOT => all,
                    s => table.mask(v, (s - 1) as u8),
                };
                for slot in 0..=ch.inputs(v).len() {
                    let allowed = allowed_of(slot);
                    let mut best = u16::MAX;
                    for (p, &c) in outs.iter().enumerate() {
                        if (allowed >> p) & 1 == 1 {
                            best = best.min(rt.cost(t, c));
                        }
                    }
                    if best == u16::MAX {
                        continue;
                    }
                    for (p, &c) in outs.iter().enumerate() {
                        if (allowed >> p) & 1 == 1 {
                            if rt.cost(t, c) == best {
                                port_mask[mbase + slot] |= 1 << p;
                            }
                            if rt.cost(t, c) != u16::MAX {
                                any_mask[mbase + slot] |= 1 << p;
                            }
                        }
                    }
                }
            }
        }
        (port_mask, any_mask)
    }

    /// `rt`'s derived masks equal the oracle's at every `(t, v, slot)`.
    fn assert_matches_reference(
        rt: &RoutingTables,
        cg: &CommGraph,
        table: &TurnTable,
        dead: &[bool],
        alive: &[bool],
        ctx: &str,
    ) {
        let (port_mask, any_mask) = reference_masks(cg, table, dead, alive);
        let (n, slots) = (cg.num_nodes(), rt.slots());
        for t in 0..n {
            for v in 0..n {
                for slot in 0..slots {
                    let i = (t as usize * n as usize + v as usize) * slots + slot;
                    let at = format!("{ctx}: t {t} v {v} slot {slot}");
                    assert_eq!(rt.candidates(t, v, slot), port_mask[i], "{at}: minimal");
                    assert_eq!(rt.candidates_any(t, v, slot), any_mask[i], "{at}: any");
                }
            }
        }
    }

    /// `rule` restricted to pairs of channels that are both alive — the
    /// same lift the repair layer produces.
    fn lifted(cg: &CommGraph, rule: &TurnTable, dead: &[bool]) -> TurnTable {
        TurnTable::from_channel_rule(cg, |i, o| {
            !dead[i as usize] && !dead[o as usize] && rule.is_allowed(cg, i, o)
        })
    }

    #[test]
    fn patch_masked_matches_rebuild_over_cumulative_link_deaths() {
        for seed in 0..4u64 {
            let topo = gen::random_irregular(gen::IrregularParams::paper(20, 4), seed).unwrap();
            let cg = cg_of(&topo);
            let rule = TurnTable::all_allowed(&cg);
            let nch = cg.num_channels() as usize;
            let mut dead = vec![false; nch];
            let alive = vec![true; cg.num_nodes() as usize];
            let mut old_table = lifted(&cg, &rule, &dead);
            let mut patched = RoutingTables::build_masked(&cg, &old_table, &dead, &alive).unwrap();
            // Kill links one at a time (skipping those that would
            // disconnect the graph) and patch after each death.
            let mut killed = 0;
            for l in 0..topo.num_links() {
                let mut next_dead = dead.clone();
                next_dead[2 * l as usize] = true;
                next_dead[2 * l as usize + 1] = true;
                let new_table = lifted(&cg, &rule, &next_dead);
                let fresh = match RoutingTables::build_masked(&cg, &new_table, &next_dead, &alive) {
                    Ok(t) => t,
                    Err(RoutingError::Disconnected { .. }) => continue,
                };
                let newly = [2 * l, 2 * l + 1];
                let stats = patched
                    .patch_masked(&cg, &old_table, &new_table, &next_dead, &alive, &newly, &[])
                    .unwrap();
                assert!(stats.removed_edges > 0, "seed {seed} link {l}: no delta");
                assert_tables_equal(&patched, &fresh, &format!("seed {seed} link {l}"));
                dead = next_dead;
                old_table = new_table;
                killed += 1;
                if killed == 4 {
                    break;
                }
            }
            assert!(killed > 0, "seed {seed}: no killable link");
        }
    }

    #[test]
    fn patch_masked_applies_pure_turn_deltas_both_ways() {
        // No deaths at all: the delta is purely prohibitions (removed
        // edges) one way and releases (added edges) the other.
        let topo = gen::random_irregular(gen::IrregularParams::paper(20, 4), 9).unwrap();
        let cg = cg_of(&topo);
        let open = TurnTable::all_allowed(&cg);
        let restricted =
            TurnTable::from_direction_rule(&cg, |din, dout| !(din.goes_down() && dout.goes_up()));
        let dead = vec![false; cg.num_channels() as usize];
        let alive = vec![true; cg.num_nodes() as usize];

        // open -> restricted: removals only.
        let mut rt = RoutingTables::build_masked(&cg, &open, &dead, &alive).unwrap();
        let fresh = RoutingTables::build_masked(&cg, &restricted, &dead, &alive).unwrap();
        let stats = rt
            .patch_masked(&cg, &open, &restricted, &dead, &alive, &[], &[])
            .unwrap();
        assert!(stats.removed_edges > 0 && stats.added_edges == 0);
        assert_tables_equal(&rt, &fresh, "open -> restricted");

        // restricted -> open: additions only (cost decreases).
        let fresh_open = RoutingTables::build_masked(&cg, &open, &dead, &alive).unwrap();
        let stats = rt
            .patch_masked(&cg, &restricted, &open, &dead, &alive, &[], &[])
            .unwrap();
        assert!(stats.added_edges > 0 && stats.removed_edges == 0);
        assert_tables_equal(&rt, &fresh_open, "restricted -> open");
    }

    #[test]
    fn patch_masked_handles_simultaneous_deaths_and_releases() {
        // The regression shape real repairs produce: a link dies (removed
        // edges) while the replacement table also *releases* turns (added
        // edges) in the same delta. An invalidated channel can then
        // re-settle below its pre-patch cost via an added edge, and that
        // decrease must still reach its never-invalidated predecessors.
        for seed in 0..6u64 {
            let topo = gen::random_irregular(gen::IrregularParams::paper(20, 4), seed).unwrap();
            let cg = cg_of(&topo);
            let restricted = TurnTable::from_direction_rule(&cg, |din, dout| {
                !(din.goes_down() && dout.goes_up())
            });
            let open = TurnTable::all_allowed(&cg);
            let nch = cg.num_channels() as usize;
            let no_dead = vec![false; nch];
            let alive = vec![true; cg.num_nodes() as usize];
            let old_table = lifted(&cg, &restricted, &no_dead);
            let before = RoutingTables::build_masked(&cg, &old_table, &no_dead, &alive).unwrap();
            let mut tested = 0;
            for l in 0..topo.num_links() {
                let mut dead = no_dead.clone();
                dead[2 * l as usize] = true;
                dead[2 * l as usize + 1] = true;
                // Widen the rule while the link dies: removals + additions.
                let new_table = lifted(&cg, &open, &dead);
                let fresh = match RoutingTables::build_masked(&cg, &new_table, &dead, &alive) {
                    Ok(t) => t,
                    Err(RoutingError::Disconnected { .. }) => continue,
                };
                let mut patched = before.clone();
                let stats = patched
                    .patch_masked(
                        &cg,
                        &old_table,
                        &new_table,
                        &dead,
                        &alive,
                        &[2 * l, 2 * l + 1],
                        &[],
                    )
                    .unwrap();
                assert!(stats.removed_edges > 0 && stats.added_edges > 0);
                assert_tables_equal(&patched, &fresh, &format!("seed {seed} link {l}"));
                tested += 1;
                if tested == 3 {
                    break;
                }
            }
            assert!(tested > 0, "seed {seed}: no killable link");
        }
    }

    #[test]
    fn patch_masked_matches_rebuild_after_a_switch_death() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(20, 4), 3).unwrap();
        let cg = cg_of(&topo);
        let rule = TurnTable::all_allowed(&cg);
        let nch = cg.num_channels() as usize;
        let no_dead = vec![false; nch];
        let all_alive = vec![true; cg.num_nodes() as usize];
        let old_table = lifted(&cg, &rule, &no_dead);
        for node in 0..topo.num_nodes() {
            let mut dead = no_dead.clone();
            let mut newly_ch = Vec::new();
            for &(_, l) in topo.neighbors(node) {
                dead[2 * l as usize] = true;
                dead[2 * l as usize + 1] = true;
                newly_ch.push(2 * l);
                newly_ch.push(2 * l + 1);
            }
            let mut alive = all_alive.clone();
            alive[node as usize] = false;
            let new_table = lifted(&cg, &rule, &dead);
            let fresh = match RoutingTables::build_masked(&cg, &new_table, &dead, &alive) {
                Ok(t) => t,
                Err(RoutingError::Disconnected { .. }) => continue,
            };
            let mut patched =
                RoutingTables::build_masked(&cg, &old_table, &no_dead, &all_alive).unwrap();
            patched
                .patch_masked(
                    &cg,
                    &old_table,
                    &new_table,
                    &dead,
                    &alive,
                    &newly_ch,
                    &[node],
                )
                .unwrap();
            assert_tables_equal(&patched, &fresh, &format!("dead switch {node}"));
            return; // one removable switch suffices
        }
        panic!("no removable switch found");
    }

    #[test]
    fn patch_masked_reports_disconnection_like_the_full_build() {
        // Path 0-1-2: killing either link cuts an alive pair.
        let topo = irnet_topology::Topology::new(3, 2, [(0, 1), (1, 2)]).unwrap();
        let cg = cg_of(&topo);
        let rule = TurnTable::all_allowed(&cg);
        let no_dead = vec![false; cg.num_channels() as usize];
        let alive = vec![true; 3];
        let old_table = lifted(&cg, &rule, &no_dead);
        let mut rt = RoutingTables::build_masked(&cg, &old_table, &no_dead, &alive).unwrap();
        let mut dead = no_dead;
        dead[0] = true;
        dead[1] = true;
        let new_table = lifted(&cg, &rule, &dead);
        let err = rt
            .patch_masked(&cg, &old_table, &new_table, &dead, &alive, &[0, 1], &[])
            .unwrap_err();
        assert!(matches!(err, RoutingError::Disconnected { .. }));
    }

    #[test]
    fn candidate_masks_only_contain_minimal_ports() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 8).unwrap();
        let cg = cg_of(&topo);
        let nch = cg.num_channels() as usize;
        let no_dead = vec![false; nch];
        let all_alive = vec![true; cg.num_nodes() as usize];
        let open = TurnTable::all_allowed(&cg);
        let down_up =
            TurnTable::from_direction_rule(&cg, |din, dout| !(din.goes_down() && dout.goes_up()));
        for (table, name) in [(&open, "all-allowed"), (&down_up, "down/up rule")] {
            let rt = RoutingTables::build(&cg, table).unwrap();
            assert_matches_reference(&rt, &cg, table, &no_dead, &all_alive, name);
        }

        // A degraded fabric under the lifted DOWN/UP rule: one dead switch
        // (with its links) plus two further dead links, the first choices
        // that keep the survivors connected.
        let degrade = |victim: NodeId, links: &[u32]| {
            let mut dead = no_dead.clone();
            let adjacent = topo.neighbors(victim).iter().map(|&(_, l)| l);
            for l in adjacent.chain(links.iter().copied()) {
                dead[2 * l as usize] = true;
                dead[2 * l as usize + 1] = true;
            }
            let mut alive = all_alive.clone();
            alive[victim as usize] = false;
            let table = lifted(&cg, &down_up, &dead);
            let ok = RoutingTables::build_masked(&cg, &table, &dead, &alive).is_ok();
            (ok, dead, alive, table)
        };
        let victim = (0..topo.num_nodes())
            .find(|&v| degrade(v, &[]).0)
            .expect("some switch is removable");
        let mut links = Vec::new();
        for l in 0..topo.num_links() {
            let adjacent = topo.neighbors(victim).iter().any(|&(_, a)| a == l);
            if links.len() < 2 && !adjacent && degrade(victim, &[&links[..], &[l]].concat()).0 {
                links.push(l);
            }
        }
        assert_eq!(links.len(), 2, "no two killable links");
        let (_, dead, alive, degraded) = degrade(victim, &links);
        let newly_ch: Vec<ChannelId> = (0..nch as u32).filter(|&c| dead[c as usize]).collect();
        let masked = RoutingTables::build_masked(&cg, &degraded, &dead, &alive).unwrap();
        assert_matches_reference(&masked, &cg, &degraded, &dead, &alive, "build_masked");

        // The same degradation reached by patching the pristine tables.
        let old_table = lifted(&cg, &down_up, &no_dead);
        let mut patched =
            RoutingTables::build_masked(&cg, &old_table, &no_dead, &all_alive).unwrap();
        patched
            .patch_masked(
                &cg,
                &old_table,
                &degraded,
                &dead,
                &alive,
                &newly_ch,
                &[victim],
            )
            .unwrap();
        assert_matches_reference(&patched, &cg, &degraded, &dead, &alive, "patch_masked");
    }

    #[test]
    fn heap_bytes_is_a_pinned_ledger_with_no_quadratic_mask_arrays() {
        let topo = gen::random_irregular(gen::IrregularParams::paper(16, 4), 8).unwrap();
        let cg = cg_of(&topo);
        let rt = RoutingTables::build(&cg, &TurnTable::all_allowed(&cg)).unwrap();
        let (n, nch, slots) = (16, cg.num_channels() as usize, rt.slots());
        // `cost` (n × channels one-byte cells) plus the per-switch rows:
        // one u32 channel per port and one u16 turn mask per input slot.
        assert_eq!(
            rt.heap_bytes(),
            n * nch + 4 * n * (slots - 1) + 2 * n * slots
        );
        assert_eq!((nch, slots), (64, 5));
        assert_eq!(rt.heap_bytes(), 1440);

        // A cost above 254 takes two-byte cells.
        let topo = gen::ring(255).unwrap();
        let cg = cg_of(&topo);
        let rt = RoutingTables::build(&cg, &down_up_rule(&cg)).unwrap();
        let (n, nch, slots) = (255, cg.num_channels() as usize, rt.slots());
        assert_eq!(
            rt.heap_bytes(),
            2 * n * nch + 4 * n * (slots - 1) + 2 * n * slots
        );
    }

    /// Never a down channel followed by an up channel.
    fn down_up_rule(cg: &CommGraph) -> TurnTable {
        TurnTable::from_direction_rule(cg, |din, dout| !(din.goes_down() && dout.goes_up()))
    }

    /// Largest finite cost in `rt` (0 when there is none).
    fn max_cost(rt: &RoutingTables) -> u16 {
        let all = (0..rt.num_nodes).flat_map(|t| (0..rt.num_channels).map(move |c| rt.cost(t, c)));
        all.filter(|&c| c != u16::MAX).max().unwrap_or(0)
    }

    fn is_narrow(rt: &RoutingTables) -> bool {
        matches!(rt.cost, Costs::Narrow(_))
    }

    #[test]
    fn cell_width_follows_the_largest_finite_cost() {
        // A ring channel pointing away from its destination goes the long
        // way round: n hops. One byte holds finite costs up to 254.
        for (n, narrow) in [(254, true), (255, false)] {
            let topo = gen::ring(n).unwrap();
            let cg = cg_of(&topo);
            let table = down_up_rule(&cg);
            let rt = RoutingTables::build_with_threads(&cg, &table, 1).unwrap();
            assert_eq!(max_cost(&rt), n as u16, "ring({n})");
            assert_eq!(is_narrow(&rt), narrow, "ring({n})");
            assert_eq!(
                rt,
                RoutingTables::build_with_threads(&cg, &table, 2).unwrap()
            );
            let dead = vec![false; cg.num_channels() as usize];
            let alive = vec![true; n as usize];
            assert_matches_reference(&rt, &cg, &table, &dead, &alive, &format!("ring({n})"));
        }
    }

    #[test]
    fn a_wide_build_reports_the_serial_error() {
        // A 300-ring with a pendant switch 300 off switch 299, whose turns
        // into the pendant link are all forbidden: destination 0 needs a
        // cost past 254, and destination 300 is cut off from every switch
        // but 299.
        let mut links: Vec<(u32, u32)> = (0..300).map(|i| (i, (i + 1) % 300)).collect();
        links.push((299, 300));
        let topo = irnet_topology::Topology::new(301, 4, links).unwrap();
        let cg = cg_of(&topo);
        let mut table = TurnTable::all_allowed(&cg);
        let ch = cg.channels();
        let pendant = ch
            .outputs(299)
            .iter()
            .find(|&&c| ch.sink(c) == 300)
            .unwrap();
        for &in_ch in ch.inputs(299) {
            if *pendant != ch.reverse(in_ch) {
                table.prohibit(&cg, in_ch, *pendant);
            }
        }
        let serial = RoutingTables::build_with_threads(&cg, &table, 1).unwrap_err();
        assert_eq!(serial, RoutingError::Disconnected { src: 0, dst: 300 });
        for threads in [2, 3, 8] {
            let par = RoutingTables::build_with_threads(&cg, &table, threads).unwrap_err();
            assert_eq!(serial, par, "threads={threads}");
        }
        // The one-byte pass overflows at destination 0, long before the cut
        // pair, so the error comes from the two-byte pass.
        let preds = Preds::build(&ChannelDepGraph::build(&cg, &table));
        let n = cg.num_nodes();
        let fill = Fill {
            n,
            ch,
            preds,
            dead_channel: None,
            alive_node: None,
        };
        let mut row = vec![u8::INF; cg.num_channels() as usize];
        let overflow = fill.dest(0, &mut row, &mut Vec::new());
        assert!(matches!(overflow, Err(Stop::Overflow)));
    }

    #[test]
    fn patches_widen_and_narrow_the_cells_with_the_costs() {
        // A 300-rung ladder (rails 0..300 and 300..600) plus a shortcut
        // (0, 150) on the first rail: a channel can turn round in any rung
        // square, so costs stay near route lengths, at most 227 with the
        // shortcut and past 254 without it.
        let rungs = 300;
        let mut links = vec![(0, 150)];
        for i in 0..rungs {
            links.push((i, rungs + i));
            if i + 1 < rungs {
                links.extend([(i, i + 1), (rungs + i, rungs + i + 1)]);
            }
        }
        let topo = irnet_topology::Topology::new(2 * rungs, 4, links).unwrap();
        let cg = cg_of(&topo);
        let rule = TurnTable::all_allowed(&cg);
        let no_dead = vec![false; cg.num_channels() as usize];
        let alive = vec![true; cg.num_nodes() as usize];
        let open = lifted(&cg, &rule, &no_dead);
        let pristine = RoutingTables::build_masked(&cg, &open, &no_dead, &alive).unwrap();
        assert_eq!(max_cost(&pristine), 227);
        assert!(is_narrow(&pristine));

        // The shortcut fails: the patch widens mid-pass and still equals
        // the full rebuild.
        let l = topo.link_between(0, 150).unwrap();
        let mut dead = no_dead.clone();
        dead[2 * l as usize] = true;
        dead[2 * l as usize + 1] = true;
        let cut = lifted(&cg, &rule, &dead);
        let full = RoutingTables::build_masked(&cg, &cut, &dead, &alive).unwrap();
        assert!(max_cost(&full) > 254 && !is_narrow(&full));
        let mut patched = pristine.clone();
        patched
            .patch_masked(&cg, &open, &cut, &dead, &alive, &[2 * l, 2 * l + 1], &[])
            .unwrap();
        assert_tables_equal(&patched, &full, "shortcut failed");

        // The shortcut alive but fenced off by the turn table is wide
        // too; releasing its turns is a pure turn delta whose patch
        // narrows back to the pristine tables.
        let mut fenced = RoutingTables::build_masked(&cg, &cut, &no_dead, &alive).unwrap();
        assert!(!is_narrow(&fenced));
        fenced
            .patch_masked(&cg, &cut, &open, &no_dead, &alive, &[], &[])
            .unwrap();
        assert_tables_equal(&fenced, &pristine, "shortcut released");
    }
}
