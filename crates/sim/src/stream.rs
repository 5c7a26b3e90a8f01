//! Streaming drained worms (DESIGN.md §11).
//!
//! Once a worm's header has been ejected, and while its tail still waits
//! in the source queue, the worm holds every register from its source to
//! its destination's ejection port: each channel on its path stays owned
//! until its tail crosses it, the ejection port stays reserved until its
//! tail is delivered, and every flit ahead of the worm in those FIFOs left
//! before its header. With one virtual channel no other packet can enter
//! any of them, the worm draws no random number, and it never arbitrates,
//! so its moves depend only on its own registers.
//!
//! A drain takes such a worm's entries off every worklist and parked set
//! and steps them flit by flit with the engine's own helpers until one
//! clock moves a flit at every stage. From then on every clock does the
//! same until the tail leaves the source (the occupancy of each register
//! is unchanged by such a clock, so the next one finds the same
//! conditions), so the drain skips those clocks and settles them in
//! closed form: every path channel and the ejection port carried one flit
//! per clock, every register holds as many flits as before, each one
//! `span` flits further along the worm. The clock at which the tail leaves
//! the source runs flit by flit again, and the worm goes back on the
//! worklists for its last few flits.

use super::{Simulator, ROUTE_EJECT};

/// A worm the drain owns.
#[derive(Debug, Default)]
pub(super) struct Drain {
    pkt: u32,
    /// The source input (`num_invc + src`).
    src: usize,
    /// The destination node, whose ejection register the worm holds.
    dst: usize,
    /// The path's channels from source to destination. With one virtual
    /// channel, channel `c`'s input FIFO at its sink is input `c`.
    path: Vec<u32>,
    /// `None` while the drain steps the worm flit by flit. `Some((from,
    /// last))` once a clock moved a flit at every stage: clocks
    /// `from..last` are skipped and settled at once, and clock `last`, at
    /// which the tail leaves the source, is stepped again.
    skip: Option<(u32, u32)>,
}

impl Simulator<'_> {
    /// The drains' share of one clock, after the crossbar stage: settles
    /// and steps the live drains, lets go of worms whose tail has left the
    /// source, and takes over the worms whose header was ejected this
    /// clock.
    pub(super) fn stream_clock(&mut self) {
        let mut skipped = false;
        let mut k = 0;
        while k < self.live_drains {
            match self.drains[k].skip {
                Some((_, last)) if self.now < last => {
                    skipped = true;
                    k += 1;
                    continue;
                }
                Some(_) => self.settle(k),
                None => {}
            }
            let steady = self.step_drain(k);
            let d = &self.drains[k];
            let src = d.src - self.num_invc;
            if self.src_queue[src].front() != Some(&d.pkt) {
                // The tail left the source this clock.
                self.release(k);
                continue;
            }
            if steady {
                let left = self.cfg.packet_len - self.src_sent[src];
                self.drains[k].skip = Some((self.now + 1, self.now.saturating_add(left)));
            }
            k += 1;
        }
        // A skipped clock moved a flit at every stage of the worm.
        if skipped {
            self.note_progress();
        }
        if !self.ejected_headers.is_empty() {
            let mut headers = std::mem::take(&mut self.ejected_headers);
            for &pkt in &headers {
                self.hold(pkt);
            }
            headers.clear();
            self.ejected_headers = headers;
        }
    }

    /// Takes over the worm of `pkt`, whose header was ejected this clock,
    /// if its tail is still in the source queue and no reconfiguration is
    /// pending (an epoch may cut the path).
    fn hold(&mut self, pkt: u32) {
        let p = self.packets[pkt as usize];
        if self.src_queue[p.src as usize].front() != Some(&pkt)
            || self.next_reconfig < self.reconfigs.len()
        {
            return;
        }
        if self.live_drains == self.drains.len() {
            self.drains.push(Drain::default());
        }
        let src = self.num_invc + p.src as usize;
        let mut d = std::mem::take(&mut self.drains[self.live_drains]);
        d.pkt = pkt;
        d.src = src;
        d.dst = p.dst as usize;
        d.skip = None;
        d.path.clear();
        let mut i = src;
        loop {
            debug_assert_eq!(self.route_pkt[i], pkt, "input {i} is not on the worm");
            let r = self.route[i];
            if r == ROUTE_EJECT {
                break;
            }
            d.path.push(r);
            i = r as usize;
        }
        debug_assert_eq!(
            self.input_node(i) as usize,
            d.dst,
            "path ends off the target"
        );
        for i in std::iter::once(src).chain(d.path.iter().map(|&c| c as usize)) {
            self.active_in.remove(i);
            self.parked_in.remove(i);
            self.held_in.insert(i);
        }
        for &c in &d.path {
            self.staged_active.remove(c as usize);
            self.parked_link.remove(c as usize);
        }
        self.eject_active.remove(d.dst);
        self.drains[self.live_drains] = d;
        self.live_drains += 1;
    }

    /// Runs one clock of drain `k`'s worm through the engine's stage
    /// helpers, in stage order (links, ejection, crossbar), and reports
    /// whether every stage moved a flit.
    fn step_drain(&mut self, k: usize) -> bool {
        let path = std::mem::take(&mut self.drains[k].path);
        let (src, dst) = (self.drains[k].src, self.drains[k].dst);
        let mut moves = 0;
        for &c in &path {
            let before = self.fifo_len[c as usize];
            self.advance_link(c as usize);
            moves += usize::from(self.fifo_len[c as usize] != before);
        }
        let before = self.delivered_flits_total;
        self.advance_eject(dst);
        moves += usize::from(self.delivered_flits_total != before);
        let before = self.injected_flits_total;
        self.advance_input(src);
        moves += usize::from(self.injected_flits_total != before);
        for &c in &path {
            let before = self.fifo_len[c as usize];
            self.advance_input(c as usize);
            moves += usize::from(self.fifo_len[c as usize] != before);
        }
        // The crossbar moves put the path back on the link and ejection
        // worklists.
        for &c in &path {
            self.staged_active.remove(c as usize);
        }
        self.eject_active.remove(dst);
        let steady = moves == 2 * path.len() + 2;
        self.drains[k].path = path;
        steady
    }

    /// Settles the clocks drain `k` skipped before the current one: each
    /// moved a flit at every stage, so every register keeps its occupancy
    /// and holds the flit `span` places further back in the worm.
    fn settle(&mut self, k: usize) {
        let Some((from, _)) = self.drains[k].skip.take() else {
            return;
        };
        let span = self.now - from;
        if span == 0 {
            return;
        }
        // The last skipped clock: every register's newest flit entered then.
        let newest = self.now - 1;
        let measured = u64::from(self.now.saturating_sub(from.max(self.cfg.warmup_cycles)));
        let path = std::mem::take(&mut self.drains[k].path);
        let (src, dst) = (self.drains[k].src, self.drains[k].dst);
        let depth = self.depth;
        for &c in &path {
            let c = c as usize;
            let staged = self.staged[c].as_mut().expect("steady register is full");
            staged.seq += span;
            staged.time = newest;
            // Position `p` of a FIFO of `len` now holds the flit that was at
            // `p + span`; the last `span` of them entered one per clock.
            let len = self.fifo_len[c];
            let (base, head) = (c * depth, self.fifo_head[c] as usize);
            for p in 0..len {
                let slot = base + (head + p as usize) % depth;
                self.fifo[slot].seq += span;
                self.fifo[slot].time = if span < len - p {
                    self.fifo[base + (head + (p + span) as usize) % depth].time
                } else {
                    newest - (len - 1 - p)
                };
            }
            self.channel_flits[c] += measured;
        }
        let ejecting = self.eject_staged[dst]
            .as_mut()
            .expect("steady ejection register is full");
        ejecting.seq += span;
        ejecting.time = newest;
        self.src_sent[src - self.num_invc] += span;
        self.injected_flits_total += u64::from(span);
        self.delivered_flits_total += u64::from(span);
        self.flits_delivered += measured;
        self.node_flits_delivered[dst] += measured;
        self.work.streamed_moves += u64::from(span) * (2 * path.len() as u64 + 2);
        self.drains[k].path = path;
    }

    /// Puts drain `k`'s worm back on the worklists, by occupancy, and
    /// retires the drain.
    fn release(&mut self, k: usize) {
        let path = std::mem::take(&mut self.drains[k].path);
        let (src, dst) = (self.drains[k].src, self.drains[k].dst);
        for i in std::iter::once(src).chain(path.iter().map(|&c| c as usize)) {
            self.held_in.remove(i);
            if self.peek_head(i).is_some() {
                self.active_in.insert(i);
            }
        }
        for &c in &path {
            if self.staged[c as usize].is_some() {
                self.staged_active.insert(c as usize);
            }
        }
        if self.eject_staged[dst].is_some() {
            self.eject_active.insert(dst);
        }
        self.drains[k].path = path;
        self.live_drains -= 1;
        self.drains.swap(k, self.live_drains);
    }

    /// Settles every live drain up to the current clock and puts its worm
    /// back on the worklists, so the state is the per-flit one.
    pub(super) fn settle_drains(&mut self) {
        while self.live_drains > 0 {
            let k = self.live_drains - 1;
            self.settle(k);
            self.release(k);
        }
    }
}
