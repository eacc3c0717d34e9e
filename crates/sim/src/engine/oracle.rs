//! The conservation-law oracle: an independent re-derivation of the
//! simulator's invariants, checked at every cycle boundary and once more
//! at quiesce. Enabled by [`SimConfig`](crate::SimConfig)
//! `::check_invariants`.
//!
//! Under the skipping clock, the per-cycle sweep runs at every *stepped*
//! cycle. Skipped cycles need no sweep: skipping is only legal
//! when the network state is provably frozen, so the checks would examine
//! the same state they just passed on.
//!
//! The oracle only watches: a run executes the same code in the same
//! order with it on or off.

use super::{phases::INJ_FIFO_CHUNKS, Engine};
use crate::config::NUM_VCS;
use crate::node::PollState;
use crate::packet::Packet;

/// Independent re-derivation of the simulator's conservation laws, enabled
/// by [`SimConfig::check_invariants`](crate::SimConfig). Per-packet state
/// lives in flat vectors indexed by the engine's sequential packet ids
/// (`Packet` itself stays untouched — its size is pinned). Boxed behind an
/// `Option` on the engine like the tracer: disabled, the whole oracle costs
/// one predictable branch per cycle and per packet event.
///
/// Violations panic immediately with the cycle number, because a broken
/// invariant means every statistic after that point is untrustworthy.
pub(super) struct Oracle {
    /// Per packet id: minimal hop count of its `HopPlan` at injection.
    planned_hops: Vec<u32>,
    /// Per packet id: link crossings observed so far.
    taken_hops: Vec<u32>,
    /// Per packet id: payload bytes recorded at injection.
    payload_bytes: Vec<u32>,
    /// Per packet id: whether it has been drained from a reception FIFO.
    delivered: Vec<bool>,
    /// Per packet id: whether a link fault dropped it in flight.
    dropped: Vec<bool>,
    delivered_count: u64,
    dropped_count: u64,
    injected_payload: u64,
    delivered_payload: u64,
    dropped_payload: u64,
}

impl Oracle {
    pub(super) fn new() -> Oracle {
        Oracle {
            planned_hops: Vec::new(),
            taken_hops: Vec::new(),
            payload_bytes: Vec::new(),
            delivered: Vec::new(),
            dropped: Vec::new(),
            delivered_count: 0,
            dropped_count: 0,
            injected_payload: 0,
            delivered_payload: 0,
            dropped_payload: 0,
        }
    }

    /// Record a freshly injected packet (plan not yet advanced): ids are
    /// handed out at injection, dense and in injection order.
    pub(super) fn on_inject(&mut self, pkt: &Packet) {
        assert_eq!(
            pkt.id as usize,
            self.planned_hops.len(),
            "invariant violated: packet ids must be dense and sequential"
        );
        self.planned_hops.push(pkt.plan.total_hops());
        self.taken_hops.push(0);
        self.payload_bytes.push(pkt.payload_bytes);
        self.delivered.push(false);
        self.dropped.push(false);
        self.injected_payload += pkt.payload_bytes as u64;
    }

    /// Rebase packet `id`'s hop budget after a fault detour: the re-planned
    /// route (`remaining` hops from the *downstream* node) supersedes the
    /// minimal plan recorded at injection. Called immediately before the
    /// detour hop's own `on_hop`, so afterwards the exact-hop-count check
    /// at delivery holds again.
    pub(super) fn on_detour(&mut self, id: u64, remaining: u32) {
        let i = id as usize;
        self.planned_hops[i] = self.taken_hops[i] + 1 + remaining;
    }

    /// Record that a link fault dropped `pkt` in flight: it must be a
    /// known packet that was neither delivered nor already dropped.
    pub(super) fn on_drop(&mut self, pkt: &Packet) {
        let i = pkt.id as usize;
        assert!(
            i < self.dropped.len(),
            "invariant violated: fault dropped unknown packet {}",
            pkt.id
        );
        assert!(
            !self.delivered[i] && !self.dropped[i],
            "invariant violated: packet {} dropped after delivery or twice",
            pkt.id
        );
        self.dropped[i] = true;
        self.dropped_count += 1;
        self.dropped_payload += pkt.payload_bytes as u64;
    }

    /// Record one link crossing of packet `id`.
    pub(super) fn on_hop(&mut self, id: u64, t: u64) {
        let i = id as usize;
        self.taken_hops[i] += 1;
        assert!(
            self.taken_hops[i] <= self.planned_hops[i],
            "invariant violated: packet {id} exceeded its planned {} hops at cycle {t}",
            self.planned_hops[i]
        );
    }

    /// Record the delivery of `pkt`, drained from the reception FIFO of
    /// node `node` with `dst_rank` the destination its slab body held: the
    /// two must be one rank, since the drain rebuilds `pkt.dst` from the
    /// draining node's own coordinate.
    pub(super) fn on_deliver(&mut self, pkt: &Packet, dst_rank: u32, node: u32, t: u64) {
        let i = pkt.id as usize;
        assert_eq!(
            dst_rank, node,
            "invariant violated: packet {} bound for rank {dst_rank} drained at node {node} \
             (cycle {t})",
            pkt.id
        );
        assert!(
            i < self.delivered.len(),
            "invariant violated: delivery of unknown packet {} at cycle {t}",
            pkt.id
        );
        assert!(
            !self.delivered[i],
            "invariant violated: packet {} delivered twice (cycle {t})",
            pkt.id
        );
        assert!(
            !self.dropped[i],
            "invariant violated: packet {} delivered after a fault dropped it (cycle {t})",
            pkt.id
        );
        assert!(
            pkt.plan.is_done(),
            "invariant violated: packet {} delivered with hops remaining (cycle {t})",
            pkt.id
        );
        assert_eq!(
            self.taken_hops[i], self.planned_hops[i],
            "invariant violated: packet {} took {} hops, plan was {} (cycle {t})",
            pkt.id, self.taken_hops[i], self.planned_hops[i]
        );
        assert_eq!(
            self.payload_bytes[i], pkt.payload_bytes,
            "invariant violated: packet {} payload changed in flight (cycle {t})",
            pkt.id
        );
        self.delivered[i] = true;
        self.delivered_count += 1;
        self.delivered_payload += pkt.payload_bytes as u64;
    }
}

impl Engine {
    /// Cycle-boundary oracle sweep (end of cycle `t`): the oracle's
    /// independent packet ledger must agree with `NetStats`, the live
    /// counter must telescope (injected − delivered), every FIFO's
    /// occupancy must fit its capacity, and every transit-VC credit cell
    /// must conserve chunks: available credit + physically occupied +
    /// in flight toward the cell = capacity — a credit leaked (or
    /// double-released) by any phase breaks it at the very next boundary.
    /// What `State::set_head` writes is re-derived from the FIFOs: a node's
    /// occupancy mask must name exactly its non-empty FIFOs, every cached
    /// request-mask bit must equal what `Shared::wants` says of the FIFO's
    /// current head, and its requested outputs must be the non-zero
    /// directions of its masks — a head change that skipped the writer
    /// shows at the boundary of the cycle that made it.
    /// Then the link mask is re-derived ([`Engine::oracle_link_check`]), and
    /// last, a parked node must be one whose visit could not act
    /// ([`Engine::oracle_parking_check`]).
    pub(super) fn oracle_cycle_check(&self, t: u64) {
        let o = self.oracle.as_ref().expect("caller checked");
        let injected = o.planned_hops.len() as u64;
        assert_eq!(
            injected, self.state.stats.packets_injected,
            "invariant violated: oracle saw {injected} injections, stats say {} (cycle {t})",
            self.state.stats.packets_injected
        );
        assert_eq!(
            o.delivered_count, self.state.stats.packets_delivered,
            "invariant violated: oracle saw {} deliveries, stats say {} (cycle {t})",
            o.delivered_count, self.state.stats.packets_delivered
        );
        assert_eq!(
            o.dropped_count, self.state.stats.dropped_by_fault,
            "invariant violated: oracle saw {} fault drops, stats say {} (cycle {t})",
            o.dropped_count, self.state.stats.dropped_by_fault
        );
        assert_eq!(
            self.state.live_packets,
            injected - o.delivered_count - o.dropped_count,
            "invariant violated: live packets must equal injected − delivered − dropped (cycle {t})"
        );
        // Chunks launched toward each transit cell but not yet arrived:
        // every such packet sits in the in-flight ring. The sum reads the
        // ring records, which `oracle_slab_check` holds to the packets.
        let vc_cells = self.shared.vc_cells;
        let st = &self.state;
        let mut inflight = vec![0u64; self.num_nodes() * vc_cells];
        for arr in st.ring.iter().flatten() {
            inflight[arr.node as usize * vc_cells + arr.fifo as usize] += arr.chunks as u64;
        }
        let router = &self.shared;
        let cfg = &router.cfg;
        for ni in 0..self.num_nodes() {
            for (c, f) in st.fifos.vcs(ni).iter().enumerate() {
                let cell = ni * vc_cells + c;
                let credit = router.credit(ni, c) as u64;
                let occupied = f.occupied_chunks() as u64;
                assert_eq!(
                    credit + occupied + inflight[cell],
                    cfg.router.vc_fifo_chunks as u64,
                    "invariant violated: credit cell (node {ni}, fifo {c}) leaked \
                     ({credit} credit + {occupied} occupied + {} in flight ≠ {} capacity, cycle {t})",
                    inflight[cell],
                    cfg.router.vc_fifo_chunks
                );
            }
            let inj = st.fifos.inj(ni).iter().map(|f| (f, INJ_FIFO_CHUNKS));
            for (f, capacity) in inj.chain([(st.fifos.reception(ni), cfg.reception_fifo_chunks)]) {
                assert!(
                    f.occupied_chunks() <= capacity,
                    "invariant violated: FIFO at node {ni} over capacity \
                     ({} occupied > {capacity}, cycle {t})",
                    f.occupied_chunks()
                );
            }
            let (masks, row) = (&st.masks[ni], st.fifos.row(ni));
            let occupied = row.iter().enumerate();
            let occupied = occupied.fold(0u64, |m, (f, q)| m | u64::from(!q.is_empty()) << f);
            assert!(
                masks.occupied == occupied,
                "invariant violated: occupancy mask of node {ni} stale (cycle {t})"
            );
            let mut requested = 0u16;
            for d in router.part.directions() {
                let want = st.want[ni * router.ports + d.index()];
                requested |= u16::from(want != 0) << d.index();
                for (f, fifo) in row.iter().enumerate() {
                    let wanted = fifo.head().is_some_and(|h| router.wants(&st.slab[h], d));
                    assert!(
                        (want >> f & 1 != 0) == wanted,
                        "invariant violated: request mask stale at node {ni} fifo {f} dir {d} \
                         (cycle {t})"
                    );
                }
            }
            assert!(
                masks.requested == requested,
                "invariant violated: requested outputs of node {ni} stale (cycle {t})"
            );
        }
        self.oracle_slab_check(t);
        self.oracle_link_check(t);
        self.oracle_parking_check(t);
    }

    /// The link mask at the end of cycle `t`, re-derived: a node's bits of
    /// `Shared::up` are its outputs that lead to a neighbour
    /// (`Partition::neighbor`) and that the fault transitions applied so far
    /// (`fault_schedule[..fault_cursor]`, replayed link by link) left
    /// alive. And every queued head's hint bits name only linked outputs,
    /// the invariant that lets a routing rule test `dirs & up` alone. A
    /// transition that missed its bit, or a plan routed over a mesh edge,
    /// shows at the boundary of the cycle that made it.
    pub(super) fn oracle_link_check(&self, t: u64) {
        let (sh, st, part) = (&self.shared, &self.state, &self.shared.part);
        let mut alive = vec![true; st.nodes.len() * sh.ports];
        for ev in &self.fault_schedule[..self.fault_cursor] {
            alive[ev.link as usize] = ev.alive;
        }
        for (i, &mask) in sh.up.iter().enumerate() {
            let (c, mut linked, mut up) = (part.coord_of(i as u32), 0u16, 0u16);
            for d in part.directions() {
                if part.neighbor(c, d).is_some() {
                    linked |= 1 << d.index();
                    up |= u16::from(alive[i * sh.ports + d.index()]) << d.index();
                }
            }
            assert!(
                mask == up,
                "invariant violated: link mask of node {i} stale ({mask:#b}, links up \
                 {up:#b}, cycle {t})"
            );
            for (f, pkt) in st.heads(i) {
                assert!(
                    pkt.plan.dirs() & !linked == 0,
                    "invariant violated: head of node {i} fifo {f} (packet {}) routes over \
                     a missing link (cycle {t})",
                    st.slab.body(st.fifos.row(i)[f].head().expect("a head")).id
                );
            }
        }
    }

    /// The slab's conservation law at the end of cycle `t`: every live slot
    /// is reachable exactly once — from one FIFO's list or one ring record —
    /// and nothing else is; each header's chunk count is the sum over its
    /// list; and each ring record says of its packet what the packet says
    /// itself (phase 1 and the credit sum above trust the record). A slot
    /// leaked, released twice or queued twice shows at the boundary of the
    /// cycle that did it.
    fn oracle_slab_check(&self, t: u64) {
        let st = &self.state;
        let mut seen = vec![false; st.slab.slots()];
        let mut reach = |h: u32| {
            assert!(
                !std::mem::replace(&mut seen[h as usize], true),
                "invariant violated: packet slot {h} reachable twice (cycle {t})"
            );
            &st.slab[h]
        };
        let mut reached = 0;
        for i in 0..st.nodes.len() {
            let row = st.fifos.row(i).iter().chain([st.fifos.reception(i)]);
            for (f, fifo) in row.enumerate() {
                let mut chunks = 0;
                for h in fifo.iter(&st.slab) {
                    chunks += reach(h).chunks as u32;
                    reached += 1;
                }
                assert_eq!(
                    chunks,
                    fifo.occupied_chunks(),
                    "invariant violated: header {f} of node {i} counts {} chunks, its list \
                     holds {chunks} (cycle {t})",
                    fifo.occupied_chunks()
                );
            }
        }
        for arr in st.ring.iter().flatten() {
            let pkt = reach(arr.h);
            assert!(
                (arr.fifo as usize % NUM_VCS, arr.chunks, arr.done)
                    == (pkt.vc.index(), pkt.chunks, pkt.plan.is_done()),
                "invariant violated: in-flight record of packet {} (fifo {}, {} chunks, \
                 done {}) disagrees with the packet (cycle {t})",
                st.slab.body(arr.h).id,
                arr.fifo,
                arr.chunks,
                arr.done
            );
            reached += 1;
        }
        assert_eq!(
            reached,
            st.slab.live(),
            "invariant violated: {} live packet slots, {reached} are queued or in flight \
             (cycle {t})",
            st.slab.live()
        );
    }

    /// The parking rules, re-derived from the state at the end of cycle `t`.
    /// A node whose arbitration wake lies past `t` is passed over, so none
    /// of its outputs may take one of its heads (`State::can_leave`, the
    /// arbiter's rule; a head not requesting the output can only detour,
    /// under a fault plan). A node whose CPU wake lies past `t + 1` will
    /// be passed over next, so a visit there must be unable to do more
    /// than a blocked poll: its CPU is booked, or there is nothing to
    /// drain, no queued send fits, and no pull is due that the rate window
    /// or a sleeper's decline does not refuse. A missed re-arm shows here
    /// at the first cycle the node could have moved. The full scan parks
    /// nothing but writes the same wake cycles, so the check covers the
    /// reference too.
    fn oracle_parking_check(&self, t: u64) {
        let (sh, st, next) = (&self.shared, &self.state, t + 1);
        for (i, node) in st.nodes.iter().enumerate() {
            let open = |d| {
                st.heads(i)
                    .any(|(f, pkt)| st.can_leave(sh, i, f, pkt, d, t))
            };
            let queued = !node.pending.is_empty() || !node.pulled.is_empty();
            let polls = match node.poll {
                _ if !node.pull_due() => false,
                PollState::Rate => next as f64 >= node.flow.next_allowed,
                PollState::Asleep { .. } => false,
                PollState::Open => true,
            };
            let cpu_idle = st.cpu_at[i] <= next
                || node.cpu_free >= (next + 1) as f64
                || st.fifos.reception(i).is_empty()
                    && !(queued
                        && (!node.inject_blocked
                            || self.shared.fitting_send(node, st.fifos.inj(i)).is_some()))
                    && !polls;
            assert!(
                cpu_idle && (st.arb_at[i] <= t || !(0..sh.ports).any(open)),
                "invariant violated: parked node {i} could have acted (cpu_at {}, \
                 arb_at {}, cycle {t})",
                st.cpu_at[i],
                st.arb_at[i]
            );
        }
    }

    /// Quiesce-time oracle sweep, run once the simulation reports
    /// complete: every injected packet was delivered exactly once with
    /// exactly its planned hops, payload bytes are conserved end-to-end,
    /// the per-packet hop ledger sums to the `NetStats` totals, every
    /// FIFO has drained, every credit cell has telescoped back to full
    /// capacity, and no packets remain in flight.
    pub(super) fn oracle_quiesce_check(&self) {
        let o = self.oracle.as_ref().expect("caller checked");
        let injected = o.planned_hops.len() as u64;
        // Fault-aware exactly-once: every packet was delivered or dropped
        // by a fault, exactly once — the telescoped counts and the
        // per-packet flags must both agree.
        assert_eq!(
            o.delivered_count + o.dropped_count,
            injected,
            "invariant violated: {} of {injected} packets neither delivered nor \
             accounted as dropped_by_fault",
            injected - o.delivered_count - o.dropped_count
        );
        for (id, (&d, &x)) in o.delivered.iter().zip(&o.dropped).enumerate() {
            assert!(
                d ^ x,
                "invariant violated: packet {id} {} at quiesce",
                if d {
                    "both delivered and dropped"
                } else {
                    "neither delivered nor dropped"
                }
            );
        }
        // Byte conservation, fault-aware: every injected payload byte is
        // either delivered or attributed to a fault drop.
        assert_eq!(
            o.injected_payload,
            o.delivered_payload + o.dropped_payload,
            "invariant violated: payload bytes not conserved end-to-end \
             (delivered + dropped_by_fault ≠ injected)"
        );
        assert_eq!(
            o.dropped_count, self.state.stats.dropped_by_fault,
            "invariant violated: oracle drop ledger disagrees with stats"
        );
        assert_eq!(
            o.delivered_payload, self.state.stats.payload_bytes_delivered,
            "invariant violated: oracle payload ledger disagrees with stats"
        );
        let ledger_hops: u64 = o.taken_hops.iter().map(|&h| h as u64).sum();
        let stats_hops: u64 = self.state.stats.hops_taken.iter().sum();
        assert_eq!(
            ledger_hops, stats_hops,
            "invariant violated: per-packet hop ledger disagrees with stats"
        );
        let (full, st) = (self.shared.cfg.router.vc_fifo_chunks, &self.state);
        for (i, node) in st.nodes.iter().enumerate() {
            assert!(
                st.masks[i].occupied == 0 && !node.holds_sends(),
                "invariant violated: node {i} still holds packets at quiesce"
            );
            for (c, f) in st.fifos.vcs(i).iter().enumerate() {
                let credit = self.shared.credit(i, c);
                assert!(
                    f.is_empty() && f.occupied_chunks() == 0 && credit == full,
                    "invariant violated: transit FIFO (node {i}, fifo {c}) not drained at \
                     quiesce ({} occupied, {credit} of {full} credits returned)",
                    f.occupied_chunks()
                );
            }
            for f in st.fifos.inj(i).iter().chain([st.fifos.reception(i)]) {
                assert!(
                    f.is_empty() && f.occupied_chunks() == 0,
                    "invariant violated: FIFO at node {i} not drained at quiesce \
                     ({} occupied)",
                    f.occupied_chunks()
                );
            }
        }
        assert!(
            st.slab.live() == 0,
            "invariant violated: {} packet slots leaked",
            st.slab.live()
        );
        assert!(
            st.ring.iter().all(|slot| slot.is_empty()),
            "invariant violated: packets still in flight at quiesce"
        );
    }
}
