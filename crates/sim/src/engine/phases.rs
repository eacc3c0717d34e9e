//! The four per-cycle phases (arrivals → deliveries → CPU → arbitration),
//! the boundary that closes a cycle, and their helpers. Identical code
//! serves both [`EngineMode`](crate::EngineMode)s: phases 3 and 4 walk
//! their marked nodes in ascending order, and under the full scan that
//! walk clears no mark and parks no node, so it visits every node; the
//! time-skipping clock steps the same phases at the cycles it cannot prove
//! frozen. The phases write the run's `NetStats` where each event happens.
//!
//! ## Parking
//!
//! Outside the full scan, phases 3 and 4 visit a marked node only if it
//! can act. Every CPU visit ends by leaving in `State::cpu_at` the first
//! cycle the next one could do more than a blocked poll (`cpu_park`): the
//! CPU is booked until then, or the rate window opens then, or nothing
//! short of an event at the node can help — a sleeper's pure decline, or
//! sends stuck on injection-FIFO space. Sends are stuck when the visit's
//! injector found no room for any of them, and also when a visit that ended
//! on a booked CPU leaves sends the room scan (`Shared::fitting_send`) has
//! no room for, no pull due and nothing to drain: the next visit would do
//! nothing, so the node parks (`inject_blocked`) at `u64::MAX` instead of
//! at its CPU's release. An open poll the rate window will refuse once the
//! CPU is free parks as a rate poll. A visit to arbitration leaves in
//! `arb_at` the first release among the busy links its heads request, if no
//! free one can take a head, and `u64::MAX` if it emptied the node, which
//! leaves the set in that visit. Until then the scan passes the node over
//! on one word, its mark untouched. The blocked polls it is passed over for
//! still count: `State::owed_from` says since when, and the next visit, or
//! any reader of the statistics, settles them (`State::settle_blocked`).
//!
//! Whatever can change what a skipped visit would have found writes the
//! cycle it enables, never "now" for its own sake. A new head — an arrival
//! into an empty FIFO, a delivery pop that exposes one, an injection into
//! an empty injection FIFO — wakes arbitration when one of the links it
//! requests is free (`State::wake_arb`); an arrival behind a queued head
//! changes no head and writes nothing. A delivery into reception, an
//! injection-FIFO pop after which the room scan finds a stuck send room (a
//! pop that frees too little, or a FIFO of another class, leaves the node
//! parked), a fault drop and a fault transition wake the CPU when it is
//! free (`State::wake_cpu`). A credit release giving a node's heads room
//! wakes it at its link's release (`Shared::release`). The full scan writes
//! both arrays and reads neither, so every comparison against it is parked
//! against unparked, and the oracle's parking check covers both (DESIGN.md
//! §6).
//!
//! Inside a visit, the two per-packet loops skip what cannot move. The
//! injector plans a route only for the send the room scan picks
//! (`Shared::inject_slot` over `Shared::fitting_send`); the park and the
//! wake above plan none. Arbitration walks only the free, live outputs
//! some head requests (`State::masks`, re-read after a win, under a
//! mask of the node's free links read once per visit and its link mask).
//!
//! ## One link mask
//!
//! As the BG/L router does, every routing rule decides from two sets of
//! bits: a head's hint bits ([`HopPlan::dirs`]) and its node's link mask
//! (`Shared::up`, an output's bit set iff it leads to a neighbour and is
//! alive). A minimal plan's hint bits never name a missing output, so
//! `dirs & up` is a head's live minimal outputs and `dirs & !up` its dead
//! ones. No rule walks the directions to ask whether each exists or is
//! alive, and the oracle checks the mask and the invariant at every cycle
//! boundary.
//!
//! ## One FIFO index space
//!
//! A node's transit and injection FIFOs are one pool to its output links,
//! as in the BG/L router, and one index space to the engine: injection FIFO
//! `k` is FIFO `vc_cells + k`, the order of the node's row of headers. One
//! function, `State::set_head`, writes the node's occupancy mask, request
//! masks and requested outputs wherever a head changes, flipping only the
//! request bits that change between the old head's hint bits and the new
//! one's; one walk, `pick`, tries a link's candidates of either kind. What
//! a win spends and a pop gives back, and why node visit order does not
//! matter, is the router's (`router.rs`).
//!
//! ## Packets
//!
//! A packet lives in one slot of the slab from `cpu_inject_one` to
//! `cpu_drain_one` (or `drop_in_flight`); FIFOs and the in-flight ring
//! hold its `u32` handle. The slot is two records: the 20-byte [`Hop`]
//! (plan, detour state, chunks, routing mode, VC, the id's parity), which
//! every routing rule takes and `apply_win` writes each hop into in place,
//! and the body, the rest of the [`Packet`] but its destination. The
//! destination is where the plan leads from the node holding the packet
//! (`HopPlan::destination`): the drain takes its own node's coordinate, and
//! a detour and a fault drop derive it. The body is read in three places
//! only: at the drain or a fault drop (`Slab::take` reassembles the
//! packet), by the oracle (its id) and by the tracer (its kind). So a run
//! with the oracle off never reads it in `pick`, `apply_win`,
//! `phase_arrivals` or `State::set_head`.
//!
//! A send waits for injection in one slot of the send slab
//! (`State::sends`), on its node's pending list (what a hook queued) or
//! pulled list (what `next_send` returned), from the hook that made it to
//! `cpu_inject_one`.
//! The engine copies a `Packet` in two places only: the injection into the
//! slab, and out of it at the drain or a fault drop (DESIGN.md §6, "Memory
//! layout").

use super::oracle::Oracle;
use super::router::Credits;
use super::{bits, Arrival, State, Win, RING};
use crate::config::{SimConfig, Vc, NUM_VCS};
use crate::fifo::{ChunkFifo, SendSlab, Slab};
use crate::flow::FlowSpec;
use crate::node::{NodeState, PollState};
use crate::packet::{Hop, Packet, RoutingMode, SendSpec};
use crate::perf::{PerfProfile, PhaseSecs};
use crate::program::{NodeApi, NodeProgram, PollHint};
use bgl_torus::{Coord, Dim, Direction, HopPlan, Partition, TieBreak, MAX_DIMS};

/// How far into the pending queue the injector looks for a packet whose
/// class FIFO has room: without this, one full class FIFO would
/// head-of-line block packets of other classes (e.g. TPS phase-1
/// packets stuck behind a congested phase-2 forward).
const INJECT_SCAN: usize = 16;

/// Capacity of each injection FIFO, chunks.
pub(super) const INJ_FIFO_CHUNKS: u32 = 16;

/// Pipeline latency per hop, cycles, added after the last chunk of a
/// packet crosses a link before it is visible downstream.
pub(super) const HOP_LATENCY_CYCLES: u64 = 1;

/// Everything the phases only read — configuration, topology, link
/// liveness — plus the router's credit cells. Built once in `Engine::new`;
/// its methods are the routing rules (those that read credit in
/// `router.rs`). A rule asks about a node's links one way: bit arithmetic
/// between a head's hint bits ([`HopPlan::dirs`]) and the node's link mask
/// ([`up`](Self::up)).
pub(super) struct Shared {
    pub(super) cfg: SimConfig,
    pub(super) part: Partition,
    /// The node on the other end of each output link, indexed
    /// `node * ports + dir` like the per-link tables: `u32::MAX` at a mesh
    /// edge or along a size-1 dimension, where bit `dir` of [`up`](Self::up)
    /// is never set. Built by `Engine::new` from [`Partition::walk`].
    pub(super) neighbors: Vec<u32>,
    /// Directed output ports per node (`2 · ndims`): stride of the
    /// per-link arrays and bound of every direction scan.
    pub(super) ports: usize,
    /// Credit cells per node (`ports · NUM_VCS`, one per transit VC FIFO).
    pub(super) vc_cells: usize,
    /// The router's credit cells (`router.rs`), named nowhere else.
    pub(super) credits: Credits,
    /// Per-class eligible injection FIFOs: bit `f` of `class_fifos[c]` is
    /// set iff FIFO `f` accepts class `c` (`SimConfig::inj_class_masks`).
    pub(super) class_fifos: [u32; 8],
    /// Reference mode: clear no mark, park no node, skip no cycle (see
    /// [`EngineMode::FullScan`](crate::EngineMode)).
    pub(super) full_scan: bool,
    /// The link mask, one per node: bit `d` of `up[n]` is set iff output
    /// `d` of node `n` leads to a neighbour and is alive now. `Engine::new`
    /// builds it with `neighbors`; `apply_fault_transitions`, at the top of
    /// a cycle, is the only writer after that. A head's hint bits never name
    /// a missing output, so `dirs & up` is its live requests.
    pub(super) up: Vec<u16>,
    /// Every output under a fault plan (a detour takes links no request mask
    /// names), none on a healthy run: OR-ed into a node's requested outputs.
    pub(super) fault_dirs: u16,
}

impl Shared {
    /// Does `pkt`'s routing allow it to take output `d`? Adaptive packets
    /// under the longest-first bias move only along preferred dimensions,
    /// those no other dimension has more hops left in, plus the
    /// dimension-ordered direction, which stays available as the
    /// deadlock-free bubble escape. The engine reads
    /// [`request_dirs`](Self::request_dirs); this per-direction form is the
    /// oracle's independent reference for the cached request masks.
    pub(super) fn wants(&self, pkt: &Hop, d: Direction) -> bool {
        match pkt.routing {
            RoutingMode::Adaptive => {
                if pkt.plan.direction(d.dim) != Some(d) {
                    return false;
                }
                if !self.cfg.router.longest_first_bias {
                    return true;
                }
                // Every representable dimension: one beyond the partition's
                // arity carries zero hops.
                let here = pkt.plan.hops(d.dim);
                let prefers = Dim::all(MAX_DIMS).all(|o| pkt.plan.hops(o) <= here);
                prefers || pkt.plan.dimension_order_next() == Some(d)
            }
            RoutingMode::Deterministic => pkt.plan.dimension_order_next() == Some(d),
        }
    }

    /// Every output [`wants`](Self::wants) approves for `pkt`, as a bitmask
    /// over direction indices, read off the plan's hint bits
    /// ([`HopPlan::dirs`]): the lowest one (the dimension-order direction)
    /// for a deterministic packet, all of them (its minimal quadrant) for an
    /// adaptive one, and under the longest-first shaping the lowest plus
    /// those of the longest remaining dimensions
    /// ([`HopPlan::longest_dirs`]), against the tree saturation of the
    /// paper's Section 3.2 (DESIGN.md §6b, item 3). It reads the packet and
    /// the router config and nothing else, which is why a node can cache it
    /// per FIFO head (`State::want`). Zero exactly when the plan is done: an
    /// arrived head requests no output.
    pub(super) fn request_dirs(&self, pkt: &Hop) -> u16 {
        let dirs = pkt.plan.dirs();
        let lowest = dirs & dirs.wrapping_neg();
        match pkt.routing {
            RoutingMode::Deterministic => lowest,
            RoutingMode::Adaptive if !self.cfg.router.longest_first_bias => dirs,
            RoutingMode::Adaptive => lowest | pkt.plan.longest_dirs(),
        }
    }

    /// Pop `q`'s head: its handle, and the
    /// [`request_dirs`](Self::request_dirs) of the head this exposes —
    /// `None` if the FIFO emptied, `Some(0)` for a head that has arrived:
    /// what `State::set_head` takes.
    fn pop(&self, q: &mut ChunkFifo, slab: &Slab) -> (u32, Option<u16>) {
        let h = q.pop(slab);
        (h, q.head().map(|next| self.request_dirs(&slab[next])))
    }

    /// The dimension of the input port FIFO `f` of a node sits behind:
    /// `Some` for a transit FIFO (two ports per dimension), `None` for an
    /// injection FIFO.
    #[inline]
    pub(super) fn input_dim(&self, f: usize) -> Option<usize> {
        (f < self.vc_cells).then_some(f / NUM_VCS / 2)
    }

    /// The room scan: the first queued send of `node` that one of its
    /// injection FIFOs `inj` has room for now — reactive queue first,
    /// [`INJECT_SCAN`] deep into each — as its scan index, the send, and the
    /// mask of its class's FIFOs with room. `None` when every scanned send
    /// is stuck on injection-FIFO space, which only an arbitration win at
    /// this node can free. It plans no route: the CPU's park and
    /// `apply_win`'s wake ask it as well as the injector.
    pub(super) fn fitting_send<'s>(
        &self,
        sends: &'s SendSlab,
        node: &NodeState,
        inj: &[ChunkFifo],
    ) -> Option<(usize, &'s SendSpec, u32)> {
        let reactive = sends.iter(&node.pending).take(INJECT_SCAN);
        let queued = reactive.chain(sends.iter(&node.pulled).take(INJECT_SCAN));
        queued.enumerate().find_map(|(qi, spec)| {
            let (eligible, chunks) = (self.class_fifos[spec.class as usize], spec.chunks as u32);
            let bit =
                |f: usize| u32::from(inj[f].occupied_chunks() + chunks <= INJ_FIFO_CHUNKS) << f;
            let room = bits(eligible.into()).fold(0, |m, f| m | bit(f));
            (room != 0).then_some((qi, spec, room))
        })
    }

    /// The send the injector takes next ([`fitting_send`](Self::fitting_send))
    /// and where it goes: its scan index, the FIFO, its hop plan and
    /// destination. Only this send's route is planned.
    pub(super) fn inject_slot(
        &self,
        sends: &SendSlab,
        node: &NodeState,
        inj: &[ChunkFifo],
    ) -> Option<(usize, usize, HopPlan, Coord)> {
        let (qi, spec, room) = self.fitting_send(sends, node, inj)?;
        let eligible = self.class_fifos[spec.class as usize];
        // Direction-affine placement: BG/L messaging software binds
        // injection FIFOs to link directions so one FIFO's blocked head
        // never starves an idle link of a different direction. Map the
        // packet's first route direction onto the FIFOs of its class,
        // falling back to the lowest class FIFO with space.
        let dst = self.part.coord_of(spec.dst_rank);
        let plan = HopPlan::new(&self.part, node.coord, dst, TieBreak::SrcParity);
        let primary = plan.dimension_order_next().map_or(0, |d| d.index());
        // The `primary`-th (mod count) eligible FIFO, if it has room:
        // the division only when the class has fewer FIFOs than ports.
        let count = eligible.count_ones() as usize;
        let skip = if primary < count {
            primary
        } else {
            primary % count
        };
        let mut from_pref = eligible;
        for _ in 0..skip {
            from_pref &= from_pref - 1;
        }
        let pref = from_pref & from_pref.wrapping_neg();
        let f = if room & pref != 0 { pref } else { room };
        Some((qi, f.trailing_zeros() as usize, plan, dst))
    }
}

/// One cycle's context: the read-mostly [`Shared`] state, the mutable
/// [`State`], and the two observers that watch packet events.
pub(super) struct Phases<'a> {
    pub(super) shared: &'a Shared,
    pub(super) st: &'a mut State,
    /// Invariant oracle (`SimConfig::check_invariants`).
    pub(super) oracle: Option<&'a mut Oracle>,
    /// The host profile under construction (`SimConfig::perf`). The
    /// profiler only reads the host clock and writes its own counters, so
    /// enabling it can never perturb simulation results.
    pub(super) perf: Option<&'a mut PerfProfile>,
}

impl Phases<'_> {
    /// Start a lap clock — `Some` only when profiling is on, so the
    /// off-path cost of every lap call site is one predictable branch.
    #[inline]
    fn perf_clock(&self) -> Option<std::time::Instant> {
        self.perf.as_ref().map(|_| std::time::Instant::now())
    }

    /// Accumulate the time since the last lap into the phase slot chosen
    /// by `slot`, and restart the clock.
    #[inline]
    fn perf_lap(
        &mut self,
        clk: &mut Option<std::time::Instant>,
        slot: fn(&mut PhaseSecs) -> &mut f64,
    ) {
        if let Some(t0) = clk {
            let p = self
                .perf
                .as_mut()
                .expect("lap clock only runs with profiling on");
            let now = std::time::Instant::now();
            *slot(&mut p.phases) += now.duration_since(*t0).as_secs_f64();
            *t0 = now;
        }
    }

    /// Cycle `t`: the four phases, then the boundary — the credit freed by
    /// this cycle's phase-4 pops goes back to its cells only now, after
    /// every node has arbitrated (see the module docs).
    pub(super) fn cycle(&mut self, t: u64) {
        let mut clk = self.perf_clock();
        self.phase_arrivals(t);
        self.perf_lap(&mut clk, |p| &mut p.arrivals);
        self.phase_deliveries(t);
        self.perf_lap(&mut clk, |p| &mut p.deliveries);
        self.phase_cpu(t);
        self.perf_lap(&mut clk, |p| &mut p.cpu);
        self.phase_arbitration(t);
        self.perf_lap(&mut clk, |p| &mut p.arbitration);
        let mut deferred = std::mem::take(&mut self.st.deferred);
        for (node, fifo, chunks) in deferred.drain(..) {
            let (node, fifo) = (node as usize, fifo.into());
            self.shared.release(self.st, node, fifo, chunks.into());
        }
        self.st.deferred = deferred;
        self.perf_lap(&mut clk, |p| &mut p.drain);
    }

    // ---- Phase 1: arrivals -------------------------------------------------

    fn phase_arrivals(&mut self, t: u64) {
        let slot = (t % RING as u64) as usize;
        let mut arrivals = std::mem::take(&mut self.st.ring[slot]);
        for arr in arrivals.drain(..) {
            let Arrival { node, h, done, .. } = arr;
            let (i, fi) = (node as usize, arr.fifo as usize);
            let q = self.st.fifos.fifo_mut(i, fi);
            let was_empty = q.is_empty();
            // Space was spent from the credit cell at the upstream win.
            q.push(&mut self.st.slab, h, arr.chunks as u32);
            // An arrival behind a queued head changes nothing arbitration
            // reads; one into an empty FIFO is a new head.
            if was_empty {
                let dirs = self.shared.request_dirs(&self.st.slab[h]);
                self.st.set_head(i, self.shared.ports, fi, 0, Some(dirs));
                self.st.wake_arb(self.shared, i, dirs, t);
                if done {
                    self.st.deliver_q.push((node, fi as u8));
                }
            }
            self.st.progress = true;
        }
        self.st.ring[slot] = arrivals; // hand the allocation back
    }

    // ---- Phase 2: deliveries ----------------------------------------------

    fn phase_deliveries(&mut self, t: u64) {
        if self.st.deliver_q.is_empty() {
            return;
        }
        let mut dq = std::mem::take(&mut self.st.deliver_q);
        for (node, fi) in dq.drain(..) {
            self.try_deliver(node as usize, fi as usize, t);
        }
        // Hand the allocation back. `try_deliver` parks stalled FIFOs in
        // the node's `blocked_deliveries` (re-queued here only after the
        // CPU frees reception space), so nothing lands in `deliver_q`
        // during the loop above.
        debug_assert!(self.st.deliver_q.is_empty());
        self.st.deliver_q = dq;
    }

    /// Move deliverable head packets of `fifo` of node `i` into the
    /// reception FIFO at cycle `t`.
    fn try_deliver(&mut self, i: usize, fifo: usize, t: u64) {
        let capacity = self.shared.cfg.reception_fifo_chunks;
        loop {
            let (n, slab) = (&mut self.st.nodes[i], &mut self.st.slab);
            let Some(h) = self.st.fifos.vcs(i)[fifo].head() else {
                return;
            };
            if !slab[h].plan.is_done() {
                return;
            }
            let chunks = slab[h].chunks as u32;
            if self.st.fifos.reception(i).occupied_chunks() + chunks > capacity {
                self.st.stats.reception_stall_events += 1;
                if !n.blocked_deliveries.contains(&(fifo as u8)) {
                    n.blocked_deliveries.push(fifo as u8);
                }
                return;
            }
            // The handle changes FIFO; the packet stays in its slot.
            let (_, exposed) = self.shared.pop(self.st.fifos.fifo_mut(i, fifo), slab);
            self.st.fifos.reception_mut(i).push(slab, h, chunks);
            // The popped head had arrived: it requested nothing.
            self.st.set_head(i, self.shared.ports, fifo, 0, exposed);
            // The pop freed downstream space: release the credit now, for
            // this cycle's arbitration to see — all of it, since phase 4
            // has not begun.
            self.shared.release(self.st, i, fifo, chunks);
            // A packet to drain, and a new head to arbitrate if the pop
            // exposed one; a node it emptied leaves the arbitration set.
            self.st.wake_cpu(i);
            if let Some(dirs) = exposed {
                self.st.wake_arb(self.shared, i, dirs, t);
            } else if !self.shared.full_scan && self.st.masks[i].occupied == 0 {
                self.st.leave_arb(i);
            }
            // Progress for the watchdog; the upstream neighbour the freed
            // credit may let win again was woken by the release.
            self.st.progress = true;
        }
    }

    // ---- Phase 3: CPU ------------------------------------------------------

    fn phase_cpu(&mut self, t: u64) {
        let mut programs = std::mem::take(&mut self.st.programs);
        let (mut visits, mut parked) = (0u64, 0u64);
        // A node acquires CPU work only through a reception-FIFO push
        // (which marks it) or through its own hooks (it is being visited),
        // so iterating a snapshot of each word misses nothing. A visit that
        // leaves its node idle clears it; parked nodes (`State::cpu_at`)
        // stay marked and cost one word. The full scan does neither, so
        // every node stays marked and is visited.
        let prune = !self.shared.full_scan;
        for w in 0..self.st.cpu_active.words.len() {
            for i in bits(self.st.cpu_active.words[w]).map(|b| w << 6 | b) {
                if prune && self.st.cpu_at[i] > t {
                    parked += 1;
                    continue;
                }
                visits += 1;
                self.cpu_visit(i, &mut programs[i], t, prune);
            }
        }
        self.st.programs = programs;
        if let Some(p) = &mut self.perf {
            p.cpu_visits += visits;
            p.cpu_parked += parked;
        }
    }

    /// Node `i`'s CPU at cycle `t`: count the blocked polls it owes from
    /// the cycles it was passed over, run it unless it is still booked,
    /// and leave what the visit learned ([`cpu_park`](Self::cpu_park)).
    /// Only the full scan visits a booked CPU: every park lies at or past
    /// the CPU's release and every re-arm waits for it (`State::wake_cpu`).
    fn cpu_visit(&mut self, i: usize, prog: &mut Box<dyn NodeProgram>, t: u64, prune: bool) {
        self.st.settle_blocked(i, t);
        let booked = self.st.nodes[i].cpu_free >= (t + 1) as f64;
        debug_assert!(
            !(prune && booked),
            "node {i} visited at cycle {t} with its CPU booked until {}",
            self.st.nodes[i].cpu_free
        );
        if !booked {
            self.cpu_node(i, prog, t);
        }
        self.cpu_park(i, prog.as_ref(), t, prune);
    }

    /// The end of every CPU visit of node `i` at `t`, the one place its wake
    /// is computed: `cpu_at`, the first cycle a visit could do more than a
    /// blocked poll (a visit before `ready` finds the CPU booked), and
    /// `owed_from`, the first of the blocked polls between `ready` and the
    /// wake, each worth the same counts while the rate window stays closed
    /// or the sleeper's decline stays pure. An open poll the rate window
    /// will refuse at `ready` is a rate poll from there, unless `prog` is
    /// already complete: that refusal latches its completion, so the visit
    /// must happen. Queued sends the room scan finds no space for, with no
    /// pull due and nothing to drain, leave the next visit nothing to do
    /// until an injection FIFO pops: the node parks on `inject_blocked` for
    /// `apply_win` to wake. Outside the full scan, a done node with nothing
    /// queued leaves the CPU set: a delivery re-marks it.
    fn cpu_park(&mut self, i: usize, prog: &dyn NodeProgram, t: u64, prune: bool) {
        let (n, drain) = (&self.st.nodes[i], !self.st.fifos.reception(i).is_empty());
        let ready = (n.cpu_free as u64).max(t + 1);
        let queued = !n.pending.is_empty() || !n.pulled.is_empty();
        // Stuck: the visit's injector found no room, or a visit that ended
        // on a booked CPU leaves sends the room scan has no room for, and
        // none of the CPU's other work is due.
        let stuck = n.inject_blocked
            || queued
                && !drain
                && !n.pull_due()
                && self
                    .shared
                    .fitting_send(&self.st.sends, n, self.st.fifos.inj(i))
                    .is_none();
        // A drain, or a queued send that fits, runs as soon as the CPU is free.
        let work = if drain || queued && !stuck {
            ready
        } else {
            u64::MAX
        };
        let poll = match n.poll {
            PollState::Open
                if !drain && n.pull_due() && self.rate_blocked(i, ready) && !prog.is_complete() =>
            {
                PollState::Rate
            }
            poll => poll,
        };
        let (wake, owed) = match poll {
            _ if drain || !n.pull_due() => (work, u64::MAX),
            PollState::Open => (ready, u64::MAX),
            PollState::Rate => (
                work.min(ready.max(n.flow.next_allowed.ceil() as u64)),
                ready,
            ),
            PollState::Asleep { denials: 0 } => (work, u64::MAX),
            PollState::Asleep { .. } => (work, ready),
        };
        if prune && n.program_done && !queued && !drain {
            self.st.cpu_active.clear(i);
        }
        (self.st.nodes[i].poll, self.st.nodes[i].inject_blocked) = (poll, stuck);
        (self.st.cpu_at[i], self.st.owed_from[i]) = (wake, owed);
    }

    fn cpu_node(&mut self, i: usize, prog: &mut Box<dyn NodeProgram>, t: u64) {
        let horizon = (t + 1) as f64;
        let mut declined = false;
        // Re-derive this node's sleep hints from scratch: the branches
        // below overwrite the defaults with whatever actually blocked.
        self.st.nodes[i].poll = PollState::Open;
        self.st.nodes[i].inject_blocked = false;
        for _guard in 0..64 {
            if self.st.nodes[i].cpu_free >= horizon {
                break;
            }
            // Reception drain has priority: it keeps the network moving.
            if !self.st.fifos.reception(i).is_empty() {
                self.cpu_drain_one(i, prog, t);
                continue;
            }
            // Top up the pulled queue from the program's schedule.
            if self.st.nodes[i].pull_due() && !declined {
                if self.rate_blocked(i, t) {
                    // Engine-enforced rate window: the program is not
                    // polled for new sends until `next_allowed`. The
                    // completion check still runs, exactly as if the
                    // program had declined the pull itself.
                    declined = true;
                    self.st.stats.pacing_blocked_cycles += 1;
                    self.st.nodes[i].poll = PollState::Rate;
                    let done = self.st.nodes[i].latch_done(prog.as_ref());
                    self.st.done_programs += usize::from(done);
                } else {
                    let reactive = self.st.nodes[i].pending.len();
                    let (spec, denials) = self.run_hook(i, prog, t, |p, api| p.next_send(api));
                    match spec {
                        Some(s) => {
                            self.rate_charge(i, t, s.chunks);
                            let st = &mut *self.st;
                            st.sends.push(&mut st.nodes[i].pulled, s);
                        }
                        None => {
                            declined = true;
                            if prog.poll_hint() == PollHint::SleepUntilDelivery {
                                // The SleepUntilDelivery contract: a decline
                                // is pure (frozen program state, repeatable
                                // denial count) until a delivery.
                                debug_assert!(
                                    self.st.nodes[i].pending.len() == reactive,
                                    "SleepUntilDelivery program mutated state on decline"
                                );
                                self.st.nodes[i].poll = PollState::Asleep { denials };
                            }
                        }
                    }
                }
            }
            if self.st.nodes[i].pending.is_empty() && self.st.nodes[i].pulled.is_empty() {
                break;
            }
            if !self.cpu_inject_one(i, t) {
                // Every queued packet is stuck on injection-FIFO space;
                // only an arbitration win here can free some.
                self.st.nodes[i].inject_blocked = true;
                break;
            }
        }
    }

    /// The one seam between the engine and a node program: build node
    /// `i`'s [`NodeApi`] for cycle `t` over the engine's scratch queue, run
    /// `hook` on it, and settle what the hook did — reactive sends it queued
    /// join the node's pending list in order, credit denials the cycle's
    /// statistics, and a hook that hands back no send may have finished the
    /// program, so its completion is latched (one that does is polled again
    /// first; the goldens pin that order), and a send `SendSpec::invalid`
    /// refuses drops the hook's sends and ends the run. Returns the hook's
    /// send and its credit denials.
    fn run_hook(
        &mut self,
        i: usize,
        prog: &mut Box<dyn NodeProgram>,
        t: u64,
        hook: impl FnOnce(&mut dyn NodeProgram, &mut NodeApi<'_>) -> Option<SendSpec>,
    ) -> (Option<SendSpec>, u64) {
        let (st, part) = (&mut *self.st, &self.shared.part);
        let node = &mut st.nodes[i];
        let mut api =
            NodeApi::new(i as u32, node.coord, t, part, &mut st.scratch).with_flow(&mut node.flow);
        let mut spec = hook(prog.as_mut(), &mut api);
        let denials = api.take_credit_blocked();
        let nodes = part.num_nodes();
        let mut sends = spec.iter().chain(&st.scratch);
        if let Some(e) = sends.find_map(|s| s.invalid(i as u32, nodes, t)) {
            st.invalid_send.get_or_insert(e);
            st.scratch.clear();
            spec = None;
        }
        for s in st.scratch.drain(..) {
            st.sends.push(&mut node.pending, s);
        }
        st.stats.credit_blocked_events += denials;
        if spec.is_none() {
            st.done_programs += usize::from(node.latch_done(prog.as_ref()));
        }
        (spec, denials)
    }

    /// Whether the engine-level rate window ([`FlowSpec::Rate`]) blocks
    /// pulling new sends from node `i`'s program at cycle `t`.
    fn rate_blocked(&self, i: usize, t: u64) -> bool {
        matches!(self.shared.cfg.flow, FlowSpec::Rate { .. })
            && (t as f64) < self.st.nodes[i].flow.next_allowed
    }

    /// Advance node `i`'s rate window after pulling a `chunks`-chunk
    /// send at cycle `t`. No-op unless the flow spec is [`FlowSpec::Rate`].
    fn rate_charge(&mut self, i: usize, t: u64, chunks: u8) {
        if let FlowSpec::Rate { chunks_per_cycle } = self.shared.cfg.flow {
            let ledger = &mut self.st.nodes[i].flow;
            ledger.next_allowed =
                ledger.next_allowed.max(t as f64) + chunks as f64 / chunks_per_cycle;
        }
    }

    /// Drain one packet from the reception FIFO and run `on_packet`.
    fn cpu_drain_one(&mut self, i: usize, prog: &mut Box<dyn NodeProgram>, t: u64) {
        let cpu = &self.shared.cfg.cpu;
        let node = &mut self.st.nodes[i];
        // The packet leaves the network here, and its slot with it: taken
        // out before the hook runs, which borrows all of `self`. This node
        // is the destination, so its coordinate is the packet's.
        let h = self.st.fifos.reception_mut(i).pop(&self.st.slab);
        let pkt = self.st.slab.take(h, node.coord);
        let cost = cpu.per_packet_receive_cycles + pkt.chunks as f64 / cpu.chunks_per_cycle;
        node.cpu_free = node.cpu_free.max(t as f64) + cost;
        node.cpu_busy += cost;
        let stats = &mut self.st.stats;
        stats.packets_delivered += 1;
        stats.payload_bytes_delivered += pkt.payload_bytes as u64;
        stats.completion_cycle = t;
        let latency = t - pkt.injected_at;
        stats.total_latency_cycles += latency;
        stats.max_latency_cycles = stats.max_latency_cycles.max(latency);
        let bucket = (64 - latency.max(1).leading_zeros() as usize - 1)
            .min(crate::stats::LATENCY_BUCKETS - 1);
        stats.latency_histogram[bucket] += 1;
        if let Some(o) = self.oracle.as_deref_mut() {
            o.on_deliver(&pkt, i as u32, t);
        }
        self.run_hook(i, prog, t, |p, api| {
            p.on_packet(api, &pkt);
            None
        });
        self.st.live_packets -= 1;
        // Freed reception space: retry stalled deliveries.
        let blocked = std::mem::take(&mut self.st.nodes[i].blocked_deliveries);
        self.st
            .deliver_q
            .extend(blocked.into_iter().map(|f| (i as u32, f)));
        self.st.progress = true;
    }

    /// Pay for and inject the first injectable pending send
    /// ([`Shared::inject_slot`]); false if there is none.
    fn cpu_inject_one(&mut self, i: usize, t: u64) -> bool {
        let st = &mut *self.st;
        let slot = self
            .shared
            .inject_slot(&st.sends, &st.nodes[i], st.fifos.inj(i));
        let Some((qi, f, plan, dst)) = slot else {
            return false;
        };
        let node = &mut st.nodes[i];
        let spec = match qi.checked_sub(node.pending.len().min(INJECT_SCAN)) {
            None => st.sends.remove(&mut node.pending, qi),
            Some(pi) => st.sends.remove(&mut node.pulled, pi),
        };
        let cpu = &self.shared.cfg.cpu;
        let cost = spec.cpu_cost_cycles
            + cpu.per_packet_inject_cycles
            + spec.chunks as f64 / cpu.chunks_per_cycle;
        node.cpu_free = node.cpu_free.max(t as f64) + cost;
        node.cpu_busy += cost;
        // The plan is the one computed for FIFO affinity during the scan,
        // reused.
        let id = self.st.next_packet_id;
        self.st.next_packet_id += 1;
        let pkt = Packet::inject(&spec, i as u32, dst, plan, id, t);
        if let Some(o) = self.oracle.as_deref_mut() {
            o.on_inject(&pkt, spec.dst_rank);
        }
        let f = self.shared.vc_cells + f;
        let q = self.st.fifos.fifo_mut(i, f);
        let was_empty = q.is_empty();
        // The one write of the packet until it is drained.
        let h = self.st.slab.alloc(pkt);
        q.push(&mut self.st.slab, h, spec.chunks as u32);
        if was_empty {
            let dirs = self.shared.request_dirs(&self.st.slab[h]);
            self.st.set_head(i, self.shared.ports, f, 0, Some(dirs));
            self.st.wake_arb(self.shared, i, dirs, t);
        }
        self.st.live_packets += 1;
        self.st.stats.packets_injected += 1;
        self.st.progress = true;
        true
    }

    // ---- Phase 4: arbitration ----------------------------------------------

    fn phase_arbitration(&mut self, t: u64) {
        let (mut visits, mut parked) = (0u64, 0u64);
        // A node acquires arbitration work only through a new head: an
        // arrival commit or a delivery pop (phases 1 and 2), or its own
        // injections (phase 3), each marking it (`State::wake_arb`), never
        // from another node's arbitration — wins go into the in-flight
        // ring, not directly into the neighbour's FIFOs — so a snapshot
        // scan misses nothing. A node that cannot win a link yet
        // (`State::arb_at`) stays marked and costs one word. The full scan
        // clears and parks nothing, as in phase 3.
        let prune = !self.shared.full_scan;
        for w in 0..self.st.arb_active.words.len() {
            for i in bits(self.st.arb_active.words[w]).map(|b| w << 6 | b) {
                if prune && self.st.arb_at[i] > t {
                    parked += 1;
                    continue;
                }
                if self.st.masks[i].occupied != 0 {
                    visits += 1;
                    self.st.arb_at[i] = self.arbitrate_node(i, t);
                }
                // Nothing to move out, or nothing left after the visit.
                if prune && self.st.masks[i].occupied == 0 {
                    self.st.leave_arb(i);
                }
            }
        }
        if let Some(p) = &mut self.perf {
            p.arb_visits += visits;
            p.arb_parked += parked;
        }
    }

    /// Arbitrate the free, live output links of node `i` some head
    /// requests, the set bits of `State::masks` under the `free`
    /// mask read once from the node's row of `link_busy_until` and the link
    /// mask `Shared::up`; the set is re-read after a win (the head it
    /// exposed may request a link still ahead), and the request masks name
    /// each link's candidates. Under a fault plan every occupied FIFO is a
    /// candidate for every live link (a detour leaves the minimal quadrant;
    /// link liveness is not in the request masks) and the mask bit only
    /// picks between the minimal move and the detour.
    ///
    /// Returns the node's wake: the earliest release among the links this
    /// visit found busy or won that a head still requests, taken once the
    /// loop is over (a head a win exposed may request a busy link). A
    /// refused free link waits for the release that gives it room
    /// (`Shared::release`); 0 if a win changed what a passed link finds;
    /// `u64::MAX` if the visit emptied the node, which then leaves the set
    /// (`State::leave_arb`). The profile counts the links it refused: free,
    /// live and requested, with no head `arbitrate_output` could give them.
    fn arbitrate_node(&mut self, i: usize, t: u64) -> u64 {
        let (sh, ports) = (self.shared, self.shared.ports);
        let shaped = sh.cfg.router.longest_first_bias && sh.cfg.router.adaptive_bubble_escape;
        let busy = &self.st.link_busy_until[i * ports..][..ports];
        let free = busy
            .iter()
            .enumerate()
            .fold(0u16, |m, (d, &until)| m | u16::from(until <= t) << d);
        // Links won; free links no head could take.
        let (mut won, mut refused, mut again) = (0u16, 0u16, false);
        // A missing or dead output link refuses arbitration outright.
        let open = free & sh.up[i];
        let mut todo = (self.st.masks[i].requested | sh.fault_dirs) & open;
        while todo != 0 {
            let d = Direction::from_index(todo.trailing_zeros() as usize);
            todo &= todo - 1;
            let nb = sh.neighbors[i * ports + d.index()] as usize;
            let Some(win) = self.arbitrate_output(i, d, nb, t) else {
                refused |= 1 << d.index();
                continue;
            };
            // The pop exposed a new head. A link it requests past `d` is in
            // the masks re-read below (`d` itself is busy as of now); a passed
            // one it requests, or a refused one it may detour over under a
            // fault plan, was judged without it; and a dynamic-VC spend may
            // open a refused link's bubble escape (`preferred_blocked`).
            let exposed = self.apply_win(i, d, nb, win, t);
            let detours = sh.fault_dirs & if exposed != 0 { refused } else { 0 };
            again |= (exposed | detours) & ((1 << d.index()) - 1) != 0;
            again |= shaped && refused != 0 && win.vc != Vc::Bubble;
            won |= 1 << d.index();
            let ahead = !((2u16 << d.index()) - 1);
            todo = (self.st.masks[i].requested | sh.fault_dirs) & open & ahead;
        }
        if let Some(p) = self.perf.as_deref_mut() {
            p.arb_refused += u64::from(refused.count_ones());
        }
        if self.st.masks[i].occupied == 0 {
            return u64::MAX;
        }
        if again {
            return 0;
        }
        let timed = (won | !free) & (self.st.masks[i].requested | sh.fault_dirs);
        let busy = &self.st.link_busy_until[i * ports..][..ports];
        let wake = bits(timed.into()).map(|d| busy[d]).min();
        wake.unwrap_or(u64::MAX)
    }

    /// Pick a winner for output `d` of node `i`, or `None`: the transit
    /// FIFOs round-robin from the link's pointer, the injection FIFOs in
    /// ascending order, injection first on odd cycles unless the router
    /// gives transit traffic priority.
    fn arbitrate_output(&self, i: usize, d: Direction, nb: usize, t: u64) -> Option<Win> {
        let link = i * self.shared.ports + d.index();
        let cand = if self.shared.fault_dirs == 0 {
            self.st.want[link]
        } else {
            self.st.masks[i].occupied
        };
        let transit = (1u64 << self.shared.vc_cells) - 1;
        let (vcs, inj) = (cand & transit, cand & !transit);
        // The pointer is the last transit winner plus one: it wraps at
        // `vc_cells` only.
        let rr = self.st.rr[link] as usize;
        let start = if rr < self.shared.vc_cells { rr } else { 0 };
        if !self.shared.cfg.router.transit_priority && (t & 1) == 1 {
            self.pick(i, d, nb, inj, 0)
                .or_else(|| self.pick(i, d, nb, vcs, start))
        } else {
            self.pick(i, d, nb, vcs, start)
                .or_else(|| self.pick(i, d, nb, inj, 0))
        }
    }

    /// The first head among node `i`'s FIFOs `cand`, visited round-robin
    /// from FIFO `start`, that output `d` can take ([`Shared::exit_vc`]).
    fn pick(&self, i: usize, d: Direction, nb: usize, cand: u64, start: usize) -> Option<Win> {
        let (sh, want) = (self.shared, self.st.want[i * self.shared.ports + d.index()]);
        // First the bits at indices >= start (ascending), then the wrap.
        let below_start = cand & ((1u64 << start) - 1);
        for mut half in [cand ^ below_start, below_start] {
            while half != 0 {
                let f = half.trailing_zeros() as usize;
                half &= half - 1;
                let h = self.st.fifos.row(i)[f].head().expect("mask says non-empty");
                let wanted = want >> f & 1 != 0;
                if let Some(vc) = sh.exit_vc(&self.st.slab[h], i, f, d, nb, wanted) {
                    return Some(Win {
                        fifo: f as u8,
                        vc,
                        detour: !wanted,
                    });
                }
            }
        }
        None
    }

    /// Move the winner out over `d`. Returns the request mask of the head
    /// its pop exposed (0: the FIFO emptied, or the new head has arrived).
    fn apply_win(&mut self, i: usize, d: Direction, nb: usize, win: Win, t: u64) -> u16 {
        let (ports, f) = (self.shared.ports, win.fifo as usize);
        // Pop the winner's handle; the head behind it becomes the FIFO's,
        // replacing the winner's requests, taken before its plan advances.
        let (h, exposed) = self.shared.pop(self.st.fifos.fifo_mut(i, f), &self.st.slab);
        let old = self.shared.request_dirs(&self.st.slab[h]);
        self.st.set_head(i, ports, f, old, exposed);
        if f < self.shared.vc_cells {
            self.st.rr[i * ports + d.index()] = win.fifo + 1;
            if exposed == Some(0) {
                self.st.deliver_q.push((i as u32, win.fifo));
            }
            // The freed space becomes upstream credit only at the cycle
            // boundary: deferring the release gives arbitration a credit
            // snapshot independent of node visit order.
            let chunks = self.st.slab[h].chunks;
            self.st.deferred.push((i as u32, win.fifo, chunks));
        } else if self.st.nodes[i].inject_blocked {
            // Injection space opened: wake the CPU if a stuck send fits now.
            let (node, inj) = (&self.st.nodes[i], self.st.fifos.inj(i));
            if self
                .shared
                .fitting_send(&self.st.sends, node, inj)
                .is_some()
            {
                self.st.nodes[i].inject_blocked = false;
                self.st.wake_cpu(i);
            }
        }
        let slab = &mut self.st.slab;
        // Spend downstream credit and launch: the hop is written into the
        // packet's record where it lies. The body is read by the oracle
        // alone, never on an unwatched hop.
        let (pkt, body) = slab.entry(h);
        let chunks = pkt.chunks as u32;
        let fifo = self.shared.debit(nb, d, win.vc, chunks);
        pkt.vc = win.vc;
        if win.detour {
            // Non-minimal fault sidestep: re-plan the route from the
            // downstream node and remember not to bounce straight back
            // through the link just crossed (port `d.opposite()` of `nb`).
            // The reverse of a dead minimal direction on a torus dimension
            // (a ring offers nothing else) goes on the long way round it,
            // since the minimal route from `nb` leads straight back; any
            // other detour re-plans minimally. The plan leads from this node.
            let part = &self.shared.part;
            pkt.plan =
                if pkt.plan.dirs() >> d.opposite().index() & 1 != 0 && part.is_torus_dim(d.dim) {
                    pkt.plan.long_way(part, d)
                } else {
                    let to = pkt.plan.destination(part, part.coord_of(i as u32));
                    HopPlan::new(part, part.coord_of(nb as u32), to, TieBreak::SrcParity)
                };
            pkt.note_detour(d.opposite().index());
        } else {
            pkt.plan.advance(d.dim);
            pkt.clear_detour_from();
        }
        if let Some(o) = self.oracle.as_deref_mut() {
            if win.detour {
                // Rebase the hop ledger before recording the hop: the
                // replanned route supersedes the old planned count.
                o.on_detour(body.id, pkt.plan.total_hops());
            }
            o.on_hop(body.id, t);
        }
        // Filed as won, so a ring slot lists its arrivals in win order.
        let arrive = t + chunks as u64 + HOP_LATENCY_CYCLES;
        debug_assert!(arrive - t < RING as u64, "a flight must fit the ring");
        let arr = Arrival::new(nb as u32, h, fifo as u8, pkt);
        self.st.ring[(arrive % RING as u64) as usize].push(arr);
        self.st.link_busy_until[i * ports + d.index()] = t + chunks as u64;
        let (di, stats) = (d.dim.index(), &mut self.st.stats);
        stats.link_busy_chunks[di] += chunks as u64;
        if !stats.link_busy_per_link.is_empty() {
            stats.link_busy_per_link[i * ports + d.index()] += chunks as u64;
        }
        stats.hops_taken[di] += 1;
        match win.vc {
            Vc::Bubble => stats.bubble_hops += 1,
            _ => stats.dynamic_hops += 1,
        }
        self.st.progress = true;
        exposed.unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, ScriptedProgram};

    /// What a hop touches, pinned byte for byte: a field added to any of
    /// these is a cost on the memory-bound rows (EXPERIMENTS.md, "A hop
    /// reads 20 bytes"), and this is the test that names it.
    #[test]
    fn hot_path_layout_is_pinned() {
        use std::mem::{size_of, size_of_val};
        // One record per hop goes through a ring slot; at 88 bytes (it used
        // to carry the packet) filing and committing it were a fifth of the
        // 4,096-node TPS row.
        assert_eq!(size_of::<Arrival>(), 12);
        // 25 headers per 3-D node: at 16 bytes a row is 400 bytes, at 32
        // (a `VecDeque`) it was 800 plus a heap buffer each.
        assert_eq!(size_of::<ChunkFifo>(), 12);
        // Six hop counts and the hint bits, read at every head change and
        // written at every hop; 18 bytes with a sign per dimension.
        assert_eq!(size_of::<HopPlan>(), 14);
        // A slab slot is the record routing reads and a hop writes, the cold
        // body and a 4-byte `next` word, and a hop pulls 20 of its bytes
        // through the cache instead of a whole 72-byte `Packet` (-11.7 % per
        // hop, 10/10 pairs, on the 4,096-node TPS row, whose 41k live packets
        // outgrow the L2; EXPERIMENTS.md, "A hop reads 20 bytes"). A field routing
        // reads belongs in `Hop`, and costs every hop; one it does not, in
        // the body.
        assert_eq!(size_of::<Hop>(), 20);
        // The body is 32 bytes, 52 a slot with its hop record. It was 56
        // with a 12-byte destination coordinate and a `PacketMeta` carrying 3
        // bytes of padding of its own, then 40 with the destination a rank
        // and the meta flattened. Now no destination is stored (the node
        // holding a packet and its plan name it, `HopPlan::destination`) and
        // the payload count is 16 bits: at the 4,096-node TPS row's 41,129
        // slots, 0.33 MB less than at 40.
        assert_eq!(size_of::<crate::packet::Body>(), 32);
        // A 3-D node is its `NodeState`, its arbitration masks, its row of 18
        // transit, 6 injection and 1 reception header, and 6 entries in each
        // per-link table (`want`, `rr`, `link_busy_until`): 546 bytes, 2.2 MB
        // for the 4,096 nodes of 8x32x16. Row and table entries, 402 of the
        // 546, are sized by the partition's arity — at `MAX_PORTS` they would
        // be 720 for every shape.
        let part = Partition::torus(4, 4, 4);
        let idle = (0..64).map(|_| Box::new(ScriptedProgram::idle()) as _);
        let engine = Engine::new(SimConfig::new(part), idle.collect());
        let st = &engine.state;
        assert_eq!(st.fifos.row_bytes(), 25 * 12);
        // One request mask per link covers the transit and injection FIFOs.
        let per_link = [st.want.len() * size_of_val(&st.want[0]), st.rr.len()];
        assert_eq!(per_link, [64 * 6 * 8, 64 * 6]);
        // The occupancy mask and requested outputs, what the arbitration scan
        // and a visit read first, are 16 bytes of their own per node: inside
        // the 264-byte `NodeState` they cost the scan a line of cold state
        // per node.
        assert_eq!(size_of_val(&st.masks[0]), 16);
        // The credit pacer's two maps are one pointer until it uses them: 96
        // bytes of empty maps inline made a node state 256 bytes, 0.4 MB at
        // 4,096 nodes, that every other pacing spec never read. The two send
        // queues are 12-byte list headers into the engine's send slab: as
        // `VecDeque`s they were 32 bytes each and a buffer per sending node.
        assert_eq!(size_of::<NodeState>(), 128);
        // One slot per cycle of the longest flight (8 chunks and a hop of
        // latency), rounded up to a power of two. Each slot keeps its
        // busiest cycle's capacity: at 64 slots the 4,096-node TPS row held
        // room for 171,008 arrivals, 2.05 MB; at 16, for 45,056.
        assert_eq!((RING, st.ring.len()), (16, 16));
        // The neighbour table is sized by arity too, and indexed like the
        // per-link tables: 24 bytes per 3-D node, where `MAX_PORTS` rows
        // cost 48 (98 KB more on 8x32x16).
        let nb = &engine.shared.neighbors;
        assert_eq!(nb.len() * size_of_val(&nb[0]), 64 * 6 * 4);
    }

    /// `inject_slot` as it was before it passed over sends with no room
    /// unplanned, verbatim: a hop plan for every scanned send, then the
    /// affinity FIFO, else the lowest eligible one, whichever fits first.
    fn inject_slot_planning_every_send(
        sh: &Shared,
        sends: &SendSlab,
        node: &NodeState,
        inj: &[ChunkFifo],
    ) -> Option<(usize, usize, HopPlan, Coord)> {
        let reactive = sends.iter(&node.pending).take(INJECT_SCAN);
        let queued = reactive.chain(sends.iter(&node.pulled).take(INJECT_SCAN));
        for (qi, spec) in queued.enumerate() {
            let chunks = spec.chunks;
            let eligible = sh.class_fifos[spec.class as usize];
            if eligible == 0 {
                continue;
            }
            let dst = sh.part.coord_of(spec.dst_rank);
            let plan = HopPlan::new(&sh.part, node.coord, dst, TieBreak::SrcParity);
            let primary = plan.dimension_order_next().map_or(0, |d| d.index());
            let mut from_pref = eligible;
            for _ in 0..primary % eligible.count_ones() as usize {
                from_pref &= from_pref - 1;
            }
            let pref = from_pref.trailing_zeros() as usize;
            let fits = |f: usize| inj[f].occupied_chunks() + chunks as u32 <= INJ_FIFO_CHUNKS;
            let ascending = (0..inj.len()).filter(|&f| eligible >> f & 1 != 0);
            if let Some(f) = std::iter::once(pref).chain(ascending).find(|&f| fits(f)) {
                return Some((qi, f, plan, dst));
            }
        }
        None
    }

    /// Seeded random injection-FIFO occupancies (above a per-case floor, so
    /// some cases have every send stuck), send queues (reactive and pulled,
    /// up to past the scan depth, 1 to 8 chunks, classes 0 to 2) and
    /// sources, under the default class masks and the Two Phase Schedule's
    /// (`bgl_core::tps_inj_class_masks(6)`: FIFOs 0–2 take class 0, 3–5
    /// class 1, none class 2): the injector picks the same send, FIFO, plan
    /// and destination as the scan it replaced.
    #[test]
    fn inject_slot_matches_the_scan_that_planned_every_send() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let part = Partition::torus(8, 4, 2);
        let n = part.num_nodes();
        let mut rng = SmallRng::seed_from_u64(20261015);
        let (mut found, mut none) = (0, 0);
        for masks in [vec![], vec![1, 1, 1, 2, 2, 2]] {
            let mut cfg = SimConfig::new(part);
            cfg.inj_class_masks = masks;
            let idle = (0..n).map(|_| Box::new(ScriptedProgram::idle()) as _);
            let engine = Engine::new(cfg.clone(), idle.collect());
            for _ in 0..3000 {
                let src = rng.gen_range(0..n);
                let mut node = NodeState::new(part.coord_of(src), &cfg);
                let (mut slab, mut inj) = (Slab::new(), vec![ChunkFifo::default(); 6]);
                let mut sends = SendSlab::new();
                let floor = rng.gen_range(0..=INJ_FIFO_CHUNKS);
                for f in &mut inj {
                    let target = rng.gen_range(floor..=INJ_FIFO_CHUNKS);
                    while f.occupied_chunks() < target {
                        let chunks = rng.gen_range(1..=8u32).min(target - f.occupied_chunks());
                        let h = slab.alloc(Packet::new(&part, src, (src + 1) % n));
                        f.push(&mut slab, h, chunks);
                    }
                }
                for q in [&mut node.pending, &mut node.pulled] {
                    for _ in 0..rng.gen_range(0..=20usize) {
                        let dst = (src + rng.gen_range(1..n)) % n;
                        let spec = SendSpec::adaptive(dst, rng.gen_range(1..=8), 240);
                        sends.push(q, spec.with_class(rng.gen_range(0..=2)));
                    }
                }
                let slot = engine.shared.inject_slot(&sends, &node, &inj);
                let reference =
                    inject_slot_planning_every_send(&engine.shared, &sends, &node, &inj);
                assert_eq!(slot, reference);
                (found, none) = (
                    found + usize::from(slot.is_some()),
                    none + usize::from(slot.is_none()),
                );
            }
        }
        // Both outcomes are exercised, not one of them vacuously.
        assert!(found > 1000 && none > 100, "{found} found, {none} stuck");
    }

    /// The direct mask computation is `wants` asked of every direction, for
    /// every (src, dst) pair — `src == dst` is an arrived head — of a 2-D, an
    /// asymmetric 3-D, a mesh-and-torus 3-D, a 4-D and a 6-D partition, for
    /// deterministic and adaptive heads, with the router's longest-first
    /// shaping off and on.
    #[test]
    fn request_dirs_is_wants_over_every_direction() {
        for shape in ["4x3", "2x5x3", "4Mx3x2M", "2x3x2x4", "2x2x3x2x2x2"] {
            let part: Partition = shape.parse().unwrap();
            let n = part.num_nodes();
            let mut cfg = SimConfig::new(part);
            for (bias, routing) in [
                (false, RoutingMode::Deterministic),
                (false, RoutingMode::Adaptive),
                (true, RoutingMode::Adaptive),
            ] {
                cfg.router.longest_first_bias = bias;
                let idle = (0..n).map(|_| Box::new(ScriptedProgram::idle()) as _);
                let engine = Engine::new(cfg.clone(), idle.collect());
                let router = &engine.shared;
                for (src, dst) in (0..n * n).map(|k| (k / n, k % n)) {
                    let (mut pkt, _) = Packet::new(&part, src, dst).split();
                    pkt.routing = routing;
                    let dirs = router.request_dirs(&pkt);
                    assert_eq!(dirs == 0, pkt.plan.is_done(), "{pkt:?}");
                    for d in Direction::all(MAX_DIMS) {
                        let cached = dirs >> d.index() & 1 != 0;
                        assert_eq!(cached, router.wants(&pkt, d), "{pkt:?} dir {d}");
                    }
                }
            }
        }
    }
}
