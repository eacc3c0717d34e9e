//! The router's flow control: the credit cells, their one debit and one
//! release, and every rule that reads them. A cell is a transit VC FIFO's
//! room net of the packets launched towards it: a win spends it
//! ([`Shared::debit`]), the pop that takes the packet out gives it back
//! ([`Shared::release`]: in phase 2 for a delivery, at the cycle boundary
//! for a phase-4 pop, at once for a packet a dying link drops), so each
//! cell conserves `credit + occupied + in flight = capacity`, which the
//! oracle checks at every boundary. Nothing else names a cell: the oracle
//! reads one through [`Shared::credit`]; `pick`, `State::can_leave` and
//! `Engine::stuck` ask [`Shared::exit_vc`] and [`Shared::detour_dirs`].
//!
//! The bubble rule, [`bubble_admits`], counts chunks, and on a ring of
//! FIFOs the free chunks can split into pieces each smaller than the head
//! waiting for one: the model checker below drives it over one directed
//! ring and finds that deadlock when packet sizes mix.
//!
//! Node visit order does not matter: arbitration reads other nodes only
//! through cells, and during phase 4 a cell is spent only by the unique
//! upstream node of its FIFO and never released (phase 2 runs before it,
//! the boundary after, `Phases::cycle`). So each node arbitrates against
//! the same credit snapshot whether the scan reaches it first or last,
//! visited or passed over: what the two clocks and parking rely on to agree
//! byte for byte, and the goldens pin.

use super::{bits, Shared, State};
use crate::config::{Vc, NUM_VCS};
use crate::node::vc_fifo_index;
use crate::packet::{Hop, RoutingMode, DETOUR_BUDGET, MAX_PACKET_CHUNKS};
use bgl_torus::Direction;
use std::cell::Cell;

/// The credit cells, indexed `node * vc_cells + vc_fifo_index(port, vc)`:
/// cells, for rules that take `&Shared` while phases hold `&mut State`.
pub(super) struct Credits {
    cells: Vec<Cell<u32>>,
}

impl Credits {
    /// `cells` cells of `chunks` each: every FIFO empty.
    pub(super) fn new(cells: usize, chunks: u32) -> Credits {
        let cells = vec![Cell::new(chunks); cells];
        Credits { cells }
    }
}

/// The bubble rule: whether a bubble FIFO with `free` chunks of credit
/// takes a packet of `chunks`, `continuing` along its dimension on the
/// bubble VC or entering it, which must leave `slack` chunks free besides.
#[inline]
pub(super) fn bubble_admits(free: u32, chunks: u32, continuing: bool, slack: u32) -> bool {
    free >= chunks + if continuing { 0 } else { slack }
}

impl Shared {
    /// Credit of transit FIFO `fifo` (`vc_fifo_index`) of node `n`.
    #[inline]
    pub(super) fn credit(&self, n: usize, fifo: usize) -> u32 {
        self.credits.cells[n * self.vc_cells + fifo].get()
    }

    /// Spend `chunks` of the credit of the FIFO a win over output `d` enters
    /// at `nb` on `vc`, and return that FIFO's index.
    pub(super) fn debit(&self, nb: usize, d: Direction, vc: Vc, chunks: u32) -> usize {
        let fifo = vc_fifo_index(d.opposite().index(), vc.index());
        let cell = &self.credits.cells[nb * self.vc_cells + fifo];
        debug_assert!(cell.get() >= chunks, "exit_vc checked credit");
        cell.set(cell.get() - chunks);
        fifo
    }

    /// Return `chunks` of credit to transit FIFO `fifo` of node `node`, the
    /// one place credit comes back, and wake `u`, the one node that can
    /// spend it, at the release of its link `d` into the cell if a head there
    /// may take `d` — unless the cell had room for anything already: no rule
    /// asks more than the largest packet entering the bubble VC.
    pub(super) fn release(&self, st: &mut State, node: usize, fifo: usize, chunks: u32) {
        let cell = &self.credits.cells[node * self.vc_cells + fifo];
        let held = cell.get();
        cell.set(held + chunks);
        let slack = self.cfg.router.bubble_slack_chunks;
        if bubble_admits(held, MAX_PACKET_CHUNKS.into(), false, slack) {
            return;
        }
        let port = fifo / NUM_VCS;
        let (u, d) = (self.neighbors[node * self.ports + port] as usize, port ^ 1);
        if (st.masks[u].requested | self.fault_dirs) >> d & 1 != 0 {
            st.arb_at[u] = st.arb_at[u].min(st.link_busy_until[u * self.ports + d]);
        }
    }

    /// True when no live preferred direction of `pkt` at node `n` has
    /// dynamic-VC room downstream: the precondition for the escape from a
    /// non-preferred output. A dead preferred link never opens, so it does
    /// not count: with every preferred link dead, the escape is open.
    fn preferred_blocked(&self, n: usize, pkt: &Hop) -> bool {
        bits((pkt.plan.longest_dirs() & self.up[n]).into()).all(|d| {
            let nb = self.neighbors[n * self.ports + d] as usize;
            self.dynamic_vc(pkt, nb, d ^ 1).is_none()
        })
    }

    /// Choose the downstream VC for `pkt` over output `d`, or `None` if no
    /// VC has credit. `from_dim` is the dimension of the input port the
    /// packet currently occupies (`None` for injection); `n` and `nb` are
    /// ranks.
    pub(super) fn feasible_vc(
        &self,
        pkt: &Hop,
        n: usize,
        from_dim: Option<usize>,
        d: Direction,
        nb: usize,
    ) -> Option<Vc> {
        let nb_port = d.opposite().index();
        let bubble = || self.bubble_feasible(pkt, from_dim, d, nb, nb_port);
        if pkt.routing == RoutingMode::Deterministic {
            return bubble();
        }
        // The escape onto the bubble VC, dimension-ordered only.
        let escape =
            || self.cfg.router.adaptive_bubble_escape && pkt.plan.dimension_order_next() == Some(d);
        // Under the bias, a non-preferred (dimension-order-only) direction
        // is the escape alone, and only once every preferred direction is
        // credit-blocked: otherwise it becomes a side door that leaks
        // short-dimension hops and recreates the congestion it exists to
        // break.
        if self.cfg.router.longest_first_bias && pkt.plan.longest_dirs() >> d.index() & 1 == 0 {
            return (escape() && self.preferred_blocked(n, pkt))
                .then(bubble)
                .flatten();
        }
        self.dynamic_vc(pkt, nb, nb_port)
            .or_else(|| escape().then(bubble).flatten())
    }

    /// Join the shorter queue: of the two dynamic VC FIFOs behind port
    /// `nb_port` of node `nb`, the one with more free space (ties broken by
    /// packet-id parity, [`Hop::parity`]) — if `pkt` fits there, else it
    /// fits in neither.
    fn dynamic_vc(&self, pkt: &Hop, nb: usize, nb_port: usize) -> Option<Vc> {
        let f0 = self.credit(nb, vc_fifo_index(nb_port, 0));
        let f1 = self.credit(nb, vc_fifo_index(nb_port, 1));
        let (vc, free) = if f0 > f1 || (f0 == f1 && pkt.parity == 0) {
            (Vc::Dynamic0, f0)
        } else {
            (Vc::Dynamic1, f1)
        };
        (free >= pkt.chunks as u32).then_some(vc)
    }

    /// The bubble VC behind port `nb_port` of node `nb`, if
    /// [`bubble_admits`] `pkt` there: it continues if it holds the bubble VC
    /// and stays in its dimension.
    fn bubble_feasible(
        &self,
        pkt: &Hop,
        from_dim: Option<usize>,
        d: Direction,
        nb: usize,
        nb_port: usize,
    ) -> Option<Vc> {
        let continuing = pkt.vc == Vc::Bubble && from_dim == Some(d.dim.index());
        let free = self.credit(nb, vc_fifo_index(nb_port, Vc::Bubble.index()));
        let slack = self.cfg.router.bubble_slack_chunks;
        bubble_admits(free, pkt.chunks.into(), continuing, slack).then_some(Vc::Bubble)
    }

    /// Whether every minimal direction of `pkt` at node `n` is a dead
    /// link — the precondition for a non-minimal fault detour. `false` on
    /// a healthy run (every link is up) or while any minimal link is up.
    fn minimal_dead(&self, n: usize, pkt: &Hop) -> bool {
        let dirs = pkt.plan.dirs();
        dirs != 0 && dirs & self.up[n] == 0
    }

    /// The live outputs of node `n` a fault detour of `pkt` may take, credit
    /// and its minimal quadrant aside: none unless it is adaptive with
    /// [`DETOUR_BUDGET`] left, and never the link it last detoured in by.
    /// While a live output perpendicular to every dead minimal direction
    /// exists, only those are offered: the reverse of a dead `X-` is `X+`,
    /// from whose far end the minimal route leads straight back, so the
    /// packet would ping-pong on the one dimension until its budget is
    /// spent. A ring (one dimension) has no perpendicular output and keeps
    /// the reverse, which `apply_win` re-plans the long way round the ring
    /// (`HopPlan::long_way`) on a torus dimension.
    pub(super) fn detour_dirs(&self, pkt: &Hop, n: usize) -> u16 {
        if pkt.routing != RoutingMode::Adaptive || pkt.detour_count() >= DETOUR_BUDGET {
            return 0;
        }
        let live = self.up[n] & !pkt.detour_from().map_or(0, |p| 1 << p);
        // Both direction bits of every dimension with a dead minimal one.
        let dead = pkt.plan.dirs() & !self.up[n];
        let dims = (dead | dead >> 1) & 0x5555;
        match live & !(dims | dims << 1) {
            0 => live,
            perpendicular => perpendicular,
        }
    }

    /// The VC of a fault detour of `pkt` over the *non-minimal* output `d` of
    /// node `n`, a live link: a [`detour_dirs`](Self::detour_dirs) output,
    /// once its whole minimal quadrant is dead, on the dynamic VCs only, so
    /// the bubble VC stays dimension-ordered and the escape deadlock-free.
    /// The winner re-plans from the downstream node (`apply_win`).
    fn detour_vc(&self, pkt: &Hop, n: usize, d: Direction, nb: usize) -> Option<Vc> {
        if self.detour_dirs(pkt, n) >> d.index() & 1 == 0 || !self.minimal_dead(n, pkt) {
            return None;
        }
        self.dynamic_vc(pkt, nb, d.opposite().index())
    }

    /// A freshly detoured head must not immediately bounce back through
    /// the link it arrived on while any *other* minimal direction is
    /// alive at this node: waiting for credits on a live forward link
    /// always beats burning detour budget on a ping-pong (the systematic
    /// bounce would exhaust [`DETOUR_BUDGET`] against a single dead link).
    /// When the return is the only live minimal direction it stays allowed
    /// — it is a normal minimal move and clears the detour mark on a win.
    fn suppress_return(&self, pkt: &Hop, n: usize, d: Direction) -> bool {
        pkt.detour_from() == Some(d.index())
            && pkt.plan.dirs() & self.up[n] & !(1 << d.index()) != 0
    }

    /// The VC on which output `d` of node `n` (to `nb`), a live link, takes
    /// `pkt`, the head of FIFO `f`: its minimal move if `wanted` (its request
    /// bit for `d`), else — only ever under a fault plan — a detour. What
    /// `pick` and `State::can_leave` ask.
    pub(super) fn exit_vc(
        &self,
        pkt: &Hop,
        n: usize,
        f: usize,
        d: Direction,
        nb: usize,
        wanted: bool,
    ) -> Option<Vc> {
        if !wanted {
            self.detour_vc(pkt, n, d, nb)
        } else if self.suppress_return(pkt, n, d) {
            None
        } else {
            self.feasible_vc(pkt, n, self.input_dim(f), d, nb)
        }
    }
}

#[cfg(test)]
mod tests {
    //! A bounded model checker of the bubble rule: [`bubble_admits`] itself
    //! decides every move on one directed ring, and a depth-first search
    //! visits every state reachable from the empty ring.

    use super::bubble_admits;
    use std::collections::hash_map::{Entry, HashMap};

    /// Bits of a state word per FIFO: four packets of four bits each, the
    /// head lowest, a packet being `chunks << 2 | hops` (never 0).
    const FIFO: u32 = 16;

    /// One directed ring, the line of one dimension in one direction, of
    /// `nodes` bubble FIFOs of `capacity` chunks. At any node a packet of
    /// any of `sizes` chunks may enter the bubble VC, into the next node's
    /// FIFO, for 1 to `nodes - 1` hops; a head with hops left continues into
    /// the next FIFO, and one with none leaves the ring (reception never
    /// fills). A state is one word, FIFO `j` at bit `FIFO * j`, and a
    /// packet's hops are those left after the FIFO it sits in.
    struct Ring {
        nodes: u32,
        capacity: u32,
        sizes: &'static [u32],
        slack: u32,
    }

    impl Ring {
        fn fifo(&self, s: u64, j: u32) -> u64 {
            s >> (FIFO * j) & 0xffff
        }

        fn with_fifo(&self, s: u64, j: u32, q: u64) -> u64 {
            s & !(0xffff << (FIFO * j)) | q << (FIFO * j)
        }

        /// The packets of FIFO word `q`, head first: `(chunks, hops)`.
        fn packets(q: u64) -> impl Iterator<Item = (u32, u64)> {
            let nibbles = (0..4).map(move |k| q >> (4 * k) & 0xf);
            nibbles
                .take_while(|&p| p != 0)
                .map(|p| ((p >> 2) as u32, p & 3))
        }

        /// Chunks queued on the whole ring in state `s`.
        fn held(&self, s: u64) -> u32 {
            (0..self.nodes)
                .map(|j| self.capacity - self.free(self.fifo(s, j)))
                .sum()
        }

        fn free(&self, q: u64) -> u32 {
            self.capacity - Self::packets(q).map(|(chunks, _)| chunks).sum::<u32>()
        }

        /// `q` with `packet` queued behind its last packet.
        fn push(q: u64, packet: u64) -> u64 {
            q | packet << (4 * Self::packets(q).count())
        }

        /// Every state one move from `s`: an entry into any FIFO, the head of
        /// any FIFO continuing or leaving.
        fn moves(&self, s: u64) -> Vec<u64> {
            let mut next = Vec::new();
            for j in 0..self.nodes {
                let q = self.fifo(s, j);
                for &chunks in self.sizes {
                    if bubble_admits(self.free(q), chunks, false, self.slack) {
                        let hops = 0..u64::from(self.nodes - 1);
                        let entries = hops.map(|h| Self::push(q, u64::from(chunks) << 2 | h));
                        next.extend(entries.map(|q| self.with_fifo(s, j, q)));
                    }
                }
                let (head, popped) = (q & 0xf, self.with_fifo(s, j, q >> 4));
                let k = (j + 1) % self.nodes;
                let r = self.fifo(s, k);
                if head == 0 {
                    continue;
                } else if head & 3 == 0 {
                    next.push(popped);
                } else if bubble_admits(self.free(r), (head >> 2) as u32, true, self.slack) {
                    next.push(self.with_fifo(popped, k, Self::push(r, head - 1)));
                }
            }
            next
        }

        /// The least rotation of `s`: the ring looks the same from each node.
        fn canonical(&self, s: u64) -> u64 {
            let bits = FIFO * self.nodes;
            let turn = |r: u64| (r << FIFO | r >> (bits - FIFO)) & (u64::MAX >> (64 - bits));
            let rotations = std::iter::successors(Some(s), |&r| Some(turn(r)));
            rotations
                .take(self.nodes as usize)
                .min()
                .expect("a ring has a node")
        }

        /// Depth first from the empty ring over every reachable state that
        /// holds at most `load` chunks, up to rotation, to the first
        /// deadlock: packets left and no move. How many states it visited,
        /// and the deadlock's trace from the empty ring, each state one move
        /// (and a rotation) from the last.
        fn search(&self, load: u32) -> (usize, Option<Vec<u64>>) {
            let mut parent = HashMap::from([(0, 0)]);
            let mut stack = vec![0];
            while let Some(s) = stack.pop() {
                let next = self.moves(s);
                if next.is_empty() {
                    let mut trace = vec![s];
                    while let Some(&p) = trace.last().filter(|&&t| t != 0) {
                        trace.push(parent[&p]);
                    }
                    trace.reverse();
                    return (parent.len(), Some(trace));
                }
                let light = |&t: &u64| self.held(t) <= load;
                for t in next.into_iter().filter(light).map(|t| self.canonical(t)) {
                    if let Entry::Vacant(e) = parent.entry(t) {
                        e.insert(s);
                        stack.push(t);
                    }
                }
            }
            (parent.len(), None)
        }

        /// Each FIFO's packets, head first, as `chunks/hops`.
        fn show(&self, s: u64) -> String {
            let fifo = |j| {
                let packets = Self::packets(self.fifo(s, j));
                let shown: Vec<_> = packets.map(|(c, h)| format!("{c}/{h}")).collect();
                format!("[{}]", shown.join(" "))
            };
            (0..self.nodes).map(fifo).collect::<Vec<_>>().join(" ")
        }
    }

    /// The deadlock-prone ring: FIFOs twice the largest packet, packets of
    /// one and two chunks, the slack one largest packet.
    const MIXED: Ring = Ring {
        nodes: 4,
        capacity: 4,
        sizes: &[1, 2],
        slack: 2,
    };

    /// The chunk-counting bubble rule deadlocks a ring when packet sizes
    /// mix: the pin that a bubble rule provably free of deadlock flips. An
    /// entry leaves `slack` chunks free in the FIFO it enters, so the ring
    /// always holds a largest packet's worth of free chunks; in the deadlock
    /// found they are split, each piece smaller than the head waiting on it.
    /// The least-loaded deadlock (no FIFO can block both an entry and its
    /// upstream head with more than one chunk free, so none holds fewer than
    /// 12 chunks) is the model-scale twin of 8-chunk heads facing 7 + 1 free
    /// chunks: every FIFO holds a 2-chunk head with hops left, then a
    /// 1-chunk packet, 1 chunk free in each, 4 on the ring, none usable.
    #[test]
    fn chunk_bubbles_deadlock_a_ring_of_mixed_sizes() {
        let ring = MIXED;
        for load in [16, 12] {
            let (states, trace) = ring.search(load);
            let trace = trace.unwrap_or_else(|| panic!("no deadlock in {states} states"));
            let dead = *trace.last().expect("a trace ends in its deadlock");
            let shown = format!("{} after {} moves", ring.show(dead), trace.len() - 1);
            let free: Vec<u32> = (0..4).map(|j| ring.free(ring.fifo(dead, j))).collect();
            assert!(free.iter().sum::<u32>() >= ring.slack, "{shown}");
            if load == 12 {
                for j in 0..4 {
                    let packets: Vec<_> = Ring::packets(ring.fifo(dead, j)).collect();
                    let shape = (packets.len(), packets[0].0, packets[0].1 > 0, packets[1].0);
                    assert_eq!(shape, (2, 2, true, 1), "{shown}");
                }
            }
        }
    }

    /// With packets of one size the same rule keeps the ring live: every
    /// state reachable from the empty ring, 2,194 up to rotation, has a move
    /// or is empty.
    #[test]
    fn chunk_bubbles_keep_a_ring_of_one_size_live() {
        let ring = Ring {
            sizes: &[2],
            ..MIXED
        };
        let (states, trace) = ring.search(ring.nodes * ring.capacity);
        let shown = trace.map(|t| ring.show(t[t.len() - 1]));
        assert_eq!((states, shown), (2194, None));
    }
}
