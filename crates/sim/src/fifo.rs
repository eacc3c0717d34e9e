//! Queue storage: one packet [`Slab`] per engine and chunk-accounted FIFOs
//! that thread `u32` handles through it, and one [`SendSlab`] whose lists
//! hold the sends the nodes have queued but not yet injected.
//!
//! A packet is written once, where it is injected, and stays in that slot
//! until it is drained (or dropped by a fault): VC FIFOs, injection FIFOs,
//! the reception FIFO and the in-flight ring all hold its handle. A
//! [`ChunkFifo`] is therefore a plain 12-byte header — no buffer of its
//! own — and a node's headers sit side by side in one row of
//! [`FifoRows`], sized by the partition's arity, so a head packet is two
//! dependent loads away: row, then slot. Nothing is allocated per FIFO.
//!
//! ## Packets
//!
//! A slot is two records, kept in blocks of 64 slots, and a list link in
//! a vector of its own. The 20-byte [`Hop`] is everything routing
//! reads and a hop writes — plan, detour state, chunks, routing mode, VC
//! and the id's parity bit — and is what `slab[h]` yields. The [`Body`] is
//! the rest of the [`Packet`] but its destination, which the node holding
//! the packet and its plan name, read through [`Slab::body`] only where a
//! packet leaves the network ([`Slab::take`] reassembles it) or is watched
//! by the oracle (its id) or the tracer (its kind). A hop never touches
//! it: at the 4,096-node scale, where the slab outgrows the cache, that is
//! a cold miss per hop not taken.
//!
//! ## Sends
//!
//! A send a node's program has handed the engine waits in a [`SendSlab`]
//! slot until the node injects it, on one of the node's two [`SendList`]s
//! (reactive, and pulled from its schedule). Slots recycle through a free
//! list, as packet slots do, so the send slab is sized by the most sends
//! queued at once over the whole machine, not by the sum of every node's
//! longest queue, and a node that never sends holds no buffer.
//!
//! Capacity is in chunks, not packets, matching the byte-granular BG/L
//! buffers, and is a property of the FIFO *kind* (transit, injection,
//! reception — three `SimConfig` values), so the header does not carry it.
//! The header tracks only *physical* occupancy; in-flight credit for the
//! transit VC FIFOs (space spent by an upstream arbitration win before the
//! packet physically arrives) lives in the engine's credit cells (see
//! `engine`), the one source of truth arbitration reads. Injection and
//! reception FIFOs are only ever probed by
//! their own node, which gates on `capacity − occupied_chunks`.

use crate::packet::{Body, Hop, Packet, SendSpec};
use bgl_torus::{Coord, Partition};

/// "No handle": the end of the free list.
const NIL: u32 = u32::MAX;

/// Slots per [`Block`]: a power of two, so a handle splits into block and
/// slot with a shift and a mask.
const BLOCK: usize = 64;

/// `BLOCK` consecutive slots' two records: their hop records side by side,
/// then their bodies. A hop reads the same 20 bytes as from a vector of
/// hop records, while the records stay one growing allocation, 52 bytes a
/// slot (the vector of whole packets was 72). As two vectors they hop
/// no faster measurably, and the smaller allocations stay under glibc's
/// mmap threshold longer, served from a heap the process's later engines
/// do not get back: `paper_suite_quick`'s `peak_rss_mb` grew 10.9 %
/// (EXPERIMENTS.md, "A hop reads 20 bytes").
struct Block {
    hops: [Hop; BLOCK],
    bodies: [Body; BLOCK],
}

/// Block and slot of handle `h`.
#[inline]
fn at(h: u32) -> (usize, usize) {
    (h as usize / BLOCK, h as usize % BLOCK)
}

/// The engine's packet store. Slots are recycled through a free list and
/// never returned to the allocator, so [`slots`](Self::slots) is the
/// high-water mark of packets alive at once.
///
/// A slot is the packet's [`Hop`] record, what routing reads and a hop
/// writes, which indexing yields; its [`Body`], read through
/// [`body`](Self::body) only off the hop path (both in its [`Block`]); and
/// its `next` word.
pub(crate) struct Slab {
    blocks: Vec<Block>,
    /// Per slot: the next handle in whichever list holds the slot — a
    /// FIFO's queue or the free list. Kept apart from the packets so a
    /// push behind a queued packet touches this word and nothing else.
    next: Vec<u32>,
    free: u32,
    live: usize,
}

impl Slab {
    pub(crate) fn new() -> Slab {
        Slab {
            blocks: Vec::new(),
            next: Vec::new(),
            free: NIL,
            live: 0,
        }
    }

    /// Store `pkt` and return its handle.
    #[inline]
    pub(crate) fn alloc(&mut self, pkt: Packet) -> u32 {
        self.live += 1;
        let (hop, body) = pkt.split();
        let h = self.free;
        if h == NIL {
            let h = self.next.len() as u32;
            self.next.push(NIL);
            if (h as usize).is_multiple_of(BLOCK) {
                self.grow(hop, body);
            } else {
                self.put(h, hop, body);
            }
            return h;
        }
        self.free = self.next[h as usize];
        self.put(h, hop, body);
        h
    }

    #[inline]
    fn put(&mut self, h: u32, hop: Hop, body: Body) {
        let (b, s) = at(h);
        let block = &mut self.blocks[b];
        (block.hops[s], block.bodies[s]) = (hop, body);
    }

    /// Append a block holding `hop` and `body` in its first slot, and
    /// copies of them, never read, in the slots not yet handed out. Out of
    /// line: the block is built on the stack, and the callers' frames stay
    /// small.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, hop: Hop, body: Body) {
        let (hops, bodies) = ([hop; BLOCK], [body; BLOCK]);
        self.blocks.push(Block { hops, bodies });
    }

    /// Give slot `h` back. The handle must not be used again.
    #[inline]
    pub(crate) fn release(&mut self, h: u32) {
        self.live -= 1;
        self.next[h as usize] = self.free;
        self.free = h;
    }

    /// Reassemble the packet of slot `h`, `dst` the coordinate of its
    /// destination, and release the slot: the packet leaves the network
    /// (drained, or dropped by a fault).
    #[inline]
    pub(crate) fn take(&mut self, h: u32, dst: Coord) -> Packet {
        let pkt = Packet::join(&self[h], self.body(h), dst);
        self.release(h);
        pkt
    }

    /// [`take`](Self::take) for a packet a fault drops on its way to rank
    /// `at`, whose plan is already the route from there: it leaves the
    /// network short of its destination, which the plan names from `at`
    /// (`HopPlan::destination`). Only under a fault plan.
    pub(crate) fn take_dropped(&mut self, h: u32, part: &Partition, at: u32) -> Packet {
        let dst = self[h].plan.destination(part, part.coord_of(at));
        self.take(h, dst)
    }

    /// The cold part of slot `h`'s packet: off the hop path only.
    #[inline]
    pub(crate) fn body(&self, h: u32) -> &Body {
        let (b, s) = at(h);
        &self.blocks[b].bodies[s]
    }

    /// Slot `h`'s record to write and its body to read: what a hop that
    /// may need the body (the oracle) holds, without loading it unless it
    /// does.
    #[inline]
    pub(crate) fn entry(&mut self, h: u32) -> (&mut Hop, &Body) {
        let (b, s) = at(h);
        let block = &mut self.blocks[b];
        (&mut block.hops[s], &block.bodies[s])
    }

    /// Packets currently stored.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Slots ever allocated.
    pub(crate) fn slots(&self) -> usize {
        self.next.len()
    }
}

impl std::ops::Index<u32> for Slab {
    type Output = Hop;
    #[inline]
    fn index(&self, h: u32) -> &Hop {
        let (b, s) = at(h);
        &self.blocks[b].hops[s]
    }
}

impl std::ops::IndexMut<u32> for Slab {
    #[inline]
    fn index_mut(&mut self, h: u32) -> &mut Hop {
        let (b, s) = at(h);
        &mut self.blocks[b].hops[s]
    }
}

/// A packet FIFO with chunk-granular occupancy: the header of a list of
/// handles linked through [`Slab::next`]. Every packet has at least one
/// chunk, so a FIFO is empty exactly when it holds no chunks, and `head` /
/// `tail` mean something only when it is not: the default, all-zero header
/// is the empty FIFO.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ChunkFifo {
    head: u32,
    tail: u32,
    occupied_chunks: u32,
}

impl ChunkFifo {
    /// Chunks physically present. For transit VC FIFOs the space left is
    /// *not* the available credit — in-flight reservations live in the
    /// engine's credit array — so only same-node users (injection,
    /// reception) gate on it.
    #[inline]
    pub(crate) fn occupied_chunks(&self) -> u32 {
        self.occupied_chunks
    }

    /// Whether the FIFO holds no packets.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.occupied_chunks == 0
    }

    /// Handle of the head packet, if any.
    #[inline]
    pub(crate) fn head(&self) -> Option<u32> {
        (!self.is_empty()).then_some(self.head)
    }

    /// Append the `chunks`-chunk packet behind handle `h`. The caller has
    /// checked the space (an injection or reception push) or spent it from
    /// the credit array at the upstream win (a transit arrival). `chunks`
    /// is an argument so that an arrival need not touch the packet.
    #[inline]
    pub(crate) fn push(&mut self, slab: &mut Slab, h: u32, chunks: u32) {
        debug_assert!(chunks > 0, "emptiness is read off the chunk count");
        if self.is_empty() {
            self.head = h;
        } else {
            slab.next[self.tail as usize] = h;
        }
        self.tail = h;
        self.occupied_chunks += chunks;
    }

    /// Remove the head packet, freeing its chunks, and return its handle
    /// (still allocated: the caller moves it on or releases it). The FIFO
    /// must not be empty.
    #[inline]
    pub(crate) fn pop(&mut self, slab: &Slab) -> u32 {
        debug_assert!(!self.is_empty(), "pop from an empty FIFO");
        let h = self.head;
        self.occupied_chunks -= slab[h].chunks as u32;
        self.head = slab.next[h as usize];
        h
    }

    /// Handles head-first (diagnostics and the oracle).
    pub(crate) fn iter<'a>(&self, slab: &'a Slab) -> impl Iterator<Item = u32> + 'a {
        let (mut at, tail) = (self.head(), self.tail);
        std::iter::from_fn(move || {
            let cur = at?;
            at = (cur != tail).then(|| slab.next[cur as usize]);
            Some(cur)
        })
    }
}

/// Every FIFO header of the machine: per node one row of `vcs` transit
/// headers (indexed by [`vc_fifo_index`](crate::node::vc_fifo_index)),
/// then the injection headers, then the reception header. The transit and
/// injection headers are the node's one FIFO index space: injection FIFO
/// `k` is FIFO `vcs + k`.
pub(crate) struct FifoRows {
    cells: Box<[ChunkFifo]>,
    vcs: usize,
    stride: usize,
}

impl FifoRows {
    /// Empty rows for `nodes` nodes of `vcs` transit and `inj` injection
    /// FIFOs each.
    pub(crate) fn new(nodes: usize, vcs: usize, inj: usize) -> FifoRows {
        let stride = vcs + inj + 1;
        let cells = vec![ChunkFifo::default(); nodes * stride].into_boxed_slice();
        FifoRows { cells, vcs, stride }
    }

    /// Bytes of one node's row.
    #[cfg(test)]
    pub(crate) fn row_bytes(&self) -> usize {
        self.stride * std::mem::size_of::<ChunkFifo>()
    }

    /// Node `i`'s transit and injection headers, indexed by FIFO.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[ChunkFifo] {
        &self.cells[i * self.stride..(i + 1) * self.stride - 1]
    }

    /// Node `i`'s transit headers.
    #[inline]
    pub(crate) fn vcs(&self, i: usize) -> &[ChunkFifo] {
        &self.row(i)[..self.vcs]
    }

    /// Node `i`'s injection headers.
    #[inline]
    pub(crate) fn inj(&self, i: usize) -> &[ChunkFifo] {
        &self.row(i)[self.vcs..]
    }

    /// Node `i`'s reception header.
    #[inline]
    pub(crate) fn reception(&self, i: usize) -> &ChunkFifo {
        &self.cells[(i + 1) * self.stride - 1]
    }

    /// Node `i`'s FIFO `f`, transit or injection.
    #[inline]
    pub(crate) fn fifo_mut(&mut self, i: usize, f: usize) -> &mut ChunkFifo {
        debug_assert!(f < self.stride - 1);
        &mut self.cells[i * self.stride + f]
    }

    #[inline]
    pub(crate) fn reception_mut(&mut self, i: usize) -> &mut ChunkFifo {
        &mut self.cells[(i + 1) * self.stride - 1]
    }
}

/// A node's queue of sends: the header of a list of [`SendSlab`] handles,
/// oldest first. The default, all-zero header is the empty queue; `head`
/// and `tail` mean something only when `len` is not 0.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SendList {
    head: u32,
    tail: u32,
    len: u32,
}

impl SendList {
    /// Sends queued.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The engine's store of queued sends: a slot per send a node has queued
/// and not yet injected, on one [`SendList`]. Slots are recycled through a
/// free list and never returned to the allocator, so
/// [`slots`](Self::slots) is the most sends ever queued at once,
/// [`peak`](Self::peak).
pub(crate) struct SendSlab {
    specs: Vec<SendSpec>,
    /// Per slot: the next handle in its list, or in the free list.
    next: Vec<u32>,
    free: u32,
    live: usize,
    peak: usize,
}

impl SendSlab {
    pub(crate) fn new() -> SendSlab {
        SendSlab {
            specs: Vec::new(),
            next: Vec::new(),
            free: NIL,
            live: 0,
            peak: 0,
        }
    }

    /// Queue `spec` at the back of `list`.
    pub(crate) fn push(&mut self, list: &mut SendList, spec: SendSpec) {
        self.live += 1;
        self.peak = self.peak.max(self.live);
        let h = self.free;
        let h = if h == NIL {
            self.specs.push(spec);
            self.next.push(NIL);
            self.next.len() as u32 - 1
        } else {
            self.free = self.next[h as usize];
            self.specs[h as usize] = spec;
            h
        };
        if list.is_empty() {
            list.head = h;
        } else {
            self.next[list.tail as usize] = h;
        }
        list.tail = h;
        list.len += 1;
    }

    /// `list`'s sends, oldest first.
    pub(crate) fn iter<'a>(&'a self, list: &SendList) -> impl Iterator<Item = &'a SendSpec> {
        let mut at = list.head;
        (0..list.len).map(move |_| {
            let h = at as usize;
            at = self.next[h];
            &self.specs[h]
        })
    }

    /// Take `list`'s send at position `k` out of the queue, and its slot
    /// back. `k` must be below the list's length.
    pub(crate) fn remove(&mut self, list: &mut SendList, k: usize) -> SendSpec {
        debug_assert!(k < list.len(), "send {k} of a {}-send list", list.len);
        let (mut prev, mut h) = (NIL, list.head);
        for _ in 0..k {
            (prev, h) = (h, self.next[h as usize]);
        }
        let after = self.next[h as usize];
        if prev == NIL {
            list.head = after;
        } else {
            self.next[prev as usize] = after;
        }
        if h == list.tail {
            list.tail = prev;
        }
        list.len -= 1;
        self.live -= 1;
        self.next[h as usize] = self.free;
        self.free = h;
        self.specs[h as usize].clone()
    }

    /// Sends queued now, over every list.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// The most sends queued at once so far.
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }

    /// Slots ever allocated.
    pub(crate) fn slots(&self) -> usize {
        self.next.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(id: u64, chunks: u8) -> Packet {
        let mut pkt = Packet::new(&Partition::torus(4, 4, 4), 0, 1);
        (pkt.id, pkt.chunks, pkt.payload_bytes) = (id, chunks, chunks as u32 * 32);
        pkt
    }

    /// Where [`pkt`]'s packets are bound: rank 1 of `4x4x4`.
    const DST: Coord = Coord::new(1, 0, 0);

    fn push(f: &mut ChunkFifo, slab: &mut Slab, id: u64, chunks: u8) -> u32 {
        let h = slab.alloc(pkt(id, chunks));
        f.push(slab, h, chunks as u32);
        h
    }

    #[test]
    fn push_pop_accounting() {
        let (mut slab, mut f) = (Slab::new(), ChunkFifo::default());
        assert!(f.is_empty() && f.head().is_none());
        push(&mut f, &mut slab, 1, 8);
        push(&mut f, &mut slab, 2, 4);
        assert_eq!(f.occupied_chunks(), 12);
        assert_eq!(f.iter(&slab).count(), 2);
        assert_eq!(slab.body(f.pop(&slab)).id, 1);
        assert_eq!(f.occupied_chunks(), 4);
        assert_eq!(slab.body(f.pop(&slab)).id, 2);
        assert!(f.is_empty());
        assert_eq!(f.occupied_chunks(), 0);
    }

    #[test]
    fn head_is_fifo_order_and_a_handle_moves_between_fifos() {
        let (mut slab, mut f, mut g) = (Slab::new(), ChunkFifo::default(), ChunkFifo::default());
        for i in 0..4 {
            push(&mut f, &mut slab, i, 2);
        }
        assert_eq!(slab.body(f.head().unwrap()).id, 0);
        // The popped handle joins another FIFO; the packet does not move.
        let h = f.pop(&slab);
        g.push(&mut slab, h, 2);
        assert_eq!(slab.body(f.head().unwrap()).id, 1);
        let ids = |q: &ChunkFifo| q.iter(&slab).map(|h| slab.body(h).id).collect::<Vec<_>>();
        assert_eq!((ids(&f), ids(&g)), (vec![1, 2, 3], vec![0]));
    }

    #[test]
    fn released_slots_are_reused_before_the_slab_grows() {
        let mut slab = Slab::new();
        let hs: Vec<u32> = (0..3).map(|i| slab.alloc(pkt(i, 1))).collect();
        assert_eq!((slab.live(), slab.slots()), (3, 3));
        assert_eq!(slab.take(hs[1], DST).id, 1);
        slab.release(hs[0]);
        assert_eq!(slab.live(), 1);
        let again = [slab.alloc(pkt(7, 1)), slab.alloc(pkt(8, 1))];
        assert_eq!(again, [hs[0], hs[1]]);
        assert_eq!((slab.live(), slab.slots()), (3, 3));
        assert_eq!(slab.body(hs[0]).id, 7);
    }

    /// Packets allocated, edited through their hop records as `apply_win`
    /// edits them (a plan advanced a hop, a VC changed, a detour taken to a
    /// neighbour and the route re-planned from there), their slots released
    /// and reused: `take_dropped`, which derives the destination from the
    /// node each packet has reached and its plan, gives back each injected
    /// packet with exactly `plan`, `vc` and `detour` replaced; every record
    /// carries its id's parity.
    #[test]
    fn the_slab_reassembles_what_the_hops_wrote() {
        use crate::config::Vc;
        use crate::packet::PacketMeta;
        use bgl_torus::{Direction, HopPlan, TieBreak};
        let part = Partition::torus(4, 4, 4);
        let packet = |id: u64| {
            // 6 id + 3 is odd: never 0 mod 64, so never a self-send.
            let mut p = Packet::new(&part, id as u32 % 64, (id as u32 * 7 + 3) % 64);
            (p.id, p.chunks, p.payload_bytes) = (id, 1 + (id % 8) as u8, 17 * id as u32);
            (p.class, p.injected_at) = ((id % 3) as u8, 1000 + id);
            p.meta = PacketMeta {
                kind: id as u8,
                a: 3 * id as u32,
                b: !(id as u32),
            };
            p
        };
        // Each live packet's handle, the packet expected back, and the
        // rank its plan starts from.
        let mut slab = Slab::new();
        let mut live: Vec<(u32, Packet, u32)> = Vec::new();
        let mut id = 0;
        for round in 0..6u64 {
            for _ in 0..100 {
                let pkt = packet(id);
                live.push((slab.alloc(pkt.clone()), pkt, id as u32 % 64));
                id += 1;
            }
            for (k, (h, want, at)) in live.iter_mut().enumerate() {
                let k = k as u64 + round;
                let hop = &mut slab[*h];
                assert_eq!(u64::from(hop.parity), want.id & 1);
                let here = part.coord_of(*at);
                // The edit made through the record, and the same edit made
                // by hand to the expected packet.
                match k % 3 {
                    0 => {
                        if let Some(d) = hop.plan.dimension_order_next() {
                            hop.plan.advance(d.dim);
                            want.plan.advance(d.dim);
                            *at = part.rank_of(part.neighbor(here, d).expect("a torus"));
                        }
                    }
                    1 => {
                        let vc = [Vc::Dynamic0, Vc::Dynamic1, Vc::Bubble][(k % 7 % 3) as usize];
                        (hop.vc, want.vc) = (vc, vc);
                    }
                    // A detour: one more non-minimal hop, the way back
                    // barred, the route re-planned from where it leads.
                    _ => {
                        let d = Direction::from_index((k % 6) as usize);
                        let back = d.opposite().index();
                        hop.note_detour(back);
                        want.detour = ((want.detour >> 4) + 1) << 4 | back as u16;
                        let nb = part.neighbor(here, d).expect("a torus");
                        let plan = HopPlan::new(&part, nb, want.dst, TieBreak::SrcParity);
                        (hop.plan, want.plan, *at) = (plan, plan, part.rank_of(nb));
                    }
                }
            }
            // Every other packet leaves; its slot is the next one reused.
            let mut kept = Vec::new();
            for (k, (h, want, at)) in live.into_iter().enumerate() {
                if (k as u64 + round) % 2 == 1 {
                    kept.push((h, want, at));
                    continue;
                }
                let got = slab.take_dropped(h, &part, at);
                assert_eq!(format!("{got:?}"), format!("{want:?}"));
            }
            live = kept;
            assert_eq!(slab.live(), live.len());
        }
        // Two hundred slots, four blocks, held every packet: the released
        // ones were reused.
        assert!(slab.slots() <= 200, "{} slots", slab.slots());
        for (h, want, at) in live {
            let got = slab.take_dropped(h, &part, at);
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
        assert_eq!(slab.live(), 0);
    }

    /// Sends pushed onto two lists, removed from the front, the middle and
    /// the tail, and pushed again: each list keeps its order, a freed slot
    /// is reused before the slab grows, and `slots` is the most sends
    /// queued at once.
    #[test]
    fn send_lists_keep_order_and_reuse_slots() {
        let (mut sends, mut a, mut b) = (SendSlab::new(), SendList::default(), SendList::default());
        let spec = |dst: u32| SendSpec::adaptive(dst, 1, 32);
        for dst in 0..5 {
            sends.push(&mut a, spec(dst));
        }
        sends.push(&mut b, spec(9));
        let dsts = |s: &SendSlab, l: &SendList| s.iter(l).map(|x| x.dst_rank).collect::<Vec<_>>();
        assert_eq!(
            (dsts(&sends, &a), dsts(&sends, &b)),
            (vec![0, 1, 2, 3, 4], vec![9])
        );
        assert_eq!(sends.remove(&mut a, 0).dst_rank, 0);
        assert_eq!(sends.remove(&mut a, 1).dst_rank, 2);
        assert_eq!(sends.remove(&mut a, 2).dst_rank, 4);
        assert_eq!(dsts(&sends, &a), [1, 3]);
        // The tail moved back: a push lands behind the new one.
        sends.push(&mut a, spec(5));
        sends.push(&mut b, spec(10));
        assert_eq!(
            (dsts(&sends, &a), dsts(&sends, &b)),
            (vec![1, 3, 5], vec![9, 10])
        );
        assert_eq!((sends.live(), sends.peak(), sends.slots()), (5, 6, 6));
        assert_eq!(sends.remove(&mut b, 0).dst_rank, 9);
        assert_eq!(sends.remove(&mut b, 0).dst_rank, 10);
        assert!(b.is_empty());
        sends.push(&mut b, spec(11));
        assert_eq!((dsts(&sends, &b), a.len()), (vec![11], 3));
        assert_eq!((sends.live(), sends.peak(), sends.slots()), (4, 6, 6));
    }

    #[test]
    fn rows_keep_each_nodes_headers_apart() {
        let (mut slab, mut rows) = (Slab::new(), FifoRows::new(3, 18, 6));
        push(rows.fifo_mut(1, 17), &mut slab, 1, 8);
        push(rows.fifo_mut(1, 18), &mut slab, 2, 4);
        push(rows.fifo_mut(1, 23), &mut slab, 3, 2);
        push(rows.reception_mut(1), &mut slab, 4, 1);
        let occ = |fs: &[ChunkFifo]| fs.iter().map(|f| f.occupied_chunks()).collect::<Vec<_>>();
        assert_eq!(occ(rows.vcs(1))[17], 8);
        assert_eq!(occ(rows.inj(1)), [4, 0, 0, 0, 0, 2]);
        assert_eq!(rows.reception(1).occupied_chunks(), 1);
        assert_eq!(occ(&rows.row(1)[17..19]), [8, 4]);
        for i in [0, 2] {
            let mut all = rows.row(i).iter().chain([rows.reception(i)]);
            assert!(all.all(|f| f.is_empty()));
        }
    }
}
