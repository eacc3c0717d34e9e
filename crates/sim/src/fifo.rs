//! Packet storage: one [`Slab`] per engine, and chunk-accounted FIFOs that
//! thread `u32` handles through it.
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
//! the rest of the [`Packet`], its destination kept as a rank, read
//! through [`Slab::body`] only where a packet leaves the network
//! ([`Slab::take`] reassembles it), detours (its destination), or is
//! watched by the oracle (its id and destination) or the tracer (its
//! kind). A healthy hop never touches it: at the 4,096-node scale,
//! where the slab outgrows the cache, that is a cold miss per hop not
//! taken.
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

use crate::packet::{Body, Hop, Packet};
use bgl_torus::{Coord, Partition};

/// "No handle": the end of the free list.
const NIL: u32 = u32::MAX;

/// Slots per [`Block`]: a power of two, so a handle splits into block and
/// slot with a shift and a mask.
const BLOCK: usize = 64;

/// `BLOCK` consecutive slots' two records: their hop records side by side,
/// then their bodies. A hop reads the same 20 bytes as from a vector of
/// hop records, while the records stay one growing allocation, 60 bytes a
/// slot (the vector of whole packets was 72). As two vectors they hop
/// no faster measurably, and the smaller allocations stay under glibc's
/// mmap threshold longer, served from a heap the process's later engines
/// do not get back: `paper_suite_quick`'s `peak_rss_mb` grew 10.9 %
/// (EXPERIMENTS.md, "packet layout").
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

    /// Store `pkt`, bound for rank `dst_rank`, and return its handle.
    #[inline]
    pub(crate) fn alloc(&mut self, pkt: Packet, dst_rank: u32) -> u32 {
        self.live += 1;
        let (hop, body) = pkt.split(dst_rank);
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
    /// destination rank, and release the slot: the packet leaves the
    /// network (drained, or dropped by a fault).
    #[inline]
    pub(crate) fn take(&mut self, h: u32, dst: Coord) -> Packet {
        let pkt = Packet::join(&self[h], self.body(h), dst);
        self.release(h);
        pkt
    }

    /// [`take`](Self::take) for a packet a fault drops: it leaves the
    /// network short of its destination, so the coordinate is derived from
    /// the rank its body holds. Only under a fault plan.
    pub(crate) fn take_dropped(&mut self, h: u32, part: &Partition) -> Packet {
        let dst = part.coord_of(self.body(h).dst_rank);
        self.take(h, dst)
    }

    /// The cold part of slot `h`'s packet: off the hop path only.
    #[inline]
    pub(crate) fn body(&self, h: u32) -> &Body {
        let (b, s) = at(h);
        &self.blocks[b].bodies[s]
    }

    /// Slot `h`'s record to write and its body to read: what a hop that
    /// may need the body (a detour, the oracle) holds, without loading it
    /// unless it does.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(id: u64, chunks: u8) -> Packet {
        let mut pkt = Packet::new(&Partition::torus(4, 4, 4), 0, 1);
        (pkt.id, pkt.chunks, pkt.payload_bytes) = (id, chunks, chunks as u32 * 32);
        pkt
    }

    /// Where [`pkt`]'s packets are bound: rank 1 of `4x4x4`.
    const DST: (u32, Coord) = (1, Coord::new(1, 0, 0));

    fn push(f: &mut ChunkFifo, slab: &mut Slab, id: u64, chunks: u8) -> u32 {
        let h = slab.alloc(pkt(id, chunks), DST.0);
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
        let hs: Vec<u32> = (0..3).map(|i| slab.alloc(pkt(i, 1), DST.0)).collect();
        assert_eq!((slab.live(), slab.slots()), (3, 3));
        assert_eq!(slab.take(hs[1], DST.1).id, 1);
        slab.release(hs[0]);
        assert_eq!(slab.live(), 1);
        let again = [slab.alloc(pkt(7, 1), DST.0), slab.alloc(pkt(8, 1), DST.0)];
        assert_eq!(again, [hs[0], hs[1]]);
        assert_eq!((slab.live(), slab.slots()), (3, 3));
        assert_eq!(slab.body(hs[0]).id, 7);
    }

    /// Packets allocated, edited through their hop records as `apply_win`
    /// edits them (a plan advanced, a VC changed, a detour taken), their
    /// slots released and reused: the body holds the destination's rank,
    /// and `take_dropped`, which derives the coordinate from it, gives back
    /// each injected packet with exactly `plan`, `vc` and `detour` replaced;
    /// every record carries its id's parity.
    #[test]
    fn the_slab_reassembles_what_the_hops_wrote() {
        use crate::config::Vc;
        use crate::packet::PacketMeta;
        use bgl_torus::{HopPlan, TieBreak};
        let part = Partition::torus(4, 4, 4);
        let dst_of = |id: u64| (id as u32 * 7 + 3) % 64;
        let packet = |id: u64| {
            // 6 id + 3 is odd: never 0 mod 64, so never a self-send.
            let mut p = Packet::new(&part, id as u32 % 64, dst_of(id));
            (p.id, p.chunks, p.payload_bytes) = (id, 1 + (id % 8) as u8, 17 * id as u32);
            (p.class, p.injected_at) = ((id % 3) as u8, 1000 + id);
            p.meta = PacketMeta {
                kind: id as u8,
                a: 3 * id as u32,
                b: !(id as u32),
            };
            p
        };
        let mut slab = Slab::new();
        let mut live: Vec<(u32, Packet)> = Vec::new();
        let mut id = 0;
        for round in 0..6u64 {
            for _ in 0..100 {
                let pkt = packet(id);
                live.push((slab.alloc(pkt.clone(), dst_of(id)), pkt));
                id += 1;
            }
            for (k, (h, want)) in live.iter_mut().enumerate() {
                let k = k as u64 + round;
                let hop = &mut slab[*h];
                assert_eq!(u64::from(hop.parity), want.id & 1);
                // The edit made through the record, and the same edit made
                // by hand to the expected packet.
                match k % 3 {
                    0 => {
                        if let Some(d) = hop.plan.dimension_order_next() {
                            hop.plan.advance(d.dim);
                            want.plan.advance(d.dim);
                        }
                    }
                    1 => {
                        let vc = [Vc::Dynamic0, Vc::Dynamic1, Vc::Bubble][(k % 7 % 3) as usize];
                        (hop.vc, want.vc) = (vc, vc);
                    }
                    // A detour: one more non-minimal hop, the way back
                    // barred, the route re-planned.
                    _ => {
                        let back = (k % 6) as usize;
                        hop.note_detour(back);
                        want.detour = ((want.detour >> 4) + 1) << 4 | back as u16;
                        let (from, to) = (Coord::new(1, 2, 3), Coord::new(0, 0, 0));
                        let plan = HopPlan::new(&part, from, to, TieBreak::SrcParity);
                        (hop.plan, want.plan) = (plan, plan);
                    }
                }
            }
            // Every other packet leaves; its slot is the next one reused.
            let mut kept = Vec::new();
            for (k, (h, want)) in live.into_iter().enumerate() {
                if (k as u64 + round) % 2 == 1 {
                    kept.push((h, want));
                    continue;
                }
                assert_eq!(slab.body(h).dst_rank, dst_of(want.id));
                let got = slab.take_dropped(h, &part);
                assert_eq!(format!("{got:?}"), format!("{want:?}"));
            }
            live = kept;
            assert_eq!(slab.live(), live.len());
        }
        // Two hundred slots, four blocks, held every packet: the released
        // ones were reused.
        assert!(slab.slots() <= 200, "{} slots", slab.slots());
        for (h, want) in live {
            let got = slab.take_dropped(h, &part);
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
        assert_eq!(slab.live(), 0);
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
