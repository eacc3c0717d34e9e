//! Chunk-accounted packet FIFOs.
//!
//! Used for VC FIFOs, injection FIFOs and reception FIFOs. Capacity is in
//! chunks, not packets, matching the byte-granular BG/L buffers. The FIFO
//! itself tracks only *physical* occupancy; in-flight credit for the
//! transit VC FIFOs (space spent by an upstream arbitration win before the
//! packet physically arrives) lives in the engine's shared credit array
//! (see `engine`), which is what makes the sharded engine's credit
//! accounting a single source of truth for sequential and parallel
//! execution alike. Injection and reception FIFOs are only ever probed by
//! their own node, so plain occupancy-based `free_chunks`/`try_push`
//! remain the right interface for them.

use crate::packet::Packet;
use std::collections::VecDeque;

/// A packet FIFO with chunk-granular occupancy.
#[derive(Debug, Default)]
pub struct ChunkFifo {
    queue: VecDeque<Packet>,
    capacity_chunks: u32,
    occupied_chunks: u32,
}

impl ChunkFifo {
    /// An empty FIFO holding up to `capacity_chunks` chunks.
    pub fn new(capacity_chunks: u32) -> ChunkFifo {
        ChunkFifo {
            queue: VecDeque::new(),
            capacity_chunks,
            occupied_chunks: 0,
        }
    }

    /// Chunks not physically occupied. For transit VC FIFOs this is *not*
    /// the available credit — in-flight reservations live in the engine's
    /// credit array — so only same-node users (injection/reception) should
    /// gate on it.
    #[inline]
    pub fn free_chunks(&self) -> u32 {
        self.capacity_chunks - self.occupied_chunks
    }

    /// Chunks physically present.
    #[inline]
    pub fn occupied_chunks(&self) -> u32 {
        self.occupied_chunks
    }

    /// Total capacity in chunks.
    #[inline]
    pub fn capacity_chunks(&self) -> u32 {
        self.capacity_chunks
    }

    /// Whether the FIFO holds no packets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Number of packets physically present.
    #[inline]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Push a packet whose space was already accounted for externally
    /// (transit-VC arrival: the upstream arbiter spent the credit before
    /// launch, so physical space is guaranteed).
    #[inline]
    pub fn push(&mut self, pkt: Packet) {
        let chunks = pkt.chunks as u32;
        debug_assert!(
            self.occupied_chunks + chunks <= self.capacity_chunks,
            "externally credited push exceeds capacity"
        );
        self.occupied_chunks += chunks;
        self.queue.push_back(pkt);
    }

    /// Push without external credit (injection/reception-side use).
    /// Returns the packet back if there is no space.
    pub fn try_push(&mut self, pkt: Packet) -> Result<(), Packet> {
        let chunks = pkt.chunks as u32;
        if chunks > self.free_chunks() {
            return Err(pkt);
        }
        self.occupied_chunks += chunks;
        self.queue.push_back(pkt);
        Ok(())
    }

    /// The head packet, if any.
    #[inline]
    pub fn head(&self) -> Option<&Packet> {
        self.queue.front()
    }

    /// Rewrite the id of the packet at queue position `idx` (head = 0) and
    /// return it: the per-cycle fix-up of provisional packet ids. The id
    /// is the only field writable in place — routing never reads it, so a
    /// queued packet's request-mask bits (`NodeState::want`) cannot go
    /// stale behind the engine's back.
    ///
    /// # Panics
    /// Panics if `idx` is past the end of the queue.
    #[inline]
    pub fn set_id(&mut self, idx: usize, id: u64) -> &Packet {
        let pkt = &mut self.queue[idx];
        pkt.id = id;
        pkt
    }

    /// Remove and return the head packet, freeing its chunks.
    pub fn pop(&mut self) -> Option<Packet> {
        let pkt = self.queue.pop_front()?;
        self.occupied_chunks -= pkt.chunks as u32;
        Some(pkt)
    }

    /// Iterate packets head-first (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &Packet> {
        self.queue.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgl_torus::Partition;

    fn pkt(id: u64, chunks: u8) -> Packet {
        let mut pkt = Packet::new(&Partition::torus(4, 4, 4), 0, 1);
        (pkt.id, pkt.chunks, pkt.payload_bytes) = (id, chunks, chunks as u32 * 32);
        pkt
    }

    #[test]
    fn push_pop_accounting() {
        let mut f = ChunkFifo::new(16);
        assert!(f.is_empty());
        f.try_push(pkt(1, 8)).unwrap();
        f.try_push(pkt(2, 4)).unwrap();
        assert_eq!(f.len(), 2);
        assert_eq!(f.occupied_chunks(), 12);
        assert_eq!(f.free_chunks(), 4);
        assert_eq!(f.pop().unwrap().id, 1);
        assert_eq!(f.free_chunks(), 12);
        assert_eq!(f.pop().unwrap().id, 2);
        assert!(f.pop().is_none());
        assert_eq!(f.free_chunks(), 16);
    }

    #[test]
    fn try_push_rejects_overflow_without_losing_packet() {
        let mut f = ChunkFifo::new(8);
        f.try_push(pkt(1, 8)).unwrap();
        let back = f.try_push(pkt(2, 1)).unwrap_err();
        assert_eq!(back.id, 2);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn credited_push_accounts_occupancy() {
        let mut f = ChunkFifo::new(16);
        f.push(pkt(1, 8));
        f.push(pkt(2, 8));
        assert_eq!(f.occupied_chunks(), 16);
        assert_eq!(f.len(), 2);
        assert_eq!(f.pop().unwrap().id, 1);
        assert_eq!(f.occupied_chunks(), 8);
    }

    #[test]
    fn set_id_rewrites_in_place() {
        let mut f = ChunkFifo::new(32);
        for i in 0..3 {
            f.try_push(pkt(i, 2)).unwrap();
        }
        assert_eq!(f.set_id(1, 42).id, 42);
        f.pop();
        assert_eq!(f.head().unwrap().id, 42);
    }

    #[test]
    fn head_is_fifo_order() {
        let mut f = ChunkFifo::new(32);
        for i in 0..4 {
            f.try_push(pkt(i, 2)).unwrap();
        }
        assert_eq!(f.head().unwrap().id, 0);
        f.pop();
        assert_eq!(f.head().unwrap().id, 1);
        assert_eq!(f.iter().count(), 3);
    }
}
