//! Packets and send specifications.

use crate::config::Vc;
use bgl_torus::{Coord, HopPlan};
use serde::{Deserialize, Serialize};

/// How a packet is routed through the torus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoutingMode {
    /// Minimal adaptive routing on the dynamic VCs (join-shortest-queue
    /// direction/VC choice), with optional bubble-VC escape.
    Adaptive,
    /// Dimension-ordered (X→Y→Z) deterministic routing on the bubble VC.
    Deterministic,
}

/// Strategy-defined metadata carried end-to-end in a packet's software
/// header. The simulator never interprets it; node programs use it to
/// implement forwarding and combining.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PacketMeta {
    /// Discriminator (e.g. phase number).
    pub kind: u8,
    /// First word (e.g. final destination rank for forwarded packets).
    pub a: u32,
    /// Second word (e.g. source rank or byte count).
    pub b: u32,
}

/// Non-minimal (fault-detour) hops an adaptive packet may take before it
/// parks and waits for a recovery (or the watchdog). Bounds the packed
/// counter in [`Packet::detour`] and rules out detour livelock.
pub const DETOUR_BUDGET: u8 = 31;

/// [`Packet::detour`] low-nibble value meaning "no detour state". With up
/// to [`bgl_torus::MAX_PORTS`] = 12 directions, direction indices need a
/// full nibble; 15 is the none sentinel.
pub const NO_DETOUR: u16 = 15;

/// A packet in flight or in a FIFO.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Unique id (assigned at injection, monotonically increasing).
    pub id: u64,
    /// Injecting node's rank.
    pub src_rank: u32,
    /// Torus destination.
    pub dst: Coord,
    /// Size on the wire in 32-byte chunks (1..=8 on BG/L).
    pub chunks: u8,
    /// Payload bytes (accounting only; excludes headers and padding).
    pub payload_bytes: u32,
    /// Remaining route.
    pub plan: HopPlan,
    /// Adaptive or deterministic.
    pub routing: RoutingMode,
    /// The VC the packet currently occupies (meaningful once in a VC FIFO).
    pub vc: Vc,
    /// Injection-FIFO class: programs may reserve injection FIFOs for a
    /// class (the Two Phase Schedule pipelining trick). Class `c` packets
    /// only use injection FIFOs whose class mask includes `c`.
    pub class: u8,
    /// Strategy metadata.
    pub meta: PacketMeta,
    /// Adaptive-routing restriction: move only along the longest remaining
    /// dimension(s) (hint-bit style software shaping; see
    /// `RouterConfig::longest_first_bias`). Ignored for deterministic
    /// packets.
    pub longest_first: bool,
    /// Cycle the packet entered an injection FIFO.
    pub injected_at: u64,
    /// Packed fault-detour state, [`NO_DETOUR`] while unused. Low 4 bits:
    /// the output direction the packet must not take on its next hop (the
    /// link straight back along the detour it just made; 15 = none). Bits
    /// above: non-minimal hops taken so far, capped by [`DETOUR_BUDGET`].
    pub detour: u16,
}

impl Packet {
    /// The direction index this packet must not exit through right now
    /// (the reverse of its last detour hop), if any.
    #[inline]
    pub fn detour_from(&self) -> Option<usize> {
        let p = (self.detour & 15) as usize;
        (p != NO_DETOUR as usize).then_some(p)
    }

    /// Non-minimal hops taken so far.
    #[inline]
    pub fn detour_count(&self) -> u8 {
        (self.detour >> 4) as u8
    }

    /// Record a detour hop whose reverse direction is `back`.
    #[inline]
    pub fn note_detour(&mut self, back: usize) {
        debug_assert!(back < bgl_torus::MAX_PORTS);
        self.detour = ((self.detour_count() as u16 + 1) << 4) | back as u16;
    }

    /// A minimal hop clears the don't-go-back restriction (the count is
    /// kept: the budget bounds total non-minimal hops over the packet's
    /// whole life).
    #[inline]
    pub fn clear_detour_from(&mut self) {
        self.detour |= NO_DETOUR;
    }

    /// A freshly injected full-size adaptive packet from rank `src` to rank
    /// `dst` of `part`: the base the crate's unit tests vary.
    #[cfg(test)]
    pub(crate) fn for_test(part: &bgl_torus::Partition, src: u32, dst: u32) -> Packet {
        let (from, to) = (part.coord_of(src), part.coord_of(dst));
        Packet {
            id: 0,
            src_rank: src,
            dst: to,
            chunks: 8,
            payload_bytes: 240,
            plan: HopPlan::new(part, from, to, bgl_torus::TieBreak::SrcParity),
            routing: RoutingMode::Adaptive,
            vc: Vc::Dynamic0,
            class: 0,
            meta: PacketMeta::default(),
            longest_first: false,
            injected_at: 0,
            detour: NO_DETOUR,
        }
    }
}

/// What a node program asks the runtime to send.
#[derive(Debug, Clone)]
pub struct SendSpec {
    /// Destination rank.
    pub dst_rank: u32,
    /// Wire size in chunks (1..=8).
    pub chunks: u8,
    /// Payload bytes for delivery accounting.
    pub payload_bytes: u32,
    /// Routing mode.
    pub routing: RoutingMode,
    /// Injection class (see [`Packet::class`]).
    pub class: u8,
    /// Metadata delivered to the destination program.
    pub meta: PacketMeta,
    /// Restrict adaptive routing to the longest remaining dimension(s);
    /// the anti-tree-saturation shaping strategies enable on asymmetric
    /// partitions.
    pub longest_first: bool,
    /// Extra CPU cycles to charge before this packet can be injected
    /// (per-message α, software-copy γ, …). Charged once.
    pub cpu_cost_cycles: f64,
}

impl SendSpec {
    /// A plain adaptive data packet with no extra CPU cost.
    pub fn adaptive(dst_rank: u32, chunks: u8, payload_bytes: u32) -> SendSpec {
        SendSpec {
            dst_rank,
            chunks,
            payload_bytes,
            routing: RoutingMode::Adaptive,
            class: 0,
            meta: PacketMeta::default(),
            longest_first: false,
            cpu_cost_cycles: 0.0,
        }
    }

    /// A plain deterministically routed data packet.
    pub fn deterministic(dst_rank: u32, chunks: u8, payload_bytes: u32) -> SendSpec {
        SendSpec {
            routing: RoutingMode::Deterministic,
            ..SendSpec::adaptive(dst_rank, chunks, payload_bytes)
        }
    }

    /// Builder: set metadata.
    pub fn with_meta(mut self, meta: PacketMeta) -> SendSpec {
        self.meta = meta;
        self
    }

    /// Builder: set the injection class.
    pub fn with_class(mut self, class: u8) -> SendSpec {
        self.class = class;
        self
    }

    /// Builder: add CPU cost (α, γ) to charge before injection.
    pub fn with_cpu_cost(mut self, cycles: f64) -> SendSpec {
        self.cpu_cost_cycles = cycles;
        self
    }

    /// Builder: restrict adaptive routing to the longest remaining
    /// dimension(s) (see [`SendSpec::longest_first`]).
    pub fn with_longest_first(mut self, on: bool) -> SendSpec {
        self.longest_first = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgl_torus::Partition;

    #[test]
    fn send_spec_builders() {
        let s = SendSpec::adaptive(7, 8, 240)
            .with_meta(PacketMeta {
                kind: 2,
                a: 11,
                b: 22,
            })
            .with_class(1)
            .with_cpu_cost(3.5);
        assert_eq!(s.dst_rank, 7);
        assert_eq!(s.chunks, 8);
        assert_eq!(s.routing, RoutingMode::Adaptive);
        assert_eq!(s.class, 1);
        assert_eq!(s.meta.a, 11);
        assert_eq!(s.cpu_cost_cycles, 3.5);

        let d = SendSpec::deterministic(3, 2, 64);
        assert_eq!(d.routing, RoutingMode::Deterministic);
        assert_eq!(d.class, 0);
    }

    #[test]
    fn detour_state_packs_and_unpacks() {
        let mut k = Packet::for_test(&Partition::torus(2, 2, 2), 0, 1);
        assert_eq!(k.detour_from(), None);
        assert_eq!(k.detour_count(), 0);
        k.note_detour(3);
        assert_eq!(k.detour_from(), Some(3));
        assert_eq!(k.detour_count(), 1);
        k.note_detour(5);
        assert_eq!(k.detour_from(), Some(5));
        assert_eq!(k.detour_count(), 2);
        k.clear_detour_from();
        assert_eq!(k.detour_from(), None);
        assert_eq!(k.detour_count(), 2);
    }

    #[test]
    fn packet_is_reasonably_small() {
        // Packets are copied through FIFOs constantly; keep them compact.
        // (The n-dimensional Coord and HopPlan cost some bytes over the old
        // 3D-only layout; 96 keeps a packet within two cache lines.)
        assert!(
            std::mem::size_of::<Packet>() <= 96,
            "{}",
            std::mem::size_of::<Packet>()
        );
    }
}
