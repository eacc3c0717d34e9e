//! Packets and send specifications.

use crate::config::Vc;
use crate::SimError;
use bgl_torus::{Coord, HopPlan, Partition, TieBreak};

/// How a packet is routed through the torus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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

/// The largest BG/L packet, in 32-byte chunks: what a send may ask for, and
/// the most space a packet entering a VC FIFO can need beyond the bubble
/// slack.
pub const MAX_PACKET_CHUNKS: u8 = 8;

/// A packet in flight or in a FIFO.
///
/// This is the packet a program receives. While it is in the network the
/// engine keeps it as two records, the fields routing reads and a hop
/// writes apart from the rest (`Packet::split`), and reassembles it where
/// it leaves.
///
/// Only this crate spells out the fields: the engine builds packets from
/// [`SendSpec`]s at injection, and everyone else starts from
/// [`Packet::new`] and assigns what differs, so a layout change is an edit
/// here and nowhere else.
///
/// ```compile_fail
/// use bgl_sim::{Packet, PacketMeta};
/// let part: bgl_torus::Partition = "4x4".parse().unwrap();
/// // error[E0639]: cannot create non-exhaustive struct using struct expression
/// let _ = Packet { meta: PacketMeta::default(), ..Packet::new(&part, 0, 1) };
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
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
    /// Cycle the packet entered an injection FIFO.
    pub injected_at: u64,
    /// Packed fault-detour state, [`NO_DETOUR`] while unused. Low 4 bits:
    /// the output direction the packet must not take on its next hop (the
    /// link straight back along the detour it just made; 15 = none). Bits
    /// above: non-minimal hops taken so far, capped by [`DETOUR_BUDGET`].
    pub detour: u16,
}

impl Packet {
    /// A full-size adaptive packet from rank `src` to rank `dst` of `part`,
    /// as if injected at cycle 0 with id 0: the base that tests driving a
    /// program's `on_packet` by hand vary field by field.
    pub fn new(part: &Partition, src: u32, dst: u32) -> Packet {
        let (from, to) = (part.coord_of(src), part.coord_of(dst));
        let plan = HopPlan::new(part, from, to, TieBreak::SrcParity);
        Packet::inject(&SendSpec::adaptive(dst, 8, 240), src, to, plan, 0, 0)
    }

    /// The packet `spec` becomes when rank `src_rank` injects it at cycle
    /// `t`, bound for coordinate `dst` along `plan`.
    #[inline]
    pub(crate) fn inject(
        spec: &SendSpec,
        src_rank: u32,
        dst: Coord,
        plan: HopPlan,
        id: u64,
        t: u64,
    ) -> Packet {
        Packet {
            id,
            src_rank,
            dst,
            chunks: spec.chunks,
            payload_bytes: spec.payload_bytes,
            plan,
            routing: spec.routing,
            vc: Vc::Dynamic0,
            class: spec.class,
            meta: spec.meta,
            injected_at: t,
            detour: NO_DETOUR,
        }
    }

    /// The packet as the slab stores it, bound for rank `dst_rank` (its
    /// `dst`): the record every hop reads and writes, and the body read only
    /// where the packet leaves the network, detours, or is watched (the
    /// oracle, the tracer).
    #[inline]
    pub(crate) fn split(self, dst_rank: u32) -> (Hop, Body) {
        let hop = Hop {
            plan: self.plan,
            detour: self.detour,
            chunks: self.chunks,
            routing: self.routing,
            vc: self.vc,
            parity: (self.id & 1) as u8,
        };
        let body = Body {
            id: self.id,
            injected_at: self.injected_at,
            src_rank: self.src_rank,
            dst_rank,
            payload_bytes: self.payload_bytes,
            a: self.meta.a,
            b: self.meta.b,
            class: self.class,
            kind: self.meta.kind,
        };
        (hop, body)
    }

    /// The packet [`split`](Self::split) made `hop` and `body` of, with
    /// the route, VC and detour state its hops have written since. `dst` is
    /// the coordinate of `body.dst_rank`, which the caller has at hand: the
    /// draining node's own, or one derived from the rank off the hot path.
    #[inline]
    pub(crate) fn join(hop: &Hop, body: &Body, dst: Coord) -> Packet {
        Packet {
            id: body.id,
            src_rank: body.src_rank,
            dst,
            chunks: hop.chunks,
            payload_bytes: body.payload_bytes,
            plan: hop.plan,
            routing: hop.routing,
            vc: hop.vc,
            class: body.class,
            meta: PacketMeta {
                kind: body.kind,
                a: body.a,
                b: body.b,
            },
            injected_at: body.injected_at,
            detour: hop.detour,
        }
    }
}

/// What routing reads of a queued packet, and all that a hop writes: the
/// first of the two records a slab slot holds (the other is its [`Body`]).
/// Arbitration, a FIFO pop and a delivery check touch this and nothing
/// else, so a hop pulls 20 bytes through the cache, not the 72 of a
/// [`Packet`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hop {
    /// Remaining route ([`Packet::plan`]).
    pub(crate) plan: HopPlan,
    /// Packed fault-detour state ([`Packet::detour`]).
    pub(crate) detour: u16,
    /// Size on the wire in chunks.
    pub(crate) chunks: u8,
    pub(crate) routing: RoutingMode,
    /// The VC the packet occupies.
    pub(crate) vc: Vc,
    /// `id & 1`: the join-shortest-queue tie-break (`Shared::dynamic_vc`).
    pub(crate) parity: u8,
}

impl Hop {
    /// The direction index this packet must not exit through right now
    /// (the reverse of its last detour hop), if any.
    #[inline]
    pub(crate) fn detour_from(&self) -> Option<usize> {
        let p = (self.detour & 15) as usize;
        (p != NO_DETOUR as usize).then_some(p)
    }

    /// Non-minimal hops taken so far.
    #[inline]
    pub(crate) fn detour_count(&self) -> u8 {
        (self.detour >> 4) as u8
    }

    /// Record a detour hop whose reverse direction is `back`.
    #[inline]
    pub(crate) fn note_detour(&mut self, back: usize) {
        debug_assert!(back < bgl_torus::MAX_PORTS);
        self.detour = ((self.detour_count() as u16 + 1) << 4) | back as u16;
    }

    /// A minimal hop clears the don't-go-back restriction (the count is
    /// kept: the budget bounds total non-minimal hops over the packet's
    /// whole life).
    #[inline]
    pub(crate) fn clear_detour_from(&mut self) {
        self.detour |= NO_DETOUR;
    }
}

/// The rest of a stored packet, written at injection and read only at the
/// drain or a fault drop ([`Packet::join`]), on a detour (`dst_rank`), by
/// the oracle (`id`, `dst_rank`) and by the tracer (`kind`): never on a
/// healthy hop. 40 bytes: the [`PacketMeta`] is flattened into it (inline,
/// its padding cost 3 bytes), and the destination is a rank, not the
/// 12-byte coordinate — the node that drains the packet is its destination
/// and has the coordinate already.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Body {
    pub(crate) id: u64,
    pub(crate) injected_at: u64,
    pub(crate) src_rank: u32,
    /// Rank of [`Packet::dst`].
    pub(crate) dst_rank: u32,
    pub(crate) payload_bytes: u32,
    /// [`PacketMeta::a`].
    pub(crate) a: u32,
    /// [`PacketMeta::b`].
    pub(crate) b: u32,
    pub(crate) class: u8,
    /// [`PacketMeta::kind`].
    pub(crate) kind: u8,
}

/// What a node program asks the runtime to send.
///
/// Built through [`SendSpec::new`] (or its [`adaptive`](SendSpec::adaptive)
/// / [`deterministic`](SendSpec::deterministic) shorthands) and the `with_*`
/// builders, never as a literal outside this crate:
///
/// ```compile_fail
/// use bgl_sim::SendSpec;
/// // error[E0639]: cannot create non-exhaustive struct using struct expression
/// let _ = SendSpec { class: 1, ..SendSpec::adaptive(7, 8, 240) };
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
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
    /// Extra CPU cycles to charge before this packet can be injected
    /// (per-message α, software-copy γ, …). Charged once, from
    /// `max(cpu_free, now)` at injection — the one way a program charges
    /// CPU time.
    pub cpu_cost_cycles: f64,
}

impl SendSpec {
    /// A plain data packet routed by `routing`: class 0, default metadata,
    /// no extra CPU cost.
    pub fn new(dst_rank: u32, chunks: u8, payload_bytes: u32, routing: RoutingMode) -> SendSpec {
        SendSpec {
            dst_rank,
            chunks,
            payload_bytes,
            routing,
            class: 0,
            meta: PacketMeta::default(),
            cpu_cost_cycles: 0.0,
        }
    }

    /// A plain adaptive data packet with no extra CPU cost.
    pub fn adaptive(dst_rank: u32, chunks: u8, payload_bytes: u32) -> SendSpec {
        SendSpec::new(dst_rank, chunks, payload_bytes, RoutingMode::Adaptive)
    }

    /// A plain deterministically routed data packet.
    pub fn deterministic(dst_rank: u32, chunks: u8, payload_bytes: u32) -> SendSpec {
        SendSpec::new(dst_rank, chunks, payload_bytes, RoutingMode::Deterministic)
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

    /// The [`SimError::InvalidSend`] of rank `src` of a `nodes`-node
    /// partition handing the engine this send at `cycle`, or `None` if it
    /// may: a BG/L packet is 1 to 8 chunks, a class is one of the 8 a class
    /// mask names, the destination is another rank of the partition, and
    /// CPU time is a finite, non-negative charge.
    pub(crate) fn invalid(&self, src: u32, nodes: u32, cycle: u64) -> Option<SimError> {
        let (dst, class, cost) = (self.dst_rank, self.class, self.cpu_cost_cycles);
        let reason = if !(1..=MAX_PACKET_CHUNKS).contains(&self.chunks) {
            format!(
                "a packet of {} chunks (BG/L packets are 1 to {MAX_PACKET_CHUNKS})",
                self.chunks
            )
        } else if class >= 8 {
            format!("injection class {class} (classes are 0 to 7)")
        } else if dst >= nodes {
            format!("destination rank {dst} outside the {nodes}-node partition")
        } else if dst == src {
            format!("a send to itself (rank {dst})")
        } else if !(cost >= 0.0 && cost.is_finite()) {
            format!("a CPU cost of {cost} cycles")
        } else {
            return None;
        };
        Some(SimError::InvalidSend {
            cycle,
            node: src,
            reason,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let (mut k, _) = Packet::new(&Partition::torus(2, 2, 2), 0, 1).split(1);
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
    fn packet_is_72_bytes() {
        // The public packet is what a program's `on_packet` reads and what
        // the slab reassembles at a drain or a fault drop, once per packet:
        // it is no longer what a hop pulls through the cache. The slab keeps
        // a packet as two records, the 20-byte `Hop` every hop reads and the
        // cold body (both pinned in `hot_path_layout_is_pinned`), so a field
        // added here costs bytes of slab per live packet, and a hop only if
        // routing reads it. 68 of the 72 bytes are fields and 4 are tail
        // padding: a field of up to 4 bytes fits there without growing it.
        assert_eq!(std::mem::size_of::<Packet>(), 72);
    }
}
