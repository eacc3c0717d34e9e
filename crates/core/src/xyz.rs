//! The three-phase XYZ software-routing all-to-all the paper contrasts TPS
//! against (Section 4.1): "A similar scheme can also be designed over a 3D
//! torus with two phases of forwarding, where packets are first routed
//! along X links and then turned around in software along the Y dimension
//! and then routed in software along the Z dimension; this approach is
//! similar to the HPCC Randomaccess strategy. We believe the Two Phase
//! scheme gains from lower overheads as it has only one forwarding phase."
//!
//! Implemented here so that claim is *measurable*: every packet makes up to
//! three software hops (X line → Y line → Z line), paying the reception,
//! copy and re-injection CPU costs at **two** intermediates instead of
//! TPS's one.

use crate::flow::{self, KIND_CREDIT};
use crate::walk::SendWalk;
use crate::workload::AaWorkload;
use bgl_model::MachineParams;
use bgl_sim::{NodeApi, NodeProgram, Packet, PacketMeta, PollHint, RoutingMode, SendSpec};
use bgl_torus::{Coord, Partition};

/// Injection classes, one per software-routing dimension, so an X-phase
/// packet is never queued behind a Z-phase packet in an injection FIFO.
pub const CLASS_X: u8 = 0;
/// Y-phase class.
pub const CLASS_Y: u8 = 1;
/// Z-phase class.
pub const CLASS_Z: u8 = 2;

/// Packet kind: the dimension the packet is currently travelling,
/// encoded as `dim.index() + 1` (1..=MAX_DIMS).
const KIND_X: u8 = 1;
/// Kind-byte flag marking a source-leg packet that reserved a credit
/// toward its first-hop intermediate; the intermediate acknowledges and
/// forwards with the flag cleared (later legs hold no reservation).
const FRESH: u8 = 0x80;

/// Injection-FIFO class masks splitting the FIFOs round-robin across the
/// per-dimension phases (class `d` for software-routing dimension `d`).
pub fn xyz_inj_class_masks(fifo_count: u32, ndims: usize) -> Vec<u8> {
    (0..fifo_count)
        .map(|f| 1u8 << (f as usize % ndims.max(1)))
        .collect()
}

/// Per-node program for the XYZ scheme: the next hop of a packet corrects
/// the lowest dimension in which it is still off its destination.
pub struct XyzProgram {
    rank: u32,
    coord: Coord,
    walk: SendWalk,
    gamma_cycles_per_chunk: f64,
}

impl XyzProgram {
    /// Build the program for `rank`.
    pub fn new(
        rank: u32,
        part: &Partition,
        workload: &AaWorkload,
        params: &MachineParams,
    ) -> XyzProgram {
        XyzProgram {
            rank,
            coord: part.coord_of(rank),
            walk: SendWalk::direct(rank, part, workload, 1, params.alpha_direct_cycles, params),
            gamma_cycles_per_chunk: params.gamma_sim_cycles_per_chunk(),
        }
    }

    /// The next software hop for a packet currently at `here` and finally
    /// destined for `dst`: correct one dimension at a time in ascending
    /// dimension order (X then Y then Z on 3D, continuing through d3…
    /// on higher-arity tori). Returns the hop target, the class/kind of
    /// that leg, or `None` when `here == dst`.
    fn next_leg(part: &Partition, here: Coord, dst: Coord) -> Option<(Coord, u8, u8)> {
        for d in part.dims() {
            if here.get(d) != dst.get(d) {
                let class = d.index() as u8;
                let kind = d.index() as u8 + 1;
                return Some((here.with(d, dst.get(d)), class, kind));
            }
        }
        None
    }
}

impl NodeProgram for XyzProgram {
    /// Declines only when done sending or credit-blocked toward the
    /// first-hop intermediate; the ack arrives as a delivered credit
    /// packet, so sleeping until the next delivery is exact.
    fn poll_hint(&self) -> PollHint {
        PollHint::SleepUntilDelivery
    }

    fn next_send(&mut self, api: &mut NodeApi<'_>) -> Option<SendSpec> {
        let step = self.walk.peek()?;
        let part = api.partition();
        let dst = part.coord_of(step.target);
        let (hop, class, kind) =
            Self::next_leg(part, self.coord, dst).expect("schedule never includes self");
        let hop_rank = part.rank_of(hop);
        // Under credit-window pacing, reserve a credit toward the first-hop
        // intermediate (not a final destination — those hold no forwarding
        // memory) and mark the packet FRESH so the intermediate knows an
        // acknowledgement is owed.
        let kind = if hop_rank != step.target {
            if !api.try_acquire_credit(hop_rank) {
                return None;
            }
            kind | FRESH
        } else {
            kind
        };
        self.walk.advance();
        let meta = PacketMeta {
            kind,
            a: step.target,
            b: self.rank,
        };
        let leg = step.send(hop_rank, RoutingMode::Adaptive);
        Some(leg.with_class(class).with_meta(meta))
    }

    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: &Packet) {
        if pkt.meta.kind == KIND_CREDIT {
            return flow::apply_ack(api, pkt);
        }
        debug_assert!((KIND_X..=bgl_torus::MAX_DIMS as u8).contains(&(pkt.meta.kind & !FRESH)));
        if pkt.meta.kind & FRESH != 0 {
            // We are the source's first-hop intermediate: acknowledge its
            // reservation once the quantum fills.
            flow::acknowledge(api, pkt);
        }
        if pkt.meta.a == self.rank {
            return; // final delivery
        }
        let part = api.partition();
        let dst = part.coord_of(pkt.meta.a);
        let (hop, class, kind) =
            Self::next_leg(part, self.coord, dst).expect("not final, so a leg remains");
        let meta = PacketMeta { kind, ..pkt.meta };
        let copy = self.gamma_cycles_per_chunk * pkt.chunks as f64;
        let leg = SendSpec::adaptive(part.rank_of(hop), pkt.chunks, pkt.payload_bytes);
        api.send(leg.with_class(class).with_meta(meta).with_cpu_cost(copy));
    }

    fn is_complete(&self) -> bool {
        self.walk.is_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgl_torus::Dim;
    use std::collections::VecDeque;

    fn params() -> MachineParams {
        MachineParams::bgl()
    }

    #[test]
    fn legs_follow_xyz_order() {
        let part: Partition = "4x4x4".parse().unwrap();
        let here = Coord::new(0, 0, 0);
        let dst = Coord::new(2, 3, 1);
        let (h1, c1, _) = XyzProgram::next_leg(&part, here, dst).unwrap();
        assert_eq!(h1, Coord::new(2, 0, 0));
        assert_eq!(c1, CLASS_X);
        let (h2, c2, _) = XyzProgram::next_leg(&part, h1, dst).unwrap();
        assert_eq!(h2, Coord::new(2, 3, 0));
        assert_eq!(c2, CLASS_Y);
        let (h3, c3, _) = XyzProgram::next_leg(&part, h2, dst).unwrap();
        assert_eq!(h3, dst);
        assert_eq!(c3, CLASS_Z);
        assert!(XyzProgram::next_leg(&part, dst, dst).is_none());
    }

    #[test]
    fn source_sends_first_leg_only() {
        let part: Partition = "4x4x4".parse().unwrap();
        let w = AaWorkload::full(64);
        let mut prog = XyzProgram::new(0, &part, &w, &params());
        let mut q = VecDeque::new();
        let mut api = NodeApi::new(0, part.coord_of(0), 0, &part, &mut q);
        while let Some(s) = prog.next_send(&mut api) {
            let hop = part.coord_of(s.dst_rank);
            let me = part.coord_of(0);
            // A first leg differs from the source in exactly one dimension,
            // and if X needs correcting it is X.
            let final_dst = part.coord_of(s.meta.a);
            if final_dst.get(Dim::X) != me.get(Dim::X) {
                assert_eq!(s.class, CLASS_X);
                assert_eq!(hop.get(Dim::Y), me.get(Dim::Y));
                assert_eq!(hop.get(Dim::Z), me.get(Dim::Z));
            }
        }
        assert!(prog.is_complete());
    }

    #[test]
    fn forwarding_pays_copy_cost() {
        let part: Partition = "4x4x4".parse().unwrap();
        let w = AaWorkload::full(64);
        // Node at (2,0,0) forwards an X-phase packet towards (2,3,1).
        let me = part.rank_of(Coord::new(2, 0, 0));
        let final_dst = part.rank_of(Coord::new(2, 3, 1));
        let mut prog = XyzProgram::new(me, &part, &w, &params());
        let mut q = VecDeque::new();
        let mut api = NodeApi::new(me, part.coord_of(me), 5, &part, &mut q);
        let mut pkt = Packet::new(&part, 0, me);
        (pkt.chunks, pkt.payload_bytes, pkt.class) = (4, 64, CLASS_X);
        pkt.meta = PacketMeta {
            kind: KIND_X,
            a: final_dst,
            b: 0,
        };
        prog.on_packet(&mut api, &pkt);
        assert_eq!(q.len(), 1);
        let fwd = &q[0];
        assert_eq!(fwd.class, CLASS_Y);
        assert_eq!(part.coord_of(fwd.dst_rank), Coord::new(2, 3, 0));
        assert!(fwd.cpu_cost_cycles > 0.0);
    }

    #[test]
    fn class_masks_cover_three_phases() {
        let masks = xyz_inj_class_masks(6, 3);
        assert_eq!(masks.iter().filter(|&&m| m == 1 << CLASS_X).count(), 2);
        assert_eq!(masks.iter().filter(|&&m| m == 1 << CLASS_Y).count(), 2);
        assert_eq!(masks.iter().filter(|&&m| m == 1 << CLASS_Z).count(), 2);
    }

    #[test]
    fn class_masks_and_legs_follow_arity() {
        // On a 4D torus the round-robin covers four classes…
        let masks = xyz_inj_class_masks(8, 4);
        for c in 0..4u8 {
            assert_eq!(masks.iter().filter(|&&m| m == 1 << c).count(), 2);
        }
        // …and legs continue past Z into d3.
        let part = Partition::torus_nd(&[2, 2, 2, 2]);
        let here = Coord::zero();
        let dst = Coord::from_slice(&[0, 0, 0, 1]);
        let (hop, class, kind) = XyzProgram::next_leg(&part, here, dst).unwrap();
        assert_eq!(hop, dst);
        assert_eq!(class, 3);
        assert_eq!(kind, 4);
        assert!(kind < KIND_CREDIT);
    }
}
