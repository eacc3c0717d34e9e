//! The Two Phase Schedule (TPS) indirect all-to-all (Section 4.1), plus the
//! credit-based intermediate-memory flow control sketched in the paper's
//! future-work section.
//!
//! Phase 1 sends each packet along a chosen *linear* dimension to the
//! intermediate node sharing the destination's linear coordinate; the
//! intermediate software-forwards it across the remaining *planar*
//! dimensions in phase 2. The phases overlap (pipelining), enabled by
//! reserving disjoint injection-FIFO subsets per phase so phase-1 packets
//! are never queued behind phase-2 packets — use
//! [`tps_inj_class_masks`] when building the simulator configuration.

use crate::flow::{self, KIND_CREDIT};
use crate::walk::SendWalk;
use crate::workload::AaWorkload;
use bgl_model::MachineParams;
use bgl_sim::{NodeApi, NodeProgram, Packet, PacketMeta, RoutingMode, SendSpec};
use bgl_torus::{Coord, Dim, Partition};

pub use crate::flow::CreditConfig;

/// Injection class of phase-1 (linear-dimension) packets and credits.
pub const CLASS_LINEAR: u8 = 0;
/// Injection class of phase-2 (planar) packets.
pub const CLASS_PLANAR: u8 = 1;

/// Packet-meta kinds used by TPS.
const KIND_PHASE1: u8 = 1;
const KIND_PHASE2: u8 = 2;

/// TPS configuration; pass `TpsConfig::default()` to
/// [`TpsProgram::new`]. Carries no knobs: the linear dimension is
/// [`choose_linear_dim`]'s, and credit flow control is the strategy's
/// [`Pacer::CreditWindow`](crate::Pacer), which the engine enforces (see
/// [`bgl_sim::flow`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TpsConfig {}

/// The paper's linear-dimension choice: prefer the dimension whose removal
/// leaves a *symmetric* plane (the odd-one-out size); otherwise the longest
/// dimension; for 1-D/2-D partitions, the longest active dimension.
///
/// Reproduces every phase-1 choice in Table 3 (up to symmetric ties).
pub fn choose_linear_dim(part: &Partition) -> Dim {
    // Called once per node: the active dimensions are walked, not collected.
    let active = || part.dims().filter(|&d| part.size(d) > 1);
    if active().count() == 3 {
        for d in active() {
            let mut others = d.others(part.ndims()).filter(|&o| part.size(o) > 1);
            let (a, b) = (others.next(), others.next());
            if let (Some(a), Some(b)) = (a, b) {
                if part.size(a) == part.size(b) {
                    return d;
                }
            }
        }
    }
    // No symmetric plane (or lower-dimensional partition): the longest
    // dimension is the bottleneck and must be the pipelined line.
    active()
        .reduce(|best, d| {
            if part.size(d) > part.size(best) {
                d
            } else {
                best
            }
        })
        .unwrap_or(Dim::X)
}

/// Injection-FIFO class masks reserving half the FIFOs per phase, given the
/// FIFO count. This is the pipelining enabler: a phase-1 packet is never
/// blocked behind a phase-2 packet in an injection FIFO.
pub fn tps_inj_class_masks(fifo_count: u32) -> Vec<u8> {
    let half = (fifo_count / 2).max(1);
    (0..fifo_count)
        .map(|f| {
            if f < half {
                1 << CLASS_LINEAR
            } else {
                1 << CLASS_PLANAR
            }
        })
        .collect()
}

/// Per-node TPS program: the next hop of a packet is the node of the
/// source's line that shares the destination's linear coordinate (phase 1),
/// which forwards it across its plane (phase 2). Routing within the plane
/// is plain adaptive — TPS changes schedules, not the router.
pub struct TpsProgram {
    rank: u32,
    coord: Coord,
    linear: Dim,
    walk: SendWalk,
    gamma_cycles_per_chunk: f64,
}

impl TpsProgram {
    /// Build the program for `rank`.
    pub fn new(
        rank: u32,
        part: &Partition,
        workload: &AaWorkload,
        _cfg: &TpsConfig,
        params: &MachineParams,
    ) -> TpsProgram {
        TpsProgram {
            rank,
            coord: part.coord_of(rank),
            linear: choose_linear_dim(part),
            walk: SendWalk::direct(rank, part, workload, 1, params.alpha_direct_cycles, params),
            gamma_cycles_per_chunk: params.gamma_sim_cycles_per_chunk(),
        }
    }

    /// A phase-2 (planar) send of `chunks`/`payload` to final destination
    /// `dst`, on behalf of source `src`.
    fn planar(dst: u32, src: u32, chunks: u8, payload: u32) -> SendSpec {
        SendSpec::adaptive(dst, chunks, payload)
            .with_class(CLASS_PLANAR)
            .with_meta(PacketMeta {
                kind: KIND_PHASE2,
                a: dst,
                b: src,
            })
    }
}

impl NodeProgram for TpsProgram {
    fn next_send(&mut self, api: &mut NodeApi<'_>) -> Option<SendSpec> {
        let step = self.walk.peek()?;
        let part = api.partition();
        let dst = part.coord_of(step.target);
        let inter = self.coord.with(self.linear, dst.get(self.linear));
        let spec = if inter == self.coord {
            // Destination lies in this node's own plane: a direct planar send.
            let s = step.shape;
            Self::planar(step.target, self.rank, s.chunks, s.payload).with_cpu_cost(step.alpha)
        } else {
            // Phase 1: travel the linear dimension to the intermediate.
            // Under credit-window pacing, reserve a credit toward the
            // intermediate first; a closed window blocks the pull until
            // acknowledgements return.
            let inter_rank = part.rank_of(inter);
            if !api.try_acquire_credit(inter_rank) {
                return None;
            }
            step.send(inter_rank, RoutingMode::Adaptive)
                .with_class(CLASS_LINEAR)
                .with_meta(PacketMeta {
                    kind: KIND_PHASE1,
                    a: step.target,
                    b: self.rank,
                })
        };
        self.walk.advance();
        Some(spec)
    }

    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: &Packet) {
        match pkt.meta.kind {
            KIND_PHASE1 => {
                // Credit accounting happens for every linear-phase packet,
                // whether or not it needs forwarding.
                flow::acknowledge(api, pkt);
                if pkt.meta.a != self.rank {
                    // Software-forward across the plane (phase 2); the copy
                    // cost γ is charged with the injection.
                    let copy = self.gamma_cycles_per_chunk * pkt.chunks as f64;
                    let fwd = Self::planar(pkt.meta.a, pkt.meta.b, pkt.chunks, pkt.payload_bytes);
                    api.send(fwd.with_cpu_cost(copy));
                }
            }
            KIND_PHASE2 => {} // final delivery
            KIND_CREDIT => flow::apply_ack(api, pkt),
            other => panic!("TPS received unknown packet kind {other}"),
        }
    }

    fn is_complete(&self) -> bool {
        self.walk.is_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-chunk phase-1 packet from rank 0, delivered to its intermediate
    /// rank 1, whose final destination is `final_dst`.
    fn phase1_packet(part: &Partition, final_dst: u32) -> Packet {
        let mut pkt = Packet::new(part, 0, 1);
        (pkt.chunks, pkt.payload_bytes, pkt.class) = (4, 64, CLASS_LINEAR);
        pkt.meta = PacketMeta {
            kind: KIND_PHASE1,
            a: final_dst,
            b: 0,
        };
        pkt
    }

    #[test]
    fn linear_dim_matches_table_3() {
        // (shape, expected phase-1 dimension). Symmetric-plane preference,
        // else longest.
        for (shape, want) in [
            ("16x8x8", Dim::X),
            ("8x16x8", Dim::Y),
            ("8x8x16", Dim::Z),
            ("16x16x8", Dim::Z),
            ("16x8x16", Dim::Y),
            ("8x16x16", Dim::X),
            ("8x32x16", Dim::Y),
            ("16x32x16", Dim::Y),
            ("32x16x16", Dim::X),
            ("32x32x16", Dim::Z),
            ("40x32x16", Dim::X),
        ] {
            let part: Partition = shape.parse().unwrap();
            assert_eq!(choose_linear_dim(&part), want, "{shape}");
        }
    }

    #[test]
    fn linear_dim_low_dimensional() {
        assert_eq!(choose_linear_dim(&"16x1x1".parse().unwrap()), Dim::X);
        // The shapes the program tests below read as "X is linear".
        assert_eq!(choose_linear_dim(&"4x2x2".parse().unwrap()), Dim::X);
        assert_eq!(choose_linear_dim(&"8x1x1".parse().unwrap()), Dim::X);
        assert_eq!(choose_linear_dim(&"8x32".parse().unwrap()), Dim::Y);
    }

    #[test]
    fn class_masks_split_fifos() {
        let masks = tps_inj_class_masks(6);
        assert_eq!(masks.len(), 6);
        let linear = masks.iter().filter(|&&m| m == 1 << CLASS_LINEAR).count();
        let planar = masks.iter().filter(|&&m| m == 1 << CLASS_PLANAR).count();
        assert_eq!(linear, 3);
        assert_eq!(planar, 3);
    }

    #[test]
    fn phase1_packets_travel_linear_dimension_only() {
        let part: Partition = "4x2x2".parse().unwrap();
        let w = AaWorkload::full(100);
        let cfg = TpsConfig::default();
        let mut prog = TpsProgram::new(0, &part, &w, &cfg, &MachineParams::bgl());
        let mut q = std::collections::VecDeque::new();
        let mut api = NodeApi::new(0, part.coord_of(0), 0, &part, &mut q);
        while let Some(s) = prog.next_send(&mut api) {
            let dst = part.coord_of(s.dst_rank);
            let src = part.coord_of(0);
            match s.class {
                CLASS_LINEAR => {
                    // Intermediate differs from the source only along X.
                    assert_eq!(dst.get(Dim::Y), src.get(Dim::Y));
                    assert_eq!(dst.get(Dim::Z), src.get(Dim::Z));
                    assert_eq!(s.meta.kind, KIND_PHASE1);
                }
                CLASS_PLANAR => {
                    // Direct planar send: same X.
                    assert_eq!(dst.get(Dim::X), src.get(Dim::X));
                    assert_eq!(s.meta.kind, KIND_PHASE2);
                }
                c => panic!("unexpected class {c}"),
            }
        }
        assert!(prog.is_complete());
    }

    #[test]
    fn intermediate_forwards_phase1() {
        let part: Partition = "4x2x2".parse().unwrap();
        let w = AaWorkload::full(64);
        let cfg = TpsConfig::default();
        // Node 1 acts as intermediate for a packet whose final dest is 5.
        let mut prog = TpsProgram::new(1, &part, &w, &cfg, &MachineParams::bgl());
        let mut q = std::collections::VecDeque::new();
        let mut api = NodeApi::new(1, part.coord_of(1), 10, &part, &mut q);
        prog.on_packet(&mut api, &phase1_packet(&part, 5));
        assert_eq!(q.len(), 1);
        let fwd = &q[0];
        assert_eq!(fwd.dst_rank, 5);
        assert_eq!(fwd.class, CLASS_PLANAR);
        assert_eq!(fwd.meta.kind, KIND_PHASE2);
        assert!(
            fwd.cpu_cost_cycles > 0.0,
            "forwarding must pay the copy cost"
        );
    }

    #[test]
    fn phase1_to_final_destination_is_not_forwarded() {
        let part: Partition = "4x2x2".parse().unwrap();
        let w = AaWorkload::full(64);
        let cfg = TpsConfig::default();
        let mut prog = TpsProgram::new(1, &part, &w, &cfg, &MachineParams::bgl());
        let mut q = std::collections::VecDeque::new();
        let mut api = NodeApi::new(1, part.coord_of(1), 10, &part, &mut q);
        prog.on_packet(&mut api, &phase1_packet(&part, 1));
        assert!(q.is_empty());
    }

    #[test]
    fn credit_window_blocks_and_credits_reopen() {
        let part: Partition = "8x1x1".parse().unwrap();
        let w = AaWorkload::full(240 * 20); // many packets per destination
        let cfg = TpsConfig::default();
        let mut prog = TpsProgram::new(0, &part, &w, &cfg, &MachineParams::bgl());
        // The credit window now lives in the engine's per-node ledger,
        // surfaced to the program through the NodeApi.
        let mut ledger = bgl_sim::FlowLedger::new(bgl_sim::FlowSpec::Credit {
            window_packets: 3,
            credit_every: 1,
        });
        let mut q = std::collections::VecDeque::new();
        let mut api = NodeApi::new(0, part.coord_of(0), 0, &part, &mut q).with_flow(&mut ledger);
        // On a line, every destination IS its own intermediate; pull sends
        // until the first window closes.
        let mut sent = 0;
        while prog.next_send(&mut api).is_some() {
            sent += 1;
            assert!(sent < 10_000);
        }
        assert!(!prog.is_complete(), "window must close before completion");
        // A credit from the blocking intermediate reopens the window. The
        // blocked head is the current schedule entry.
        let blocked_dst = prog.walk.peek().expect("blocked, not done").target;
        let mut credit = Packet::new(&part, blocked_dst, 0);
        credit.meta = PacketMeta {
            kind: KIND_CREDIT,
            a: blocked_dst,
            b: 1,
        };
        prog.on_packet(&mut api, &credit);
        assert!(
            prog.next_send(&mut api).is_some(),
            "credit must reopen the window"
        );
    }
}
