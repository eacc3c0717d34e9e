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

use crate::workload::{destination_schedule, packetize, AaWorkload, PacketShape};
use bgl_model::MachineParams;
use bgl_sim::{NodeApi, NodeProgram, Packet, PacketMeta, PollHint, RoutingMode, SendSpec};
use bgl_torus::{Coord, Dim, Partition};

pub use crate::flow::CreditConfig;

/// Injection class of phase-1 (linear-dimension) packets and credits.
pub const CLASS_LINEAR: u8 = 0;
/// Injection class of phase-2 (planar) packets.
pub const CLASS_PLANAR: u8 = 1;

/// Packet-meta kinds used by TPS.
const KIND_PHASE1: u8 = 1;
const KIND_PHASE2: u8 = 2;
const KIND_CREDIT: u8 = 3;

/// TPS tuning. Credit-based flow control is no longer configured here:
/// attach a [`Pacer::CreditWindow`](crate::Pacer) to the strategy and the
/// engine enforces the window (see [`bgl_sim::flow`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TpsConfig {
    /// Linear (phase-1) dimension; `None` picks automatically via
    /// [`choose_linear_dim`].
    pub linear: Option<Dim>,
}

/// The paper's linear-dimension choice: prefer the dimension whose removal
/// leaves a *symmetric* plane (the odd-one-out size); otherwise the longest
/// dimension; for 1-D/2-D partitions, the longest active dimension.
///
/// Reproduces every phase-1 choice in Table 3 (up to symmetric ties).
pub fn choose_linear_dim(part: &Partition) -> Dim {
    let active: Vec<Dim> = part.dims().filter(|&d| part.size(d) > 1).collect();
    if active.len() == 3 {
        for &d in &active {
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
    active
        .into_iter()
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

/// Per-node TPS program.
pub struct TpsProgram {
    rank: u32,
    coord: Coord,
    linear: Dim,
    schedule: Vec<u32>,
    shapes: Vec<PacketShape>,
    alpha_sim_cycles: f64,
    gamma_cycles_per_chunk: f64,
    planar_longest_first: bool,
    idx: usize,
    pkt_i: usize,
    done_sending: bool,
}

impl TpsProgram {
    /// Build the program for `rank`.
    pub fn new(
        rank: u32,
        part: &Partition,
        workload: &AaWorkload,
        cfg: &TpsConfig,
        params: &MachineParams,
    ) -> TpsProgram {
        let p = part.num_nodes();
        let dests = workload.dests_per_node(p);
        let schedule = destination_schedule(rank, p, dests, workload.seed);
        let shapes = packetize(
            workload.m_bytes,
            params.software_header_bytes,
            params.min_packet_bytes,
            params,
        );
        let done_sending = schedule.is_empty();
        let linear = cfg.linear.unwrap_or_else(|| choose_linear_dim(part));
        TpsProgram {
            rank,
            coord: part.coord_of(rank),
            linear,
            // Hardware-faithful: plain adaptive routing within the plane
            // (the paper's TPS changes schedules, not the router).
            planar_longest_first: false,
            schedule,
            shapes,
            alpha_sim_cycles: params.alpha_direct_cycles / params.cpu_cycles_per_sim_cycle(),
            gamma_cycles_per_chunk: params.gamma_ns_per_byte * params.chunk_bytes as f64 * 1e-9
                / params.secs_per_sim_cycle(),
            idx: 0,
            pkt_i: 0,
            done_sending,
        }
    }

    /// The linear dimension in use.
    pub fn linear_dim(&self) -> Dim {
        self.linear
    }

    /// Round-major iteration: packet `r` of every destination's message is
    /// sent (in randomized destination order) before packet `r+1` of any —
    /// the same interleaving the AR schedule uses. Sending a whole message
    /// back-to-back would stream one path for hundreds of cycles and leave
    /// the opposite-direction links idle at the source.
    fn advance(&mut self) {
        self.idx += 1;
        if self.idx >= self.schedule.len() {
            self.idx = 0;
            self.pkt_i += 1;
            if self.pkt_i >= self.shapes.len() {
                self.done_sending = true;
            }
        }
    }

    fn intermediate_for(&self, dst: Coord) -> Coord {
        self.coord.with(self.linear, dst.get(self.linear))
    }
}

impl NodeProgram for TpsProgram {
    /// Declines only when done sending or credit-blocked toward a linear
    /// intermediate; the ack arrives as a delivered credit packet, so
    /// sleeping until the next delivery is exact.
    fn poll_hint(&self) -> PollHint {
        PollHint::SleepUntilDelivery
    }

    fn next_send(&mut self, api: &mut NodeApi<'_>) -> Option<SendSpec> {
        if self.done_sending {
            return None;
        }
        let part = *api.partition();
        let dst_rank = self.schedule[self.idx];
        let dst = part.coord_of(dst_rank);
        let inter = self.intermediate_for(dst);
        let shape = self.shapes[self.pkt_i];
        let alpha = if self.pkt_i == 0 {
            self.alpha_sim_cycles
        } else {
            0.0
        };
        let spec = if inter == self.coord {
            // Destination lies in this node's own plane: a direct planar send.
            SendSpec {
                dst_rank,
                chunks: shape.chunks,
                payload_bytes: shape.payload,
                routing: RoutingMode::Adaptive,
                class: CLASS_PLANAR,
                meta: PacketMeta {
                    kind: KIND_PHASE2,
                    a: dst_rank,
                    b: self.rank,
                },
                longest_first: self.planar_longest_first,
                cpu_cost_cycles: alpha,
            }
        } else {
            // Phase 1: travel the linear dimension to the intermediate.
            // Under credit-window pacing, reserve a credit toward the
            // intermediate first; a closed window blocks the pull until
            // acknowledgements return.
            let inter_rank = part.rank_of(inter);
            if !api.try_acquire_credit(inter_rank) {
                return None;
            }
            SendSpec {
                dst_rank: inter_rank,
                chunks: shape.chunks,
                payload_bytes: shape.payload,
                routing: RoutingMode::Adaptive,
                class: CLASS_LINEAR,
                meta: PacketMeta {
                    kind: KIND_PHASE1,
                    a: dst_rank,
                    b: self.rank,
                },
                longest_first: false,
                cpu_cost_cycles: alpha,
            }
        };
        self.advance();
        Some(spec)
    }

    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: &Packet) {
        match pkt.meta.kind {
            KIND_PHASE1 => {
                // Credit accounting happens for every linear-phase packet,
                // whether or not it needs forwarding.
                if let Some(n) = api.credit_receipt(pkt.meta.b) {
                    api.send(SendSpec {
                        dst_rank: pkt.meta.b,
                        chunks: 1,
                        payload_bytes: 0,
                        routing: RoutingMode::Adaptive,
                        class: CLASS_LINEAR,
                        meta: PacketMeta {
                            kind: KIND_CREDIT,
                            a: self.rank,
                            b: n,
                        },
                        longest_first: false,
                        cpu_cost_cycles: 0.0,
                    });
                }
                if pkt.meta.a != self.rank {
                    // Software-forward across the plane (phase 2); the copy
                    // cost γ is charged with the injection.
                    api.send(SendSpec {
                        dst_rank: pkt.meta.a,
                        chunks: pkt.chunks,
                        payload_bytes: pkt.payload_bytes,
                        routing: RoutingMode::Adaptive,
                        class: CLASS_PLANAR,
                        meta: PacketMeta {
                            kind: KIND_PHASE2,
                            a: pkt.meta.a,
                            b: pkt.meta.b,
                        },
                        longest_first: self.planar_longest_first,
                        cpu_cost_cycles: self.gamma_cycles_per_chunk * pkt.chunks as f64,
                    });
                }
            }
            KIND_PHASE2 => {} // final delivery
            KIND_CREDIT => api.apply_credit(pkt.meta.a, pkt.meta.b),
            other => panic!("TPS received unknown packet kind {other}"),
        }
    }

    fn is_complete(&self) -> bool {
        self.done_sending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let cfg = TpsConfig {
            linear: Some(Dim::X),
        };
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
        let cfg = TpsConfig {
            linear: Some(Dim::X),
        };
        // Node 1 acts as intermediate for a packet whose final dest is 5.
        let mut prog = TpsProgram::new(1, &part, &w, &cfg, &MachineParams::bgl());
        let mut q = std::collections::VecDeque::new();
        let mut api = NodeApi::new(1, part.coord_of(1), 10, &part, &mut q);
        let pkt = Packet {
            id: 0,
            src_rank: 0,
            dst: part.coord_of(1),
            chunks: 4,
            payload_bytes: 64,
            plan: bgl_torus::HopPlan::new(
                &part,
                part.coord_of(0),
                part.coord_of(1),
                bgl_torus::TieBreak::SrcParity,
            ),
            routing: RoutingMode::Adaptive,
            vc: bgl_sim::Vc::Dynamic0,
            class: CLASS_LINEAR,
            meta: PacketMeta {
                kind: KIND_PHASE1,
                a: 5,
                b: 0,
            },
            longest_first: false,
            injected_at: 0,
            detour: bgl_sim::NO_DETOUR,
        };
        prog.on_packet(&mut api, &pkt);
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
        let cfg = TpsConfig {
            linear: Some(Dim::X),
        };
        let mut prog = TpsProgram::new(1, &part, &w, &cfg, &MachineParams::bgl());
        let mut q = std::collections::VecDeque::new();
        let mut api = NodeApi::new(1, part.coord_of(1), 10, &part, &mut q);
        let pkt_meta = PacketMeta {
            kind: KIND_PHASE1,
            a: 1,
            b: 0,
        };
        let pkt = Packet {
            id: 0,
            src_rank: 0,
            dst: part.coord_of(1),
            chunks: 4,
            payload_bytes: 64,
            plan: bgl_torus::HopPlan::new(
                &part,
                part.coord_of(0),
                part.coord_of(1),
                bgl_torus::TieBreak::SrcParity,
            ),
            routing: RoutingMode::Adaptive,
            vc: bgl_sim::Vc::Dynamic0,
            class: CLASS_LINEAR,
            meta: pkt_meta,
            longest_first: false,
            injected_at: 0,
            detour: bgl_sim::NO_DETOUR,
        };
        prog.on_packet(&mut api, &pkt);
        assert!(q.is_empty());
    }

    #[test]
    fn credit_window_blocks_and_credits_reopen() {
        let part: Partition = "8x1x1".parse().unwrap();
        let w = AaWorkload::full(240 * 20); // many packets per destination
        let cfg = TpsConfig {
            linear: Some(Dim::X),
        };
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
        let blocked_dst = prog.schedule[prog.idx];
        let credit = Packet {
            id: 1,
            src_rank: blocked_dst,
            dst: part.coord_of(0),
            chunks: 1,
            payload_bytes: 0,
            plan: bgl_torus::HopPlan::new(
                &part,
                part.coord_of(blocked_dst),
                part.coord_of(0),
                bgl_torus::TieBreak::SrcParity,
            ),
            routing: RoutingMode::Adaptive,
            vc: bgl_sim::Vc::Dynamic0,
            class: CLASS_LINEAR,
            meta: PacketMeta {
                kind: KIND_CREDIT,
                a: blocked_dst,
                b: 1,
            },
            longest_first: false,
            injected_at: 0,
            detour: bgl_sim::NO_DETOUR,
        };
        prog.on_packet(&mut api, &credit);
        assert!(
            prog.next_send(&mut api).is_some(),
            "credit must reopen the window"
        );
    }
}
