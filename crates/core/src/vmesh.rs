//! The 2-D virtual-mesh message-combining all-to-all (Section 4.2) for
//! short messages.
//!
//! The `P` nodes are viewed as a `Pvx × Pvy` virtual mesh
//! ([`bgl_torus::VirtualMesh`]). In **phase 1** each node sends one
//! combined message of `Pvy·m + proto` bytes to every other member of its
//! row — the message carries the node's data for the receiver's entire
//! column. In **phase 2**, after *all* row messages have arrived (the
//! phases do not overlap), the node re-sorts the data by destination and
//! sends one `Pvx·m + proto`-byte message to every other member of its
//! column. The per-message α is paid `Pvx + Pvy` times instead of `P`, at
//! the price of every byte crossing the network twice plus one memory copy
//! (γ) — Equation 4.

use crate::workload::{packetize, AaWorkload, PacketShape};
use bgl_model::MachineParams;
use bgl_sim::{NodeApi, NodeProgram, Packet, PacketMeta, PollHint, RoutingMode, SendSpec};
use bgl_torus::{Partition, VirtualMesh, VmeshLayout};

/// Phase-1 (row) packet kind.
const KIND_ROW: u8 = 1;
/// Phase-2 (column) packet kind.
const KIND_COL: u8 = 2;
/// Credit-acknowledgement packet kind (credit-window pacing only).
const KIND_CREDIT: u8 = 3;

/// VMesh tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmeshConfig {
    /// How to factorize the partition into rows and columns.
    pub layout: VmeshLayout,
    /// Smallest packet of the combining (message-passing) runtime, bytes.
    /// Unlike the 64-byte direct-runtime floor, combined messages carry
    /// only the 8-byte proto header, so 32-byte packets are possible.
    pub min_packet_bytes: u32,
}

impl Default for VmeshConfig {
    fn default() -> Self {
        VmeshConfig {
            layout: VmeshLayout::Auto,
            min_packet_bytes: 32,
        }
    }
}

/// Per-node virtual-mesh combining program.
pub struct VmeshProgram {
    rank: u32,
    alpha_sim_cycles: f64,
    gamma_cycles_per_chunk: f64,
    /// Row-message packet shapes (every row message is the same size).
    p1_shapes: Vec<PacketShape>,
    /// Column-message packet shapes.
    p2_shapes: Vec<PacketShape>,
    /// Ranks of the other row members, visited in rotated order.
    p1_targets: Vec<u32>,
    /// Ranks of the other column members.
    p2_targets: Vec<u32>,
    p1_idx: usize,
    p1_pkt: usize,
    p2_idx: usize,
    p2_pkt: usize,
    /// Phase-1 packets still expected from row neighbours.
    expect_p1_packets: u64,
    got_p1_packets: u64,
    phase2_started: bool,
}

impl VmeshProgram {
    /// Build the program for `rank`.
    pub fn new(
        rank: u32,
        part: &Partition,
        workload: &AaWorkload,
        cfg: &VmeshConfig,
        params: &MachineParams,
    ) -> VmeshProgram {
        let vm = VirtualMesh::choose(*part, cfg.layout);
        let coord = part.coord_of(rank);
        let row = vm.row_of(coord);
        let pos = vm.pos_in_row(coord);
        let m = workload.m_bytes;
        let proto = params.proto_header_bytes;
        let p1_bytes = vm.pvy() as u64 * m;
        let p2_bytes = vm.pvx() as u64 * m;
        let p1_shapes = packetize(p1_bytes, proto, cfg.min_packet_bytes, params);
        let p2_shapes = packetize(p2_bytes, proto, cfg.min_packet_bytes, params);
        // Rotated visiting order spreads instantaneous load across the row
        // (every node starts on a different neighbour).
        let p1_targets: Vec<u32> = (1..vm.pvx())
            .map(|i| vm.rank_at(row, (pos + i) % vm.pvx()))
            .collect();
        let p2_targets: Vec<u32> = (1..vm.pvy())
            .map(|i| vm.rank_at((row + i) % vm.pvy(), pos))
            .collect();
        let expect_p1_packets = p1_targets.len() as u64 * p1_shapes.len() as u64;
        VmeshProgram {
            rank,
            alpha_sim_cycles: params.alpha_message_cycles / params.cpu_cycles_per_sim_cycle(),
            gamma_cycles_per_chunk: params.gamma_ns_per_byte * params.chunk_bytes as f64 * 1e-9
                / params.secs_per_sim_cycle(),
            p1_shapes,
            p2_shapes,
            p1_targets,
            p2_targets,
            p1_idx: 0,
            p1_pkt: 0,
            p2_idx: 0,
            p2_pkt: 0,
            expect_p1_packets,
            got_p1_packets: 0,
            phase2_started: false,
        }
    }

    fn p1_done(&self) -> bool {
        self.p1_idx >= self.p1_targets.len()
    }

    fn p2_done(&self) -> bool {
        self.p2_idx >= self.p2_targets.len()
    }

    fn ready_for_phase2(&self) -> bool {
        self.p1_done() && self.got_p1_packets >= self.expect_p1_packets
    }
}

impl NodeProgram for VmeshProgram {
    /// Declines only when credit-blocked (the ack is a delivered credit
    /// packet), waiting on row messages before phase 2 (delivery-driven),
    /// or finished — sleeping until the next delivery is exact.
    fn poll_hint(&self) -> PollHint {
        PollHint::SleepUntilDelivery
    }

    fn next_send(&mut self, api: &mut NodeApi<'_>) -> Option<SendSpec> {
        if !self.p1_done() {
            let dst = self.p1_targets[self.p1_idx];
            // Under credit-window pacing, row receivers are the bounded
            // intermediates: every row member bursts Pvy·m bytes at every
            // other member at t=0, which is exactly the reception-memory
            // blow-up that stalls full-coverage runs on large asymmetric
            // tori. Reserve a credit or retry once acks return.
            if !api.try_acquire_credit(dst) {
                return None;
            }
            let shape = self.p1_shapes[self.p1_pkt];
            let alpha = if self.p1_pkt == 0 {
                self.alpha_sim_cycles
            } else {
                0.0
            };
            self.p1_pkt += 1;
            if self.p1_pkt >= self.p1_shapes.len() {
                self.p1_pkt = 0;
                self.p1_idx += 1;
            }
            return Some(SendSpec {
                dst_rank: dst,
                chunks: shape.chunks,
                payload_bytes: shape.payload,
                routing: RoutingMode::Adaptive,
                class: 0,
                meta: PacketMeta {
                    kind: KIND_ROW,
                    a: self.rank,
                    b: 0,
                },
                longest_first: false,
                cpu_cost_cycles: alpha,
            });
        }
        if !self.phase2_started {
            if !self.ready_for_phase2() {
                return None; // waiting for row messages
            }
            self.phase2_started = true;
        }
        if self.p2_done() {
            return None;
        }
        let dst = self.p2_targets[self.p2_idx];
        let shape = self.p2_shapes[self.p2_pkt];
        // α per column message on its first packet, plus the γ sort/copy
        // cost spread across the message's packets.
        let alpha = if self.p2_pkt == 0 {
            self.alpha_sim_cycles
        } else {
            0.0
        };
        let copy = self.gamma_cycles_per_chunk * shape.chunks as f64;
        self.p2_pkt += 1;
        if self.p2_pkt >= self.p2_shapes.len() {
            self.p2_pkt = 0;
            self.p2_idx += 1;
        }
        Some(SendSpec {
            dst_rank: dst,
            chunks: shape.chunks,
            payload_bytes: shape.payload,
            routing: RoutingMode::Adaptive,
            class: 0,
            meta: PacketMeta {
                kind: KIND_COL,
                a: self.rank,
                b: 0,
            },
            longest_first: false,
            cpu_cost_cycles: alpha + copy,
        })
    }

    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: &Packet) {
        match pkt.meta.kind {
            KIND_ROW => {
                // Credit packets never count toward `expect_p1_packets`:
                // only real row data advances the phase-2 barrier.
                self.got_p1_packets += 1;
                if let Some(n) = api.credit_receipt(pkt.meta.a) {
                    api.send(SendSpec {
                        dst_rank: pkt.meta.a,
                        chunks: 1,
                        payload_bytes: 0,
                        routing: RoutingMode::Adaptive,
                        class: 0,
                        meta: PacketMeta {
                            kind: KIND_CREDIT,
                            a: self.rank,
                            b: n,
                        },
                        longest_first: false,
                        cpu_cost_cycles: 0.0,
                    });
                }
            }
            KIND_COL => {} // final delivery
            KIND_CREDIT => api.apply_credit(pkt.meta.a, pkt.meta.b),
            other => panic!("VMesh received unknown packet kind {other}"),
        }
    }

    fn is_complete(&self) -> bool {
        self.p1_done() && self.phase2_started && self.p2_done()
            || (self.p1_targets.is_empty() && self.p2_targets.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn params() -> MachineParams {
        MachineParams::bgl()
    }

    fn pull(prog: &mut VmeshProgram, part: &Partition, now: u64) -> Option<SendSpec> {
        let mut q = VecDeque::new();
        let mut api = NodeApi::new(prog.rank, part.coord_of(prog.rank), now, part, &mut q);
        prog.next_send(&mut api)
    }

    fn fake_row_packet(part: &Partition, from: u32, to: u32) -> Packet {
        Packet {
            id: 0,
            src_rank: from,
            dst: part.coord_of(to),
            chunks: 1,
            payload_bytes: 8,
            plan: bgl_torus::HopPlan::new(
                part,
                part.coord_of(from),
                part.coord_of(to),
                bgl_torus::TieBreak::SrcParity,
            ),
            routing: RoutingMode::Adaptive,
            vc: bgl_sim::Vc::Dynamic0,
            class: 0,
            meta: PacketMeta {
                kind: KIND_ROW,
                a: from,
                b: 0,
            },
            longest_first: false,
            injected_at: 0,
            detour: bgl_sim::NO_DETOUR,
        }
    }

    #[test]
    fn phase1_visits_all_row_members() {
        let part: Partition = "4x4".parse().unwrap();
        let w = AaWorkload::full(8);
        let mut prog = VmeshProgram::new(0, &part, &w, &VmeshConfig::default(), &params());
        let pvx = prog.p1_targets.len() + 1;
        let mut dests = std::collections::HashSet::new();
        for _ in 0..pvx - 1 {
            let s = pull(&mut prog, &part, 0).expect("phase-1 send");
            assert_eq!(s.meta.kind, KIND_ROW);
            dests.insert(s.dst_rank);
        }
        assert_eq!(dests.len(), pvx - 1);
        // Now blocked until row messages arrive.
        assert!(pull(&mut prog, &part, 1).is_none());
        assert!(!prog.is_complete());
    }

    #[test]
    fn phase2_starts_only_after_all_row_messages() {
        let part: Partition = "4x4".parse().unwrap();
        let w = AaWorkload::full(8);
        let mut prog = VmeshProgram::new(0, &part, &w, &VmeshConfig::default(), &params());
        while pull(&mut prog, &part, 0).is_some() {}
        let sources: Vec<u32> = prog.p1_targets.clone();
        let per_msg = prog.p1_shapes.len();
        let mut q = VecDeque::new();
        for (i, &src) in sources.iter().enumerate() {
            // Still blocked with one message missing.
            assert!(
                pull(&mut prog, &part, 5).is_none(),
                "blocked before message {i}"
            );
            let mut api = NodeApi::new(0, part.coord_of(0), 5, &part, &mut q);
            for _ in 0..per_msg {
                prog.on_packet(&mut api, &fake_row_packet(&part, src, 0));
            }
        }
        let s = pull(&mut prog, &part, 6).expect("phase 2 must start");
        assert_eq!(s.meta.kind, KIND_COL);
        assert!(s.cpu_cost_cycles > 0.0, "first column packet pays α and γ");
    }

    #[test]
    fn message_sizes_match_equation_4() {
        // Phase-1 messages carry Pvy·m bytes, phase-2 messages Pvx·m.
        let part: Partition = "8x8x8".parse().unwrap();
        let w = AaWorkload::full(8);
        let prog = VmeshProgram::new(0, &part, &w, &VmeshConfig::default(), &params());
        let p1_payload: u64 = prog.p1_shapes.iter().map(|s| s.payload as u64).sum();
        let p2_payload: u64 = prog.p2_shapes.iter().map(|s| s.payload as u64).sum();
        assert_eq!(p1_payload, 16 * 8); // Pvy = 16 on the 32×16 mesh
        assert_eq!(p2_payload, 32 * 8); // Pvx = 32
        assert_eq!(prog.p1_targets.len(), 31);
        assert_eq!(prog.p2_targets.len(), 15);
    }

    #[test]
    fn completion_requires_both_phases() {
        let part: Partition = "2x2".parse().unwrap();
        let w = AaWorkload::full(4);
        let mut prog = VmeshProgram::new(0, &part, &w, &VmeshConfig::default(), &params());
        assert!(!prog.is_complete());
        // Send phase 1 (one row neighbour).
        assert!(pull(&mut prog, &part, 0).is_some());
        assert!(!prog.is_complete());
        // Receive the row message.
        let src = prog.p1_targets[0];
        let n = prog.p1_shapes.len();
        let mut q = VecDeque::new();
        let mut api = NodeApi::new(0, part.coord_of(0), 1, &part, &mut q);
        for _ in 0..n {
            prog.on_packet(&mut api, &fake_row_packet(&part, src, 0));
        }
        // Phase 2 (one column neighbour), then complete.
        while pull(&mut prog, &part, 2).is_some() {}
        assert!(prog.is_complete());
    }

    #[test]
    fn rotated_start_spreads_row_targets() {
        let part: Partition = "4x4".parse().unwrap();
        let w = AaWorkload::full(8);
        let a = VmeshProgram::new(0, &part, &w, &VmeshConfig::default(), &params());
        let b = VmeshProgram::new(1, &part, &w, &VmeshConfig::default(), &params());
        assert_ne!(a.p1_targets.first(), b.p1_targets.first());
    }
}
