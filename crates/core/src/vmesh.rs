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

use crate::flow::{self, KIND_CREDIT};
use crate::walk::SendWalk;
use crate::workload::{AaWorkload, Framing};
use bgl_model::{MachineParams, CHUNK_BYTES};
use bgl_sim::{NodeApi, NodeProgram, Packet, PacketMeta, PollHint, RoutingMode, SendSpec};
use bgl_torus::VirtualMesh;

/// Phase-1 (row) packet kind.
const KIND_ROW: u8 = 1;
/// Phase-2 (column) packet kind.
const KIND_COL: u8 = 2;

/// Smallest packet of the combining (message-passing) runtime, bytes.
/// Unlike the 64-byte direct-runtime floor, combined messages carry only
/// the 8-byte proto header, so one-chunk packets are possible.
const MIN_PACKET_BYTES: u32 = CHUNK_BYTES;

/// Per-node virtual-mesh combining program: two message-major walks, one
/// combined message to every other row member (phase 1), then — after a
/// barrier on the row messages it is owed — one to every other column
/// member (phase 2).
pub struct VmeshProgram {
    rank: u32,
    gamma_cycles_per_chunk: f64,
    /// Row messages, other row members in rotated order.
    p1: SendWalk,
    /// Column messages, other column members in rotated order.
    p2: SendWalk,
    /// Phase-1 packets still expected from row neighbours.
    expect_p1_packets: u64,
    got_p1_packets: u64,
    phase2_started: bool,
}

impl VmeshProgram {
    /// Build the program for `rank` on the virtual mesh `vm`: the run's
    /// one layout ([`VirtualMesh::choose`] of its partition), chosen once by
    /// the caller and shared by every node's program.
    pub fn new(
        rank: u32,
        vm: &VirtualMesh,
        workload: &AaWorkload,
        params: &MachineParams,
    ) -> VmeshProgram {
        let coord = vm.partition().coord_of(rank);
        let row = vm.row_of(coord);
        let pos = vm.pos_in_row(coord);
        let m = workload.m_bytes;
        let proto = params.proto_header_bytes;
        let p1_framing = Framing::new(vm.pvy() as u64 * m, proto, MIN_PACKET_BYTES);
        let p2_framing = Framing::new(vm.pvx() as u64 * m, proto, MIN_PACKET_BYTES);
        // Rotated visiting order spreads instantaneous load across the row
        // (every node starts on a different neighbour).
        let p1_targets: Vec<u32> = (1..vm.pvx())
            .map(|i| vm.rank_at(row, (pos + i) % vm.pvx()))
            .collect();
        let p2_targets: Vec<u32> = (1..vm.pvy())
            .map(|i| vm.rank_at((row + i) % vm.pvy(), pos))
            .collect();
        let alpha = params.cpu_to_sim_cycles(params.alpha_message_cycles);
        VmeshProgram {
            rank,
            gamma_cycles_per_chunk: params.gamma_sim_cycles_per_chunk(),
            expect_p1_packets: p1_targets.len() as u64 * p1_framing.packets() as u64,
            p1: SendWalk::new(p1_targets, p1_framing, u32::MAX, alpha),
            p2: SendWalk::new(p2_targets, p2_framing, u32::MAX, alpha),
            got_p1_packets: 0,
            phase2_started: false,
        }
    }

    fn ready_for_phase2(&self) -> bool {
        self.p1.is_done() && self.got_p1_packets >= self.expect_p1_packets
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
        let meta = |kind| PacketMeta {
            kind,
            a: self.rank,
            b: 0,
        };
        if let Some(step) = self.p1.peek() {
            // Under credit-window pacing, row receivers are the bounded
            // intermediates: every row member bursts Pvy·m bytes at every
            // other member at t=0, which is exactly the reception-memory
            // blow-up that stalls full-coverage runs on large asymmetric
            // tori. Reserve a credit or retry once acks return.
            if !api.try_acquire_credit(step.target) {
                return None;
            }
            let row = step.send(step.target, RoutingMode::Adaptive);
            self.p1.advance();
            return Some(row.with_meta(meta(KIND_ROW)));
        }
        if !self.phase2_started {
            if !self.ready_for_phase2() {
                return None; // waiting for row messages
            }
            self.phase2_started = true;
        }
        let step = self.p2.peek()?;
        // α per column message on its first packet, plus the γ sort/copy
        // cost spread across the message's packets.
        let copy = self.gamma_cycles_per_chunk * step.shape.chunks as f64;
        let col = step.send(step.target, RoutingMode::Adaptive);
        self.p2.advance();
        Some(
            col.with_meta(meta(KIND_COL))
                .with_cpu_cost(step.alpha + copy),
        )
    }

    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: &Packet) {
        match pkt.meta.kind {
            KIND_ROW => {
                // Credit packets never count toward `expect_p1_packets`:
                // only real row data advances the phase-2 barrier.
                self.got_p1_packets += 1;
                flow::acknowledge(api, pkt);
            }
            KIND_COL => {} // final delivery
            KIND_CREDIT => flow::apply_ack(api, pkt),
            other => panic!("VMesh received unknown packet kind {other}"),
        }
    }

    fn is_complete(&self) -> bool {
        self.p1.is_done() && self.phase2_started && self.p2.is_done()
            || (self.p1.targets().len() == 0 && self.p2.targets().len() == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgl_torus::Partition;
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
        let mut pkt = Packet::new(part, from, to);
        (pkt.chunks, pkt.payload_bytes) = (1, 8);
        pkt.meta = PacketMeta {
            kind: KIND_ROW,
            a: from,
            b: 0,
        };
        pkt
    }

    #[test]
    fn phase1_visits_all_row_members() {
        let part: Partition = "4x4".parse().unwrap();
        let w = AaWorkload::full(8);
        let mut prog = VmeshProgram::new(0, &VirtualMesh::choose(part), &w, &params());
        let pvx = prog.p1.targets().len() + 1;
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
        let mut prog = VmeshProgram::new(0, &VirtualMesh::choose(part), &w, &params());
        while pull(&mut prog, &part, 0).is_some() {}
        let sources: Vec<u32> = prog.p1.targets().collect();
        let per_msg = prog.p1.framing().packets();
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
        let prog = VmeshProgram::new(0, &VirtualMesh::choose(part), &w, &params());
        let p1_payload: u64 = prog.p1.framing().shapes().map(|s| s.payload as u64).sum();
        let p2_payload: u64 = prog.p2.framing().shapes().map(|s| s.payload as u64).sum();
        assert_eq!(p1_payload, 16 * 8); // Pvy = 16 on the 32×16 mesh
        assert_eq!(p2_payload, 32 * 8); // Pvx = 32
        assert_eq!(prog.p1.targets().len(), 31);
        assert_eq!(prog.p2.targets().len(), 15);
    }

    #[test]
    fn completion_requires_both_phases() {
        let part: Partition = "2x2".parse().unwrap();
        let w = AaWorkload::full(4);
        let mut prog = VmeshProgram::new(0, &VirtualMesh::choose(part), &w, &params());
        assert!(!prog.is_complete());
        // Send phase 1 (one row neighbour).
        assert!(pull(&mut prog, &part, 0).is_some());
        assert!(!prog.is_complete());
        // Receive the row message.
        let src = prog.p1.targets().next().unwrap();
        let n = prog.p1.framing().packets();
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
        let vm = VirtualMesh::choose(part);
        let a = VmeshProgram::new(0, &vm, &w, &params());
        let b = VmeshProgram::new(1, &vm, &w, &params());
        assert_ne!(a.p1.targets().next(), b.p1.targets().next());
    }
}
