//! Direct all-to-all strategies (Section 3): every source sends straight to
//! every destination. Covers the production-MPI-like baseline, the paper's
//! low-overhead randomized adaptive scheme (**AR**), deterministic
//! dimension-order routing (**DR**) and bisection-paced throttling.
//!
//! Injection pacing is no longer a program concern: rate-window
//! throttling is enforced by the engine from `SimConfig::flow` (see
//! [`bgl_sim::flow`]), which strategies populate from their
//! [`Pacer`](crate::Pacer). Under a credit-window pacer the program
//! reserves a credit per packet toward its destination and the receiver
//! acknowledges via small credit packets, bounding per-receiver memory.

use crate::flow::{self, KIND_CREDIT};
use crate::walk::SendWalk;
use crate::workload::AaWorkload;
use bgl_model::MachineParams;
use bgl_sim::{NodeApi, NodeProgram, Packet, RoutingMode, SendSpec};
use bgl_torus::Partition;

/// Payload packet kind (the default [`bgl_sim::PacketMeta`]).
const KIND_DATA: u8 = 0;

/// Tuning of a direct strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectConfig {
    /// Adaptive (AR/MPI/throttled) or deterministic (DR) routing.
    pub routing: RoutingMode,
    /// Per-destination startup α in CPU cycles (charged on the first packet
    /// of each message). The AR runtime pays 450; the MPI stack more.
    pub alpha_cpu_cycles: f64,
    /// Packets sent per destination before moving on: 1 for AR and DR,
    /// the production MPI tuning of 2 for the baseline.
    pub packets_per_visit: u32,
}

impl DirectConfig {
    /// The paper's AR scheme: randomized order, adaptive routing, low α.
    pub fn ar(params: &MachineParams) -> DirectConfig {
        DirectConfig {
            routing: RoutingMode::Adaptive,
            alpha_cpu_cycles: params.alpha_direct_cycles,
            packets_per_visit: 1,
        }
    }

    /// DR: same schedule but deterministic dimension-order routing on the
    /// bubble VC.
    pub fn dr(params: &MachineParams) -> DirectConfig {
        DirectConfig {
            routing: RoutingMode::Deterministic,
            ..DirectConfig::ar(params)
        }
    }

    /// Production-MPI-like baseline: adaptive, but with the MPI message
    /// machinery's higher per-destination overhead and the usual 2-packet
    /// tuning.
    pub fn mpi(params: &MachineParams) -> DirectConfig {
        DirectConfig {
            alpha_cpu_cycles: params.alpha_message_cycles,
            packets_per_visit: 2,
            ..DirectConfig::ar(params)
        }
    }
}

/// Per-node program implementing a direct all-to-all: the next hop of
/// every packet is its final destination. Routing is plain BG/L — no
/// longest-dimension preference, which is exactly why asymmetric tori
/// degrade (Section 3.2); the hint-bit-style shaping is a router extension
/// (`RouterConfig::longest_first_bias`) the ablation suite turns on.
pub struct DirectProgram {
    routing: RoutingMode,
    walk: SendWalk,
}

impl DirectProgram {
    /// Build the program for `rank` on `part` under `workload`/`cfg`.
    pub fn new(
        rank: u32,
        part: &Partition,
        workload: &AaWorkload,
        cfg: &DirectConfig,
        params: &MachineParams,
    ) -> DirectProgram {
        let (k, alpha) = (cfg.packets_per_visit, cfg.alpha_cpu_cycles);
        DirectProgram {
            routing: cfg.routing,
            walk: SendWalk::direct(rank, part, workload, k, alpha, params),
        }
    }
}

impl NodeProgram for DirectProgram {
    fn next_send(&mut self, api: &mut NodeApi<'_>) -> Option<SendSpec> {
        let step = self.walk.peek()?;
        // Under credit-window pacing the destination is the bounded
        // "intermediate": reserve a credit or retry once acks return.
        if !api.try_acquire_credit(step.target) {
            return None;
        }
        self.walk.advance();
        Some(step.send(step.target, self.routing))
    }

    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: &Packet) {
        match pkt.meta.kind {
            KIND_DATA => flow::acknowledge(api, pkt),
            KIND_CREDIT => flow::apply_ack(api, pkt),
            other => panic!("direct program received unknown packet kind {other}"),
        }
    }

    fn is_complete(&self) -> bool {
        self.walk.is_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgl_sim::{FlowLedger, FlowSpec, PacketMeta};
    use std::collections::HashMap;

    fn params() -> MachineParams {
        MachineParams::bgl()
    }

    fn drain_schedule(mut prog: DirectProgram, part: &Partition) -> Vec<SendSpec> {
        // Pull everything through a fake API.
        let mut out = Vec::new();
        let mut q = std::collections::VecDeque::new();
        let mut api = NodeApi::new(0, part.coord_of(0), 0, part, &mut q);
        while let Some(s) = prog.next_send(&mut api) {
            out.push(s);
            assert!(out.len() < 1_000_000, "program never completes");
        }
        assert!(prog.is_complete());
        out
    }

    #[test]
    fn sends_m_bytes_to_every_destination() {
        let part: Partition = "4x4".parse().unwrap();
        let w = AaWorkload::full(500);
        let prog = DirectProgram::new(0, &part, &w, &DirectConfig::ar(&params()), &params());
        let sends = drain_schedule(prog, &part);
        let mut per_dest: HashMap<u32, u64> = HashMap::new();
        for s in &sends {
            *per_dest.entry(s.dst_rank).or_default() += s.payload_bytes as u64;
        }
        assert_eq!(per_dest.len(), 15);
        for (&d, &bytes) in &per_dest {
            assert_ne!(d, 0);
            assert_eq!(bytes, 500, "destination {d}");
        }
    }

    #[test]
    fn alpha_charged_once_per_destination() {
        let part: Partition = "4x4".parse().unwrap();
        let w = AaWorkload::full(1000); // several packets per destination
        let prog = DirectProgram::new(3, &part, &w, &DirectConfig::ar(&params()), &params());
        let sends = drain_schedule(prog, &part);
        let charged: usize = sends.iter().filter(|s| s.cpu_cost_cycles > 0.0).count();
        assert_eq!(charged, 15);
    }

    #[test]
    fn packets_per_visit_interleaves_destinations() {
        let part: Partition = "8x1x1".parse().unwrap();
        let w = AaWorkload::full(1000); // 5 packets per message
        let cfg = DirectConfig::ar(&params());
        assert_eq!(cfg.packets_per_visit, 1);
        let prog = DirectProgram::new(0, &part, &w, &cfg, &params());
        let sends = drain_schedule(prog, &part);
        // With k=1: first 7 sends go to 7 distinct destinations.
        let first: std::collections::HashSet<u32> = sends[..7].iter().map(|s| s.dst_rank).collect();
        assert_eq!(first.len(), 7);
        // 5 rounds × 7 destinations.
        assert_eq!(sends.len(), 35);
    }

    #[test]
    fn dr_uses_deterministic_routing() {
        let part: Partition = "8x1x1".parse().unwrap();
        let w = AaWorkload::full(100);
        let prog = DirectProgram::new(0, &part, &w, &DirectConfig::dr(&params()), &params());
        let sends = drain_schedule(prog, &part);
        assert!(sends
            .iter()
            .all(|s| s.routing == RoutingMode::Deterministic));
    }

    #[test]
    fn mpi_baseline_pays_more_alpha() {
        let p = params();
        let ar = DirectConfig::ar(&p);
        let mpi = DirectConfig::mpi(&p);
        assert!(mpi.alpha_cpu_cycles > ar.alpha_cpu_cycles);
        assert_eq!(mpi.packets_per_visit, 2);
    }

    #[test]
    fn credit_window_blocks_until_ack_returns() {
        let part: Partition = "8x1x1".parse().unwrap();
        let w = AaWorkload::full(1000); // 5 packets per destination
        let mut cfg = DirectConfig::ar(&params());
        cfg.packets_per_visit = u32::MAX; // whole message per visit
        let mut prog = DirectProgram::new(0, &part, &w, &cfg, &params());
        let mut ledger = FlowLedger::new(FlowSpec::Credit {
            window_packets: 2,
            credit_every: 1,
        });
        let mut q = std::collections::VecDeque::new();
        let mut api = NodeApi::new(0, part.coord_of(0), 0, &part, &mut q).with_flow(&mut ledger);
        // Two packets to the first destination fit the window; the third
        // must block.
        let first = prog.next_send(&mut api).expect("first send");
        assert!(prog.next_send(&mut api).is_some());
        assert!(prog.next_send(&mut api).is_none(), "window of 2 must close");
        assert!(!prog.is_complete());
        // A credit ack from that destination reopens the window.
        let mut credit = Packet::new(&part, first.dst_rank, 0);
        credit.meta = PacketMeta {
            kind: KIND_CREDIT,
            a: first.dst_rank,
            b: 1,
        };
        prog.on_packet(&mut api, &credit);
        assert!(
            prog.next_send(&mut api).is_some(),
            "credit must reopen the window"
        );
    }

    #[test]
    fn receiver_acks_every_quantum() {
        let part: Partition = "8x1x1".parse().unwrap();
        let w = AaWorkload::full(240);
        let mut prog = DirectProgram::new(1, &part, &w, &DirectConfig::ar(&params()), &params());
        let mut ledger = FlowLedger::new(FlowSpec::Credit {
            window_packets: 4,
            credit_every: 2,
        });
        let mut q = std::collections::VecDeque::new();
        let data = Packet::new(&part, 5, 1);
        {
            let mut api =
                NodeApi::new(1, part.coord_of(1), 0, &part, &mut q).with_flow(&mut ledger);
            prog.on_packet(&mut api, &data);
            assert_eq!(api.queued(), 0, "no ack before the quantum fills");
            prog.on_packet(&mut api, &data);
        }
        assert_eq!(q.len(), 1, "second receipt triggers the ack");
        let ack = &q[0];
        assert_eq!(ack.dst_rank, 5);
        assert_eq!(ack.meta.kind, KIND_CREDIT);
        assert_eq!(ack.meta.a, 1);
        assert_eq!(ack.meta.b, 2);
    }

    #[test]
    fn sampled_coverage_reduces_schedule() {
        let part: Partition = "16x16".parse().unwrap();
        let w = AaWorkload::sampled(100, 0.25);
        let prog = DirectProgram::new(0, &part, &w, &DirectConfig::ar(&params()), &params());
        // One packet per 100-byte message: a step per destination.
        assert_eq!(prog.walk.count(), 64);
    }
}
