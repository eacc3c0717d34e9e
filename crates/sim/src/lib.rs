//! Cycle-level simulator of the Blue Gene/L torus interconnect.
//!
//! This crate is the hardware substrate of the reproduction: it models the
//! BG/L network at the granularity the paper's phenomena live at —
//! input-queued routers with per-(port, VC) finite FIFOs, credit flow
//! control, two dynamic VCs with join-shortest-queue adaptive routing, the
//! dimension-ordered "bubble normal" escape VC with the bubble
//! deadlock-avoidance rule, injection/reception FIFOs, and a DMA-less node
//! CPU that pays for every packet it touches.
//!
//! Time is counted in cycles of one 32-byte chunk per link
//! (≈ 207 ns ≈ 145 CPU cycles on the real machine; see
//! `bgl_model::MachineParams` for conversions). Runs are deterministic:
//! identical configuration and programs produce identical cycle counts.
//!
//! The all-to-all strategies themselves live in `bgl-core` as
//! [`NodeProgram`]s; this crate only moves packets.
//!
//! # Example: two nodes exchanging one packet each
//!
//! ```
//! use bgl_sim::{Engine, SimConfig, ScriptedProgram, SendSpec, NodeProgram};
//!
//! let cfg = SimConfig::new("2x1x1".parse().unwrap());
//! let programs: Vec<Box<dyn NodeProgram>> = vec![
//!     Box::new(ScriptedProgram::new(vec![SendSpec::adaptive(1, 2, 64)], 1)),
//!     Box::new(ScriptedProgram::new(vec![SendSpec::adaptive(0, 2, 64)], 1)),
//! ];
//! let stats = Engine::new(cfg, programs).run().unwrap();
//! assert_eq!(stats.packets_delivered, 2);
//! assert_eq!(stats.payload_bytes_delivered, 128);
//! ```

pub mod config;
pub mod csv;
pub mod engine;
pub mod fault;
pub(crate) mod fifo;
pub mod flow;
pub(crate) mod node;
pub mod packet;
pub mod perf;
pub mod program;
pub mod stats;
pub mod trace;

pub use config::{EngineMode, RouterConfig, SimConfig, Vc, NUM_VCS};
pub use engine::{Engine, FaultBlock, SimError, StallBreakdown};
pub use fault::{FaultPlan, LinkFault, LinkSchedule, NodeFault};
pub use flow::{FlowLedger, FlowSpec};
pub use packet::{Packet, PacketMeta, RoutingMode, SendSpec, NO_DETOUR};
pub use perf::{EventPerf, PerfConfig, PerfProfile, PhaseSecs};
pub use program::{NodeApi, NodeProgram, ScriptedProgram};
pub use stats::NetStats;
pub use trace::{OccStat, Trace, TraceConfig, TraceSample};

#[cfg(test)]
mod tests {
    use super::*;
    use bgl_torus::{Coord, Dim, Partition};

    fn boxed(p: ScriptedProgram) -> Box<dyn NodeProgram> {
        Box::new(p)
    }

    /// All nodes idle: completes instantly at cycle 0.
    #[test]
    fn empty_simulation_completes_immediately() {
        let cfg = SimConfig::new("4x4x4".parse().unwrap());
        let programs = (0..64).map(|_| boxed(ScriptedProgram::idle())).collect();
        let stats = Engine::new(cfg, programs).run().unwrap();
        assert_eq!(stats.packets_injected, 0);
        assert_eq!(stats.completion_cycle, 0);
    }

    #[test]
    #[should_panic(expected = "one program per node")]
    fn wrong_program_count_panics() {
        let cfg = SimConfig::new("4x1x1".parse().unwrap());
        let _ = Engine::new(cfg, vec![boxed(ScriptedProgram::idle())]);
    }

    /// A 6-D node's 36 transit FIFOs leave a 64-bit mask room for `inj` ≤ 28
    /// injection FIFOs; the last, class 1's only one, carries a packet.
    fn six_d_engine(inj: u32) -> Engine {
        let mut cfg = SimConfig::new(Partition::torus_nd(&[2; 6]));
        cfg.inj_fifo_count = inj;
        cfg.inj_class_masks = (1..=inj).map(|f| if f == inj { 2 } else { 1 }).collect();
        cfg.check_invariants = true;
        let send = SendSpec::adaptive(63, 8, 240).with_class(1);
        let mut programs: Vec<_> = (0..64).map(|_| boxed(ScriptedProgram::idle())).collect();
        programs[0] = boxed(ScriptedProgram::new(vec![send], 0));
        programs[63] = boxed(ScriptedProgram::new(vec![], 1));
        Engine::new(cfg, programs)
    }

    #[test]
    fn six_d_node_takes_28_injection_fifos() {
        assert_eq!(six_d_engine(28).run().unwrap().packets_delivered, 1);
    }

    #[test]
    #[should_panic(expected = "a node's FIFOs are a u64 bitmask")]
    fn six_d_node_refuses_29_injection_fifos() {
        let _ = six_d_engine(29);
    }

    /// One packet, one hop: delivery happens and latency is sane.
    #[test]
    fn single_packet_single_hop() {
        let cfg = SimConfig::new("2x1x1".parse().unwrap());
        let programs = vec![
            boxed(ScriptedProgram::new(vec![SendSpec::adaptive(1, 8, 240)], 0)),
            boxed(ScriptedProgram::new(vec![], 1)),
        ];
        let stats = Engine::new(cfg, programs).run().unwrap();
        assert_eq!(stats.packets_injected, 1);
        assert_eq!(stats.packets_delivered, 1);
        assert_eq!(stats.payload_bytes_delivered, 240);
        // 8 chunks on the wire + hop latency + injection/drain bookkeeping:
        // completion within a small constant of the wire time.
        assert!(stats.completion_cycle >= 8);
        assert!(stats.completion_cycle < 32, "{}", stats.completion_cycle);
        assert_eq!(stats.hops_taken, [1, 0, 0]);
    }

    /// Packets are conserved: everything injected is delivered exactly once.
    #[test]
    fn packet_conservation_ring_traffic() {
        let part: Partition = "8x1x1".parse().unwrap();
        let cfg = SimConfig::new(part);
        let programs: Vec<Box<dyn NodeProgram>> = (0..8u32)
            .map(|r| {
                // Each node sends 5 packets to every other node.
                let sends: Vec<SendSpec> = (0..8u32)
                    .filter(|&d| d != r)
                    .flat_map(|d| (0..5).map(move |_| SendSpec::adaptive(d, 4, 128)))
                    .collect();
                boxed(ScriptedProgram::new(sends, 35))
            })
            .collect();
        let stats = Engine::new(cfg, programs).run().unwrap();
        assert_eq!(stats.packets_injected, 8 * 7 * 5);
        assert_eq!(stats.packets_delivered, 8 * 7 * 5);
        assert_eq!(stats.payload_bytes_delivered, 8 * 7 * 5 * 128);
    }

    /// Deterministic routing visits dimensions in X→Y→Z order; the hop
    /// counters prove every dimension was traversed minimally.
    #[test]
    fn deterministic_routing_hop_counts() {
        let part: Partition = "4x4x4".parse().unwrap();
        let src = 0u32;
        let dstc = Coord::new(1, 2, 1);
        let dst = part.rank_of(dstc);
        let cfg = SimConfig::new(part);
        let mut programs: Vec<Box<dyn NodeProgram>> =
            (0..64).map(|_| boxed(ScriptedProgram::idle())).collect();
        programs[src as usize] = boxed(ScriptedProgram::new(
            vec![SendSpec::deterministic(dst, 2, 64)],
            0,
        ));
        programs[dst as usize] = boxed(ScriptedProgram::new(vec![], 1));
        let stats = Engine::new(cfg, programs).run().unwrap();
        assert_eq!(stats.hops_taken, [1, 2, 1]);
        // Deterministic packets ride the bubble VC exclusively.
        assert_eq!(stats.bubble_hops, 4);
        assert_eq!(stats.dynamic_hops, 0);
    }

    /// Adaptive packets use the dynamic VCs on an uncontended network.
    #[test]
    fn adaptive_routing_uses_dynamic_vcs() {
        let part: Partition = "4x4x4".parse().unwrap();
        let dst = part.rank_of(Coord::new(2, 2, 2));
        let cfg = SimConfig::new(part);
        let mut programs: Vec<Box<dyn NodeProgram>> =
            (0..64).map(|_| boxed(ScriptedProgram::idle())).collect();
        programs[0] = boxed(ScriptedProgram::new(
            vec![SendSpec::adaptive(dst, 2, 64)],
            0,
        ));
        programs[dst as usize] = boxed(ScriptedProgram::new(vec![], 1));
        let stats = Engine::new(cfg, programs).run().unwrap();
        assert_eq!(stats.hops_taken.iter().sum::<u64>(), 6);
        assert_eq!(stats.dynamic_hops, 6);
        assert_eq!(stats.bubble_hops, 0);
    }

    /// Identical (config, programs) runs produce identical statistics.
    #[test]
    fn determinism() {
        let run = || {
            let part: Partition = "4x4".parse().unwrap();
            let cfg = SimConfig::new(part);
            let programs: Vec<Box<dyn NodeProgram>> = (0..16u32)
                .map(|r| {
                    let sends: Vec<SendSpec> = (0..16u32)
                        .filter(|&d| d != r)
                        .map(|d| SendSpec::adaptive(d, 3, 96))
                        .collect();
                    boxed(ScriptedProgram::new(sends, 15))
                })
                .collect();
            Engine::new(cfg, programs).run().unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    /// A node that expects a packet that never comes trips the watchdog.
    #[test]
    fn watchdog_fires_on_stuck_program() {
        let mut cfg = SimConfig::new("2x1x1".parse().unwrap());
        cfg.watchdog_cycles = 500;
        let programs = vec![
            boxed(ScriptedProgram::idle()),
            boxed(ScriptedProgram::new(vec![], 1)),
        ];
        match Engine::new(cfg, programs).run() {
            Err(SimError::Stalled {
                incomplete_programs,
                ..
            }) => {
                assert_eq!(incomplete_programs, 1);
            }
            other => panic!("expected stall, got {other:?}"),
        }
    }

    /// Mesh edges have no links: traffic between far ends must route
    /// through the middle, never wrapping.
    #[test]
    fn mesh_does_not_wrap() {
        let part: Partition = "4Mx1x1".parse().unwrap();
        let cfg = SimConfig::new(part);
        let programs = vec![
            boxed(ScriptedProgram::new(vec![SendSpec::adaptive(3, 1, 32)], 0)),
            boxed(ScriptedProgram::idle()),
            boxed(ScriptedProgram::idle()),
            boxed(ScriptedProgram::new(vec![], 1)),
        ];
        let stats = Engine::new(cfg, programs).run().unwrap();
        assert_eq!(stats.hops_taken, [3, 0, 0]);
    }

    /// Heavy hotspot traffic (all nodes to one destination) still drains:
    /// backpressure and the reception FIFO throttle but never deadlock.
    #[test]
    fn hotspot_drains_without_deadlock() {
        let part: Partition = "4x4".parse().unwrap();
        let cfg = SimConfig::new(part);
        let programs: Vec<Box<dyn NodeProgram>> = (0..16u32)
            .map(|r| {
                if r == 0 {
                    boxed(ScriptedProgram::new(vec![], 15 * 20))
                } else {
                    boxed(ScriptedProgram::new(
                        (0..20).map(|_| SendSpec::adaptive(0, 8, 240)).collect(),
                        0,
                    ))
                }
            })
            .collect();
        let stats = Engine::new(cfg, programs).run().unwrap();
        assert_eq!(stats.packets_delivered, 15 * 20);
        // The sink's links are the bottleneck: 300 packets × 8 chunks over
        // 4 incoming links ≥ 600 cycles.
        assert!(stats.completion_cycle >= 600, "{}", stats.completion_cycle);
    }

    /// Utilization accounting: a saturated one-way ring line reaches high
    /// X-link utilization.
    #[test]
    fn neighbor_stream_saturates_link() {
        let part: Partition = "8x1x1".parse().unwrap();
        let cfg = SimConfig::new(part);
        let npkts = 200u64;
        let programs: Vec<Box<dyn NodeProgram>> = (0..8u32)
            .map(|r| {
                let next = (r + 1) % 8;
                boxed(ScriptedProgram::new(
                    (0..npkts)
                        .map(|_| SendSpec::adaptive(next, 8, 240))
                        .collect(),
                    npkts,
                ))
            })
            .collect();
        let stats = Engine::new(cfg, programs).run().unwrap();
        let part: Partition = "8x1x1".parse().unwrap();
        // Every node streams to its +1 neighbour: the 8 plus-links carry
        // 200×8 chunks each; utilization of the dimension (16 directed
        // links, half idle) approaches 0.5.
        let util = stats.dim_utilization(&part, Dim::X);
        assert!(util > 0.4, "utilization {util}");
        assert_eq!(stats.packets_delivered, 8 * npkts);
    }

    /// Injection classes: a packet of class 1 may only use FIFOs whose
    /// mask includes class 1.
    #[test]
    fn injection_class_reservation() {
        let mut cfg = SimConfig::new("2x1x1".parse().unwrap());
        cfg.inj_fifo_count = 2;
        // FIFO 0 takes only class 0; FIFO 1 only class 1.
        cfg.inj_class_masks = vec![0b01, 0b10];
        let programs = vec![
            boxed(ScriptedProgram::new(
                vec![
                    SendSpec::adaptive(1, 1, 32).with_class(0),
                    SendSpec::adaptive(1, 1, 32).with_class(1),
                ],
                0,
            )),
            boxed(ScriptedProgram::new(vec![], 2)),
        ];
        let stats = Engine::new(cfg, programs).run().unwrap();
        assert_eq!(stats.packets_delivered, 2);
    }

    /// CPU bandwidth limits injection: a 4x4x4 node streaming to its six
    /// neighbours has six links, 6 chunks per cycle, but a CPU that moves
    /// 4, less its per-packet cost, so the run ends near the CPU's bound,
    /// well past the links'.
    #[test]
    fn cpu_bandwidth_bounds_injection_rate() {
        use config::{CPU_CHUNKS_PER_CYCLE, CPU_INJECT_CYCLES_PER_PACKET};
        let part: Partition = "4x4x4".parse().unwrap();
        let (per_link, chunks) = (100u64, 8u8);
        let neighbours: Vec<u32> = bgl_torus::Direction::all(3)
            .map(|dir| part.rank_of(part.neighbor(part.coord_of(0), dir).unwrap()))
            .collect();
        let mut programs: Vec<Box<dyn NodeProgram>> =
            (0..64).map(|_| boxed(ScriptedProgram::idle())).collect();
        let sends = (0..per_link).flat_map(|_| {
            neighbours
                .iter()
                .map(|&d| SendSpec::adaptive(d, chunks, chunks as u32 * 30))
        });
        programs[0] = boxed(ScriptedProgram::new(sends.collect(), 0));
        for &d in &neighbours {
            programs[d as usize] = boxed(ScriptedProgram::new(vec![], per_link));
        }
        let cycles = Engine::new(SimConfig::new(part), programs)
            .run()
            .unwrap()
            .completion_cycle as f64;
        let packets = (per_link * 6) as f64;
        let link_bound = packets * chunks as f64 / 6.0;
        let per_packet = CPU_INJECT_CYCLES_PER_PACKET + chunks as f64 / CPU_CHUNKS_PER_CYCLE;
        let cpu_bound = packets * per_packet;
        assert!(cpu_bound > 1.5 * link_bound, "{cpu_bound} {link_bound}");
        assert!(
            cycles >= cpu_bound - per_packet && cycles < 1.02 * cpu_bound,
            "completion {cycles}, CPU bound {cpu_bound}, link bound {link_bound}"
        );
    }
}
