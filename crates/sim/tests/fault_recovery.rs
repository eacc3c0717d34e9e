//! Fault-injection soak: a long adaptive run on a 4x4x4 torus with links
//! failing and recovering mid-flight, oracle on. Exercises the full
//! degraded-mode path — arbitration refusal, detours, in-flight drops,
//! recovery — and pins the accounting identity `injected == delivered +
//! dropped_by_fault` plus byte-equality across both engine modes.

use bgl_sim::{
    Engine, EngineMode, FaultPlan, FlowSpec, LinkFault, NetStats, NodeProgram, PerfConfig,
    ScriptedProgram, SendSpec, SimConfig,
};
use bgl_torus::{Dim, Direction, Partition, Sign};

/// Uniform adaptive all-to-all: every node sends `k` packets of `chunks`
/// chunks to every other node.
fn uniform(part: &Partition, k: u64, chunks: u8) -> Vec<Box<dyn NodeProgram>> {
    let p = part.num_nodes();
    (0..p)
        .map(|r| {
            let sends: Vec<SendSpec> = (0..p)
                .filter(|&d| d != r)
                .flat_map(|d| {
                    (0..k).map(move |_| SendSpec::adaptive(d, chunks, chunks as u32 * 30))
                })
                .collect();
            let expect = (p as u64 - 1) * k;
            Box::new(ScriptedProgram::new(sends, expect)) as Box<dyn NodeProgram>
        })
        .collect()
}

fn dir(dim: Dim, sign: Sign) -> Direction {
    Direction { dim, sign }
}

/// Fail→recover→fail windows inside the ~2300-cycle healthy run (the
/// simulator is deterministic, so the healthy completion cycle is a
/// constant of the workload): two links die while traffic is heavy and
/// come back before the drain, a third dies and never recovers (AR
/// routes around it). The instants are chosen mid-flight so the drop
/// path is exercised, not just the arbitration-refusal path.
fn soak_plan() -> FaultPlan {
    FaultPlan {
        links: vec![
            LinkFault {
                node: 0,
                dir: dir(Dim::X, Sign::Plus),
                fail_at: 700,
                recover_at: Some(1400),
            },
            LinkFault {
                node: 21,
                dir: dir(Dim::Y, Sign::Minus),
                fail_at: 900,
                recover_at: Some(1600),
            },
            LinkFault {
                node: 42,
                dir: dir(Dim::Z, Sign::Plus),
                fail_at: 1158,
                recover_at: None,
            },
        ],
        nodes: vec![],
    }
}

fn run(part: Partition, mode: EngineMode, plan: &FaultPlan, oracle: bool) -> NetStats {
    let mut cfg = SimConfig::new(part);
    cfg.engine = mode;
    cfg.fault = plan.clone();
    cfg.check_invariants = oracle;
    Engine::new(cfg, uniform(&part, 4, 8))
        .run()
        .expect("soak run completes")
}

#[test]
fn fault_recovery_soak_oracle_green_and_accounting_telescopes() {
    let part: Partition = "4x4x4".parse().unwrap();
    let healthy = run(part, EngineMode::FullScan, &FaultPlan::default(), true);
    assert_eq!(healthy.dropped_by_fault, 0, "healthy runs never drop");
    assert!(
        healthy.completion_cycle > 1600,
        "the fault windows must sit inside the run; got {} cycles",
        healthy.completion_cycle
    );

    let plan = soak_plan();
    plan.validate(&part).unwrap();

    // Oracle-checked faulty run: the ledger (exactly-once delivery XOR
    // exactly-once drop, byte conservation, drop counts) is asserted
    // every cycle and at quiesce inside the engine.
    let faulty = run(part, EngineMode::FullScan, &plan, true);

    // Everything injected is either delivered or accounted to a fault.
    assert_eq!(
        faulty.packets_injected,
        faulty.packets_delivered + faulty.dropped_by_fault,
        "delivered + dropped_by_fault must telescope to injected"
    );
    assert_eq!(faulty.packets_injected, healthy.packets_injected);
    // The windows open while traffic is heavy: the run must actually have
    // exercised the drop path, not just the refusal path.
    assert!(
        faulty.dropped_by_fault > 0,
        "soak windows are placed mid-flight; expected in-flight drops"
    );

    // Both engine modes agree byte-for-byte under the same plan, and the
    // skipping clock parks arbitration under a fault plan too: a node whose
    // heads were refused waits for the release, link or transition that
    // can change that (the oracle checks every parked node).
    let full = run(part, EngineMode::FullScan, &plan, false);
    let mut cfg = SimConfig::new(part);
    (cfg.fault, cfg.check_invariants) = (plan.clone(), true);
    cfg.perf = Some(PerfConfig::default());
    let mut engine = Engine::new(cfg, uniform(&part, 4, 8));
    assert_eq!(full, engine.run().expect("soak run completes"));
    let perf = engine.take_perf().expect("profiling on");
    assert!(perf.arb_parked > 0, "{perf:?}");
    // And the oracle never perturbs a faulty run.
    assert_eq!(full, faulty);
}

#[test]
fn node_fault_with_recovery_completes_and_accounts_drops() {
    use bgl_sim::NodeFault;
    let part: Partition = "4x4".parse().unwrap();
    let plan = FaultPlan {
        links: vec![],
        nodes: vec![NodeFault {
            rank: 5,
            fail_at: 10,
            recover_at: Some(600),
        }],
    };
    let mut cfg = SimConfig::new(part);
    cfg.fault = plan;
    cfg.check_invariants = true;
    let stats = Engine::new(cfg, uniform(&part, 2, 4))
        .run()
        .expect("traffic stranded at the dead node's edge drains after recovery");
    assert_eq!(
        stats.packets_injected,
        stats.packets_delivered + stats.dropped_by_fault
    );
    assert!(
        stats.dropped_by_fault > 0,
        "killing every link of a busy node mid-run must catch packets in flight"
    );
}

#[test]
fn permanent_node_fault_is_reported_unreachable_with_breakdown() {
    use bgl_sim::{NodeFault, SimError};
    let part: Partition = "4x4".parse().unwrap();
    let plan = FaultPlan {
        links: vec![],
        nodes: vec![NodeFault {
            rank: 5,
            fail_at: 10,
            recover_at: None,
        }],
    };
    let mut cfg = SimConfig::new(part);
    cfg.fault = plan;
    cfg.check_invariants = true;
    // Packets addressed to the isolated node that were not already in
    // flight on a dying link can be neither delivered nor dropped: the
    // run must end in Unreachable, never a silent hang, and every
    // blocking link in the breakdown must be incident to the dead node.
    match Engine::new(cfg, uniform(&part, 2, 4)).run() {
        Err(SimError::Unreachable {
            blocked_packets,
            faults,
            ..
        }) => {
            assert!(blocked_packets > 0);
            assert!(!faults.is_empty());
            for f in &faults {
                let touches_dead_node = f.node == 5
                    || part
                        .neighbor(part.coord_of(f.node), f.dir)
                        .map(|c| part.rank_of(c))
                        == Some(5);
                assert!(
                    touches_dead_node,
                    "fault {}:{} does not touch the dead node",
                    f.node, f.dir
                );
            }
        }
        other => panic!("expected Unreachable, got {other:?}"),
    }
}

/// A dimension-ordered stream behind a link that is down past the watchdog
/// but scheduled to recover is a stall, not an unreachable destination:
/// its heads are fault-blocked, and they may yet move.
#[test]
fn a_recovery_after_the_watchdog_reports_a_stall() {
    use bgl_sim::SimError;
    let part: Partition = "4x4x4".parse().unwrap();
    let mut cfg = SimConfig::new(part);
    cfg.watchdog_cycles = 500;
    cfg.fault.links.push(LinkFault {
        node: 0,
        dir: dir(Dim::X, Sign::Plus),
        fail_at: 0,
        recover_at: Some(5_000),
    });
    let p = part.num_nodes();
    let mut programs: Vec<Box<dyn NodeProgram>> = (0..p)
        .map(|_| Box::new(ScriptedProgram::idle()) as Box<dyn NodeProgram>)
        .collect();
    let stream = (0..8).map(|_| SendSpec::deterministic(2, 8, 240)).collect();
    programs[0] = Box::new(ScriptedProgram::new(stream, 0));
    programs[2] = Box::new(ScriptedProgram::new(vec![], 8));
    match Engine::new(cfg, programs).run() {
        Err(SimError::Stalled {
            cycle, breakdown, ..
        }) => {
            assert!(cycle < 5_000, "the watchdog fires before the recovery");
            assert!(breakdown.fault_blocked_heads > 0, "{breakdown}");
            assert_eq!(breakdown.hol_blocked_heads, 0, "{breakdown}");
        }
        other => panic!("expected a stall, got {other:?}"),
    }
}

/// A fault transition inside an idle gap cuts the skip short — the
/// transition cycle is stepped under every clock — and the profiler says
/// so: the clamp is a fault transition, not the cycle limit.
#[test]
fn skips_clamped_by_a_fault_transition_are_reported_as_such() {
    let part: Partition = "4x4x4".parse().unwrap();
    let mut cfg = SimConfig::new(part);
    assert_eq!(cfg.engine, EngineMode::EventDriven);
    // One 8-chunk packet per 512 cycles: each lands well inside 100
    // cycles, so cycles 300 and 800 sit in gaps the clock would jump.
    cfg.flow = FlowSpec::Rate {
        chunks_per_cycle: 1.0 / 64.0,
    };
    cfg.fault.links.push(LinkFault {
        node: 21,
        dir: dir(Dim::Y, Sign::Minus),
        fail_at: 300,
        recover_at: Some(800),
    });
    cfg.perf = Some(PerfConfig::default());
    let p = part.num_nodes();
    let mut programs: Vec<Box<dyn NodeProgram>> = (0..p)
        .map(|_| Box::new(ScriptedProgram::idle()) as Box<dyn NodeProgram>)
        .collect();
    programs[0] = Box::new(ScriptedProgram::new(
        (0..4).map(|_| SendSpec::adaptive(p - 1, 8, 240)).collect(),
        0,
    ));
    programs[p as usize - 1] = Box::new(ScriptedProgram::new(vec![], 4));
    let mut engine = Engine::new(cfg, programs);
    let stats = engine.run().expect("paced stream completes");
    assert_eq!(stats.packets_delivered, 4);
    let skips = engine.take_perf().expect("profiling on").event;
    assert_eq!(skips.wake_fault_transition, 2, "{skips:?}");
    assert_eq!(skips.wake_cycle_limit_clamp, 0, "{skips:?}");
}
