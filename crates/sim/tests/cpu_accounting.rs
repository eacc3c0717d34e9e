//! Regression tests for the engine's CPU-timeline accounting.
//!
//! The per-node `cpu_free` timeline is an absolute clock; every charge must
//! anchor at `max(cpu_free, now)`. A node that has been idle carries a
//! `cpu_free` far in the past, and an unanchored `cpu_free += cost` lets it
//! absorb new work retroactively — paying nothing in wall-clock.

use bgl_sim::{Engine, FlowSpec, NodeProgram, ScriptedProgram, SendSpec, SimConfig, SimError};
use bgl_torus::Partition;

/// An idle node that charges CPU at cycle `t` must pay the full charge
/// *from `t`*, not from its stale `cpu_free`. Node 0's first send closes
/// its rate window until `release`, idling the CPU; at `release` it pulls
/// a send that charges `charge` CPU cycles, then an uncharged one. The
/// window reopens 64 cycles later, well before the charge is served, so
/// the CPU alone holds the third send back. With the backdating bug, `cpu_free ≈ 2 +
/// charge` lands in the past, the charge is absorbed entirely, and the
/// third send injects when the window reopens instead of at `release +
/// charge` — visible as an early completion cycle.
#[test]
fn idle_node_cannot_absorb_a_late_cpu_charge_retroactively() {
    let part: Partition = "2x1x1".parse().unwrap();
    let (rate, first_chunks) = (1.0 / 64.0, 8u8);
    let release = (first_chunks as f64 / rate) as u64; // 512
    let charge = 100.0;
    let mut cfg = SimConfig::new(part);
    cfg.flow = FlowSpec::Rate {
        chunks_per_cycle: rate,
    };
    let sends = vec![
        SendSpec::adaptive(1, first_chunks, 240),
        SendSpec::adaptive(1, 1, 32).with_cpu_cost(charge),
        SendSpec::adaptive(1, 1, 32),
    ];
    let programs: Vec<Box<dyn NodeProgram>> = vec![
        Box::new(ScriptedProgram::new(sends, 0)),
        Box::new(ScriptedProgram::new(vec![], 3)),
    ];
    let stats = Engine::new(cfg, programs).run().expect("completes");
    // The third send cannot leave the CPU before the second send's
    // 100-cycle charge is served: completion lands after cycle 612.
    assert!(
        stats.completion_cycle >= release + charge as u64,
        "completion {} absorbed the late CPU charge",
        stats.completion_cycle
    );
    // ... but the charge is not paid twice either: wire time for a 1-chunk
    // packet plus bookkeeping is well under 40 cycles.
    assert!(
        stats.completion_cycle < release + charge as u64 + 40,
        "{}",
        stats.completion_cycle
    );
    // The busy-cycle counter saw the charge regardless of anchoring.
    assert!(stats.cpu_busy_cycles >= charge, "{}", stats.cpu_busy_cycles);
}

/// A program whose only queued packet can never inject (no injection FIFO
/// accepts its class) stalls the watchdog — as `Stalled`, never
/// `CycleLimit` — and the diagnostics count the stuck packet and the
/// incomplete receiver exactly.
#[test]
fn stuck_program_reports_stalled_with_accurate_counts() {
    let part: Partition = "2x1x1".parse().unwrap();
    let mut cfg = SimConfig::new(part);
    cfg.inj_fifo_count = 2;
    cfg.inj_class_masks = vec![0b01, 0b01]; // class 3 has no home
    cfg.watchdog_cycles = 1_000;
    cfg.max_cycles = 1_000_000; // plenty: the watchdog must fire first
    let programs: Vec<Box<dyn NodeProgram>> = vec![
        Box::new(ScriptedProgram::new(
            vec![SendSpec::adaptive(1, 1, 32).with_class(3)],
            0,
        )),
        Box::new(ScriptedProgram::new(vec![], 1)),
    ];
    match Engine::new(cfg, programs).run() {
        Err(SimError::Stalled {
            cycle,
            live_packets,
            incomplete_programs,
            ..
        }) => {
            assert!(cycle > 1_000, "watchdog fired early at {cycle}");
            assert_eq!(live_packets, 1, "exactly the class-3 packet is stuck");
            assert_eq!(incomplete_programs, 1, "exactly the receiver is incomplete");
        }
        other => panic!("expected Stalled, got {other:?}"),
    }
}
