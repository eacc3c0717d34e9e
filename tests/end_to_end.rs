//! Cross-crate integration tests: full strategy runs through the public
//! facade, checking the paper's qualitative claims at test-sized scale.

use bgl_alltoall::prelude::*;
use bgl_alltoall::sim::RoutingMode;

fn report(shape: &str, strategy: &StrategyKind, m: u64) -> AaReport {
    let part: Partition = shape.parse().unwrap();
    run_aa(
        part,
        &AaWorkload::full(m),
        strategy,
        &MachineParams::bgl(),
        SimConfig::new(part),
    )
    .expect("simulation completes")
}

/// Every strategy moves exactly the right number of application bytes on a
/// small torus.
#[test]
fn all_strategies_conserve_payload() {
    let shape = "4x4x2";
    let p = 32u64;
    let m = 100u64;
    let app_bytes = p * (p - 1) * m;
    for (name, strategy, multiplier) in [
        ("AR", StrategyKind::ar(), 1.0),
        ("DR", StrategyKind::dr(), 1.0),
        ("MPI", StrategyKind::mpi(), 1.0),
        ("throttled", StrategyKind::throttled(1.0), 1.0),
        // TPS delivers forwarded bytes twice (once at the intermediate,
        // once at the destination); only a fraction are forwarded.
        ("TPS", StrategyKind::tps(), 1.0),
    ] {
        let r = report(shape, &strategy, m);
        assert!(
            r.stats.payload_bytes_delivered as f64 >= app_bytes as f64 * multiplier,
            "{name}: delivered {} < {app_bytes}",
            r.stats.payload_bytes_delivered
        );
        assert_eq!(
            r.stats.packets_injected, r.stats.packets_delivered,
            "{name}"
        );
    }
}

/// VMesh conserves bytes across its two phases: each phase re-sends every
/// application byte once.
#[test]
fn vmesh_moves_each_byte_twice() {
    let r = report("4x4", &StrategyKind::vmesh(), 64);
    // Phase 1: P·(pvx-1)/pvx ... easier from program structure: every node
    // sends (pvx-1) row messages of pvy·m plus (pvy-1) column messages of
    // pvx·m. For 4x4 → vmesh 4x4: 16 nodes × (3·4·64 + 3·4·64).
    let expected = 16 * (3 * 4 * 64 + 3 * 4 * 64);
    assert_eq!(r.stats.payload_bytes_delivered, expected);
}

/// The paper's strategy-selection bottom line at miniature scale: the
/// direct scheme wins on the symmetric torus, TPS is competitive on the
/// asymmetric one, and combining wins short messages.
#[test]
fn strategy_ordering_matches_paper_shape() {
    // Symmetric: AR beats DR.
    let ar_sym = report("4x4x4", &StrategyKind::ar(), 432);
    let dr_sym = report("4x4x4", &StrategyKind::dr(), 432);
    assert!(
        ar_sym.percent_of_peak > dr_sym.percent_of_peak,
        "AR {} vs DR {}",
        ar_sym.percent_of_peak,
        dr_sym.percent_of_peak
    );
    // Short messages: combining beats direct.
    let vm_short = report("4x4x4", &StrategyKind::vmesh(), 8);
    let ar_short = report("4x4x4", &StrategyKind::ar(), 8);
    assert!(vm_short.cycles < ar_short.cycles);
    // Large messages: direct beats combining.
    let vm_large = report("4x4x4", &StrategyKind::vmesh(), 432);
    assert!(ar_sym.cycles < vm_large.cycles);
}

/// DR's dimension-order asymmetry: better when X is the longest dimension.
#[test]
fn dr_prefers_x_longest() {
    let x_long = report("8x4x4", &StrategyKind::dr(), 432);
    let z_long = report("4x4x8", &StrategyKind::dr(), 432);
    assert!(
        x_long.percent_of_peak > z_long.percent_of_peak + 5.0,
        "X-longest {} vs Z-longest {}",
        x_long.percent_of_peak,
        z_long.percent_of_peak
    );
}

/// Auto selection dispatches as Section 5 prescribes and actually runs.
#[test]
fn auto_dispatch_runs_the_right_strategy() {
    let r = report("4x4x4", &StrategyKind::Auto, 432);
    assert_eq!(r.strategy.name(), "AR");
    let r = report("8x4x4", &StrategyKind::Auto, 432);
    assert_eq!(r.strategy.name(), "TPS");
    let r = report("4x4x4", &StrategyKind::Auto, 8);
    assert_eq!(r.strategy.name(), "VMesh");
}

/// Deterministic packets ride the bubble VC; adaptive packets mostly ride
/// the dynamic VCs.
#[test]
fn vc_discipline() {
    let dr = report("4x4x2", &StrategyKind::dr(), 240);
    assert_eq!(dr.stats.dynamic_hops, 0);
    let ar = report("4x4x2", &StrategyKind::ar(), 240);
    assert!(ar.stats.dynamic_hops > 100 * ar.stats.bubble_hops.max(1) / 10);
}

/// Credit-based flow control (the paper's future-work sketch) completes
/// and costs only a small slowdown.
#[test]
fn credit_flow_control_overhead_is_small() {
    let tps = report("4x4x2", &StrategyKind::tps(), 432);
    let credit = report(
        "4x4x2",
        &StrategyKind::tps().with_pacer(Pacer::credit(40, 10)),
        432,
    );
    let slowdown = credit.cycles as f64 / tps.cycles as f64;
    assert!(slowdown < 1.25, "credit slowdown {slowdown}");
}

/// Credit acks are not a phase: a traced credit-paced AR run (one phase,
/// every packet acknowledged) never shows phase-1 traffic, while TPS under
/// the same pacer still shows both of its phases.
#[test]
fn credit_acks_are_not_traced_as_a_phase() {
    let traced = |strategy: StrategyKind| {
        let part: Partition = "4x4x4".parse().unwrap();
        let mut cfg = SimConfig::new(part);
        cfg.trace = Some(bgl_alltoall::sim::TraceConfig::every(64));
        let paced = strategy.with_pacer(Pacer::credit(4, 2));
        run_aa(
            part,
            &AaWorkload::full(912),
            &paced,
            &MachineParams::bgl(),
            cfg,
        )
        .expect("simulation completes")
    };
    let ar = traced(StrategyKind::ar());
    let data_packets = 64 * 63 * 4; // 912 B + h = four 240-byte payloads
    assert!(ar.stats.packets_delivered > data_packets, "acks must flow");
    let trace = ar.trace.expect("traced");
    assert_eq!((trace.phase_span(1), trace.phase_span(2)), (None, None));
    let trace = traced(StrategyKind::tps()).trace.expect("traced");
    assert!(trace.phase_span(1).is_some() && trace.phase_span(2).is_some());
}

/// The same (partition, workload, strategy) is cycle-for-cycle
/// reproducible across the whole stack.
#[test]
fn end_to_end_determinism() {
    let a = report("4x4x2", &StrategyKind::tps(), 240);
    let b = report("4x4x2", &StrategyKind::tps(), 240);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.stats, b.stats);
}

/// Percent of peak is always in (0, ~100]: the Equation-2 bound holds.
#[test]
fn peak_bound_is_respected() {
    for shape in ["4x1x1", "4x4", "4x4x4", "8x4x4", "4x2M"] {
        for m in [8u64, 240] {
            let r = report(shape, &StrategyKind::ar(), m);
            assert!(
                r.percent_of_peak > 0.0 && r.percent_of_peak <= 102.0,
                "{shape} m={m}: {}",
                r.percent_of_peak
            );
        }
    }
}

/// Deterministic and adaptive traffic can coexist (mixed workloads don't
/// wedge the router).
#[test]
fn mixed_routing_modes_coexist() {
    use bgl_alltoall::sim::{Engine, NodeProgram, ScriptedProgram, SendSpec};
    let part: Partition = "4x4".parse().unwrap();
    let cfg = SimConfig::new(part);
    let programs: Vec<Box<dyn NodeProgram>> = (0..16u32)
        .map(|r| {
            let sends: Vec<SendSpec> = (0..16u32)
                .filter(|&d| d != r)
                .map(|d| {
                    if (d + r) % 2 == 0 {
                        SendSpec::adaptive(d, 4, 128)
                    } else {
                        SendSpec::deterministic(d, 4, 128)
                    }
                })
                .collect();
            Box::new(ScriptedProgram::new(sends, 15)) as Box<dyn NodeProgram>
        })
        .collect();
    let stats = Engine::new(cfg, programs)
        .run()
        .expect("mixed traffic completes");
    assert_eq!(stats.packets_delivered, 16 * 15);
    assert!(stats.bubble_hops > 0);
    assert!(stats.dynamic_hops > 0);
}

/// RoutingMode is exposed through the facade for downstream users.
#[test]
fn facade_exposes_routing_mode() {
    assert_ne!(RoutingMode::Adaptive, RoutingMode::Deterministic);
}
