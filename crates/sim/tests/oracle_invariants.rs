//! The invariant oracle (`SimConfig::check_invariants`): runs green on
//! random configurations in both engine modes, never perturbs results,
//! composes with tracing, and tolerates error paths (a stalled run
//! reports its watchdog error rather than a spurious quiesce violation).

mod common;

use bgl_sim::{Engine, EngineMode, NodeProgram, ScriptedProgram, SimConfig, SimError, TraceConfig};
use bgl_torus::Partition;
use common::uniform;

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]

    /// Random shapes × routing modes × FIFO depths × both engine modes:
    /// the oracle's conservation sweeps stay green end-to-end, and
    /// enabling them changes nothing observable.
    #[test]
    fn oracle_green_and_non_perturbing(
        shape_i in 0usize..4,
        vc_chunks in 16u32..128,
        deterministic in proptest::arbitrary::any::<bool>(),
        engine_i in 0usize..EngineMode::ALL.len(),
    ) {
        let shapes = ["4x4", "4x2x2", "8x1x1", "3x3x2"];
        let part: Partition = shapes[shape_i].parse().unwrap();
        let mut cfg = SimConfig::new(part);
        cfg.router.vc_fifo_chunks = vc_chunks;
        cfg.engine = EngineMode::ALL[engine_i];
        let plain = Engine::new(cfg.clone(), uniform(&part, 2, 8, deterministic))
            .run()
            .expect("plain run completes");
        cfg.check_invariants = true;
        let checked = Engine::new(cfg, uniform(&part, 2, 8, deterministic))
            .run()
            .expect("oracle-checked run completes");
        proptest::prop_assert_eq!(plain, checked);
    }
}

/// The oracle composes with tracing: the traced, oracle-checked run
/// agrees with the bare run.
#[test]
fn oracle_composes_with_tracing() {
    let part: Partition = "4x2x2".parse().unwrap();
    let cfg = SimConfig::new(part);
    let plain = Engine::new(cfg.clone(), uniform(&part, 2, 8, false))
        .run()
        .expect("plain run completes");
    let mut cfg = cfg;
    cfg.check_invariants = true;
    cfg.trace = Some(TraceConfig::every(64));
    let mut engine = Engine::new(cfg, uniform(&part, 2, 8, false));
    let stats = engine.run().expect("checked traced run completes");
    let trace = engine.take_trace().expect("trace recorded");
    assert_eq!(plain, stats);
    assert_eq!(trace.link_busy_totals(), stats.link_busy_chunks);
}

/// A stalled run must surface the watchdog error, not an oracle panic:
/// the per-cycle checks hold right up to the stall and the quiesce sweep
/// only runs on successful completion.
#[test]
fn oracle_reports_stall_not_false_violation() {
    let part: Partition = "2x1x1".parse().unwrap();
    let mut cfg = SimConfig::new(part);
    cfg.watchdog_cycles = 200;
    cfg.check_invariants = true;
    // Node 1 expects packets nobody sends.
    let programs: Vec<Box<dyn NodeProgram>> = vec![
        Box::new(ScriptedProgram::idle()),
        Box::new(ScriptedProgram::new(vec![], 3)),
    ];
    match Engine::new(cfg, programs).run() {
        Err(SimError::Stalled { .. }) => {}
        other => panic!("expected stall, got {other:?}"),
    }
}
