//! Invariants of the time-series tracer: sample stamps are strictly
//! monotone, counter deltas telescope to the run's `NetStats` totals,
//! occupancy snapshots respect the configured FIFO capacities, and the
//! watchdog's stall error carries the trace tail.

use bgl_sim::{
    Engine, EngineMode, NodeProgram, ScriptedProgram, SendSpec, SimConfig, SimError, Trace,
    TraceConfig,
};
use bgl_torus::Partition;

fn uniform(part: &Partition, k: u64, chunks: u8, deterministic: bool) -> Vec<Box<dyn NodeProgram>> {
    let p = part.num_nodes();
    (0..p)
        .map(|r| {
            let sends: Vec<SendSpec> = (0..p)
                .filter(|&d| d != r)
                .flat_map(|d| {
                    (0..k).map(move |_| {
                        if deterministic {
                            SendSpec::deterministic(d, chunks, chunks as u32 * 30)
                        } else {
                            SendSpec::adaptive(d, chunks, chunks as u32 * 30)
                        }
                    })
                })
                .collect();
            let expect = (p as u64 - 1) * k;
            Box::new(ScriptedProgram::new(sends, expect)) as Box<dyn NodeProgram>
        })
        .collect()
}

fn traced_run(cfg: &SimConfig, interval: u64) -> (bgl_sim::NetStats, Trace) {
    let mut cfg = cfg.clone();
    cfg.trace = Some(TraceConfig::every(interval));
    let part = cfg.partition;
    let mut engine = Engine::new(cfg, uniform(&part, 2, 8, false));
    let stats = engine.run().expect("run completes");
    let trace = engine.take_trace().expect("trace recorded");
    (stats, trace)
}

/// Every invariant the trace schema promises, checked on one run.
fn check_invariants(cfg: &SimConfig, stats: &bgl_sim::NetStats, trace: &Trace) {
    // Monotone, strictly increasing cycle stamps; none past completion.
    for pair in trace.samples.windows(2) {
        assert!(pair[0].cycle < pair[1].cycle, "stamps must increase");
    }
    if let Some(last) = trace.samples.last() {
        assert!(last.cycle <= stats.completion_cycle + 1);
    }

    // Exact telescoping of every u64 counter.
    assert_eq!(trace.link_busy_totals(), stats.link_busy_chunks);
    let mut hops = vec![0u64; stats.hops_taken.len()];
    let (mut stalls, mut injected, mut delivered, mut cpu) = (0u64, 0u64, 0u64, 0.0f64);
    for s in &trace.samples {
        for (d, h) in hops.iter_mut().enumerate() {
            *h += s.hops_delta[d];
        }
        stalls += s.reception_stall_delta;
        injected += s.injected_delta;
        delivered += s.delivered_delta;
        cpu += s.cpu_busy_delta;
    }
    assert_eq!(hops, stats.hops_taken);
    assert_eq!(stalls, stats.reception_stall_events);
    assert_eq!(injected, stats.packets_injected);
    assert_eq!(delivered, stats.packets_delivered);
    // f64 telescoping is exact up to rounding of the running sum.
    let tol = 1e-6 * stats.cpu_busy_cycles.max(1.0);
    assert!(
        (cpu - stats.cpu_busy_cycles).abs() <= tol,
        "cpu {cpu} vs {}",
        stats.cpu_busy_cycles
    );

    // Occupancies bounded by the configured capacities; mean ≤ max.
    for s in &trace.samples {
        for occ in s.dyn_vc_occupancy.iter().chain(&s.bubble_vc_occupancy) {
            assert!(occ.max_chunks <= cfg.router.vc_fifo_chunks);
            assert!(occ.mean_chunks <= occ.max_chunks as f64 + 1e-12);
            assert!(occ.mean_chunks >= 0.0);
        }
        assert!(
            s.inj_occupancy.max_chunks <= 16,
            "an injection FIFO holds 16 chunks"
        );
        assert!(s.reception_occupancy.max_chunks <= cfg.reception_fifo_chunks);
        // A quiesced network at the final sample: nothing left in flight.
        assert!(s.phase1_in_flight + s.phase2_in_flight <= s.packets_in_flight + s.pending_sends);
    }
    if let Some(last) = trace.samples.last() {
        assert_eq!(last.packets_in_flight, 0, "run completed — nothing alive");
        assert_eq!(last.hol_blocked_heads, 0);
    }
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]

    /// Random shapes × FIFO depths × sampling intervals: the schema
    /// invariants hold for every configuration, in both engine modes.
    #[test]
    fn trace_invariants_hold(
        shape_i in 0usize..4,
        interval in 1u64..2000,
        vc_chunks in 16u32..128,
        engine_i in 0usize..EngineMode::ALL.len(),
    ) {
        let shapes = ["4x4", "4x2x2", "8x1x1", "3x3x2"];
        let part: Partition = shapes[shape_i].parse().unwrap();
        let mut cfg = SimConfig::new(part);
        cfg.router.vc_fifo_chunks = vc_chunks;
        cfg.engine = EngineMode::ALL[engine_i];
        let (stats, trace) = traced_run(&cfg, interval);
        proptest::prop_assert_eq!(trace.interval_cycles, interval);
        check_invariants(&cfg, &stats, &trace);
    }
}

/// The sample cap truncates the periodic series but the forced final
/// sample still lands, so the delta sums stay exact.
#[test]
fn sample_cap_truncates_but_totals_stay_exact() {
    let part: Partition = "4x4".parse().unwrap();
    let mut cfg = SimConfig::new(part);
    cfg.trace = Some(TraceConfig {
        interval_cycles: 10,
        max_samples: 3,
    });
    let mut engine = Engine::new(cfg.clone(), uniform(&part, 2, 8, false));
    let stats = engine.run().expect("run completes");
    let trace = engine.take_trace().expect("trace recorded");
    assert!(trace.truncated, "cap must mark the series truncated");
    assert!(trace.samples.len() <= 4, "3 periodic + 1 forced final");
    assert_eq!(trace.link_busy_totals(), stats.link_busy_chunks);
    check_invariants(&cfg, &stats, &trace);
}

/// An interval longer than any run (`u64::MAX`, which the CLI accepts)
/// never fires: the run completes and its one sample is the forced final
/// one, whose deltas are the run's totals.
#[test]
fn an_interval_past_the_run_leaves_one_sample_of_totals() {
    let part: Partition = "4x4".parse().unwrap();
    let cfg = SimConfig::new(part);
    let (stats, trace) = traced_run(&cfg, u64::MAX);
    assert_eq!(trace.samples.len(), 1, "{:?}", trace.samples);
    let sample = &trace.samples[0];
    assert_eq!(sample.link_busy_delta, stats.link_busy_chunks);
    assert_eq!(sample.hops_delta, stats.hops_taken);
    assert_eq!(sample.injected_delta, stats.packets_injected);
    assert_eq!(sample.delivered_delta, stats.packets_delivered);
    assert_eq!(sample.cpu_busy_delta, stats.cpu_busy_cycles);
    check_invariants(&cfg, &stats, &trace);
}

/// Tracing changes nothing observable: the exact `NetStats` equality is
/// pinned broadly in `tests/engine_equivalence.rs`; this is the minimal
/// in-crate version.
#[test]
fn tracing_does_not_perturb_stats() {
    let part: Partition = "4x2x2".parse().unwrap();
    let cfg = SimConfig::new(part);
    let plain = Engine::new(cfg.clone(), uniform(&part, 2, 8, false))
        .run()
        .expect("run completes");
    let (stats, _) = traced_run(&cfg, 128);
    assert_eq!(plain, stats);
}

/// With tracing on, the watchdog error's Display carries the last few
/// samples so a deadlock is debuggable from stderr alone.
#[test]
fn stall_error_includes_trace_tail() {
    let part: Partition = "2x1x1".parse().unwrap();
    let mut cfg = SimConfig::new(part);
    cfg.watchdog_cycles = 200;
    cfg.trace = Some(TraceConfig::every(100));
    // Node 1 expects packets nobody sends.
    let programs: Vec<Box<dyn NodeProgram>> = vec![
        Box::new(ScriptedProgram::idle()),
        Box::new(ScriptedProgram::new(vec![], 3)),
    ];
    match Engine::new(cfg, programs).run() {
        Err(err @ SimError::Stalled { .. }) => {
            let text = err.to_string();
            assert!(text.contains("trace cycle"), "{text}");
            assert!(text.contains("inflight"), "{text}");
        }
        other => panic!("expected stall, got {other:?}"),
    }
}

/// Without tracing, the stall error stays a single line (no tail).
#[test]
fn stall_error_without_tracing_has_no_tail() {
    let part: Partition = "2x1x1".parse().unwrap();
    let mut cfg = SimConfig::new(part);
    cfg.watchdog_cycles = 200;
    let programs: Vec<Box<dyn NodeProgram>> = vec![
        Box::new(ScriptedProgram::idle()),
        Box::new(ScriptedProgram::new(vec![], 3)),
    ];
    match Engine::new(cfg, programs).run() {
        Err(err @ SimError::Stalled { .. }) => {
            assert!(!err.to_string().contains('\n'), "{err}");
        }
        other => panic!("expected stall, got {other:?}"),
    }
}
