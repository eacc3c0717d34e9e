//! The active-set and event-driven engines must be pure optimizations:
//! for any workload, every statistic they produce — cycle counts,
//! histograms, per-link counters — is byte-identical to the reference
//! full-scan engine (see [`EngineMode`]).

use bgl_sim::{
    Engine, EngineMode, FaultPlan, FlowSpec, NetStats, NodeFault, NodeProgram, PerfConfig,
    ScriptedProgram, SendSpec, SimConfig,
};
use bgl_torus::Partition;
use std::num::NonZeroUsize;

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

/// Run the same workload under every [`EngineMode`] and assert all three
/// `NetStats` are byte-identical; returns the reference (full-scan) stats.
fn run_all_modes(cfg: &SimConfig, programs: impl Fn() -> Vec<Box<dyn NodeProgram>>) -> NetStats {
    let mut results = EngineMode::ALL.map(|mode| {
        let mut c = cfg.clone();
        c.engine = mode;
        Some(
            Engine::new(c, programs())
                .run()
                .unwrap_or_else(|e| panic!("{mode} run completes: {e}")),
        )
    });
    let reference = results[0].take().expect("full-scan ran");
    for (mode, got) in EngineMode::ALL.iter().zip(&results).skip(1) {
        assert_eq!(
            got.as_ref().expect("ran"),
            &reference,
            "{mode} must match full-scan"
        );
    }
    reference
}

/// Scripted all-to-alls across symmetric and asymmetric shapes, adaptive
/// and deterministic routing, sparse and saturating load: identical stats.
#[test]
fn scripted_workloads_match_across_modes() {
    let grid: [(&str, u64, u8, bool); 5] = [
        ("4x4x4", 1, 8, false), // symmetric, one round, adaptive
        ("8x4x4", 4, 8, false), // asymmetric, saturating, adaptive
        ("8x4x4", 2, 8, true),  // asymmetric, deterministic (bubble VC)
        ("8x1x1", 8, 8, false), // ring
        ("4x3x2", 1, 2, false), // odd shape, small packets
    ];
    for (shape, k, chunks, det) in grid {
        let part: Partition = shape.parse().unwrap();
        let cfg = SimConfig::new(part);
        run_all_modes(&cfg, || uniform(&part, k, chunks, det));
    }
}

/// Extremely sparse traffic — the regime the active sets and event skips
/// exist for — with detailed per-link stats enabled so the comparison
/// covers every counter.
#[test]
fn sparse_point_traffic_matches_across_modes() {
    let part: Partition = "8x8x4".parse().unwrap();
    let p = part.num_nodes();
    let mut cfg = SimConfig::new(part);
    cfg.detailed_link_stats = true;
    let programs = || {
        let mut programs: Vec<Box<dyn NodeProgram>> = (0..p)
            .map(|_| Box::new(ScriptedProgram::idle()) as Box<dyn NodeProgram>)
            .collect();
        // Three long streams in an otherwise silent partition (all six
        // endpoints distinct).
        let pairs = [(0u32, p - 1), (1, p - 2), (p / 2, 2)];
        for (src, dst) in pairs {
            programs[src as usize] = Box::new(ScriptedProgram::new(
                (0..20).map(|_| SendSpec::adaptive(dst, 8, 240)).collect(),
                0,
            ));
            programs[dst as usize] = Box::new(ScriptedProgram::new(vec![], 20));
        }
        programs
    };
    let reference = run_all_modes(&cfg, programs);
    assert_eq!(reference.packets_delivered, 60);
    assert!(
        !reference.link_busy_per_link.is_empty(),
        "detailed stats compared"
    );
}

/// Pinned shard-count grid: the same workloads under every engine mode ×
/// shard count in {1, 2, 4, 7} (even splits and a prime that leaves
/// uneven slabs) must produce one byte-identical `NetStats`. This is the
/// committed regression for the sharded engine's ordering guarantees —
/// staged-arrival drain order, the section-B id fix-up, deferred credit
/// releases — independent of the randomized fuzzer.
#[test]
fn shard_counts_are_invisible() {
    let grid: [(&str, u64, u8, bool); 3] = [
        ("8x4x4", 2, 8, false), // asymmetric, saturating, adaptive
        ("4x4x4", 1, 4, true),  // symmetric, deterministic (bubble VC)
        ("4x3x2", 1, 2, false), // odd shape: 7 shards > 24/7 nodes each
    ];
    for (shape, k, chunks, det) in grid {
        let part: Partition = shape.parse().unwrap();
        run_modes_by_shards(
            part,
            &[1, 2, 4, 7],
            |_| {},
            || uniform(&part, k, chunks, det),
        );
    }
}

/// The threaded path, asserted rather than hoped for: the shapes above are
/// too small for the per-cycle width gate (128 estimated active nodes per
/// shard), so their sharded cells step almost every cycle inline. On 8x8x4
/// an all-to-all keeps all 256 nodes busy, and each sharded cell must both
/// really have spawned its shard threads (`wide_cycles > 0`) and match the
/// unsharded run byte for byte — healthy under all three clocks, once with
/// a node dying and recovering mid-run (fault transitions and in-flight
/// drops interleaved with threaded cycles), and once rate-paced under the
/// skipping clock, where one run must both skip and spawn: shard threads
/// and time-skipping do not exclude each other.
#[test]
fn threaded_shards_match_the_unsharded_engine() {
    let part: Partition = "8x8x4".parse().unwrap();
    let outage = FaultPlan {
        links: vec![],
        nodes: vec![NodeFault {
            rank: 21,
            fail_at: 300,
            recover_at: Some(700),
        }],
    };
    // One 8-chunk packet per node per 256 cycles: the torus drains long
    // before the next window opens, and all 256 nodes stay marked.
    let paced = FlowSpec::Rate {
        chunks_per_cycle: 1.0 / 32.0,
    };
    type Programs = fn(&Partition) -> Vec<Box<dyn NodeProgram>>;
    let all_to_all: Programs = |part| uniform(part, 1, 8, false);
    let streams: Programs = |part| shifted_streams(part, 6);
    let healthy = FaultPlan::default;
    for (mode, fault, flow, programs) in [
        (
            EngineMode::FullScan,
            healthy(),
            FlowSpec::Unpaced,
            all_to_all,
        ),
        (
            EngineMode::ActiveSet,
            healthy(),
            FlowSpec::Unpaced,
            all_to_all,
        ),
        (EngineMode::ActiveSet, outage, FlowSpec::Unpaced, all_to_all),
        (
            EngineMode::EventDriven,
            healthy(),
            FlowSpec::Unpaced,
            all_to_all,
        ),
        (EngineMode::EventDriven, healthy(), paced, streams),
    ] {
        let run = |shards: usize| {
            let mut cfg = SimConfig::new(part);
            cfg.engine = mode;
            cfg.shards = NonZeroUsize::new(shards).unwrap();
            cfg.detailed_link_stats = true;
            cfg.fault = fault.clone();
            cfg.flow = flow;
            cfg.perf = Some(PerfConfig::default());
            let mut engine = Engine::new(cfg, programs(&part));
            let stats = engine
                .run()
                .unwrap_or_else(|e| panic!("{mode} shards={shards}: {e}"));
            (stats, engine.take_perf().expect("profiling on"))
        };
        let (reference, perf) = run(1);
        assert_eq!(perf.wide_cycles, 0, "{mode}: one shard never spawns");
        if !fault.is_empty() {
            assert!(
                reference.dropped_by_fault > 0,
                "the outage hit live traffic"
            );
        }
        for shards in [2, 4] {
            let (stats, perf) = run(shards);
            assert_eq!(stats, reference, "{mode} shards={shards} must match");
            // The full scan's gate counts each node once: 256 nodes clear
            // two shards' floor but not four's, so that one cell is inline.
            if mode != EngineMode::FullScan || shards == 2 {
                assert!(
                    perf.wide_cycles > 0,
                    "{mode} shards={shards}: no cycle ran threaded"
                );
            }
            if flow == paced {
                assert!(
                    perf.skipped_cycles() > 0,
                    "{mode} shards={shards}: a paced run has idle gaps to skip"
                );
            }
        }
    }
}

/// Every node streams `packets` full-size packets to the node half the
/// torus (plus one) away, and so receives as many.
fn shifted_streams(part: &Partition, packets: u64) -> Vec<Box<dyn NodeProgram>> {
    let p = part.num_nodes();
    (0..p)
        .map(|r| {
            let dst = (r + p / 2 + 1) % p;
            let sends = (0..packets).map(|_| SendSpec::adaptive(dst, 8, 240));
            Box::new(ScriptedProgram::new(sends.collect(), packets)) as Box<dyn NodeProgram>
        })
        .collect()
}

/// Run `programs` under every engine mode × each of `shard_counts`, on the
/// default config of `part` after `tweak`, with detailed link stats on:
/// every cell must produce one byte-identical `NetStats`.
fn run_modes_by_shards(
    part: Partition,
    shard_counts: &[usize],
    tweak: impl Fn(&mut SimConfig),
    programs: impl Fn() -> Vec<Box<dyn NodeProgram>>,
) -> NetStats {
    let mut reference: Option<NetStats> = None;
    for &shards in shard_counts {
        for mode in EngineMode::ALL {
            let mut cfg = SimConfig::new(part);
            tweak(&mut cfg);
            cfg.engine = mode;
            cfg.shards = NonZeroUsize::new(shards).unwrap();
            cfg.detailed_link_stats = true;
            let stats = Engine::new(cfg, programs())
                .run()
                .unwrap_or_else(|e| panic!("{part} shards={shards} {mode}: {e}"));
            match &reference {
                None => reference = Some(stats),
                Some(r) => assert_eq!(&stats, r, "{part} shards={shards} {mode} must match"),
            }
        }
    }
    reference.expect("at least one cell ran")
}

/// One row per router branch a head's cached request mask depends on beyond
/// the default config: longest-first shaping forced by the router on an
/// asymmetric shape (preferred dimensions plus the dimension-order escape),
/// and adaptive routing without the bubble escape. Each row once more under
/// the oracle, which compares every cached mask bit with the router's own
/// answer at every cycle boundary.
#[test]
fn shaped_and_escapeless_routing_match_across_modes_and_shards() {
    let part: Partition = "8x4x2".parse().unwrap();
    type Tweak = fn(&mut SimConfig);
    let rows: [(Tweak, u64, u8); 2] = [
        (|c| c.router.longest_first_bias = Some(true), 2, 8),
        (|c| c.router.adaptive_bubble_escape = false, 1, 4),
    ];
    let [shaped, escapeless] = rows.map(|(tweak, k, chunks)| {
        let programs = || uniform(&part, k, chunks, false);
        let stats = run_modes_by_shards(part, &[1, 4], tweak, programs);
        let with_oracle = |c: &mut SimConfig| {
            tweak(c);
            c.check_invariants = true;
        };
        assert_eq!(
            run_modes_by_shards(part, &[1], with_oracle, programs),
            stats
        );
        stats
    });
    // The rows must really have left the default router's path.
    assert!(
        shaped.bubble_hops > 0,
        "shaping took dimension-order escapes"
    );
    assert_eq!(escapeless.bubble_hops, 0, "no escape, no bubble-VC hop");
}

/// The invariant oracle must hold on a sharded engine too (it forces the
/// sharded structure onto one thread and additionally checks per-cell
/// credit conservation every cycle), and its presence must not change
/// results.
#[test]
fn sharded_run_passes_the_oracle() {
    let part: Partition = "8x4x4".parse().unwrap();
    let mut reference: Option<NetStats> = None;
    for (shards, check) in [(1, false), (1, true), (4, true), (7, true)] {
        let mut cfg = SimConfig::new(part);
        cfg.shards = NonZeroUsize::new(shards).unwrap();
        cfg.check_invariants = check;
        let stats = Engine::new(cfg, uniform(&part, 2, 8, false))
            .run()
            .unwrap_or_else(|e| panic!("shards={shards} oracle={check}: {e}"));
        match &reference {
            None => reference = Some(stats),
            Some(r) => assert_eq!(&stats, r, "shards={shards} oracle={check} must match"),
        }
    }
}

/// Host profiling must be provably non-perturbing: the same workload with
/// `SimConfig::perf` on and off, across every engine mode × shard count
/// in {1, 4}, produces byte-identical `NetStats` — and the collected
/// profile is internally consistent (every stepped cycle classified as
/// wide or inline, one record per shard, event counters present exactly
/// in event mode, per-shard busy time bounded by the run's wall-clock;
/// wall-clock bounds are deliberately loose upper bounds — threaded
/// shards time in parallel, so only gross misattribution would trip
/// them).
#[test]
fn perf_profiling_is_invisible_and_consistent() {
    let grid: [(&str, u64, u8, bool); 2] = [
        ("8x4x4", 2, 8, false), // asymmetric, saturating, adaptive
        ("4x3x2", 1, 2, true),  // odd shape, deterministic (bubble VC)
    ];
    for (shape, k, chunks, det) in grid {
        let part: Partition = shape.parse().unwrap();
        for shards in [1usize, 4] {
            for mode in EngineMode::ALL {
                let mut cfg = SimConfig::new(part);
                cfg.engine = mode;
                cfg.shards = NonZeroUsize::new(shards).unwrap();
                cfg.detailed_link_stats = true;
                let plain = Engine::new(cfg.clone(), uniform(&part, k, chunks, det))
                    .run()
                    .unwrap_or_else(|e| panic!("{shape} shards={shards} {mode} plain: {e}"));
                cfg.perf = Some(PerfConfig::default());
                let mut engine = Engine::new(cfg, uniform(&part, k, chunks, det));
                let profiled = engine
                    .run()
                    .unwrap_or_else(|e| panic!("{shape} shards={shards} {mode} profiled: {e}"));
                assert_eq!(
                    profiled, plain,
                    "{shape} shards={shards} {mode}: --perf must not perturb NetStats"
                );
                let p = engine.take_perf().expect("profile collected");
                let ctx = format!("{shape} shards={shards} {mode}");
                assert_eq!(
                    p.wide_cycles + p.inline_cycles,
                    p.stepped_cycles,
                    "{ctx}: every stepped cycle is wide or inline"
                );
                assert!(p.stepped_cycles > 0, "{ctx}: cycles were stepped");
                assert_eq!(p.shards.len(), shards, "{ctx}: one record per shard");
                assert_eq!(
                    p.event.is_some(),
                    mode == EngineMode::EventDriven,
                    "{ctx}: event counters iff event mode"
                );
                assert!(p.total_secs > 0.0, "{ctx}: wall-clock measured");
                assert!(
                    p.active_occupancy_mean <= p.active_occupancy_max as f64,
                    "{ctx}: occupancy mean bounded by max"
                );
                // Loose timing sanity: phase laps are disjoint slices of
                // each shard thread's time, so no shard's busy total can
                // (grossly) exceed the whole run's wall-clock. A little
                // slack absorbs clock quantization on near-zero laps.
                let slack = 1e-3 + p.total_secs;
                for (i, s) in p.shards.iter().enumerate() {
                    assert!(
                        s.busy_secs() <= slack,
                        "{ctx}: shard {i} busy {} vs total {}",
                        s.busy_secs(),
                        p.total_secs
                    );
                }
                // Outside event mode every stepped cycle's work happens
                // inside a timed phase lap, so the phase sum must account
                // for the bulk of the wall-clock (10 % is far below the
                // ~90 % seen in practice; event mode spends its time in
                // fast-forward, which is deliberately not a phase).
                if mode != EngineMode::EventDriven {
                    assert!(
                        p.busy_secs() >= 0.1 * p.total_secs,
                        "{ctx}: phases sum to {} of total {}",
                        p.busy_secs(),
                        p.total_secs
                    );
                }
            }
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(12))]

    /// Randomized equivalence fuzzer with a perf on/off dimension: any
    /// (shape, routing, engine mode, shard count, perf) cell must match
    /// the byte-identical reference stats of its perf-off sibling.
    #[test]
    fn fuzzed_configs_match_with_and_without_perf(
        shape_i in 0usize..4,
        deterministic in proptest::arbitrary::any::<bool>(),
        engine_i in 0usize..EngineMode::ALL.len(),
        shards_i in 0usize..3,
        perf in proptest::arbitrary::any::<bool>(),
    ) {
        let shapes = ["4x4", "4x2x2", "8x1x1", "3x3x2"];
        let part: Partition = shapes[shape_i].parse().unwrap();
        let mut cfg = SimConfig::new(part);
        cfg.engine = EngineMode::ALL[engine_i];
        cfg.shards = NonZeroUsize::new([1usize, 2, 4][shards_i]).unwrap();
        let reference = Engine::new(cfg.clone(), uniform(&part, 1, 4, deterministic))
            .run()
            .expect("reference run completes");
        cfg.perf = perf.then(PerfConfig::default);
        let got = Engine::new(cfg, uniform(&part, 1, 4, deterministic))
            .run()
            .expect("run completes");
        proptest::prop_assert_eq!(got, reference);
    }
}

/// Backpressure corner: a hot sink with a tiny reception FIFO exercises
/// blocked-delivery retries and CPU re-activation; stats stay identical.
#[test]
fn hotspot_backpressure_matches_across_modes() {
    let part: Partition = "4x4".parse().unwrap();
    let mut cfg = SimConfig::new(part);
    cfg.reception_fifo_chunks = 8;
    cfg.cpu.chunks_per_cycle = 0.5;
    let programs = || {
        (0..16u32)
            .map(|r| {
                if r == 0 {
                    Box::new(ScriptedProgram::new(vec![], 15 * 10)) as Box<dyn NodeProgram>
                } else {
                    Box::new(ScriptedProgram::new(
                        (0..10).map(|_| SendSpec::adaptive(0, 8, 240)).collect(),
                        0,
                    ))
                }
            })
            .collect()
    };
    let reference = run_all_modes(&cfg, programs);
    assert!(reference.reception_stall_events > 0);
}
