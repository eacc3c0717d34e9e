//! The skipping clock and the observers (tracer, oracle, profiler) must
//! be pure optimizations and pure observations: for
//! any workload, every statistic — cycle counts, histograms, per-link
//! counters — is byte-identical to the reference full-scan engine (see
//! `common::run_modes`).

mod common;

use bgl_sim::{EngineMode, NodeProgram, ScriptedProgram, SendSpec, SimConfig};
use bgl_torus::Partition;
use common::{engine_cell, run_modes, uniform, Axes};

/// The pinned grid of scripted all-to-alls: symmetric and asymmetric
/// shapes, adaptive and deterministic routing, sparse and saturating load.
/// Every row runs under both modes; the rows that are cheap enough
/// also cross the oracle and the profiler, which pins the deferred credit
/// releases and the ring's win order under the oracle's per-cell credit
/// check, independent of the randomized fuzzers.
#[test]
fn scripted_workloads_match_on_every_axis() {
    let observed = Axes {
        oracle: &[false, true],
        perf: &[false, true],
        ..Axes::MODES
    };
    let grid: [(&str, u64, u8, bool, Axes); 6] = [
        ("4x4x4", 1, 8, false, Axes::MODES), // symmetric, one round, adaptive
        ("8x4x4", 4, 8, false, Axes::MODES), // asymmetric, saturating, adaptive
        ("8x4x4", 2, 8, true, Axes::MODES),  // asymmetric, deterministic (bubble VC)
        ("8x1x1", 8, 8, false, Axes::MODES), // ring
        ("4x4x4", 1, 4, true, observed),     // symmetric, deterministic
        ("4x3x2", 1, 2, false, observed),    // odd shape
    ];
    for (shape, k, chunks, det, axes) in grid {
        let part: Partition = shape.parse().unwrap();
        let mut cfg = SimConfig::new(part);
        cfg.detailed_link_stats = true;
        run_modes(&cfg, axes, |cfg| {
            let mode = cfg.engine;
            let cell = engine_cell(cfg, uniform(&part, k, chunks, det));
            if let Some(p) = &cell.perf {
                check_profile_timing(&format!("{shape} {mode}"), mode, p);
            }
            cell
        })
        .unwrap_or_else(|e| panic!("{shape}: {e}"));
    }
}

/// Loose wall-clock sanity of a collected profile (only gross
/// misattribution trips these): phase laps are disjoint slices of the
/// run, so their total cannot exceed the run's wall-clock by more than
/// clock quantization; and outside the skipping clock, whose fast-forward
/// is deliberately not a phase, the phases account for the bulk of it
/// (10 % is far below the ~90 % seen in practice). Host-dependent, so
/// checked on this grid's known workloads, not in the shared helper.
fn check_profile_timing(ctx: &str, mode: EngineMode, p: &bgl_sim::PerfProfile) {
    assert!(p.total_secs > 0.0, "{ctx}: wall-clock measured");
    assert!(
        p.active_occupancy_mean <= p.active_occupancy_max as f64,
        "{ctx}: occupancy mean bounded by max"
    );
    let busy = p.phase_totals().total();
    assert!(
        busy <= 1e-3 + p.total_secs,
        "{ctx}: phases sum to {busy}, over the total {}",
        p.total_secs
    );
    if mode != EngineMode::EventDriven {
        assert!(
            busy >= 0.1 * p.total_secs,
            "{ctx}: phases sum to {busy} of total {}",
            p.total_secs
        );
    }
}

/// Extremely sparse traffic — the regime the node sets and event skips
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
    let reference =
        run_modes(&cfg, Axes::MODES, |c| engine_cell(c, programs())).expect("streams complete");
    assert_eq!(reference.packets_delivered, 60);
    assert!(
        !reference.link_busy_per_link.is_empty(),
        "detailed stats compared"
    );
}

/// One row per router branch a head's cached request mask depends on beyond
/// the default config: longest-first shaping forced by the router on an
/// asymmetric shape (preferred dimensions plus the dimension-order escape),
/// and adaptive routing without the bubble escape. Each row with and
/// without the oracle, which compares every cached mask bit with the
/// router's own answer at every cycle boundary.
#[test]
fn shaped_and_escapeless_routing_match_across_modes() {
    let part: Partition = "8x4x2".parse().unwrap();
    type Tweak = fn(&mut SimConfig);
    let rows: [(Tweak, u64, u8); 2] = [
        (|c| c.router.longest_first_bias = true, 2, 8),
        (|c| c.router.adaptive_bubble_escape = false, 1, 4),
    ];
    let axes = Axes {
        oracle: &[false, true],
        ..Axes::MODES
    };
    let [shaped, escapeless] = rows.map(|(tweak, k, chunks)| {
        let mut cfg = SimConfig::new(part);
        cfg.detailed_link_stats = true;
        tweak(&mut cfg);
        run_modes(&cfg, axes, |c| {
            engine_cell(c, uniform(&part, k, chunks, false))
        })
        .expect("exchange completes")
    });
    // The rows must really have left the default router's path.
    assert!(
        shaped.bubble_hops > 0,
        "shaping took dimension-order escapes"
    );
    assert_eq!(escapeless.bubble_hops, 0, "no escape, no bubble-VC hop");
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(12))]

    /// Randomized cells of the same cross product on small scripted
    /// exchanges: a drawn trace interval, oracle and profiler setting,
    /// under both modes.
    #[test]
    fn fuzzed_configs_match_on_every_axis(
        shape_i in 0usize..4,
        deterministic in proptest::arbitrary::any::<bool>(),
        interval in 5u64..200,
        oracle in proptest::arbitrary::any::<bool>(),
        perf in proptest::arbitrary::any::<bool>(),
    ) {
        let shapes = ["4x4", "4x2x2", "8x1x1", "3x3x2"];
        let part: Partition = shapes[shape_i].parse().unwrap();
        let axes = Axes {
            trace: &[None, Some(interval)],
            oracle: &[oracle],
            perf: &[perf],
        };
        run_modes(&SimConfig::new(part), axes, |c| {
            engine_cell(c, uniform(&part, 1, 4, deterministic))
        })
        .expect("exchange completes");
    }
}

/// Backpressure corner: a hot sink whose CPU one expensive send books
/// fills its reception FIFO, which exercises blocked-delivery retries and
/// CPU re-activation; stats stay identical.
#[test]
fn hotspot_backpressure_matches_across_modes() {
    let part: Partition = "4x4".parse().unwrap();
    let cfg = SimConfig::new(part);
    let programs = || {
        (0..16u32)
            .map(|r| {
                let (sends, expect) = match r {
                    0 => (
                        vec![SendSpec::adaptive(1, 1, 1).with_cpu_cost(400.0)],
                        15 * 10,
                    ),
                    _ => (
                        (0..10).map(|_| SendSpec::adaptive(0, 8, 240)).collect(),
                        u64::from(r == 1),
                    ),
                };
                Box::new(ScriptedProgram::new(sends, expect)) as Box<dyn NodeProgram>
            })
            .collect()
    };
    let reference =
        run_modes(&cfg, Axes::MODES, |c| engine_cell(c, programs())).expect("hotspot drains");
    assert!(reference.reception_stall_events > 0);
}
