//! Differential fuzzer for the engine's observational equivalences.
//!
//! Random (partition, strategy, message size, coverage) configurations
//! drawn across the real strategy stack, each run through the one
//! differential helper (`crates/sim/tests/common/mod.rs`) on a drawn cell
//! of its axes — trace interval, oracle, profiler — under both engine
//! modes. The simulator promises:
//!
//! 1. **Engine mode**: the skipping clock produces byte-identical
//!    `NetStats` — cycle counts, latency histograms, per-dimension link
//!    counters — to the reference full-scan path, healthy or under a
//!    fault plan (where the whole `Result` must match).
//! 2. **Observers**: enabling `SimConfig::trace`, `check_invariants` or
//!    `perf` changes nothing in `NetStats`; the recorded series is the same
//!    in every cell and its per-dimension link-busy deltas sum exactly to
//!    the run's `link_busy_chunks`.
//! 3. **Runner parallelism**: `Runner` results are byte-identical
//!    between `--jobs 1` and a many-thread pool.
//!
//! Seeds are deterministic per test; failing cases persist to
//! `proptest-regressions/` for replay. Every case prints what it drew
//! (`--nocapture`).

#[path = "../crates/sim/tests/common/mod.rs"]
mod common;

use bgl_alltoall::harness::runner::{RunPoint, Runner, Scale};
use bgl_alltoall::prelude::*;
use bgl_sim::{EngineMode, FaultPlan, LinkFault};
use common::{parked, run_modes, Axes, Cell};
use proptest::prelude::*;

/// The strategy pool: every class once — the four direct schemes, which
/// run at any arity, then the two 3-D-only software-forwarding ones.
fn strategy_pool() -> [StrategyKind; 6] {
    [
        StrategyKind::ar(),
        StrategyKind::dr(),
        StrategyKind::throttled(1.25),
        StrategyKind::xyz(),
        StrategyKind::tps(),
        StrategyKind::vmesh(),
    ]
}

/// Shapes spanning 1-D to 5-D, symmetric and asymmetric, torus and mesh.
const SHAPES: [&str; 8] = [
    "8x1x1",
    "4x4",
    "8x8",
    "4x4x4",
    "8x4x4",
    "4x4x8",
    "8x8x4M",
    "4x4x4x4x2",
];

/// One drawn configuration, with coverage scaled down on the larger
/// partitions so a fuzz case stays sub-second, and the strategy drawn from
/// the direct schemes alone above 3-D (`StrategyKind::check_partition`).
fn config(
    shape_i: usize,
    strat_i: usize,
    m_i: usize,
    cov_i: usize,
) -> (Partition, StrategyKind, u64, f64) {
    let part: Partition = SHAPES[shape_i % SHAPES.len()].parse().unwrap();
    let any_arity = if part.ndims() > 3 { 4 } else { 6 };
    let strategy = strategy_pool()[strat_i % any_arity].clone();
    let m = [1u64, 64, 240, 912][m_i % 4];
    let cov = match part.num_nodes() {
        512.. => [0.03125, 0.0625][cov_i % 2],
        256.. => [0.125, 0.25][cov_i % 2],
        _ => [1.0, 0.5][cov_i % 2],
    };
    (part, strategy, m, cov)
}

fn workload(m: u64, coverage: f64) -> AaWorkload {
    if coverage >= 1.0 {
        AaWorkload::full(m)
    } else {
        AaWorkload::sampled(m, coverage)
    }
}

/// One `run_aa` as a cell of the differential helper.
fn aa_cell(
    part: Partition,
    workload: &AaWorkload,
    strategy: &StrategyKind,
    cfg: SimConfig,
) -> Cell {
    match run_aa(part, workload, strategy, &MachineParams::bgl(), cfg) {
        Ok(report) => Cell {
            result: Ok(report.stats),
            trace: report.trace,
            perf: report.perf,
        },
        Err(e) => Cell {
            result: Err(e),
            trace: None,
            perf: None,
        },
    }
}

/// Case count: `default` in a normal run, raised via `PROPTEST_CASES` by
/// the weekly chaos CI job (an explicit `with_cases` would silently
/// override the environment variable).
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(10)))]

    /// Equivalences 1 and 2 on a healthy torus: every engine mode, traced
    /// at a random interval and untraced, at a random oracle and profiler
    /// setting, against the full-scan reference.
    #[test]
    fn modes_and_observers_agree(
        shape_i in 0usize..SHAPES.len(),
        strat_i in 0usize..6,
        m_i in 0usize..4,
        cov_i in 0usize..2,
        interval in 100u64..2000,
        oracle in proptest::arbitrary::any::<bool>(),
        perf in proptest::arbitrary::any::<bool>(),
    ) {
        let (part, strategy, m, cov) = config(shape_i, strat_i, m_i, cov_i);
        eprintln!(
            "case: {part} ({}-D) {} m={m} cov={cov} every={interval} oracle={oracle} perf={perf}",
            part.ndims(),
            strategy.name()
        );
        let workload = workload(m, cov);
        let axes = Axes {
            trace: &[None, Some(interval)],
            oracle: &[oracle],
            perf: &[perf],
        };
        run_modes(&SimConfig::new(part), axes, |cfg| {
            aa_cell(part, &workload, &strategy, cfg)
        })
        .expect("healthy run completes");
    }
}

/// Parking, asserted rather than hoped for: TPS with its reserved injection
/// FIFOs on 4x8x4 at m = 912 fills them (CPUs stuck on injection space) and
/// keeps the long dimension's links busy (arbiters with nothing free to
/// ask for), so the skipping clock must really have passed nodes over in
/// both phases — and, cell by cell, have changed nothing against the full
/// scan, which never parks; the oracle cells re-derive the parking rule at
/// every cycle boundary.
#[test]
fn parked_nodes_change_nothing() {
    let part: Partition = "4x8x4".parse().unwrap();
    let workload = AaWorkload::full(912);
    let axes = Axes {
        oracle: &[false, true],
        perf: &[true],
        ..Axes::MODES
    };
    run_modes(&SimConfig::new(part), axes, |cfg| {
        let mode = cfg.engine;
        let cell = aa_cell(part, &workload, &StrategyKind::tps(), cfg);
        if let (Some(p), true) = (&cell.perf, mode != EngineMode::FullScan) {
            let (cpu, arb) = parked(p);
            assert!(cpu > 0 && arb > 0, "{mode}: parked {cpu} cpu, {arb} arb");
        }
        cell
    })
    .expect("exchange completes");
}

/// Draw up to `picks.len()` distinct, topologically present directed
/// links from the partition (mesh edges have no wrap link and are
/// skipped). May legitimately come up empty for unlucky draws.
fn draw_dead_links(part: &Partition, picks: &[u32]) -> Vec<LinkFault> {
    let ports = part.ports();
    let n = part.num_nodes() as usize * ports;
    let mut seen = vec![false; n];
    let mut out = Vec::new();
    for &p in picks {
        let idx = p as usize % n;
        let node = (idx / ports) as u32;
        let dir = bgl_torus::Direction::from_index(idx % ports);
        if seen[idx] || part.neighbor(part.coord_of(node), dir).is_none() {
            continue;
        }
        seen[idx] = true;
        out.push(LinkFault::dead(node, dir));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(8)))]

    /// Fault dimension of equivalence 1: a random set of statically dead
    /// links must leave the run's entire `Result` — completed `NetStats`
    /// byte-for-byte, or the exact same `SimError` — invariant across
    /// both engine modes and the oracle. Also pins the no-op
    /// guarantee: a fault scheduled far past completion runs the
    /// degraded-mode arbitration code yet stays byte-identical to the
    /// healthy run.
    #[test]
    fn fault_plans_are_engine_invariant(
        shape_i in 0usize..SHAPES.len(),
        strat_i in 0usize..6,
        m_i in 0usize..2,
        cov_i in 0usize..2,
        picks in proptest::collection::vec(proptest::arbitrary::any::<u32>(), 1..4),
        oracle in proptest::arbitrary::any::<bool>(),
    ) {
        let (part, strategy, _, cov) = config(shape_i, strat_i, 0, cov_i);
        let m = [64u64, 240][m_i];
        let workload = workload(m, cov);
        let plan = FaultPlan {
            links: draw_dead_links(&part, &picks),
            nodes: vec![],
        };
        eprintln!(
            "case: {part} ({}-D) {} m={m} cov={cov} oracle={oracle} faults={:?}",
            part.ndims(),
            strategy.name(),
            plan.links
        );

        // An unreachable pair parks its packets until the watchdog; a
        // short (but progress-based, so never spuriously firing) fuse
        // keeps those fuzz cases fast. Identical in every compared run.
        let faulty = |fault: FaultPlan| {
            let mut cfg = SimConfig::new(part);
            cfg.watchdog_cycles = 10_000;
            cfg.fault = fault;
            cfg
        };
        let axes = Axes {
            oracle: &[oracle],
            ..Axes::MODES
        };
        // The helper compares whole `Result`s: an unreachable pair must be
        // the same `SimError` in every cell.
        let _ = run_modes(&faulty(plan.clone()), axes, |cfg| {
            aa_cell(part, &workload, &strategy, cfg)
        });

        // No-op plan: same links, dead only at a cycle no run reaches.
        let noop = FaultPlan {
            links: plan.links.iter().map(|l| LinkFault {
                fail_at: 1 << 40,
                recover_at: None,
                ..*l
            }).collect(),
            nodes: vec![],
        };
        let healthy = aa_cell(part, &workload, &strategy, faulty(FaultPlan::default()))
            .result
            .expect("healthy run completes");
        let nooped = aa_cell(part, &workload, &strategy, faulty(noop))
            .result
            .expect("noop-fault run completes");
        prop_assert_eq!(&healthy, &nooped, "noop plan");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Equivalence 3: a random point set run through a serial and a
    /// many-thread `Runner` yields byte-identical reports per key.
    #[test]
    fn runner_parallelism_is_invisible(
        picks in proptest::arbitrary::any::<[u8; 3]>(),
        jobs in 2usize..5,
    ) {
        let serial = Runner::new(Scale::Quick).with_jobs(1);
        let parallel = Runner::new(Scale::Quick).with_jobs(jobs);
        let points: Vec<RunPoint> = picks
            .iter()
            .map(|&p| {
                let (part, strategy, m, cov) = config(
                    p as usize,
                    (p / 6) as usize,
                    (p / 36) as usize,
                    (p / 144) as usize,
                );
                RunPoint::new(part, strategy, m, cov)
            })
            .collect();
        serial.run_points(&points);
        parallel.run_points(&points);
        for point in &points {
            let a = serial.report(point).expect("serial run completes");
            let b = parallel.report(point).expect("parallel run completes");
            prop_assert_eq!(a.cycles, b.cycles, "{:?}", &point.key);
            prop_assert_eq!(&a.stats, &b.stats, "{:?}", &point.key);
        }
    }
}
