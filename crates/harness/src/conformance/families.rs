//! The five DESIGN.md §7 validation-target families, plus the
//! fault-injection family (F8) and the n-dimensional family (F9), as
//! tier-parameterized checks.
//!
//! All thresholds assert *shape* — orderings, bands, crossover
//! directions — not absolute paper numbers: the quick tier is calibrated
//! against the committed quick-scale results in EXPERIMENTS.md, the full
//! tier against the paper-scale runs and spot checks recorded there.
//! Floors carry a few points of slack below the committed measurements so
//! the suite flags real regressions, not formatting noise; orderings are
//! asserted exactly (the simulator is deterministic).
//!
//! Every point runs with the simulator's invariant oracle enabled
//! (`SimConfig::check_invariants`), so each PASS also certifies packet,
//! byte, hop and credit conservation on that configuration. Every point
//! runs once, under the default clock: that clocks cannot change a result
//! is the differential suite's job (`crates/sim/tests/common/mod.rs`), not
//! this one's.

use super::golden::Snapshot;
use super::{CheckResult, Tier};
use crate::runner::{RunPoint, RunResult, Runner, Unit};
use bgl_core::{Pacer, StrategyKind};
use bgl_sim::{FaultPlan, LinkFault, SimError};
use bgl_torus::{Dim, Direction, Partition, Sign};

/// Variant label for the invariant-checked runs the grid is made of.
pub const INVARIANTS: &str = "invariants";

fn ar() -> StrategyKind {
    StrategyKind::ar()
}
fn dr() -> StrategyKind {
    StrategyKind::dr()
}
fn thr() -> StrategyKind {
    StrategyKind::throttled(1.0)
}
fn tps() -> StrategyKind {
    StrategyKind::tps()
}
fn vmesh() -> StrategyKind {
    StrategyKind::vmesh()
}

/// VMesh with the stop-and-wait credit window that keeps a full-coverage
/// exchange live on the paper's 4096-node 8x32x16: each phase-1 row
/// message there is two packets, so any window ≥ 2 never closes and the
/// unpaced burst of 127 concurrent row messages per node wedges the
/// dynamic-VC FIFOs (~390 k frozen packets). A window of one packet per
/// intermediate serializes each row hand-off behind its ack and the
/// exchange completes — still ~3× faster than TPS at 8 B.
fn vmesh_paced() -> StrategyKind {
    StrategyKind::vmesh().with_pacer(Pacer::credit(1, 1))
}

/// A budgeted point with the invariant oracle enabled.
pub fn checked(runner: &Runner, shape: &str, strategy: &StrategyKind, m: u64) -> RunPoint {
    runner
        .point(shape, strategy, m)
        .variant(INVARIANTS, |c| c.check_invariants = true)
}

/// An invariant-checked point pinned at full coverage. VMesh combining
/// ignores destination sampling (a combined message carries data for the
/// receiver's whole column), so its runs are full-exchange regardless of
/// the budgeted coverage — pinning 1.0 makes the recorded coverage, and
/// therefore the extrapolated latency, honest.
pub fn checked_full_cov(shape: &str, strategy: &StrategyKind, m: u64) -> RunPoint {
    let part: Partition = shape.parse().expect("valid shape");
    RunPoint::new(part, strategy.clone(), m, 1.0).variant(INVARIANTS, |c| c.check_invariants = true)
}

/// The F8 fault grid: one small shape at full coverage, identical at
/// both tiers (like the golden grid — fault semantics do not scale).
const F8_SHAPE: &str = "4x4x4";
/// Message size of every F8 point.
const F8_M: u64 = 240;

/// The statically dead directed link every F8 degraded-mode point
/// shares: dead from cycle 0, never recovering.
fn f8_dead_link() -> FaultPlan {
    FaultPlan {
        links: vec![LinkFault::dead(
            0,
            Direction {
                dim: Dim::X,
                sign: Sign::Plus,
            },
        )],
        nodes: vec![],
    }
}

/// The same link scheduled dead only at a cycle no run reaches: the
/// degraded-mode arbitration code runs, the result must not move.
fn f8_noop_plan() -> FaultPlan {
    FaultPlan {
        links: f8_dead_link()
            .links
            .into_iter()
            .map(|l| LinkFault {
                fail_at: 1 << 40,
                recover_at: None,
                ..l
            })
            .collect(),
        nodes: vec![],
    }
}

/// Mid-run outages inside the ~620-cycle healthy F8 run: one link fails
/// and recovers while traffic is heavy, a second fails and stays dead.
fn f8_midrun_plan() -> FaultPlan {
    FaultPlan {
        links: vec![
            LinkFault {
                node: 0,
                dir: Direction {
                    dim: Dim::X,
                    sign: Sign::Plus,
                },
                fail_at: 200,
                recover_at: Some(400),
            },
            LinkFault {
                node: 21,
                dir: Direction {
                    dim: Dim::Y,
                    sign: Sign::Minus,
                },
                fail_at: 250,
                recover_at: None,
            },
        ],
        nodes: vec![],
    }
}

/// The F9 n-dimensional grid: AR and DR on a 2-D torus and a 5-D
/// mixed-extent shape (k = 2 included), identical at both tiers.
const F9_SHAPES: [&str; 2] = ["8x8", "4x4x4x4x2"];
/// Message size of every F9 point.
const F9_M: u64 = 64;

/// The tier-specific fixture grid, named by what each slot is for.
struct Grid {
    /// §7.1 symmetric ladder (efficiency must rise with dimensionality).
    sym_ladder: [&'static str; 3],
    /// §7.1/§7.3 asymmetric reference shape (AR band, throttle delta).
    asym: &'static str,
    /// §7.2 orientation sweep: longest dimension X, then Y, then Z.
    dr_orient: [&'static str; 3],
    /// §7.2 symmetric shape where DR must trail AR.
    dr_sym: &'static str,
    /// §7.4 midplane (CPU-forwarding-bound TPS) vs a TPS-friendly shape.
    tps_mid: &'static str,
    tps_good: &'static str,
    /// §7.4 Table-4 latency pair: small symmetric, larger asymmetric.
    lat_pair: [&'static str; 2],
    /// §7.5 VMesh-vs-AR crossover shape and the two probe sizes.
    vm_shape: &'static str,
    vm_small: u64,
    vm_large: u64,
    /// §7.5 three-strategy short-message shape (Figure 7). VMesh runs at
    /// full coverage here.
    vm_tri: &'static str,
    /// §7.5 full-tier only: the paper's 4096-node Figure-7 shape. VMesh
    /// runs full-coverage under the stop-and-wait credit window (see
    /// [`vmesh_paced`]); AR and TPS run budget-sampled.
    vm_tri_4096: Option<&'static str>,
}

/// The tier grids.
///
/// The full tier checks the Figure-7 three-way ordering on both the
/// 1024-node 8x16x8 (everything full-speed) and the paper's 4096-node
/// 8x32x16, where the full-coverage VMesh exchange needs the credit
/// pacer to stay live — an earlier revision of this suite documented the
/// unpaced stall (~390 k frozen packets) as a known limitation; the
/// flow-control layer closed it (EXPERIMENTS.md, "Flow control: the
/// 8x32x16 VMesh run", has the before/after).
fn grid(tier: Tier) -> Grid {
    match tier {
        Tier::Quick => Grid {
            sym_ladder: ["8x1x1", "8x8", "8x8x8"],
            asym: "8x4x4",
            dr_orient: ["8x4x4", "4x8x4", "4x4x8"],
            dr_sym: "4x4x4",
            tps_mid: "8x8x8",
            tps_good: "8x8x4M",
            lat_pair: ["8x8x8", "8x8x16"],
            vm_shape: "4x4x4",
            vm_small: 8,
            vm_large: 256,
            vm_tri: "4x8x4",
            vm_tri_4096: None,
        },
        Tier::Full => Grid {
            sym_ladder: ["8x1x1", "8x8", "8x8x8"],
            asym: "8x4x4",
            dr_orient: ["16x8x8", "8x16x8", "8x8x16"],
            dr_sym: "8x8x8",
            tps_mid: "8x8x8",
            tps_good: "16x8x8",
            lat_pair: ["8x8x8", "8x8x16"],
            vm_shape: "8x8x8",
            vm_small: 8,
            vm_large: 256,
            vm_tri: "8x16x8",
            vm_tri_4096: Some("8x32x16"),
        },
    }
}

fn large_m(runner: &Runner, shape: &str) -> u64 {
    runner.large_m_for(&shape.parse::<Partition>().expect("valid shape"))
}

/// A budgeted invariant-checked point at the shape's large message size.
fn large(runner: &Runner, shape: &str, strategy: &StrategyKind) -> RunPoint {
    checked(runner, shape, strategy, large_m(runner, shape))
}

/// Percent of peak of a grid run; `NAN` for a failed run, which fails
/// every comparison it enters (a crashed fixture must surface as FAIL,
/// not as a panic).
fn pct(r: &RunResult) -> f64 {
    r.as_ref().map_or(f64::NAN, |r| r.percent_of_peak)
}

/// Latency of a grid run in ms, extrapolated by 1/coverage when the run
/// was sampled (a full-coverage run divides by 1); `NAN` for a failed run.
fn ms(r: &RunResult) -> f64 {
    r.as_ref()
        .map_or(f64::NAN, |r| r.time_secs * 1e3 / r.workload.coverage)
}

fn p1(x: f64) -> String {
    format!("{x:.1}")
}

/// Some of a family's checks, declared with the grid runs they read.
pub type Checks = Unit<Vec<CheckResult>>;

/// Every family's checks at `tier`, in report order; `golden` holds the
/// fingerprint F9's 3-D point must reproduce.
pub fn units(runner: &Runner, tier: Tier, golden: &Snapshot) -> Vec<Checks> {
    let g = grid(tier);
    [
        f1_ar_efficiency(runner, &g, tier),
        f2_dr_orientation(runner, &g, tier),
        f3_throttle_delta(runner, &g),
        f4_tps(runner, &g, tier),
        f5_vmesh_crossover(runner, &g),
        f8_fault_injection(),
        f9_ndim_generalization(golden),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// AR efficiency (§7.1).
fn f1_ar_efficiency(runner: &Runner, g: &Grid, tier: Tier) -> Vec<Checks> {
    const FAM: &str = "F1 ar-efficiency";
    let (ladder, asym) = (g.sym_ladder, g.asym);
    let floor_cube = match tier {
        Tier::Quick => 85.0,
        Tier::Full => 93.0,
    };
    vec![
        Unit::new(ladder.map(|s| large(runner, s, &ar())), move |runs| {
            let pcts = runs.each_ref().map(pct);
            vec![
                CheckResult::new(
                    FAM,
                    format!(
                        "symmetric ladder {} < {} < {}",
                        ladder[0], ladder[1], ladder[2]
                    ),
                    pcts[0] < pcts[1] && pcts[1] < pcts[2],
                    format!("{} < {} < {}", p1(pcts[0]), p1(pcts[1]), p1(pcts[2])),
                    "strictly increasing with dimensionality",
                ),
                CheckResult::new(
                    FAM,
                    format!("AR near peak on {}", ladder[2]),
                    pcts[2] >= floor_cube,
                    p1(pcts[2]),
                    format!("≥ {floor_cube} % of peak"),
                ),
            ]
        }),
        Unit::new([checked(runner, asym, &ar(), 912)], move |[asym_ar]| {
            let asym_ar = pct(asym_ar);
            vec![CheckResult::new(
                FAM,
                format!("AR asymmetric band on {asym}"),
                (70.0..=92.0).contains(&asym_ar),
                p1(asym_ar),
                "within 70–92 % of peak",
            )]
        }),
    ]
}

/// DR dimension-order asymmetry (§7.2).
fn f2_dr_orientation(runner: &Runner, g: &Grid, tier: Tier) -> Vec<Checks> {
    const FAM: &str = "F2 dr-orientation";
    let ([x, y, z], sym) = (g.dr_orient, g.dr_sym);
    // AR rides along on every orientation: the full tier compares it on
    // the X-longest shape, and on the other two the run itself is the
    // check — the oracle certifies the collapsed-AR configuration.
    let sweep = [
        checked(runner, x, &dr(), 912),
        checked(runner, y, &dr(), 912),
        checked(runner, z, &dr(), 912),
        checked(runner, x, &ar(), 912),
        checked(runner, y, &ar(), 912),
        checked(runner, z, &ar(), 912),
    ];
    vec![
        Unit::new(sweep, move |[dr_x, dr_y, dr_z, ar_x, _, _]| {
            let dro = [pct(dr_x), pct(dr_y), pct(dr_z)];
            let mut out = vec![
                CheckResult::new(
                    FAM,
                    format!("orientation order {x} > {y} ≥ {z}"),
                    dro[0] > dro[1] && dro[1] >= dro[2] - 1.0,
                    format!("{} > {} ≥ {}", p1(dro[0]), p1(dro[1]), p1(dro[2])),
                    "best when X is longest, worst when Z is",
                ),
                CheckResult::new(
                    FAM,
                    format!("X-longest beats Z-longest by a gap on {x}"),
                    dro[0] - dro[2] >= 5.0,
                    format!("gap {}", p1(dro[0] - dro[2])),
                    "≥ 5 points",
                ),
            ];
            if tier == Tier::Full {
                // Paper-scale spot check: DR rides the schedule while
                // unshaped AR tree-saturates on the elongated torus.
                let ar_x = pct(ar_x);
                out.push(CheckResult::new(
                    FAM,
                    format!("DR beats collapsed AR on {x}"),
                    dro[0] > ar_x,
                    format!("DR {} vs AR {}", p1(dro[0]), p1(ar_x)),
                    "DR > AR when X is the longest dimension",
                ));
            }
            out
        }),
        Unit::new(
            [large(runner, sym, &dr()), large(runner, sym, &ar())],
            move |[sym_dr, sym_ar]| {
                let (sym_dr, sym_ar) = (pct(sym_dr), pct(sym_ar));
                vec![CheckResult::new(
                    FAM,
                    format!("DR trails AR on symmetric {sym}"),
                    sym_dr < sym_ar,
                    format!("DR {} vs AR {}", p1(sym_dr), p1(sym_ar)),
                    "DR < AR on symmetric tori",
                )]
            },
        ),
    ]
}

/// Throttling delta (§7.3).
fn f3_throttle_delta(runner: &Runner, g: &Grid) -> Vec<Checks> {
    let asym = g.asym;
    let pair = [
        checked(runner, asym, &thr(), 912),
        checked(runner, asym, &ar(), 912),
    ];
    vec![Unit::new(pair, move |[thr_pct, asym_ar]| {
        let (thr_pct, asym_ar) = (pct(thr_pct), pct(asym_ar));
        let delta = thr_pct - asym_ar;
        vec![CheckResult::new(
            "F3 throttle-delta",
            format!("bisection throttle ≈ AR on {asym}"),
            delta.abs() <= 5.0,
            format!(
                "throttled {} vs AR {} (Δ {:+.1})",
                p1(thr_pct),
                p1(asym_ar),
                delta
            ),
            "|Δ| ≤ 5 points where AR holds up",
        )]
    })]
}

/// TPS (§7.4): the midplane caveat and the Table-4 latency pairs.
fn f4_tps(runner: &Runner, g: &Grid, tier: Tier) -> Vec<Checks> {
    const FAM: &str = "F4 tps";
    let (mid, good, lat) = (g.tps_mid, g.tps_good, g.lat_pair);
    let midplane = [
        large(runner, mid, &tps()),
        large(runner, good, &tps()),
        large(runner, mid, &ar()),
    ];
    let mut units = vec![Unit::new(midplane, move |[tps_mid, tps_good, mid_ar]| {
        let (tps_mid, tps_good, mid_ar) = (pct(tps_mid), pct(tps_good), pct(mid_ar));
        vec![
            CheckResult::new(
                FAM,
                format!("midplane {mid} CPU-bound vs {good}"),
                tps_mid < tps_good,
                format!("{} vs {}", p1(tps_mid), p1(tps_good)),
                "TPS noticeably lower on the symmetric midplane",
            ),
            CheckResult::new(
                FAM,
                format!("TPS trails AR on the {mid} midplane"),
                tps_mid < mid_ar,
                format!("TPS {} vs AR {}", p1(tps_mid), p1(mid_ar)),
                "direct beats forwarding on symmetric tori",
            ),
        ]
    })];
    if tier == Tier::Full {
        let rescue = [large(runner, good, &tps()), large(runner, good, &ar())];
        units.push(Unit::new(rescue, move |[tps_good, good_ar]| {
            let (tps_good, good_ar) = (pct(tps_good), pct(good_ar));
            vec![CheckResult::new(
                FAM,
                format!("TPS rescues the {good} collapse"),
                tps_good >= 75.0 && tps_good > good_ar,
                format!("TPS {} vs AR {}", p1(tps_good), p1(good_ar)),
                "TPS ≥ 75 % and above AR on the elongated torus",
            )]
        }));
    }
    let latency = [
        checked(runner, lat[0], &tps(), 1),
        checked(runner, lat[0], &ar(), 1),
        checked(runner, lat[1], &tps(), 1),
        checked(runner, lat[1], &ar(), 1),
    ];
    units.push(Unit::new(latency, move |[tps0, ar0, tps1, ar1]| {
        let ratio = [ms(tps0) / ms(ar0), ms(tps1) / ms(ar1)];
        vec![
            CheckResult::new(
                FAM,
                format!("1-byte latency: TPS pays forwarding on {}", lat[0]),
                ratio[0] > 1.1,
                format!("TPS/AR = {:.2}", ratio[0]),
                "ratio > 1.1 on the small partition",
            ),
            CheckResult::new(
                FAM,
                format!("Table-4 crossover direction {} → {}", lat[0], lat[1]),
                ratio[1] < ratio[0] - 0.2,
                format!("TPS/AR {:.2} → {:.2}", ratio[0], ratio[1]),
                "ratio falls toward the larger asymmetric partition",
            ),
        ]
    }));
    units
}

/// VMesh short-message crossover (§7.5). VMesh points are pinned at full
/// coverage (see [`checked_full_cov`]).
fn f5_vmesh_crossover(runner: &Runner, g: &Grid) -> Vec<Checks> {
    const FAM: &str = "F5 vmesh-crossover";
    let (shape, small, large, tri) = (g.vm_shape, g.vm_small, g.vm_large, g.vm_tri);
    let probes = [
        checked(runner, shape, &ar(), small),
        checked_full_cov(shape, &vmesh(), small),
        checked(runner, shape, &ar(), large),
        checked_full_cov(shape, &vmesh(), large),
    ];
    let three_way = |shape: &str, vmesh: &StrategyKind| {
        [
            checked_full_cov(shape, vmesh, small),
            checked(runner, shape, &tps(), small),
            checked(runner, shape, &ar(), small),
        ]
    };
    let times =
        |vm: f64, tps: f64, ar: f64| format!("VMesh {vm:.3} ms, TPS {tps:.3} ms, AR {ar:.3} ms");
    let mut units = vec![
        Unit::new(probes, move |[ar_small, vm_small, ar_large, vm_large]| {
            let gain_small = ms(ar_small) / ms(vm_small);
            let gain_large = ms(ar_large) / ms(vm_large);
            vec![
                CheckResult::new(
                    FAM,
                    format!("VMesh wins at {small} B on {shape}"),
                    gain_small >= 1.3,
                    format!("AR/VMesh time = {gain_small:.2}"),
                    "≥ 1.3× (paper: ≈2× for very short messages)",
                ),
                CheckResult::new(
                    FAM,
                    format!("direct wins at {large} B on {shape}"),
                    gain_large <= 1.0,
                    format!("AR/VMesh time = {gain_large:.2}"),
                    "≤ 1.0× (crossover sits below 256 B)",
                ),
            ]
        }),
        // TPS's forwarding overhead amortizes only at the paper's
        // 4096-node scale, so "VMesh fastest" is the stable assertion on
        // this shape; the full three-way ordering (VMesh < TPS < AR) is
        // asserted on the 4096-node shape below.
        Unit::new(three_way(tri, &vmesh()), move |[vm, tps, ar]| {
            let (vm, tps, ar) = (ms(vm), ms(tps), ms(ar));
            vec![CheckResult::new(
                FAM,
                format!("{small} B ordering on {tri}"),
                vm < ar && vm < tps,
                times(vm, tps, ar),
                "VMesh fastest",
            )]
        }),
    ];
    if let Some(shape) = g.vm_tri_4096 {
        units.push(Unit::new(
            three_way(shape, &vmesh_paced()),
            move |[vm, tps, ar]| {
                let (vm, tps, ar) = (ms(vm), ms(tps), ms(ar));
                vec![CheckResult::new(
                    FAM,
                    format!("{small} B Figure-7 ordering on {shape}"),
                    vm < tps && tps < ar,
                    times(vm, tps, ar),
                    "VMesh (credit-paced, full coverage) < TPS < AR at 4096 nodes",
                )]
            },
        ));
    }
    units
}

/// Fault injection: degraded-mode routing, oracle on for every point. A
/// fault plan is part of the run's cache key, so none of these share a
/// slot with the healthy grid.
fn f8_fault_injection() -> Vec<Checks> {
    const FAM: &str = "F8 fault-injection";
    let point = |s: StrategyKind| checked_full_cov(F8_SHAPE, &s, F8_M);
    let check = |name: &str, (passed, measured): (bool, String), expected: &str| {
        vec![CheckResult::new(
            FAM,
            format!("{F8_SHAPE} {name}"),
            passed,
            measured,
            expected,
        )]
    };
    vec![
        Unit::new(
            [point(ar()), point(ar()).with_fault(f8_noop_plan())],
            move |runs| {
                let verdict = match runs {
                    [Ok(h), Ok(n)] if h.stats == n.stats => (true, "identical NetStats".into()),
                    [Ok(h), Ok(n)] => (
                        false,
                        format!("diverged: {} vs {} cycles", h.cycles, n.cycles),
                    ),
                    [h, n] => (
                        false,
                        format!("run failed: {:?} / {:?}", h.is_ok(), n.is_ok()),
                    ),
                };
                check(
                    "AR noop fault plan is byte-invisible",
                    verdict,
                    "fault scheduled past completion == healthy run",
                )
            },
        ),
        Unit::new(
            [point(ar()).with_fault(f8_dead_link()), point(ar())],
            move |runs| {
                let verdict = match runs {
                    [Ok(d), Ok(h)]
                        if d.stats.dropped_by_fault == 0
                            && d.stats.packets_delivered == h.stats.packets_delivered =>
                    {
                        (
                            true,
                            format!("{} packets delivered, 0 dropped", d.stats.packets_delivered),
                        )
                    }
                    [Ok(d), Ok(_)] => (
                        false,
                        format!(
                            "{} delivered, {} dropped",
                            d.stats.packets_delivered, d.stats.dropped_by_fault
                        ),
                    ),
                    [d, h] => (
                        false,
                        format!("run failed: {:?} / {:?}", d.is_ok(), h.is_ok()),
                    ),
                };
                check(
                    "AR routes around a statically dead link",
                    verdict,
                    "full delivery, nothing dropped (never in flight on a dead link)",
                )
            },
        ),
        Unit::new([point(dr()).with_fault(f8_dead_link())], move |[dr_dead]| {
            let verdict = match dr_dead {
                Err(SimError::Unreachable {
                    cycle: 0,
                    blocked_packets,
                    faults,
                }) if !faults.is_empty() => (
                    true,
                    format!("Unreachable at cycle 0, {blocked_packets} packets blocked"),
                ),
                Err(e) => (false, format!("wrong error: {e}")),
                Ok(r) => (false, format!("completed in {} cycles", r.cycles)),
            };
            check(
                "DR reports the dead link as unreachable",
                verdict,
                "instant Unreachable with a per-fault breakdown",
            )
        }),
        Unit::new(
            [point(ar()).with_fault(f8_midrun_plan())],
            move |[midrun]| {
                let verdict = match midrun {
                    Ok(r) => {
                        let s = &r.stats;
                        let telescopes =
                            s.packets_injected == s.packets_delivered + s.dropped_by_fault;
                        (
                            telescopes,
                            format!(
                                "{} delivered + {} dropped {} {} injected",
                                s.packets_delivered,
                                s.dropped_by_fault,
                                if telescopes { "==" } else { "!=" },
                                s.packets_injected
                            ),
                        )
                    }
                    Err(e) => (false, format!("run failed: {e}")),
                };
                check(
                    "AR survives a mid-run fail→recover window",
                    verdict,
                    "oracle green; delivered + dropped_by_fault telescopes to injected",
                )
            },
        ),
    ]
}

const F9: &str = "F9 ndim-generalization";

/// F9's 3-D pin: the 4x4x1 AR point reproduces its golden fingerprint,
/// the one `golden` holds — the committed entry, or under a bless the one
/// the run writes.
pub(super) fn f9_golden_3d(golden: &Snapshot) -> Checks {
    let legacy = RunPoint::new("4x4x1".parse().expect("valid shape"), ar(), 240, 1.0);
    let (key, golden) = (legacy.key.clone(), golden.clone());
    Unit::new([legacy], move |[run]| {
        let got = run
            .as_ref()
            .ok()
            .map(|r| format!("{:016x}", super::golden::fingerprint(&r.stats)));
        let want = golden.expected(&key, got.as_deref());
        let (passed, measured) = match (&got, &want) {
            (Some(g), Some(w)) if g == w => (true, g.clone()),
            (Some(g), Some(w)) => (false, format!("{g}, committed {w}")),
            (Some(g), None) => (false, format!("{g}, no committed entry")),
            (None, _) => (false, "run failed".to_string()),
        };
        vec![CheckResult::new(
            F9,
            "4x4x1 AR reproduces the committed 3-D fingerprint",
            passed,
            measured,
            "n-dim refactor leaves 3-D behavior byte-identical",
        )]
    })
}

/// The n-dimensional generalization. The topology layer generalized from
/// a hard-coded 3-D torus to k-ary n-dimensional shapes; this family pins
/// both halves of that contract: (a) 3-D behavior did not move a byte —
/// the golden fingerprint still reproduces ([`f9_golden_3d`]) — and (b)
/// the generalized machinery is genuinely n-dimensional: full
/// oracle-checked AR and DR exchanges on a 2-D torus and a 5-D
/// mixed-extent shape.
fn f9_ndim_generalization(golden: &Snapshot) -> Vec<Checks> {
    const FAM: &str = F9;
    let mut units = vec![f9_golden_3d(golden)];
    for shape in F9_SHAPES {
        let p = shape.parse::<Partition>().expect("valid shape").num_nodes() as u64;
        let want_payload = p * (p - 1) * F9_M;
        for s in [ar(), dr()] {
            let name = s.name();
            units.push(Unit::new(
                [checked_full_cov(shape, &s, F9_M)],
                move |[exchange]| {
                    let (passed, measured) = match exchange {
                        Ok(r) if r.stats.payload_bytes_delivered == want_payload => {
                            (true, format!("{want_payload} B delivered"))
                        }
                        Ok(r) => (
                            false,
                            format!(
                                "{} B delivered, want {want_payload}",
                                r.stats.payload_bytes_delivered
                            ),
                        ),
                        Err(e) => (false, format!("run failed: {e}")),
                    };
                    vec![CheckResult::new(
                        FAM,
                        format!("{shape} {name} full exchange, oracle on"),
                        passed,
                        measured,
                        "complete all-to-all payload under the invariant oracle",
                    )]
                },
            ));
        }
    }
    units
}
