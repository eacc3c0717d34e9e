//! Ablations beyond the paper: which design choices carry the results.
//!
//! * **Bubble rule / escape VC off** → the adaptive network deadlocks
//!   (watchdog fires) — the deadlock-avoidance machinery is load-bearing.
//! * **VC FIFO depth** → shallow buffers trigger the asymmetric-torus
//!   congestion collapse early.
//! * **Longest-dimension-first shaping on** (an extension beyond the
//!   paper): software hint-bit-style restriction of adaptive packets to
//!   their longest remaining dimension largely removes the Section-3.2
//!   tree saturation — a router-independent mitigation.
//! * **TPS without reserved injection FIFOs** → phase-1 packets queue
//!   behind phase-2 packets, breaking the pipelining argument.
//! * **TPS credit-based flow control** → bounding intermediate memory
//!   costs little bandwidth (the paper's future-work claim).

use crate::experiment::ExperimentReport;
use crate::experiments::pct;
use crate::runner::{RunPoint, Runner, Scale, SharedTweak};
use bgl_core::{CreditConfig, Pacer, StrategyKind};
use bgl_sim::SimConfig;
use bgl_torus::Partition;
use std::sync::Arc;

/// The asymmetric testbed partition per scale.
pub fn shape(scale: Scale) -> &'static str {
    match scale {
        Scale::Quick => "8x4x4",
        Scale::Paper => "16x8x8",
    }
}

fn tweak(f: impl Fn(&mut SimConfig) + Send + Sync + 'static) -> SharedTweak {
    Arc::new(f)
}

/// One ablation case: variant label, row label, strategy, config tweak.
struct Case {
    variant: &'static str,
    row: &'static str,
    strategy: StrategyKind,
    tweak: SharedTweak,
}

impl Case {
    fn new(label: &'static str, strategy: StrategyKind, tweak: SharedTweak) -> Case {
        Case {
            variant: label,
            row: label,
            strategy,
            tweak,
        }
    }

    /// The simulation point this case stands for on testbed `(part, m, cov)`.
    fn point(&self, part: Partition, m: u64, cov: f64) -> RunPoint {
        let t = self.tweak.clone();
        RunPoint::new(part, self.strategy.clone(), m, cov).variant(self.variant, move |c| t(c))
    }
}

/// The budgeted sweep on the scale-dependent asymmetric testbed.
fn budget_cases() -> Vec<Case> {
    let ar = StrategyKind::ar();
    let tps = StrategyKind::tps();
    let tps_credit = StrategyKind::tps().with_pacer(Pacer::CreditWindow {
        credit: CreditConfig::default(),
    });
    vec![
        Case::new("baseline", ar.clone(), tweak(|_| {})),
        Case::new(
            "no-bubble-rule (slack=0)",
            ar.clone(),
            tweak(|c| c.router.bubble_slack_chunks = 0),
        ),
        Case::new(
            "no-escape-vc",
            ar.clone(),
            tweak(|c| c.router.adaptive_bubble_escape = false),
        ),
        Case::new(
            "vc-fifo-8-chunks",
            ar.clone(),
            tweak(|c| c.router.vc_fifo_chunks = 8),
        ),
        Case::new(
            "vc-fifo-16-chunks",
            ar.clone(),
            tweak(|c| c.router.vc_fifo_chunks = 16),
        ),
        Case::new(
            "vc-fifo-256-chunks",
            ar.clone(),
            tweak(|c| c.router.vc_fifo_chunks = 256),
        ),
        Case::new(
            "longest-first-shaping",
            ar.clone(),
            tweak(|c| c.router.longest_first_bias = Some(true)),
        ),
        Case::new(
            "injection-priority",
            ar,
            tweak(|c| c.router.transit_priority = false),
        ),
        Case::new("tps-baseline", tps.clone(), tweak(|_| {})),
        Case::new(
            "tps-shared-inj-fifos",
            tps,
            tweak(|c| c.inj_class_masks = vec![u8::MAX; 6]),
        ),
        Case::new("tps-credit-flow-control", tps_credit, tweak(|_| {})),
        // The HPCC-Randomaccess-style three-phase scheme the paper argues
        // TPS beats ("gains from lower overheads as it has only one
        // forwarding phase"): two software forwarding hops instead of one.
        Case::new("xyz-three-phase", StrategyKind::xyz(), tweak(|_| {})),
    ]
}

/// The pinned high-pressure cases: full (unsampled) exchanges on 8x4x4
/// at any scale. The congestion collapse of classical adaptivity, its
/// longest-first mitigation, and the textbook deadlock (no bubble slack,
/// tight VC FIFOs) all need the full pressure to show at small scale.
fn pinned_cases() -> Vec<Case> {
    let ar = StrategyKind::ar();
    let mut cases: Vec<Case> = [
        ("pinned-baseline (full AA 8x4x4)", false),
        ("pinned-shaped (full AA 8x4x4)", true),
    ]
    .into_iter()
    .map(|(label, bias)| {
        Case::new(
            label,
            ar.clone(),
            tweak(move |c| {
                c.router.longest_first_bias = Some(bias);
                c.router.vc_fifo_chunks = 32; // BG/L's literal 1 KB VC FIFOs
            }),
        )
    })
    .collect();
    cases.push(Case {
        variant: "deadlock-demo",
        row: "no-bubble-rule, vc=32, full AA on 8x4x4",
        strategy: ar,
        tweak: tweak(|c| {
            c.router.bubble_slack_chunks = 0;
            c.router.vc_fifo_chunks = 32;
            c.watchdog_cycles = 100_000;
        }),
    });
    cases
}

/// The pinned testbed: partition, message size, coverage.
const PINNED: (&str, u64, f64) = ("8x4x4", 1872, 1.0);

/// Every case behind the simulation point it stands for, in row order: the
/// budgeted sweep on the scale's testbed, then the pinned cases.
fn cases(runner: &Runner) -> Vec<(RunPoint, Case)> {
    let part: Partition = shape(runner.scale).parse().unwrap();
    let m = runner.large_m_for(&part);
    let cov = runner.budget_coverage(&part, m);
    let pinned_part: Partition = PINNED.0.parse().unwrap();
    let budget = budget_cases()
        .into_iter()
        .map(|case| (case.point(part, m, cov), case));
    let pinned = pinned_cases()
        .into_iter()
        .map(|case| (case.point(pinned_part, PINNED.1, PINNED.2), case));
    budget.chain(pinned).collect()
}

/// Declare every simulation point this experiment needs.
pub fn points(runner: &Runner) -> Vec<RunPoint> {
    cases(runner).into_iter().map(|(point, _)| point).collect()
}

/// Run the ablation suite.
pub fn run(runner: &Runner) -> ExperimentReport {
    runner.run_points(&points(runner));
    let mut rep = ExperimentReport::new(
        "ablations",
        "Design-choice ablations on an asymmetric torus",
        &["variant", "strategy", "% of peak / outcome"],
    );
    for (point, case) in cases(runner) {
        let cell = match runner.report(&point) {
            Ok(r) => pct(r.percent_of_peak),
            Err(e) => format!("{e}"),
        };
        rep.push_row(vec![
            case.row.to_string(),
            case.strategy.name().to_string(),
            cell,
        ]);
    }
    rep.note("a Stalled outcome is the expected deadlock when the bubble machinery is disabled");
    rep.note(
        "tps-shared-inj-fifos removes the per-phase reservation that enables phase pipelining",
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Runner;

    #[test]
    fn quick_ablations_show_expected_shape() {
        let r = Runner::new(Scale::Quick);
        let rep = run(&r);
        let get = |label: &str| -> String {
            rep.rows.iter().find(|row| row[0] == label).unwrap()[2].clone()
        };
        // Disabling the deadlock machinery (without the longest-first
        // shaping that happens to break the cycles) stalls the run.
        let deadlock_row = rep
            .rows
            .iter()
            .find(|row| row[0].starts_with("no-bubble-rule, vc=32"))
            .expect("deadlock row present");
        assert!(deadlock_row[2].contains("stalled"), "{}", deadlock_row[2]);
        // Under full pressure, classical (unshaped) adaptivity suffers the
        // asymmetric-torus collapse; longest-first shaping recovers it.
        let base: f64 = get("pinned-baseline (full AA 8x4x4)").parse().unwrap();
        let shaped: f64 = get("pinned-shaped (full AA 8x4x4)").parse().unwrap();
        assert!(shaped > base + 10.0, "baseline {base} vs shaped {shaped}");
        // TPS with credits still completes at a sane fraction of peak.
        let credit: f64 = get("tps-credit-flow-control").parse().unwrap();
        assert!(credit > 30.0, "{credit}");
    }

    #[test]
    fn declared_points_cover_every_row() {
        let r = Runner::new(Scale::Quick);
        // One point per case, all distinct keys.
        let pts = points(&r);
        assert_eq!(pts.len(), budget_cases().len() + pinned_cases().len());
        let keys: std::collections::HashSet<_> = pts.iter().map(|p| p.key.clone()).collect();
        assert_eq!(keys.len(), pts.len());
    }
}
