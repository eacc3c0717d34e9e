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
//! * **TPS without reserved injection FIFOs** → both phases share every
//!   FIFO, which tests the pipelining argument for the reservation. On the
//!   quick testbed sharing is the faster of the two (EXPERIMENTS.md,
//!   "ablations (quick scale)").
//! * **TPS credit-based flow control** → bounding intermediate memory
//!   costs little bandwidth (the paper's future-work claim).

use super::{pct, Experiment, Line, Rows};
use crate::runner::{RunPoint, Runner, Scale, Unit};
use bgl_core::{CreditConfig, Pacer, StrategyKind};
use bgl_sim::SimConfig;
use bgl_torus::Partition;

pub(super) const ABLATIONS: Experiment = Experiment {
    id: "ablations",
    title: "Design-choice ablations on an asymmetric torus",
    columns: &["variant", "strategy", "% of peak / outcome"],
    notes: &["a Stalled outcome is the expected deadlock when the bubble machinery is disabled"],
    rows,
};

/// An all-to-all the cases vary: partition, message size, coverage.
#[derive(Clone, Copy)]
struct Testbed(Partition, u64, f64);

impl Testbed {
    /// One case: `strategy` on this testbed under `tweak`. `label` names
    /// the row and, as the variant label, keys the run.
    fn case(
        self,
        label: &'static str,
        strategy: &StrategyKind,
        tweak: impl Fn(&mut SimConfig) + Send + Sync + 'static,
    ) -> (&'static str, RunPoint) {
        let Testbed(part, m, cov) = self;
        let point = RunPoint::new(part, strategy.clone(), m, cov).variant(label, tweak);
        (label, point)
    }
}

/// One row per case: the budgeted sweep on the scale's asymmetric
/// testbed, then the pinned high-pressure cases.
fn rows(runner: &Runner) -> Rows {
    let part: Partition = match runner.scale {
        Scale::Quick => "8x4x4",
        Scale::Paper => "16x8x8",
    }
    .parse()
    .unwrap();
    let m = runner.large_m_for(&part);
    let sweep = Testbed(part, m, runner.budget_coverage(&part, m));
    // Full (unsampled) exchanges on 8x4x4 at any scale: the congestion
    // collapse of classical adaptivity, its longest-first mitigation, and
    // the textbook deadlock (no bubble slack, tight VC FIFOs) all need
    // the full pressure to show at small scale.
    let pinned = Testbed("8x4x4".parse().unwrap(), 1872, 1.0);
    let (ar, tps) = (StrategyKind::ar(), StrategyKind::tps());
    let tps_credit = StrategyKind::tps().with_pacer(Pacer::CreditWindow {
        credit: CreditConfig::default(),
    });
    let pinned_bias = |label, bias| {
        pinned.case(label, &ar, move |c| {
            c.router.longest_first_bias = bias;
            c.router.vc_fifo_chunks = 32; // BG/L's literal 1 KB VC FIFOs
        })
    };
    let (_, deadlock) = pinned.case("deadlock-demo", &ar, |c| {
        c.router.bubble_slack_chunks = 0;
        c.router.vc_fifo_chunks = 32;
        c.watchdog_cycles = 100_000;
    });
    let cases = [
        sweep.case("baseline", &ar, |_| {}),
        sweep.case("no-bubble-rule (slack=0)", &ar, |c| {
            c.router.bubble_slack_chunks = 0
        }),
        sweep.case("no-escape-vc", &ar, |c| {
            c.router.adaptive_bubble_escape = false
        }),
        sweep.case("vc-fifo-8-chunks", &ar, |c| c.router.vc_fifo_chunks = 8),
        sweep.case("vc-fifo-16-chunks", &ar, |c| c.router.vc_fifo_chunks = 16),
        sweep.case("vc-fifo-256-chunks", &ar, |c| c.router.vc_fifo_chunks = 256),
        sweep.case("longest-first-shaping", &ar, |c| {
            c.router.longest_first_bias = true
        }),
        sweep.case("injection-priority", &ar, |c| {
            c.router.transit_priority = false
        }),
        sweep.case("tps-baseline", &tps, |_| {}),
        sweep.case("tps-shared-inj-fifos", &tps, |c| {
            c.inj_class_masks = vec![u8::MAX; 6]
        }),
        sweep.case("tps-credit-flow-control", &tps_credit, |_| {}),
        // The HPCC-Randomaccess-style three-phase scheme the paper argues
        // TPS beats ("gains from lower overheads as it has only one
        // forwarding phase"): two software forwarding hops instead of one.
        sweep.case("xyz-three-phase", &StrategyKind::xyz(), |_| {}),
        pinned_bias("pinned-baseline (full AA 8x4x4)", false),
        pinned_bias("pinned-shaped (full AA 8x4x4)", true),
        ("no-bubble-rule, vc=32, full AA on 8x4x4", deadlock),
    ];
    let row = |(label, point): (&'static str, RunPoint)| {
        let strategy = point.key.strategy.name();
        Unit::new([point], move |[r]| {
            let outcome = match r {
                Ok(r) => pct(r.percent_of_peak),
                Err(e) => e.to_string(),
            };
            Line::Row(vec![label.to_string(), strategy.to_string(), outcome])
        })
    };
    cases.map(row).into()
}

#[cfg(test)]
mod tests {
    use super::rows;
    use crate::experiments::quick;
    use crate::runner::{Runner, Scale};

    #[test]
    fn quick_ablations_show_expected_shape() {
        let rep = quick("ablations");
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

    /// Every case is its own run: a variant label shared by two tweaks
    /// would alias their cache slots.
    #[test]
    fn declared_points_cover_every_row() {
        let rows = rows(&Runner::new(Scale::Quick));
        let keys: std::collections::HashSet<_> =
            rows.iter().map(|unit| &unit.points[0].key).collect();
        assert_eq!(keys.len(), rows.len());
    }
}
