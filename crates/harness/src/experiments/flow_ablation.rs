//! Credit-window ablation: how hard can intermediate-memory flow control
//! squeeze before it costs bandwidth?
//!
//! Sweeps the shared credit-window pacer ([`Pacer::CreditWindow`]) from
//! the tightest possible window (1 packet in flight per intermediate) up
//! through the default and out to unpaced, for every strategy that
//! forwards through intermediates (TPS, VMesh, XYZ). The paper's
//! future-work claim — bounding intermediate memory costs little
//! bandwidth — shows up as the efficiency column flattening once the
//! window covers the forwarding pipeline's natural depth; the
//! credit-blocked counter shows the pacer actually engaging at the tight
//! end.
//!
//! A rate-window row (`Pacer::RateWindow` at the bisection-derived peak)
//! rides along per strategy as the throttling reference point.

use super::{pct, Experiment, Line, Rows};
use crate::runner::{RunPoint, Runner, Scale, Unit};
use bgl_core::{Pacer, Scheme, StrategyKind};
use bgl_torus::Partition;

pub(super) const FLOW: Experiment = Experiment {
    id: "flow",
    title: "Credit-window flow-control ablation",
    columns: &[
        "pacer",
        "strategy",
        "% of peak",
        "credit-blocked",
        "pacing-blocked cycles",
    ],
    notes: &[
        "window 1,1 serializes every intermediate hand-off: the floor of the sweep",
        "efficiency flattening by the default window is the paper's cheap-flow-control claim",
    ],
    rows,
};

/// The swept pacers, in row order: credit windows as (window, quantum)
/// from the tightest to the default, unpaced, and the rate window at the
/// bisection-derived peak.
fn sweep() -> [Pacer; 8] {
    [
        Pacer::credit(1, 1),
        Pacer::credit(2, 1),
        Pacer::credit(4, 2),
        Pacer::credit(8, 4),
        Pacer::credit(16, 8),
        Pacer::credit(40, 10), // the default CreditConfig
        Pacer::Unpaced,
        Pacer::rate(1.0),
    ]
}

/// The pacer column's cell.
fn label(pacer: Pacer) -> String {
    match pacer {
        Pacer::CreditWindow { credit } => {
            format!("credit {},{}", credit.window_packets, credit.credit_every)
        }
        Pacer::Unpaced => "unpaced".to_string(),
        Pacer::RateWindow { factor } => format!("rate {factor:.1}"),
    }
}

/// The whole sweep for every strategy with intermediate-memory pressure
/// to bound, one row per swept pacer.
fn rows(runner: &Runner) -> Rows {
    // The asymmetric testbed partition per scale (same as `ablations`).
    let shape = match runner.scale {
        Scale::Quick => "8x4x4",
        Scale::Paper => "16x8x8",
    };
    let part: Partition = shape.parse().unwrap();
    let row = |(base, pacer): (&StrategyKind, Pacer)| {
        let strategy = base.clone().with_pacer(pacer);
        // The combining VMesh always runs the full exchange (a combined
        // message carries a whole column, so sampling would misreport
        // coverage) at short messages, its regime and what keeps that
        // tractable; the forwarding strategies run the budgeted large size.
        let point = if base.scheme == Scheme::VirtualMesh {
            RunPoint::new(part, strategy, 8, 1.0)
        } else {
            runner.point(shape, &strategy, runner.large_m_for(&part))
        };
        let name = base.name();
        Unit::new([point], move |[r]| {
            let cells = match r {
                Ok(r) => [
                    pct(r.percent_of_peak),
                    r.stats.credit_blocked_events.to_string(),
                    r.stats.pacing_blocked_cycles.to_string(),
                ],
                Err(e) => [e.to_string(), String::new(), String::new()],
            };
            let labels = [label(pacer), name.to_string()];
            Line::Row(labels.into_iter().chain(cells).collect())
        })
    };
    let strategies = [
        StrategyKind::tps(),
        StrategyKind::vmesh(),
        StrategyKind::xyz(),
    ];
    let cases = strategies
        .iter()
        .flat_map(|base| sweep().map(|pacer| (base, pacer)));
    cases.map(row).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick;

    #[test]
    fn quick_sweep_engages_and_flattens() {
        let rep = quick("flow");
        assert_eq!(rep.rows.len(), 3 * sweep().len());
        let cell = |pacer: &str, strat: &str, col: usize| -> String {
            rep.rows
                .iter()
                .find(|row| row[0] == pacer && row[1] == strat)
                .unwrap_or_else(|| panic!("row {pacer}/{strat}"))[col]
                .clone()
        };
        // The tightest window visibly engages the credit machinery…
        let blocked: u64 = cell("credit 1,1", "TPS", 3).parse().unwrap();
        assert!(blocked > 0, "tight window never blocked");
        // …and every TPS point still completes.
        for pacer in sweep().map(label) {
            let pct_cell = cell(&pacer, "TPS", 2);
            assert!(
                pct_cell.parse::<f64>().is_ok(),
                "TPS {pacer} failed: {pct_cell}"
            );
        }
        // Unpaced rows report no credit blocking at all.
        assert_eq!(cell("unpaced", "TPS", 3), "0");
        // The rate row throttles via the pacing counter instead.
        let paced_cycles: u64 = cell("rate 1.0", "TPS", 4).parse().unwrap();
        assert!(paced_cycles > 0, "rate window never paced");
    }

    /// Every row is its own run: two swept pacers resolving to one
    /// strategy would alias their cache slots.
    #[test]
    fn declared_points_cover_every_row() {
        let rows = rows(&Runner::new(Scale::Quick));
        let keys: std::collections::HashSet<_> =
            rows.iter().map(|unit| &unit.points[0].key).collect();
        assert_eq!(keys.len(), rows.len());
    }
}
