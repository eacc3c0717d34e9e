//! Figure 4: the direct strategies compared — AR vs DR vs throttled AR —
//! across partition shapes, for large messages.

use super::{pct, Experiment, Line, Rows};
use crate::runner::{Runner, Scale, Unit};
use bgl_core::StrategyKind;

/// Partitions compared per scale.
fn shapes(scale: Scale) -> &'static [&'static str] {
    match scale {
        Scale::Quick => &["8x4x4", "4x4x8", "4x4x4"],
        Scale::Paper => &["8x8x8", "16x8x8", "8x16x8", "8x8x16", "8x16x16", "8x32x16"],
    }
}

pub(super) const FIG4: Experiment = Experiment {
    id: "fig4",
    title: "Direct strategies, % of peak, large messages (paper Figure 4)",
    columns: &["Partition", "AR %", "DR %", "AR-throttled %"],
    notes: &[
        "DR is best when X is the longest dimension (packets start on the bottleneck links)",
        "throttling at the bisection rate changes little — congestion happens inside the network",
    ],
    rows,
};

fn rows(runner: &Runner) -> Rows {
    let row = |&shape: &&'static str| {
        let m = runner.large_m_for(&shape.parse().unwrap());
        // The three direct strategies, in column order.
        let points = [
            StrategyKind::ar(),
            StrategyKind::dr(),
            StrategyKind::throttled(1.0),
        ]
        .map(|s| runner.point(shape, &s, m));
        Unit::new(points, move |results| {
            let mut cells = vec![shape.to_string()];
            cells.extend(results.iter().map(|r| match r {
                Ok(r) => pct(r.percent_of_peak),
                Err(e) => format!("ERR:{e}"),
            }));
            Line::Row(cells)
        })
    };
    shapes(runner.scale).iter().map(row).collect()
}

#[cfg(test)]
mod tests {
    use crate::experiments::quick;

    #[test]
    fn quick_fig4_dr_orientation_effect() {
        let rep = quick("fig4");
        let dr = |shape: &str| -> f64 {
            rep.rows.iter().find(|row| row[0] == shape).unwrap()[2]
                .parse()
                .unwrap()
        };
        // DR on 8x4x4 (X longest) beats DR on 4x4x8 (Z longest): the
        // paper's dimension-order asymmetry.
        assert!(
            dr("8x4x4") > dr("4x4x8") + 5.0,
            "DR X-first {} vs Z-longest {}",
            dr("8x4x4"),
            dr("4x4x8")
        );
    }
}
