//! Table 1: AR percent of peak on symmetric lines, planes and tori for
//! large messages.

use super::{cov, pct, Experiment, Line, Rows};
use crate::paper::TABLE1_AR_SYMMETRIC;
use crate::runner::{Runner, Scale, Unit};
use bgl_core::StrategyKind;

pub(super) const COLUMNS: &[&str] = &[
    "Partition",
    "AR % (sim)",
    "AR % (paper)",
    "m (B)",
    "coverage",
];

pub(super) const TABLE1: Experiment = Experiment {
    id: "table1",
    title: "AR % of peak, symmetric partitions, large messages (paper Table 1)",
    columns: COLUMNS,
    notes: &["percent of peak is Equation 2 with the measured run time; see EXPERIMENTS.md for coverage sampling"],
    rows: |runner| {
        ar_percent_rows(runner, &["8x1x1", "16x1x1", "8x8", "8x8x8"], TABLE1_AR_SYMMETRIC)
    },
};

/// Shared rows of Tables 1 and 2, one per partition: the `quick` shapes
/// at quick scale, every shape of the `paper` table at paper scale.
pub(super) fn ar_percent_rows(
    runner: &Runner,
    quick: &[&'static str],
    paper: &'static [(&'static str, f64)],
) -> Rows {
    let row = |shape: &'static str| {
        let m = runner.large_m_for(&shape.parse().unwrap());
        Unit::new([runner.point(shape, &StrategyKind::ar(), m)], move |[r]| {
            let (percent, coverage) = match r {
                Ok(r) => (pct(r.percent_of_peak), cov(r.workload.coverage)),
                Err(e) => (format!("ERROR: {e}"), "-".into()),
            };
            let in_paper = paper.iter().find(|(s, _)| *s == shape);
            Line::Row(vec![
                shape.to_string(),
                percent,
                in_paper.map_or("-".into(), |(_, v)| pct(*v)),
                m.to_string(),
                coverage,
            ])
        })
    };
    match runner.scale {
        Scale::Quick => quick.iter().copied().map(row).collect(),
        Scale::Paper => paper.iter().map(|(shape, _)| *shape).map(row).collect(),
    }
}

#[cfg(test)]
mod tests {
    use crate::experiments::quick;

    #[test]
    fn quick_table1_shapes_are_symmetric_and_high() {
        let rep = quick("table1");
        assert_eq!(rep.rows.len(), 4);
        for row in &rep.rows {
            let v: f64 = row[1].parse().expect("numeric percent");
            assert!(v > 55.0, "{} only reached {v}%", row[0]);
            assert!(v <= 101.0);
        }
    }
}
