//! Table 3: Two Phase Schedule percent of peak and chosen phase-1
//! dimension on partitions from 512 to 20,480 nodes.

use super::{cov, pct, Experiment, Line, Rows};
use crate::paper::TABLE3_TPS;
use crate::runner::{Runner, Scale, Unit};
use bgl_core::{choose_linear_dim, StrategyKind};
use bgl_torus::Partition;

pub(super) const TABLE3: Experiment = Experiment {
    id: "table3",
    title: "Two Phase Schedule % of peak and phase-1 dimension (paper Table 3)",
    columns: &[
        "Nodes",
        "Partition",
        "TPS % (sim)",
        "TPS % (paper)",
        "Phase1 (sim)",
        "Phase1 (paper)",
        "coverage",
    ],
    notes: &["phase-1 dimension chosen automatically: symmetric-plane preference, else the longest dimension"],
    rows,
};

fn rows(runner: &Runner) -> Rows {
    let row = |shape: &'static str| {
        let part: Partition = shape.parse().unwrap();
        let m = runner.large_m_for(&part);
        Unit::new([runner.point(shape, &StrategyKind::tps(), m)], move |[r]| {
            let (percent, coverage) = match r {
                Ok(r) => (pct(r.percent_of_peak), cov(r.workload.coverage)),
                Err(e) => (format!("ERROR: {e}"), "-".into()),
            };
            let in_paper = TABLE3_TPS.iter().find(|(s, _, _)| *s == shape);
            Line::Row(vec![
                part.num_nodes().to_string(),
                shape.to_string(),
                percent,
                in_paper.map_or("-".into(), |(_, v, _)| pct(*v)),
                choose_linear_dim(&part).to_string(),
                in_paper.map_or("-".into(), |(_, _, d)| d.to_string()),
                coverage,
            ])
        })
    };
    match runner.scale {
        Scale::Quick => ["8x4x4", "4x8x4", "8x8x8", "8x8x4M"].map(row).into(),
        Scale::Paper => TABLE3_TPS.iter().map(|(s, _, _)| *s).map(row).collect(),
    }
}

#[cfg(test)]
mod tests {
    use crate::experiments::quick;

    #[test]
    fn quick_table3_runs() {
        let rep = quick("table3");
        assert_eq!(rep.rows.len(), 4);
        for row in &rep.rows {
            let v: f64 = row[2].parse().expect("numeric percent");
            assert!(v > 30.0 && v <= 101.0, "{}: {v}", row[1]);
        }
        // 8x4x4 must pick X (symmetric-plane rule).
        let first = &rep.rows[0];
        assert_eq!(first[4], "X");
    }
}
