//! Table 4: one-byte all-to-all latency, TPS vs AR.
//!
//! On small partitions the extra store-and-forward hop makes TPS slower;
//! past ~4096 nodes network contention on even 64-byte packets makes the
//! indirect schedule *faster* — the paper's crossover.

use super::{full_aa_ms, Experiment, Line, Rows};
use crate::paper::TABLE4_LATENCY_MS;
use crate::runner::{RunResult, Runner, Scale, Unit};
use bgl_core::StrategyKind;

pub(super) const TABLE4: Experiment = Experiment {
    id: "table4",
    title: "1-byte all-to-all latency in ms, TPS vs AR (paper Table 4)",
    columns: &[
        "Partition",
        "TPS ms (sim)",
        "AR ms (sim)",
        "TPS ms (paper)",
        "AR ms (paper)",
        "TPS/AR (sim)",
    ],
    notes: &[
        "1-byte payload rides the 64-byte minimum packet; sampled runs extrapolated by 1/coverage",
    ],
    rows,
};

fn rows(runner: &Runner) -> Rows {
    let row = |shape: &'static str| {
        let points = [StrategyKind::tps(), StrategyKind::ar()].map(|s| runner.point(shape, &s, 1));
        Unit::new(points, move |[tps, ar]| {
            let run_ms = |r: &RunResult| r.as_ref().map(full_aa_ms).map_err(|e| e.to_string());
            let (tps, ar) = (run_ms(tps), run_ms(ar));
            let ratio = match (&tps, &ar) {
                (Ok(t), Ok(a)) => format!("{:.2}", t / a),
                _ => "-".into(),
            };
            let ms = |r: Result<f64, String>| r.map_or_else(|e| e, |v| format!("{v:.2}"));
            let in_paper = TABLE4_LATENCY_MS.iter().find(|(s, _, _)| *s == shape);
            Line::Row(vec![
                shape.to_string(),
                ms(tps),
                ms(ar),
                in_paper.map_or("-".into(), |(_, t, _)| t.to_string()),
                in_paper.map_or("-".into(), |(_, _, a)| a.to_string()),
                ratio,
            ])
        })
    };
    match runner.scale {
        Scale::Quick => ["8x8x8", "8x8x16"].map(row).into(),
        Scale::Paper => TABLE4_LATENCY_MS
            .iter()
            .map(|(s, _, _)| *s)
            .map(row)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use crate::experiments::quick;

    #[test]
    fn quick_table4_tps_slower_on_midplane() {
        let rep = quick("table4");
        // On 8x8x8, TPS pays the forwarding hop: TPS/AR > 1.
        let ratio: f64 = rep.rows[0][5].parse().expect("ratio");
        assert!(ratio > 1.0, "TPS/AR = {ratio}");
    }
}
