//! Figure 1: AR measured time vs the Equation-3 model and the Equation-2
//! peak on the 8×8×8 midplane, across message sizes.

use super::{cov, full_aa_ms, pct, Experiment, Line, Rows};
use crate::runner::{Runner, Scale, Unit};
use bgl_core::StrategyKind;
use bgl_model::{direct, peak};
use bgl_torus::Partition;

/// Message sizes per scale.
fn sizes(scale: Scale) -> &'static [u64] {
    match scale {
        Scale::Quick => &[64, 240, 912],
        Scale::Paper => &[16, 64, 192, 432, 912, 1872, 3792, 7632],
    }
}

/// The frame Figures 1 and 2 share; [`ar_vs_model`]'s first unit
/// completes the title with the partition.
pub(super) const TITLE: &str = "AR measured vs Equation-3 model vs Equation-2 peak";
pub(super) const COLUMNS: &[&str] = &[
    "m (B)",
    "AA time sim (ms)",
    "model (ms)",
    "peak (ms)",
    "% of peak",
    "coverage",
];
pub(super) const NOTE: &str =
    "measured times extrapolated by 1/coverage when sampled; model is Equation 3 (P·α + P·C·(m+h)·β)";

pub(super) const FIG1: Experiment = Experiment {
    id: "fig1",
    title: TITLE,
    columns: COLUMNS,
    notes: &[NOTE],
    rows: |runner| ar_vs_model("8x8x8", sizes(runner.scale), runner),
};

/// Shared rows of Figures 1 and 2: the title naming `shape`, then one
/// row per message size.
pub(super) fn ar_vs_model(shape: &'static str, sizes: &[u64], runner: &Runner) -> Rows {
    let part: Partition = shape.parse().unwrap();
    let title = Unit::new([], move |[]| Line::Title(format!("{TITLE} on {shape}")));
    let rows = sizes.iter().map(|&m| {
        let params = runner.params.clone();
        Unit::new([runner.point(shape, &StrategyKind::ar(), m)], move |[r]| {
            let t_model = direct::aa_direct_time_secs(&part, m, &params) * 1e3;
            let t_peak = peak::aa_peak_time_secs(&part, m, &params) * 1e3;
            let (t_meas, percent, coverage) = match r {
                Ok(r) => (
                    format!("{:.3}", full_aa_ms(r)),
                    pct(r.percent_of_peak),
                    cov(r.workload.coverage),
                ),
                Err(e) => (format!("ERROR: {e}"), "-".into(), "-".into()),
            };
            Line::Row(vec![
                m.to_string(),
                t_meas,
                format!("{t_model:.3}"),
                format!("{t_peak:.3}"),
                percent,
                coverage,
            ])
        })
    });
    std::iter::once(title).chain(rows).collect()
}

#[cfg(test)]
mod tests {
    use crate::experiments::quick;

    #[test]
    fn quick_fig1_measured_tracks_model() {
        let rep = quick("fig1");
        for row in &rep.rows {
            let meas: f64 = row[1].parse().unwrap();
            let model: f64 = row[2].parse().unwrap();
            let peak: f64 = row[3].parse().unwrap();
            assert!(meas >= peak * 0.95, "measured below peak: {row:?}");
            // Model and measurement agree within a factor ~2 everywhere.
            assert!(meas / model < 2.0 && model / meas < 2.0, "{row:?}");
        }
    }
}
