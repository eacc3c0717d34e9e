//! Figure 6: measured VMesh vs AR on 512 nodes across short message
//! sizes — combining wins below the 32–64-byte crossover.

use super::{full_aa_ms, Experiment, Line, Rows};
use crate::runner::{RunResult, Runner, Scale, Unit};
use bgl_core::StrategyKind;

pub(super) const FIG6: Experiment = Experiment {
    id: "fig6",
    title: "Short-message AA: VMesh vs AR measured (paper Figure 6)",
    columns: &["m (B)", "VMesh ms", "AR ms", "AR/VMesh", "winner"],
    notes: &["paper: VMesh ≈ 2× AR for very short messages; crossover between 32 and 64 B"],
    rows,
};

fn rows(runner: &Runner) -> Rows {
    // The partition (shrunk for quick scale) and the message sizes swept.
    let (shape, sizes): (_, &[u64]) = match runner.scale {
        Scale::Quick => ("4x4x4", &[8, 32, 256]),
        Scale::Paper => ("8x8x8", &[1, 8, 16, 32, 64, 128, 256, 512, 1024]),
    };
    let row = |&m: &u64| {
        let points =
            [StrategyKind::vmesh(), StrategyKind::ar()].map(|s| runner.point(shape, &s, m));
        Unit::new(points, move |results| {
            let cells = match results {
                [Ok(v), Ok(a)] => {
                    let (tv, ta) = (full_aa_ms(v), full_aa_ms(a));
                    [
                        format!("{tv:.4}"),
                        format!("{ta:.4}"),
                        format!("{:.2}", ta / tv),
                        if tv < ta { "vmesh" } else { "direct" }.to_string(),
                    ]
                }
                [v, a] => {
                    let raw_ms = |r: &RunResult| match r {
                        Ok(r) => format!("{:.4}", r.time_secs * 1e3),
                        Err(e) => e.to_string(),
                    };
                    [raw_ms(v), raw_ms(a), "-".into(), "-".into()]
                }
            };
            Line::Row([m.to_string()].into_iter().chain(cells).collect())
        })
    };
    sizes.iter().map(row).collect()
}

#[cfg(test)]
mod tests {
    use crate::experiments::quick;

    #[test]
    fn quick_fig6_vmesh_wins_small_loses_large() {
        let rep = quick("fig6");
        assert_eq!(rep.rows[0][4], "vmesh", "8 B: {:?}", rep.rows[0]);
        assert_eq!(
            rep.rows.last().unwrap()[4],
            "direct",
            "256 B: {:?}",
            rep.rows.last()
        );
    }
}
