//! Figure 2: AR measured vs model vs peak on a 16×16×16 (4096-node)
//! partition.

use super::fig1::{ar_vs_model, COLUMNS, NOTE, TITLE};
use super::{Experiment, Line};
use crate::runner::{Scale, Unit};

pub(super) const FIG2: Experiment = Experiment {
    id: "fig2",
    title: TITLE,
    columns: COLUMNS,
    notes: &[NOTE],
    rows: |runner| match runner.scale {
        Scale::Quick => {
            let mut rows = ar_vs_model("8x8x4", &[240, 912], runner);
            rows.push(Unit::new([], |[]| {
                Line::Note("quick scale substitutes 8x8x4 for the paper's 16x16x16".into())
            }));
            rows
        }
        Scale::Paper => ar_vs_model("16x16x16", &[64, 240, 912, 1872, 3792], runner),
    },
};

#[cfg(test)]
mod tests {
    use crate::experiments::quick;

    #[test]
    fn quick_fig2_runs() {
        let rep = quick("fig2");
        assert_eq!(rep.rows.len(), 2);
        assert_eq!(rep.id, "fig2");
    }
}
