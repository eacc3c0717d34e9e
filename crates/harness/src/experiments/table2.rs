//! Table 2: AR percent of peak on asymmetric meshes and tori for large
//! messages.

use super::table1::{ar_percent_rows, COLUMNS};
use super::Experiment;
use crate::paper::TABLE2_AR_ASYMMETRIC;

pub(super) const TABLE2: Experiment = Experiment {
    id: "table2",
    title: "AR % of peak, asymmetric meshes and tori, large messages (paper Table 2)",
    columns: COLUMNS,
    notes: &["asymmetric partitions degrade AR: packets burn short-dimension hops and queue for the long dimension"],
    rows: |runner| {
        ar_percent_rows(runner, &["8x2M", "8x16", "8x8x2M", "8x4x4"], TABLE2_AR_ASYMMETRIC)
    },
};

#[cfg(test)]
mod tests {
    use crate::experiments::quick;

    #[test]
    fn quick_table2_runs_and_shows_degradation_vs_symmetric() {
        let rep = quick("table2");
        assert_eq!(rep.rows.len(), 4);
        for row in &rep.rows {
            let v: f64 = row[1].parse().expect("numeric percent");
            assert!(v > 30.0 && v <= 101.0, "{}: {v}", row[0]);
        }
    }
}
