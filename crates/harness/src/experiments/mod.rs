//! One module per paper table/figure, each producing an
//! [`ExperimentReport`](crate::experiment::ExperimentReport).

pub mod ablations;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod flow_ablation;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;

use crate::experiment::ExperimentReport;
use crate::runner::{RunPoint, Runner};

/// One experiment: id, point declaration, renderer.
type Entry = (
    &'static str,
    fn(&Runner) -> Vec<RunPoint>,
    fn(&Runner) -> ExperimentReport,
);

/// The registry: every experiment in paper order. [`ALL_IDS`],
/// [`points_by_id`] and [`run_by_id`] all read this one table.
const REGISTRY: [Entry; 13] = [
    ("fig1", fig1::points, fig1::run),
    ("fig2", fig2::points, fig2::run),
    ("table1", table1::points, table1::run),
    ("table2", table2::points, table2::run),
    ("fig3", fig3::points, fig3::run),
    ("fig4", fig4::points, fig4::run),
    ("table3", table3::points, table3::run),
    ("table4", table4::points, table4::run),
    ("fig5", fig5::points, fig5::run),
    ("fig6", fig6::points, fig6::run),
    ("fig7", fig7::points, fig7::run),
    ("ablations", ablations::points, ablations::run),
    ("flow", flow_ablation::points, flow_ablation::run),
];

/// All experiment ids, in paper order.
pub const ALL_IDS: &[&str] = &{
    let mut ids = [""; REGISTRY.len()];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = REGISTRY[i].0;
        i += 1;
    }
    ids
};

fn entry(id: &str) -> Option<&'static Entry> {
    REGISTRY.iter().find(|e| e.0 == id)
}

/// The simulation points one experiment needs, by id. Feeding these to
/// [`Runner::run_points`](crate::runner::Runner::run_points) ahead of
/// `run_by_id` lets a whole suite's point set execute on the thread
/// pool at once instead of experiment by experiment.
pub fn points_by_id(runner: &Runner, id: &str) -> Option<Vec<RunPoint>> {
    entry(id).map(|e| e.1(runner))
}

/// Run one experiment by id.
pub fn run_by_id(runner: &Runner, id: &str) -> Option<ExperimentReport> {
    entry(id).map(|e| e.2(runner))
}

/// Format a percent cell.
pub(crate) fn pct(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a coverage cell.
pub(crate) fn cov(x: f64) -> String {
    if x >= 1.0 {
        "full".to_string()
    } else {
        format!("{:.3}", x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Scale;

    #[test]
    fn unknown_id_is_none() {
        let r = Runner::new(Scale::Quick);
        assert!(run_by_id(&r, "nope").is_none());
    }

    #[test]
    fn fig5_is_model_only_and_fast() {
        let r = Runner::new(Scale::Quick);
        let rep = run_by_id(&r, "fig5").unwrap();
        assert_eq!(rep.id, "fig5");
        assert!(!rep.rows.is_empty());
    }

    /// `points()` must declare everything `run()` fetches: an undeclared
    /// point still renders correctly, but it is simulated by the
    /// single-threaded render loop instead of the worker pool. Checked on
    /// the ids cheap enough for every test run.
    #[test]
    fn run_simulates_nothing_its_points_did_not_declare() {
        for id in ["fig2", "table2", "fig4", "fig5", "fig6", "fig7", "flow"] {
            let r = Runner::new(Scale::Quick);
            r.run_points(&points_by_id(&r, id).expect("known id"));
            let declared = r.cached_runs();
            run_by_id(&r, id).expect("known id");
            assert_eq!(r.cached_runs(), declared, "{id}: undeclared simulations");
        }
    }

    #[test]
    fn cell_formatting() {
        assert_eq!(pct(99.04), "99.0");
        assert_eq!(cov(1.0), "full");
        assert_eq!(cov(0.25), "0.250");
    }
}
