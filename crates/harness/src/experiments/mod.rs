//! The paper's tables and figures (plus two ablation sweeps), each a
//! [`REGISTRY`] entry: the static frame of its report and one `rows`
//! function that declares every row as a [`Unit`] — the runs the row
//! reads next to the closure that renders it. There is no second list of
//! points to keep in step: [`points_by_id`] and [`run_by_id`] both read
//! the units.

mod ablations;
mod fig1;
mod fig2;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod flow_ablation;
mod table1;
mod table2;
mod table3;
mod table4;

use crate::experiment::ExperimentReport;
use crate::runner::{RunPoint, Runner, Unit};
use bgl_core::AaReport;

/// What one unit of an experiment renders.
enum Line {
    /// A table row, one cell per column.
    Row(Vec<String>),
    /// A note whose text is computed or depends on the scale; appended
    /// after the entry's static notes.
    Note(String),
    /// The title, where it names the scale's partition (Figures 1 and 2)
    /// and so cannot be the entry's static one.
    Title(String),
}

/// An experiment's declared output, in row order.
type Rows = Vec<Unit<Line>>;

/// One experiment: the frame of its report and the rows that fill it.
struct Experiment {
    id: &'static str,
    title: &'static str,
    columns: &'static [&'static str],
    notes: &'static [&'static str],
    rows: fn(&Runner) -> Rows,
}

/// The registry: every experiment in paper order. [`ALL_IDS`],
/// [`points_by_id`] and [`run_by_id`] all read this one table.
const REGISTRY: [Experiment; 13] = [
    fig1::FIG1,
    fig2::FIG2,
    table1::TABLE1,
    table2::TABLE2,
    fig3::FIG3,
    fig4::FIG4,
    table3::TABLE3,
    table4::TABLE4,
    fig5::FIG5,
    fig6::FIG6,
    fig7::FIG7,
    ablations::ABLATIONS,
    flow_ablation::FLOW,
];

/// All experiment ids, in paper order.
pub const ALL_IDS: &[&str] = &{
    let mut ids = [""; REGISTRY.len()];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = REGISTRY[i].id;
        i += 1;
    }
    ids
};

fn entry(id: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.id == id)
}

/// The simulation points one experiment reads, by id. Feeding these to
/// [`Runner::run_points`](crate::runner::Runner::run_points) ahead of
/// `run_by_id` lets a whole suite's point set execute on the thread
/// pool at once instead of experiment by experiment.
pub fn points_by_id(runner: &Runner, id: &str) -> Option<Vec<RunPoint>> {
    let rows = (entry(id)?.rows)(runner);
    Some(rows.into_iter().flat_map(|unit| unit.points).collect())
}

/// Run one experiment by id.
pub fn run_by_id(runner: &Runner, id: &str) -> Option<ExperimentReport> {
    let e = entry(id)?;
    let mut rep = ExperimentReport::new(e.id, e.title, e.columns);
    rep.notes.extend(e.notes.iter().map(|n| n.to_string()));
    for line in runner.render((e.rows)(runner)) {
        match line {
            Line::Row(cells) => rep.push_row(cells),
            Line::Note(note) => rep.note(note),
            Line::Title(title) => rep.title = title,
        }
    }
    Some(rep)
}

/// A run's all-to-all time in ms; a coverage-sampled run is extrapolated
/// to the full exchange linearly in the traffic volume (the regime is
/// bandwidth-dominated even at 64-byte packets — Section 4.1).
fn full_aa_ms(r: &AaReport) -> f64 {
    r.time_secs * 1e3 / r.workload.coverage
}

/// The quick-scale report the experiments' tests assert on.
#[cfg(test)]
fn quick(id: &str) -> ExperimentReport {
    run_by_id(&Runner::new(crate::runner::Scale::Quick), id).expect("a registered id")
}

/// Format a percent cell.
fn pct(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a coverage cell.
fn cov(x: f64) -> String {
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
    use bgl_core::StrategyKind;
    use bgl_sim::SimError;

    #[test]
    fn unknown_id_is_none() {
        let r = Runner::new(Scale::Quick);
        assert!(run_by_id(&r, "nope").is_none());
    }

    #[test]
    fn fig5_is_model_only_and_fast() {
        let r = Runner::new(Scale::Quick);
        assert!(points_by_id(&r, "fig5").unwrap().is_empty());
        let rep = run_by_id(&r, "fig5").unwrap();
        assert_eq!(rep.id, "fig5");
        assert!(!rep.rows.is_empty());
        assert_eq!(r.cached_runs(), 0);
    }

    /// A failed run lands in its row's error cell, not in a panic:
    /// table4's TPS cell here, with the AR cell beside it still rendered.
    #[test]
    fn an_err_point_reaches_the_error_cell() {
        let r = Runner::new(Scale::Quick);
        let row = (entry("table4").unwrap().rows)(&r).swap_remove(0);
        assert_eq!(row.points[0].key.strategy, StrategyKind::tps());
        let results = [
            Err(SimError::CycleLimit { limit: 7 }),
            r.report(&row.points[1]),
        ];
        let Line::Row(cells) = row.render(&results) else {
            panic!("table4 renders rows");
        };
        assert_eq!(cells[1], "cycle limit 7 exceeded");
        assert!(cells[2].parse::<f64>().is_ok(), "{cells:?}");
        assert_eq!(cells[5], "-");
    }

    #[test]
    fn cell_formatting() {
        assert_eq!(pct(99.04), "99.0");
        assert_eq!(cov(1.0), "full");
        assert_eq!(cov(0.25), "0.250");
    }
}
