//! Experiment harness: regenerates every table and figure of the paper
//! with paper-value comparison columns.
//!
//! * [`runner`] — budgeted, memoizing simulation runner (coverage sampling
//!   for the very large partitions).
//! * [`experiments`] — one module per table/figure (`table1`–`table4`,
//!   `fig1`–`fig7`, plus `ablations`).
//! * [`paper`] — the paper's reported numbers, transcribed.
//! * [`experiment`] — report rendering (text/CSV/JSON).
//! * [`conformance`] — the DESIGN.md §7 validation targets as a
//!   machine-checked PASS/FAIL suite (`bglsim validate`).
//! * [`cli`] — the flag parsing and failure contract the two binaries share.
//!
//! The `repro` binary drives everything:
//!
//! ```text
//! repro list                  # show experiment ids
//! repro table3 --scale paper  # regenerate one table at paper scale
//! repro all --scale quick     # regenerate everything, scaled down
//! ```

pub mod cli;
pub mod conformance;
pub mod experiment;
pub mod experiments;
pub mod paper;
pub mod perf_report;
pub mod runner;
pub mod trace_report;

pub use conformance::{run_validation, Tier, ValidationReport};
pub use experiment::ExperimentReport;
pub use perf_report::render_perf_report;
pub use runner::{Runner, RunnerTiming, Scale};
pub use trace_report::render_run_report;

/// Run a set of experiment ids, in order, sharing one runner/cache.
/// Invalid ids are skipped with a stderr warning.
///
/// Every experiment's declared simulation points are gathered first and
/// executed as one deduplicated batch on the runner's thread pool, so
/// points shared across experiments run once and the pool stays full
/// across experiment boundaries.
pub fn run_suite(runner: &Runner, ids: &[&str]) -> Vec<ExperimentReport> {
    let points: Vec<_> = ids
        .iter()
        .filter_map(|id| experiments::points_by_id(runner, id))
        .flatten()
        .collect();
    runner.run_points(&points);
    ids.iter()
        .filter_map(|id| {
            let rep = experiments::run_by_id(runner, id);
            if rep.is_none() {
                eprintln!("warning: unknown experiment id {id:?}");
            }
            rep
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_skips_unknown_ids() {
        let r = Runner::new(Scale::Quick);
        let reps = run_suite(&r, &["fig5", "bogus"]);
        assert_eq!(reps.len(), 1);
        assert_eq!(reps[0].id, "fig5");
    }
}
