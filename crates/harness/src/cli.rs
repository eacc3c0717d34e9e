//! What the `bglsim` and `repro` binaries share: the one-line exit-2
//! failure contract, the runner flags both accept (`--engine`, `--shards`,
//! `--jobs`) and the `--perf` summary line. One copy, so a message cannot
//! differ between the two.

use crate::Runner;
use bgl_sim::EngineMode;
use std::num::NonZeroUsize;

/// A binary's command line, named for the `<bin>: <message>` prefix.
pub struct Cli(pub &'static str);

impl Cli {
    /// Print a one-line error and exit with the conventional usage status.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}", self.0);
        std::process::exit(2);
    }

    /// `--engine full-scan|active-set|event` (default: event).
    pub fn engine(&self, v: &str) -> EngineMode {
        v.parse().unwrap_or_else(|e: String| self.fail(&e))
    }

    /// `--shards N`: a positive shard count.
    pub fn shards(&self, v: &str) -> NonZeroUsize {
        v.parse()
            .unwrap_or_else(|_| self.fail(&format!("--shards needs a positive integer, got {v:?}")))
    }

    /// `--jobs N`: a positive worker-thread count.
    pub fn jobs(&self, v: &str) -> usize {
        v.parse::<NonZeroUsize>()
            .unwrap_or_else(|_| self.fail(&format!("--jobs needs a positive integer, got {v:?}")))
            .get()
    }

    /// With `--perf`, one stderr line of runner-level host timing: points
    /// executed vs served from cache, execute seconds, and queue wait
    /// (summed across workers, so it can exceed wall-clock under `--jobs`).
    pub fn perf_summary(&self, runner: &Runner) {
        if !runner.perf_enabled() {
            return;
        }
        let t = runner.timing();
        eprintln!(
            "{}: perf: {} point(s) executed in {:.3}s host time \
             (queue wait {:.3}s), {} cache hit(s)",
            self.0, t.points_executed, t.execute_secs, t.queue_wait_secs, t.cache_hits,
        );
    }
}
