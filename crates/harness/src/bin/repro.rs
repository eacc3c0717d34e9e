//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro list
//! repro <id>... [--scale quick|paper] [--jobs N] [--shards N] [--json] [--out DIR]
//!               [--engine full-scan|active-set|event] [--perf] [--progress]
//! repro all     [--scale quick|paper] [--jobs N] [--shards N] [--json] [--out DIR]
//!               [--engine full-scan|active-set|event] [--perf] [--progress]
//! ```
//!
//! All experiments' simulation points are executed as one deduplicated
//! batch across `--jobs` worker threads (default: all cores); results
//! are identical for any thread count. `--json` replaces the text
//! tables on stdout with a machine-readable JSON array. With `--out`,
//! each report is written as `<id>.txt` and `<id>.csv` plus a combined
//! `results.json`. `--engine` picks the simulator clock
//! ([`EngineMode`](bgl_sim::EngineMode); default: `event`); every mode
//! produces identical results, so the flag only changes wall-clock. `--shards` splits each
//! individual simulation across N threads (orthogonal to `--jobs`, which
//! parallelizes *across* simulations); results are byte-identical for
//! any shard count. `--perf` collects host-side profiles (results stay
//! byte-identical) and prints a runner timing summary to stderr;
//! `--progress` adds a rate-limited stderr heartbeat to each run.

use bgl_harness::cli::Cli;
use bgl_harness::{experiments, run_suite, Runner, Scale};
use bgl_sim::EngineMode;
use std::path::PathBuf;

const CLI: Cli = Cli("repro");

fn fail(msg: &str) -> ! {
    CLI.fail(msg)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "help" {
        eprintln!(
            "usage: repro <id>...|all|list [--scale quick|paper] [--jobs N] [--shards N] [--json] \
             [--out DIR] [--engine full-scan|active-set|event (default: event)] [--perf] \
             [--progress]"
        );
        eprintln!("ids: {}", experiments::ALL_IDS.join(", "));
        std::process::exit(2);
    }
    let mut ids: Vec<String> = Vec::new();
    let mut scale = Scale::Paper;
    let mut jobs: Option<usize> = None;
    let mut json = false;
    let mut out: Option<PathBuf> = None;
    let mut engine = EngineMode::default();
    let mut shards = std::num::NonZeroUsize::MIN;
    let mut perf = false;
    let mut progress = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--engine" => engine = CLI.engine(&it.next().unwrap_or_default()),
            "--shards" => shards = CLI.shards(&it.next().unwrap_or_default()),
            "--scale" => {
                let v = it.next().unwrap_or_default();
                scale = match v.as_str() {
                    "quick" => Scale::Quick,
                    "paper" => Scale::Paper,
                    other => fail(&format!("unknown scale {other:?} (quick|paper)")),
                };
            }
            "--jobs" => jobs = Some(CLI.jobs(&it.next().unwrap_or_default())),
            "--json" => json = true,
            "--perf" => perf = true,
            "--progress" => progress = true,
            "--out" => match it.next() {
                Some(dir) if !dir.is_empty() && !dir.starts_with("--") => {
                    out = Some(PathBuf::from(dir));
                }
                _ => fail("--out needs a directory"),
            },
            "list" => {
                for id in experiments::ALL_IDS {
                    println!("{id}");
                }
                return;
            }
            "all" => ids.extend(experiments::ALL_IDS.iter().map(|s| s.to_string())),
            other if other.starts_with("--") => fail(&format!("unknown flag {other}")),
            other => ids.push(other.to_string()),
        }
    }
    let mut runner = Runner::new(scale)
        .with_engine(engine)
        .with_shards(shards)
        .with_perf(perf)
        .with_progress(progress);
    if let Some(n) = jobs {
        runner = runner.with_jobs(n);
    }
    let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    let t0 = std::time::Instant::now();
    let reports = run_suite(&runner, &id_refs);
    CLI.perf_summary(&runner);
    eprintln!(
        "[{} experiments, {} simulation runs, {} jobs, {:.1?}]",
        reports.len(),
        runner.cached_runs(),
        runner.jobs(),
        t0.elapsed()
    );
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&reports).expect("serialize")
        );
    } else {
        for rep in &reports {
            println!("{}\n", rep.to_text());
        }
    }
    if let Some(dir) = out {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            fail(&format!("cannot create output dir {}: {e}", dir.display()));
        }
        let write = |name: String, body: String| {
            let path = dir.join(name);
            if let Err(e) = std::fs::write(&path, body) {
                fail(&format!("cannot write {}: {e}", path.display()));
            }
        };
        for rep in &reports {
            write(format!("{}.txt", rep.id), rep.to_text());
            write(format!("{}.csv", rep.id), rep.to_csv());
        }
        let json = serde_json::to_string_pretty(&reports).expect("serialize");
        write("results.json".to_string(), json);
        eprintln!("wrote {} reports to {}", reports.len(), dir.display());
    }
}
