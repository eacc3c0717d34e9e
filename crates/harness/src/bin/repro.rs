//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro list
//! repro <id>... [--scale quick|paper] [--jobs N] [--json] [--out DIR]
//!               [--perf] [--progress]
//! repro all     [--scale quick|paper] [--jobs N] [--json] [--out DIR]
//!               [--perf] [--progress]
//! ```
//!
//! All experiments' simulation points are executed as one deduplicated
//! batch across `--jobs` worker threads (default: all cores); results
//! are identical for any thread count. `--json` replaces the text
//! tables on stdout with a machine-readable JSON array. With `--out`,
//! each report is written as `<id>.txt` and `<id>.csv` plus a combined
//! `results.json`. `--perf` collects host-side profiles (results stay byte-identical) and prints a
//! runner timing summary to stderr; `--progress` adds a rate-limited
//! stderr heartbeat to each run.
//!
//! An unknown experiment id, or no id at all, is an error: one line
//! listing the ids, exit status 2.

use bgl_harness::cli::Cli;
use bgl_harness::{experiments, run_suite, Runner, Scale};
use std::path::PathBuf;

const CLI: Cli = Cli("repro");

fn fail(msg: &str) -> ! {
    CLI.fail(msg)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "help" {
        eprintln!(
            "usage: repro <id>...|all|list [--scale quick|paper] [--jobs N] [--json] \
             [--out DIR] [--perf] [--progress]"
        );
        eprintln!("ids: {}", experiments::ALL_IDS.join(", "));
        std::process::exit(2);
    }
    let (flags, positionals) = CLI.parse_flags(
        &args,
        &["scale", "jobs", "out"],
        &["json", "perf", "progress"],
    );
    if positionals.iter().any(|p| p == "list") {
        for id in experiments::ALL_IDS {
            println!("{id}");
        }
        return;
    }
    let known = format!("ids: all, {}", experiments::ALL_IDS.join(", "));
    let mut ids: Vec<&str> = Vec::new();
    for p in &positionals {
        match p.as_str() {
            "all" => ids.extend(experiments::ALL_IDS.iter().copied()),
            id if experiments::ALL_IDS.contains(&id) => ids.push(id),
            id => fail(&format!("unknown experiment id {id:?} ({known})")),
        }
    }
    if ids.is_empty() {
        fail(&format!("no experiment id given ({known})"));
    }
    let scale = match flags.get("scale").map(String::as_str) {
        None | Some("paper") => Scale::Paper,
        Some("quick") => Scale::Quick,
        Some(other) => fail(&format!("unknown scale {other:?} (quick|paper)")),
    };
    let mut runner = Runner::new(scale)
        .with_perf(flags.contains_key("perf"))
        .with_progress(flags.contains_key("progress"));
    if let Some(n) = flags.get("jobs") {
        runner = runner.with_jobs(CLI.jobs(n));
    }
    // Every output is opened before anything runs: an unwritable `--out`
    // fails now, not after the suite.
    let out = flags.get("out").map(PathBuf::from).map(|dir| {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            fail(&format!("cannot create output dir {}: {e}", dir.display()));
        }
        let open = |name: String| {
            let path = dir.join(name);
            CLI.open_output(&path, format!("cannot write {}", path.display()))
        };
        let files: Vec<_> = ids
            .iter()
            .map(|id| (open(format!("{id}.txt")), open(format!("{id}.csv"))))
            .collect();
        let json = open("results.json".to_string());
        (files, json, dir)
    });
    let t0 = std::time::Instant::now();
    let reports = run_suite(&runner, &ids);
    CLI.perf_summary(&runner);
    eprintln!(
        "[{} experiments, {} simulation runs, {} jobs, {:.1?}]",
        reports.len(),
        runner.cached_runs(),
        runner.jobs(),
        t0.elapsed()
    );
    if flags.contains_key("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&reports).expect("serialize")
        );
    } else {
        for rep in &reports {
            println!("{}\n", rep.to_text());
        }
    }
    if let Some((files, json, dir)) = out {
        for (rep, (txt, csv)) in reports.iter().zip(files) {
            CLI.write(txt, &rep.to_text());
            CLI.write(csv, &rep.to_csv());
        }
        CLI.write(
            json,
            &serde_json::to_string_pretty(&reports).expect("serialize"),
        );
        eprintln!("wrote {} reports to {}", reports.len(), dir.display());
    }
}
