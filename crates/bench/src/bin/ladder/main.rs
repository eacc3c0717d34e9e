//! `ladder` — the repository's benchmark. See `README.md` beside this
//! file for the workloads, the metrics and how to read a report.
//!
//! ```text
//! ladder [--seed N] [--out FILE] [--trace-out FILE] [--smoke]
//!     a full set: measured pass, traced pass, every metric by name
//! ladder --workload NAME --seed N --seconds S --trace 0|1
//!     one workload for about S seconds; one JSON result line
//! ladder compare A.json B.json
//!     apply each end-to-end metric's bound to two `--out` files
//! ```
//!
//! Every repetition runs in a child process (`ladder --child …`, a
//! re-exec of this binary), so `peak_rss_mb` and `cpu_s` belong to one
//! repetition and every repetition starts equally cold.

mod probes;
mod report;
mod spans;
mod workloads;

use report::{
    ChildReport, Host, Metric, ResultFile, Row, Scope, WorkloadResult, END_TO_END, FAILED_FRAC,
    PER_LAYER, SCHEMA,
};
use spans::Span;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Pass, Size, Workload, MODE_PROBES, WORKLOADS};

const DEFAULT_SEED: u64 = 0xaa11;
const PROBES: &str = "probes";

fn usage(msg: &str) -> ExitCode {
    eprintln!("ladder: {msg}");
    eprintln!(
        "usage: ladder [--seed N] [--out FILE] [--trace-out FILE] [--smoke]\n       \
         ladder --workload NAME --seed N --seconds S --trace 0|1\n       \
         ladder compare A.json B.json"
    );
    ExitCode::from(2)
}

/// Runs one repetition: in a child process, or (tests) in this one.
struct Launcher {
    exe: Option<PathBuf>,
}

impl Launcher {
    fn run(&self, what: &str, pass: Pass, seed: u64, size: Size) -> Result<ChildReport, String> {
        let Some(exe) = &self.exe else {
            return child(what, pass, seed, size);
        };
        let mut cmd = Command::new(exe);
        cmd.args(["--child", what, "--seed", &seed.to_string()]);
        match pass {
            Pass::Measured => {}
            Pass::Traced => {
                cmd.arg("--traced");
            }
            Pass::Mode(metric) => {
                cmd.args(["--mode", metric]);
            }
        }
        if size == Size::Smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        if !out.status.success() {
            return Err(format!("child {what} ended with {}", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        serde_json::from_str(last).map_err(|e| format!("child {what} printed no report: {e}"))
    }
}

/// What a child process does.
fn child(what: &str, pass: Pass, seed: u64, size: Size) -> Result<ChildReport, String> {
    if what == PROBES {
        return Ok(probes::run(seed));
    }
    let w = workloads::workload(what).ok_or_else(|| format!("unknown workload {what:?}"))?;
    Ok(workloads::run_child(w, pass, seed, size))
}

/// The children of one workload, gathered by the parent.
#[derive(Default)]
struct Collected {
    measured: Vec<ChildReport>,
    traced: Vec<ChildReport>,
    /// Mode probes and the micro-probes: rows only, no repetitions.
    extra: Vec<ChildReport>,
    /// Children that could not be started or printed no report.
    lost: Vec<String>,
}

enum Kind {
    Measured,
    Traced,
    Extra,
}

impl Collected {
    /// File a child's report under its kind, or its loss.
    fn add(&mut self, kind: Kind, r: Result<ChildReport, String>) {
        match r {
            Ok(report) => match kind {
                Kind::Measured => self.measured.push(report),
                Kind::Traced => self.traced.push(report),
                Kind::Extra => self.extra.push(report),
            },
            Err(e) => self.lost.push(e),
        }
    }

    /// A row per metric over the repetitions, the checks that span
    /// repetitions (every one reproduces the same outputs), and the
    /// failure count.
    fn into_result(self, name: &str) -> WorkloadResult {
        let mut failures = self.lost.clone();
        let all = || self.measured.iter().chain(&self.traced).chain(&self.extra);
        let mut attempted = self.lost.len() as u64;
        let mut failed = self.lost.len() as u64;
        let reference = all().map(|r| &r.fingerprint).find(|f| !f.is_empty());
        for r in all() {
            attempted += r.attempted;
            failed += r.failed;
            failures.extend(r.failures.iter().cloned());
            if !r.fingerprint.is_empty() && Some(&r.fingerprint) != reference {
                failed += 1;
                failures.push("a repetition produced different outputs".to_string());
            }
        }
        let failed = failed.min(attempted);

        let measured: Vec<&ChildReport> = self.measured.iter().collect();
        let mut end_to_end = Row::collect(END_TO_END.iter().map(|e| (e.name, e.unit)), &measured);
        let frac = failed as f64 / attempted.max(1) as f64;
        end_to_end.push(Row {
            n: attempted,
            ..Row::new(FAILED_FRAC, "ratio", &[frac])
        });

        // Tracing overhead: how much longer the timed section of the
        // fastest traced repetition ran than that of the fastest measured.
        let fastest = |reports: &[ChildReport]| {
            let timed = reports.iter().filter_map(|r| r.get("timed_s"));
            timed.min_by(f64::total_cmp)
        };
        let overhead = ChildReport {
            metrics: fastest(&self.measured)
                .zip(fastest(&self.traced))
                .map(|(base, t)| Metric::new("sim.perf_overhead_frac", (t - base) / base))
                .into_iter()
                .collect(),
            ..ChildReport::default()
        };
        let mut layers: Vec<&ChildReport> = self.traced.iter().chain(&self.extra).collect();
        layers.push(&overhead);
        let per_layer = Row::collect(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)), &layers);
        WorkloadResult {
            name: name.to_string(),
            attempted,
            failed,
            failures,
            end_to_end,
            per_layer,
        }
    }
}

/// When a pass over one workload stops repeating.
#[derive(Debug, Clone, Copy)]
enum Stop {
    Reps(u32),
    /// Repeat until this many seconds have gone by, once at least.
    Seconds(f64),
}

impl Stop {
    /// Call `rep` until the rule is met.
    fn repeat(self, mut rep: impl FnMut()) {
        let start = Instant::now();
        let mut n = 0;
        while match self {
            Stop::Reps(reps) => n < reps,
            Stop::Seconds(s) => n == 0 || start.elapsed().as_secs_f64() < s,
        } {
            n += 1;
            rep();
        }
    }
}

/// Every child of one workload: a discarded warm-up, the measured pass,
/// the traced pass and, when anything is traced, the workload's mode
/// probes. A full set and `--workload` differ only in the stop rules.
fn run_workload(
    launcher: &Launcher,
    w: &Workload,
    seed: u64,
    size: Size,
    measured: Stop,
    traced: Stop,
) -> Collected {
    let mut c = Collected::default();
    // Warm-up at toy size: pages the binary in and wakes the CPU without
    // spending a repetition's time.
    let _ = launcher.run(w.name, Pass::Measured, seed, Size::Smoke);
    measured.repeat(|| {
        c.add(
            Kind::Measured,
            launcher.run(w.name, Pass::Measured, seed, size),
        )
    });
    traced.repeat(|| c.add(Kind::Traced, launcher.run(w.name, Pass::Traced, seed, size)));
    if !c.traced.is_empty() {
        for (_, metric) in MODE_PROBES.iter().filter(|(name, _)| *name == w.name) {
            c.add(
                Kind::Extra,
                launcher.run(w.name, Pass::Mode(metric), seed, size),
            );
        }
    }
    c
}

/// The driver's contract: one workload for about `seconds`, one JSON line
/// with the end-to-end metrics (`trace` off) or the per-layer rows every
/// workload has (`trace` on; the rows only some workloads have are in a
/// full set's report, and their children still count as operations here).
fn drive(launcher: &Launcher, w: &Workload, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let (measured, traced) = if trace {
        // The measured repetitions are the base of `sim.perf_overhead_frac`.
        (Stop::Seconds(0.25 * seconds), Stop::Seconds(0.75 * seconds))
    } else {
        (Stop::Seconds(seconds), Stop::Reps(0))
    };
    let mut c = run_workload(launcher, w, seed, Size::Full, measured, traced);
    if trace {
        c.add(
            Kind::Extra,
            launcher.run(PROBES, Pass::Measured, seed, Size::Full),
        );
    }
    let result = c.into_result(w.name);
    for f in &result.failures {
        eprintln!("ladder: {}: FAILED: {f}", w.name);
    }
    let (wanted, have): (Vec<&str>, Vec<Row>) = if trace {
        let every = PER_LAYER
            .iter()
            .filter(|(_, _, scope)| *scope == Scope::Every);
        (every.map(|(name, _, _)| *name).collect(), result.per_layer)
    } else {
        (
            END_TO_END.iter().map(|e| e.name).collect(),
            result.end_to_end,
        )
    };
    let rows: Vec<Row> = have
        .into_iter()
        .filter(|r| wanted.contains(&r.name.as_str()))
        .collect();
    if rows.len() != wanted.len() {
        eprintln!("ladder: {}: no result, a metric is missing", w.name);
        return ExitCode::FAILURE;
    }
    println!(
        "{}",
        report::driver_line(result.attempted, result.failed, &rows)
    );
    ExitCode::SUCCESS
}

/// A full set: every workload's measured repetitions, one traced replay
/// and mode probes, then the micro-probes.
fn full_set(launcher: &Launcher, host: Host, size: Size) -> (ResultFile, Vec<Span>) {
    let seed = host.seed;
    let collected: Vec<Collected> = WORKLOADS
        .iter()
        .map(|w| {
            eprintln!(
                "ladder: {}: {} measured repetitions, then traced",
                w.name, w.reps
            );
            let (measured, traced) = (Stop::Reps(w.reps), Stop::Reps(1));
            run_workload(launcher, w, seed, size, measured, traced)
        })
        .collect();
    let mut probes = Collected::default();
    probes.add(
        Kind::Extra,
        launcher.run(PROBES, Pass::Measured, seed, size),
    );

    // A child numbers its spans from 0; `rep` tells the replays apart.
    let spans = collected
        .iter()
        .flat_map(|c| &c.traced)
        .zip(0..)
        .flat_map(|(r, rep)| r.spans.iter().map(move |s| Span { rep, ..s.clone() }))
        .collect();
    let mut workloads: Vec<WorkloadResult> = WORKLOADS
        .iter()
        .zip(collected)
        .map(|(w, c)| c.into_result(w.name))
        .collect();
    workloads.push(probes.into_result(PROBES));
    let file = ResultFile {
        schema: SCHEMA.to_string(),
        host,
        workloads,
    };
    (file, spans)
}

/// Total and self time of each span name, per repetition.
fn print_spans(spans: &[Span]) {
    println!("\n== spans of the traced pass: total and self seconds ==");
    for root in spans.iter().filter(|s| s.parent.is_none()) {
        let of_rep: Vec<Span> = spans
            .iter()
            .filter(|s| s.rep == root.rep)
            .cloned()
            .collect();
        for s in &of_rep {
            let depth = std::iter::successors(Some(s), |s| {
                s.parent.and_then(|p| of_rep.iter().find(|o| o.id == p))
            })
            .count();
            println!(
                "  {:<40} {:>12.6} {:>12.6}",
                format!("{}{}", "  ".repeat(depth - 1), s.name),
                s.duration_s(),
                spans::self_time_s(&of_rep, s.id)
            );
        }
    }
}

fn host_stamp(seed: u64, size: Size) -> Host {
    let output = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    Host {
        logical_cpus: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        jobs: workloads::suite_jobs() as u64,
        git_commit: output("git", &["rev-parse", "--short", "HEAD"])
            .unwrap_or_else(|| "unknown".to_string()),
        dirty: output("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty()),
        rustc: output("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
        seed,
        smoke: size == Size::Smoke,
        argv: std::env::args().collect(),
    }
}

fn read_result(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let file: ResultFile =
        serde_json::from_str(&text).map_err(|e| format!("{path} is not a result file: {e}"))?;
    if file.schema != SCHEMA {
        return Err(format!(
            "{path} has schema {:?}, expected {SCHEMA:?}",
            file.schema
        ));
    }
    Ok(file)
}

fn write_json<T: serde::Serialize>(path: &str, value: &T) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).expect("a value tree serializes");
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {path}: {e}"))
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// The command line after `compare` is ruled out. Which flags go together
/// is checked where they are used.
struct Flags {
    seed: u64,
    size: Size,
    out: Option<String>,
    trace_out: Option<String>,
    workload: Option<String>,
    seconds: Option<f64>,
    trace: Option<bool>,
    child: Option<String>,
    traced: bool,
    mode: Option<String>,
}

impl Flags {
    fn parse(args: Vec<String>) -> Result<Flags, String> {
        let mut flags = Flags {
            seed: DEFAULT_SEED,
            size: Size::Full,
            out: None,
            trace_out: None,
            workload: None,
            seconds: None,
            trace: None,
            child: None,
            traced: false,
            mode: None,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--smoke" => flags.size = Size::Smoke,
                "--traced" => flags.traced = true,
                _ => {
                    let v = it.next().ok_or(format!("{flag} needs a value"))?;
                    let bad = || format!("{flag} cannot take {v:?}");
                    match flag.as_str() {
                        "--seed" => flags.seed = parse_seed(&v).ok_or_else(bad)?,
                        "--seconds" => {
                            let s: f64 = v.parse().map_err(|_| bad())?;
                            if !(s > 0.0 && s.is_finite()) {
                                return Err(bad());
                            }
                            flags.seconds = Some(s);
                        }
                        "--trace" => {
                            flags.trace = Some(match v.as_str() {
                                "0" => false,
                                "1" => true,
                                _ => return Err(bad()),
                            })
                        }
                        "--out" => flags.out = Some(v),
                        "--trace-out" => flags.trace_out = Some(v),
                        "--workload" => flags.workload = Some(v),
                        "--child" => flags.child = Some(v),
                        "--mode" => flags.mode = Some(v),
                        _ => return Err(format!("unknown argument {flag:?}")),
                    }
                }
            }
        }
        Ok(flags)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            return usage("compare takes two result files");
        };
        return match (read_result(a), read_result(b)) {
            (Ok(a), Ok(b)) => ExitCode::from(u8::from(!report::compare(&a, &b))),
            (Err(e), _) | (_, Err(e)) => usage(&e),
        };
    }

    let flags = match Flags::parse(args) {
        Ok(flags) => flags,
        Err(e) => return usage(&e),
    };
    let Flags { seed, size, .. } = flags;

    if let Some(what) = flags.child {
        let pass = match (&flags.mode, flags.traced) {
            (Some(metric), _) => Pass::Mode(metric),
            (None, true) => Pass::Traced,
            (None, false) => Pass::Measured,
        };
        return match child(&what, pass, seed, size) {
            Ok(report) => {
                println!(
                    "{}",
                    serde_json::to_string(&report).expect("a report serializes")
                );
                ExitCode::SUCCESS
            }
            Err(e) => usage(&e),
        };
    }

    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return usage(&format!("cannot find this executable to re-run it: {e}")),
    };
    let launcher = Launcher { exe: Some(exe) };

    if let Some(name) = flags.workload {
        let Some(w) = workloads::workload(&name) else {
            return usage(&format!("unknown workload {name:?}"));
        };
        let (Some(seconds), Some(trace)) = (flags.seconds, flags.trace) else {
            return usage("--workload needs --seconds and --trace");
        };
        return drive(&launcher, w, seed, seconds, trace);
    }

    let (file, spans) = full_set(&launcher, host_stamp(seed, size), size);
    file.print();
    print_spans(&spans);
    let written = flags
        .out
        .map_or(Ok(()), |path| write_json(&path, &file))
        .and(
            flags
                .trace_out
                .map_or(Ok(()), |path| write_json(&path, &spans)),
        );
    if let Err(e) = written {
        eprintln!("ladder: {e}");
        return ExitCode::FAILURE;
    }
    if file.failed() > 0 {
        eprintln!("ladder: {} operations failed", file.failed());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole benchmark at toy size, children run in-process: every
    /// check, every metric, the result file round trip, `compare` and the
    /// driver's result line. `ladder --smoke` does the same through real
    /// child processes.
    #[test]
    fn smoke_set_is_complete_and_clean() {
        let launcher = Launcher { exe: None };
        let host = Host {
            seed: DEFAULT_SEED,
            smoke: true,
            ..Host::default()
        };
        let (file, spans) = full_set(&launcher, host, Size::Smoke);
        for w in &file.workloads {
            assert_eq!(w.failed, 0, "{}: {:?}", w.name, w.failures);
            assert!(w.attempted >= 1);
        }
        for w in &file.workloads[..WORKLOADS.len()] {
            let names: Vec<&str> = w.end_to_end.iter().map(|r| r.name.as_str()).collect();
            let mut expected: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
            expected.push(FAILED_FRAC);
            assert_eq!(names, expected, "{}", w.name);
            for (name, _, scope) in &PER_LAYER {
                // The micro-probes sit in their own entry of a full set.
                let present = w.per_layer.iter().any(|r| r.name == *name);
                let probe = file.workloads[WORKLOADS.len()]
                    .per_layer
                    .iter()
                    .any(|r| r.name == *name);
                let wanted = match scope {
                    Scope::Every => true,
                    Scope::SingleRun => w.name != "paper_suite_quick",
                    Scope::Suite => w.name == "paper_suite_quick",
                    Scope::Modes => MODE_PROBES.contains(&(w.name.as_str(), *name)),
                };
                assert_eq!(present || probe, wanted, "{} {name}", w.name);
            }
        }
        // One root span per traced replay, children nested under it.
        assert_eq!(
            spans.iter().filter(|s| s.parent.is_none()).count(),
            WORKLOADS.len()
        );
        assert!(spans
            .iter()
            .any(|s| s.name == "sim.run" && s.parent.is_some()));
        assert!(spans.iter().any(|s| s.name == "harness.warm_rerun"));

        let text = serde_json::to_string_pretty(&file).unwrap();
        let back: ResultFile = serde_json::from_str(&text).unwrap();
        assert_eq!(back, file);
        assert!(report::compare(&file, &back));
        let mut slower = back.clone();
        slower.workloads[0].end_to_end[0].value *= 2.0;
        assert!(!report::compare(&file, &slower));
    }

    #[test]
    fn driver_line_has_the_contract_keys() {
        let rows = [Row::new("wall_s", "s", &[1.5, 2.5, 3.5])];
        let line = report::driver_line(3, 0, &rows);
        let v: serde::Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&serde::Value::Bool(true)));
        let wall = v.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value"), Some(&serde::Value::F64(1.5)));
        assert_eq!(wall.get("unit"), Some(&serde::Value::Str("s".into())));
    }

    /// The lines of one `[table]` of a manifest, comments and blanks dropped.
    fn table<'a>(manifest: &'a str, header: &str) -> Vec<&'a str> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != header)
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// `Cargo.toml` beside this file makes the directory a package of its
    /// own for `BENCHMARK.json`; the workspace builds the same `main.rs` as
    /// `bgl-bench`'s `ladder` bin. Both must be the same build: the root's
    /// release profile, `bgl-bench`'s dependencies, the workspace's paths
    /// and features.
    #[test]
    fn standalone_manifest_repeats_the_workspace() {
        let root = include_str!("../../../../../Cargo.toml");
        let bench = include_str!("../../../Cargo.toml");
        let own = include_str!("Cargo.toml");
        assert_eq!(
            table(own, "[profile.release]"),
            table(root, "[profile.release]")
        );
        let name = |line: &&str| line.split(['.', ' ']).next().unwrap().to_string();
        let own_deps = table(own, "[dependencies]");
        assert_eq!(
            own_deps.iter().map(name).collect::<Vec<_>>(),
            table(bench, "[dependencies]")
                .iter()
                .map(name)
                .collect::<Vec<_>>()
        );
        let shared = table(root, "[workspace.dependencies]");
        for dep in own_deps {
            // From this directory to the repository root, then to `crates/`.
            let from_root = dep
                .replace("../../../../../", "")
                .replace("../../../../", "crates/");
            assert!(shared.contains(&from_root.as_str()), "{dep}");
        }
    }

    #[test]
    fn seeds_parse_as_decimal_or_hex() {
        assert_eq!(parse_seed("0xaa11"), Some(0xaa11));
        assert_eq!(parse_seed("17"), Some(17));
        assert_eq!(parse_seed("x"), None);
    }
}
