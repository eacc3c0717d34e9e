//! `bglsim` — sweep driver for exploratory use.
//!
//! ```text
//! bglsim sweep --shape 8x8x8 --strategies ar,dr,tps --sizes 64,240,912 [--coverage 0.25] [--jobs N] [--csv|--json]
//!              [--pacer none|rate:F|credit:W,E]
//!              [--trace-interval CYCLES] [--trace-out FILE.json|FILE.csv] [--report]
//!              [--fault link:X,Y,Z,DIR[:@FAIL[-RECOVER]]] [--fault node:RANK[:@FAIL[-RECOVER]]]
//! bglsim fit   --shape 8x8x8
//! bglsim pattern --shape 4x4x4 --pattern transpose:8|shift:3|random:8|plane:z --m 480 [--fault SPEC]
//! bglsim validate [--tier quick|full] [--jobs N] [--bless] [--out FILE.json]
//! bglsim profile --shape 8x8x8 --strategy ar --m 240 [--coverage F] [--json|--csv] [--out FILE]
//! ```
//!
//! One simulation runs on one thread; `--jobs` parallelizes *across*
//! sweep points.
//!
//! Pacing: `--pacer` overrides every swept strategy's injection pacing —
//! `none` strips it, `rate:F` throttles injection to `F×` the bisection-
//! derived peak rate, `credit:W,E` bounds each intermediate's unacked
//! window at `W` packets with acknowledgements every `E`. A malformed
//! spec, or pacing `auto`, exits with status 2.
//!
//! Fault injection: `--fault` (repeatable, or several `;`-separated
//! specs in one flag) kills links mid-run — `link:X,Y,Z,DIR` one
//! directed link at coordinate (X,Y,Z) with DIR in `x+ x- y+ y- z+ z-`
//! (one coordinate per dimension of `--shape`: `link:X,Y,DIR` on a 2-D
//! shape, `link:X,Y,Z,W,DIR` with `d3+ d3-` on a 4-D one),
//! `node:RANK` every link of one node. An optional `:@FAIL[-RECOVER]`
//! suffix schedules the outage window in cycles; without it the link is
//! dead from cycle 0 forever. Adaptive strategies route around the
//! faults; deterministic ones report the unreachable pairs. The plan is
//! part of the run's cache key, so faulty and healthy runs never alias.
//! A malformed spec, an out-of-range coordinate or rank, a mesh-edge
//! link, a duplicate fault, or a recovery at or before its failure
//! exits with status 2.
//!
//! Sweep points run across `--jobs` worker threads (default: all
//! cores); results are identical for any thread count. `--json` emits
//! the full [`AaReport`](bgl_core::AaReport) per point.
//!
//! Tracing: `--trace-out` / `--report` / `--trace-interval` enable the
//! simulator's time-series tracer (default interval 1024 cycles).
//! `--trace-out` exports the traced reports as JSON, or one trace as
//! RFC-4180 CSV when the path ends in `.csv`; `--report` prints the
//! human-readable run report (utilization timeline, phase boundaries,
//! FIFO highlights, hottest links) per point.
//!
//! Profiling: `--perf` (on `sweep` and `validate`) collects the host-side
//! performance profile of every run — results stay byte-identical; the
//! profile rides `--json` output per report and a runner timing summary
//! (points executed, execute seconds, queue wait, cache hits) goes to
//! stderr. `profile` runs a single point with profiling on and renders
//! the human-readable report (per-phase wall-clock breakdown, skip
//! histogram); `--json` emits the full report, `--csv`
//! the profile as RFC-4180 `metric,value` rows. `--progress` (also on
//! `sweep` and `validate`) prints a rate-limited stderr heartbeat for
//! long runs. All profile times are *host* seconds, distinct from the
//! simulated cycles/ms in the results themselves.
//!
//! `validate` runs the paper-conformance suite (DESIGN.md §7 targets as
//! machine-checked assertions, plus the golden `NetStats` fingerprints):
//! it renders a PASS/FAIL table and exits 1 if any check fails. The
//! `quick` tier is CI-sized; `full` uses paper-scale shapes. `--bless`
//! rewrites the committed golden fingerprints from the measured runs.
//!
//! Malformed input never panics: every parse failure prints a one-line
//! error to stderr and exits with status 2. Unknown flags are rejected, and
//! so are message sizes outside 1..=4294967295 bytes and shapes of more
//! than 2^20 nodes.

use bgl_core::*;
use bgl_harness::cli::{Cli, Output};
use bgl_harness::conformance::{run_validation, Tier};
use bgl_harness::runner::{RunPoint, Runner, Scale};
use bgl_model::MachineParams;
use bgl_sim::{FaultPlan, LinkFault, NodeFault, SimConfig, SimError};
use bgl_torus::{Coord, Dim, Direction, Partition, Sign};
use std::collections::HashMap;

const CLI: Cli = Cli("bglsim");

fn fail(msg: &str) -> ! {
    CLI.fail(msg)
}

/// Open the output file `path`, given by `flag`, before any point runs.
fn open_out(flag: &str, path: &str) -> Output {
    CLI.open_output(path.as_ref(), format!("{flag}: cannot write {path:?}"))
}

/// Parse a subcommand's flags. `bglsim` takes nothing but flags after
/// the subcommand, so a bare positional is an error.
fn parse_flags(
    args: &[String],
    value_flags: &[&str],
    bool_flags: &[&str],
) -> HashMap<String, String> {
    let (flags, positionals) = CLI.parse_flags(args, value_flags, bool_flags);
    if let Some(stray) = positionals.first() {
        fail(&format!("unexpected argument {stray:?}"));
    }
    flags
}

/// Largest partition `bglsim` simulates: 2^20 nodes, sixteen times the
/// full 65,536-node BG/L machine. Every subcommand builds an engine with
/// one program per node, and far beyond this that allocation alone aborts.
const MAX_NODES: u32 = 1 << 20;

fn parse_shape(s: &str) -> Partition {
    let part: Partition = s
        .parse()
        .unwrap_or_else(|e| fail(&format!("invalid shape {s:?}: {e}")));
    if part.num_nodes() > MAX_NODES {
        fail(&format!(
            "shape {s:?} has {} nodes, more than the {MAX_NODES} bglsim simulates",
            part.num_nodes()
        ));
    }
    part
}

/// Parse a message size in bytes (`--sizes` entries, `--m`): 1 to
/// `u32::MAX`. A zero-byte message has a zero Equation-2 peak, so its row
/// could only read 0.0 %.
fn parse_message_size(flag: &str, s: &str) -> u64 {
    let m: u64 = s
        .trim()
        .parse()
        .unwrap_or_else(|_| fail(&format!("{flag} needs numeric bytes, got {s:?}")));
    if !(1..=u64::from(u32::MAX)).contains(&m) {
        fail(&format!("{flag} must be 1..={} bytes, got {m}", u32::MAX));
    }
    m
}

/// The dimension of `part` called `name` (`x y z d3 d4 d5`, either case).
fn dim_by_name(part: &Partition, name: &str) -> Option<Dim> {
    part.dims().find(|d| d.name().eq_ignore_ascii_case(name))
}

/// `part`'s dimension names joined by `sep`: `x|y|z`.
fn dim_names(part: &Partition, sep: &str) -> String {
    let names: Vec<&str> = part.dims().map(Dim::name).collect();
    names.join(sep)
}

/// Resolve `--coverage F` (default 1, the full exchange): the fraction of
/// destinations each node sends to, in (0, 1]. Zero would select nobody.
fn parse_coverage(flags: &HashMap<String, String>) -> f64 {
    let coverage: f64 = flags.get("coverage").map_or(1.0, |s| {
        s.parse()
            .unwrap_or_else(|_| fail(&format!("--coverage needs a fraction, got {s:?}")))
    });
    if coverage.is_nan() || coverage <= 0.0 || coverage > 1.0 {
        fail(&format!(
            "--coverage must be a fraction in (0, 1], got {coverage}"
        ));
    }
    coverage
}

/// `(--json, --csv)` of `sweep` and `profile`: at most one may be set.
fn export_flags(flags: &HashMap<String, String>) -> (bool, bool) {
    let (json, csv) = (flags.contains_key("json"), flags.contains_key("csv"));
    if json && csv {
        fail("--json and --csv conflict; pass at most one");
    }
    (json, csv)
}

/// The runner every simulating subcommand builds from its flags
/// (`--jobs` defaults to all cores).
fn runner_from_flags(scale: Scale, flags: &HashMap<String, String>, perf: bool) -> Runner {
    let runner = Runner::new(scale)
        .with_perf(perf)
        .with_progress(flags.contains_key("progress"));
    match flags.get("jobs") {
        Some(n) => runner.with_jobs(CLI.jobs(n)),
        None => runner,
    }
}

/// Parse a fault direction token: a dimension of `part` by name, then
/// `+` or `-` (`x+ x- y+ y- z+ z-` on a 3-D shape, `d3+ d3-` beyond).
fn parse_fault_dir(s: &str, spec: &str, part: &Partition) -> Direction {
    let signed = s
        .strip_suffix('+')
        .map(|name| (name, Sign::Plus))
        .or_else(|| s.strip_suffix('-').map(|name| (name, Sign::Minus)));
    let dir = signed.and_then(|(name, sign)| Some((dim_by_name(part, name)?, sign)));
    let Some((dim, sign)) = dir else {
        let all: Vec<String> = part
            .directions()
            .map(|d| d.to_string().to_lowercase())
            .collect();
        fail(&format!(
            "--fault {spec:?}: direction must be {}, got {s:?}",
            all.join("|")
        ));
    };
    Direction { dim, sign }
}

/// Parse the optional `@FAIL[-RECOVER]` window suffix of a fault spec.
/// Absent = statically dead from cycle 0, never recovering.
fn parse_fault_window(window: Option<&str>, spec: &str) -> (u64, Option<u64>) {
    let Some(w) = window else {
        return (0, None);
    };
    let Some(w) = w.strip_prefix('@') else {
        fail(&format!(
            "--fault {spec:?}: schedule must be @FAIL or @FAIL-RECOVER, got {w:?}"
        ));
    };
    let cycle = |s: &str| -> u64 {
        s.parse().unwrap_or_else(|_| {
            fail(&format!(
                "--fault {spec:?}: schedule cycles must be numeric, got {s:?}"
            ))
        })
    };
    match w.split_once('-') {
        Some((f, r)) => (cycle(f), Some(cycle(r))),
        None => (cycle(w), None),
    }
}

/// Parse the repeatable `--fault` flag into a validated [`FaultPlan`].
///
/// Grammar (specs separated by `;` or by repeating the flag):
///   `link:X,Y,Z,DIR[:@FAIL[-RECOVER]]` — one directed link at coordinate
///   (X,Y,Z), DIR in `x+ x- y+ y- z+ z-`; exactly one coordinate per
///   dimension of `part` and its dimension names at any arity;
///   `node:RANK[:@FAIL[-RECOVER]]` — every link of one node.
/// No schedule means dead from cycle 0 forever. Any malformed spec, an
/// out-of-range coordinate or rank, a mesh-edge link, a duplicate, or a
/// recovery at or before its failure exits with status 2.
fn parse_fault(flags: &HashMap<String, String>, part: &Partition) -> FaultPlan {
    let mut plan = FaultPlan::default();
    let Some(specs) = flags.get("fault") else {
        return plan;
    };
    for spec in specs.split(';') {
        let spec = spec.trim();
        let Some((kind, rest)) = spec.split_once(':') else {
            fail(&format!(
                "--fault must be link:X,Y,Z,DIR[:@FAIL[-RECOVER]] or \
                 node:RANK[:@FAIL[-RECOVER]], got {spec:?}"
            ));
        };
        let (body, window) = match rest.split_once(':') {
            Some((b, w)) => (b, Some(w)),
            None => (rest, None),
        };
        let (fail_at, recover_at) = parse_fault_window(window, spec);
        match kind {
            "link" => {
                let fields: Vec<&str> = body.split(',').collect();
                let n = part.ndims();
                let Some((d, coords)) = fields.split_last().filter(|(_, c)| c.len() == n) else {
                    fail(&format!(
                        "--fault link needs {},DIR on the {n}-dimensional {part} \
                         ({} fields), got {body:?}",
                        dim_names(part, ",").to_uppercase(),
                        n + 1
                    ));
                };
                let coord = |s: &&str| -> u16 {
                    s.parse().unwrap_or_else(|_| {
                        fail(&format!(
                            "--fault {spec:?}: coordinates must be numeric, got {s:?}"
                        ))
                    })
                };
                let c = Coord::from_slice(&coords.iter().map(coord).collect::<Vec<_>>());
                if !part.contains(c) {
                    fail(&format!(
                        "--fault {spec:?}: coordinate {c} outside partition {part}"
                    ));
                }
                plan.links.push(LinkFault {
                    node: part.rank_of(c),
                    dir: parse_fault_dir(d, spec, part),
                    fail_at,
                    recover_at,
                });
            }
            "node" => {
                let rank = body.parse().unwrap_or_else(|_| {
                    fail(&format!(
                        "--fault {spec:?}: node rank must be numeric, got {body:?}"
                    ))
                });
                plan.nodes.push(NodeFault {
                    rank,
                    fail_at,
                    recover_at,
                });
            }
            other => fail(&format!("--fault kind must be link or node, got {other:?}")),
        }
    }
    if let Err(e) = plan.validate(part) {
        fail(&format!("--fault: {e}"));
    }
    plan
}

fn strategy_by_name(name: &str) -> StrategyKind {
    match name.trim().to_ascii_lowercase().as_str() {
        "ar" => StrategyKind::ar(),
        "dr" => StrategyKind::dr(),
        "mpi" => StrategyKind::mpi(),
        "throttle" | "thr" => StrategyKind::throttled(1.0),
        "tps" => StrategyKind::tps(),
        "vmesh" | "vm" => StrategyKind::vmesh(),
        "xyz" => StrategyKind::xyz(),
        "auto" => StrategyKind::auto(),
        other => fail(&format!(
            "unknown strategy {other:?} (ar|dr|mpi|thr|tps|vmesh|xyz|auto)"
        )),
    }
}

/// Parse `--pacer none|rate:<factor>|credit:<window>,<every>`.
fn parse_pacer(spec: &str) -> Pacer {
    let s = spec.trim();
    if s.eq_ignore_ascii_case("none") {
        return Pacer::Unpaced;
    }
    if let Some(f) = s.strip_prefix("rate:") {
        let factor = f
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|x| *x > 0.0 && x.is_finite())
            .unwrap_or_else(|| fail(&format!("--pacer rate: needs a positive factor, got {f:?}")));
        return Pacer::rate(factor);
    }
    if let Some(c) = s.strip_prefix("credit:") {
        return parse_credit(c);
    }
    fail(&format!(
        "--pacer must be none, rate:<factor> or credit:<window>,<every>, got {spec:?}"
    ))
}

/// Parse the `<window>,<every>` of a `credit:` pacer.
fn parse_credit(spec: &str) -> Pacer {
    let (w, e) = spec.split_once(',').unwrap_or_else(|| {
        fail(&format!(
            "credit pacing needs <window>,<every>, got {spec:?}"
        ))
    });
    let window = w
        .trim()
        .parse::<u32>()
        .ok()
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            fail(&format!(
                "credit window must be a positive integer, got {w:?}"
            ))
        });
    let every = e
        .trim()
        .parse::<u32>()
        .ok()
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            fail(&format!(
                "credit quantum must be a positive integer, got {e:?}"
            ))
        });
    if every > window {
        fail(&format!(
            "credit quantum {every} must not exceed the window {window} \
             (the receiver would never owe an acknowledgement)"
        ));
    }
    Pacer::credit(window, every)
}

/// Apply the sweep's `--pacer` to every strategy; on `auto` it is an
/// error: name the strategy to pace.
fn apply_pacer_flag(
    flags: &HashMap<String, String>,
    strategies: Vec<StrategyKind>,
) -> Vec<StrategyKind> {
    let Some(pacer) = flags.get("pacer").map(|p| parse_pacer(p)) else {
        return strategies;
    };
    strategies
        .into_iter()
        .map(|s| {
            if s.scheme == Scheme::Auto {
                fail("--pacer cannot apply to strategy \"auto\"; name a strategy");
            }
            s.with_pacer(pacer)
        })
        .collect()
}

fn cmd_sweep(flags: &HashMap<String, String>) {
    let shape = flags.get("shape").map(String::as_str).unwrap_or("8x8x8");
    let part = parse_shape(shape);
    let strategies: Vec<StrategyKind> = flags
        .get("strategies")
        .map(String::as_str)
        .unwrap_or("ar,tps")
        .split(',')
        .map(strategy_by_name)
        .collect();
    let strategies = apply_pacer_flag(flags, strategies);
    // Strategy × shape compatibility is knowable before any simulation:
    // reject e.g. TPS on a 4-D torus, or a one-node shape, here with
    // exit 2, not mid-sweep.
    for s in &strategies {
        if let Err(e) = s.check_partition(&part) {
            fail(&e.to_string());
        }
    }
    let sizes: Vec<u64> = flags
        .get("sizes")
        .map(String::as_str)
        .unwrap_or("64,240,912")
        .split(',')
        .map(|s| parse_message_size("--sizes", s))
        .collect();
    let coverage = parse_coverage(flags);
    let (json, csv) = export_flags(flags);
    let report = flags.contains_key("report");
    let trace_out = flags.get("trace-out").cloned();
    let trace_interval: u64 = flags.get("trace-interval").map_or(1024, |s| {
        s.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            fail(&format!(
                "--trace-interval needs a positive cycle count, got {s:?}"
            ))
        })
    });
    // --trace-out and --report both imply tracing; --trace-interval alone
    // also enables it (the trace then rides the --json output).
    let tracing = trace_out.is_some() || report || flags.contains_key("trace-interval");
    let fault = parse_fault(flags, &part);
    let runner = runner_from_flags(Scale::Paper, flags, flags.contains_key("perf"));
    let points: Vec<RunPoint> = sizes
        .iter()
        .flat_map(|&m| {
            let fault = fault.clone();
            strategies.iter().map(move |s| {
                let mut p = RunPoint::new(part, s.clone(), m, coverage);
                if !fault.is_empty() {
                    p = p.with_fault(fault.clone());
                }
                if tracing {
                    p = p.traced(trace_interval);
                }
                if report {
                    // The hottest-links table needs per-link counters.
                    p = p.variant("detailed-links", |c| c.detailed_link_stats = true);
                }
                p
            })
        })
        .collect();
    // CSV has no framing for several series: refuse before simulating.
    let csv_of_many = |p: &&String| p.ends_with(".csv") && points.len() != 1;
    if let Some(path) = trace_out.as_ref().filter(csv_of_many) {
        fail(&format!(
            "--trace-out {path:?}: CSV export needs exactly one point \
             (one strategy, one size); got {}",
            points.len()
        ));
    }
    let trace_file = trace_out.as_ref().map(|path| open_out("--trace-out", path));
    runner.run_points(&points);
    CLI.perf_summary(&runner);
    if let (Some(path), Some(out)) = (&trace_out, trace_file) {
        write_traces(path, out, &points, &runner);
    }
    // `--json` and `--csv` stdout carries data rows only: a failed point
    // is named on stderr, and the exit status stays what text mode says.
    let failed = |p: &RunPoint, e: &SimError| {
        eprintln!("bglsim: {} m={}: {e}", p.key.strategy.name(), p.key.m);
    };
    if json {
        let mut reports: Vec<AaReport> = Vec::new();
        for p in &points {
            match runner.report(p) {
                Ok(r) => reports.push(r),
                Err(e) => failed(p, &e),
            }
        }
        println!(
            "{}",
            serde_json::to_string_pretty(&reports).expect("serialize")
        );
        return;
    }
    if csv {
        println!("shape,strategy,m_bytes,coverage,cycles,ms,percent_of_peak");
    } else {
        println!("sweep on {part} (coverage {coverage}):");
    }
    for point in &points {
        let m = point.key.m;
        match runner.report(point) {
            Ok(r) => {
                let ms = r.time_secs * 1e3 / r.workload.coverage;
                if csv {
                    println!(
                        "{shape},{},{m},{coverage},{},{ms:.4},{:.2}",
                        r.strategy.name(),
                        r.cycles,
                        r.percent_of_peak
                    );
                } else {
                    println!(
                        "  m={m:<7} {:12} {:7.1}% of peak  {ms:9.4} ms",
                        r.strategy.name(),
                        r.percent_of_peak
                    );
                }
            }
            Err(e) if csv => failed(point, &e),
            Err(e) => println!("  m={m:<7} {:12} ERROR {e}", point.key.strategy.name()),
        }
    }
    if report {
        for point in &points {
            if let Ok(r) = runner.report(point) {
                println!();
                print!("{}", bgl_harness::render_run_report(&r));
            }
        }
    }
}

/// Write traced runs to `out`, opened at `path`: RFC-4180 CSV for a `.csv`
/// path (the one point `cmd_sweep` admits), JSON (the full reports, traces
/// included) otherwise.
fn write_traces(path: &str, out: Output, points: &[RunPoint], runner: &Runner) {
    let reports: Vec<AaReport> = points
        .iter()
        .filter_map(|p| runner.report(p).ok())
        .collect();
    let body = if path.ends_with(".csv") {
        reports
            .first()
            .and_then(|r| r.trace.as_ref())
            .unwrap_or_else(|| fail(&format!("--trace-out {path:?}: the run failed, no trace")))
            .to_csv()
    } else {
        serde_json::to_string_pretty(&reports).expect("serialize traces")
    };
    CLI.write(out, &body);
    eprintln!("bglsim: wrote {} traced run(s) to {path}", reports.len());
}

fn cmd_fit(flags: &HashMap<String, String>) {
    let shape = flags.get("shape").map(String::as_str).unwrap_or("8x8x8");
    let part = parse_shape(shape);
    if part.num_nodes() < 2 {
        fail(&format!(
            "a ping-pong needs at least two nodes, got the one-node shape {part}"
        ));
    }
    let params = MachineParams::bgl();
    let fit = fit_ptp_params(&part, &params);
    println!("ping-pong fit on {part} (Equation 1, T = α + m·β):");
    println!("  fitted α  : {:.2} cycles", fit.alpha_cycles);
    println!(
        "  fitted β  : {:.3} ns/B   (configured {:.3} ns/B)",
        fit.beta_ns_per_byte, params.beta_ns_per_byte
    );
    println!("  r²        : {:.6}", fit.r_squared);
    for (m, t) in &fit.samples {
        println!("    m={m:<7} {t} cycles");
    }
}

/// Seed of the `random:` pattern's destination draw.
const PATTERN_SEED: u64 = 7;

fn cmd_pattern(flags: &HashMap<String, String>) {
    let shape = flags.get("shape").map(String::as_str).unwrap_or("4x4x4");
    let part = parse_shape(shape);
    let params = MachineParams::bgl();
    let m = flags.get("m").map_or(480, |s| parse_message_size("--m", s));
    let spec = flags
        .get("pattern")
        .map(String::as_str)
        .unwrap_or("transpose:8");
    let (kind, arg) = spec.split_once(':').unwrap_or((spec, ""));
    let numeric = |what: &str| -> u32 {
        arg.parse()
            .unwrap_or_else(|_| fail(&format!("{kind}:{what} needs a number, got {arg:?}")))
    };
    let pattern = match kind {
        "a2a" => Pattern::AllToAll,
        "shift" => Pattern::Shift {
            offset: numeric("offset"),
        },
        "transpose" => Pattern::Transpose {
            rows: numeric("rows"),
        },
        "random" => Pattern::RandomPairs {
            degree: numeric("degree"),
        },
        "plane" => Pattern::PlaneAllToAll {
            fixed: dim_by_name(&part, arg).unwrap_or_else(|| {
                fail(&format!(
                    "plane pattern needs plane:{} on {part}, got {arg:?}",
                    dim_names(&part, "|")
                ))
            }),
        },
        other => fail(&format!(
            "unknown pattern {other:?} (a2a|shift|transpose|random|plane)"
        )),
    };
    if pattern.pair_count(&part, PATTERN_SEED) == 0 {
        let p = part.num_nodes();
        let why = match pattern {
            _ if p < 2 => "one node has no peer".to_string(),
            Pattern::Shift { offset } => {
                format!("offset {offset} is a multiple of the {p} nodes")
            }
            Pattern::Transpose { rows } if rows == 0 || !p.is_multiple_of(rows) => {
                format!("{rows} rows do not divide the {p} nodes")
            }
            Pattern::RandomPairs { .. } => "degree 0".to_string(),
            // 1×P and P×1 transposes, planes of one node.
            _ => "every rank is its own only target".to_string(),
        };
        fail(&format!(
            "--pattern {spec} selects no (source, destination) pair on {part}: {why}"
        ));
    }
    let mut cfg = SimConfig::new(part);
    cfg.fault = parse_fault(flags, &part);
    match run_pattern(part, &pattern, m, &params, cfg, PATTERN_SEED) {
        Ok(rep) => {
            println!("{pattern:?} on {part}, m={m} B/pair:");
            println!("  pairs            : {}", rep.pairs);
            println!("  completion       : {} cycles", rep.cycles);
            println!("  generalized peak : {:.0} cycles", rep.peak_cycles);
            println!("  percent of peak  : {:.1} %", rep.percent_of_peak);
        }
        Err(e) => fail(&format!("pattern run failed: {e}")),
    }
}

fn cmd_validate(flags: &HashMap<String, String>) {
    let tier = flags.get("tier").map_or(Tier::Quick, |s| {
        Tier::parse(s).unwrap_or_else(|| fail(&format!("--tier must be quick or full, got {s:?}")))
    });
    let out = flags.get("out").map(|path| (path, open_out("--out", path)));
    let runner = runner_from_flags(tier.scale(), flags, flags.contains_key("perf"));
    let report = run_validation(&runner, tier, flags.contains_key("bless"));
    CLI.perf_summary(&runner);
    print!("{}", report.render());
    if let Some((path, out)) = out {
        CLI.write(out, &report.to_json());
        eprintln!("bglsim: wrote check results to {path}");
    }
    if report.failures() > 0 {
        std::process::exit(1);
    }
}

/// `bglsim profile`: run one point with profiling on and render the
/// host-side report ([`bgl_harness::render_perf_report`]); `--json` emits
/// the full report, `--csv` the profile as `metric,value` rows.
fn cmd_profile(flags: &HashMap<String, String>) {
    let shape = flags.get("shape").map(String::as_str).unwrap_or("8x8x8");
    let part = parse_shape(shape);
    let strategy = strategy_by_name(flags.get("strategy").map(String::as_str).unwrap_or("ar"));
    if let Err(e) = strategy.check_partition(&part) {
        fail(&e.to_string());
    }
    let m = flags.get("m").map_or(240, |s| parse_message_size("--m", s));
    let coverage = parse_coverage(flags);
    let (json, csv) = export_flags(flags);
    let out = flags.get("out").map(|path| (path, open_out("--out", path)));
    let runner = runner_from_flags(Scale::Paper, flags, true);
    let point = RunPoint::new(part, strategy, m, coverage);
    let report = runner
        .report(&point)
        .unwrap_or_else(|e| fail(&format!("profile run failed: {e}")));
    let body = if json {
        serde_json::to_string_pretty(&report).expect("serialize")
    } else if csv {
        report.perf.as_ref().expect("profiling was on").to_csv()
    } else {
        bgl_harness::render_perf_report(&report)
    };
    match out {
        Some((path, out)) => {
            CLI.write(out, &body);
            eprintln!("bglsim: wrote profile to {path}");
        }
        None => print!("{body}"),
    }
    CLI.perf_summary(&runner);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let rest = &args[1.min(args.len())..];
    match cmd {
        "sweep" => cmd_sweep(&parse_flags(
            rest,
            &[
                "shape",
                "strategies",
                "sizes",
                "coverage",
                "jobs",
                "pacer",
                "trace-interval",
                "trace-out",
                "fault",
            ],
            &["csv", "json", "report", "perf", "progress"],
        )),
        "fit" => cmd_fit(&parse_flags(rest, &["shape"], &[])),
        "pattern" => cmd_pattern(&parse_flags(rest, &["shape", "pattern", "m", "fault"], &[])),
        "validate" => cmd_validate(&parse_flags(
            rest,
            &["tier", "jobs", "out"],
            &["bless", "perf", "progress"],
        )),
        "profile" => cmd_profile(&parse_flags(
            rest,
            &["shape", "strategy", "m", "coverage", "out"],
            &["json", "csv", "progress"],
        )),
        _ => {
            eprintln!("usage: bglsim sweep|fit|pattern|validate|profile [--flags]");
            eprintln!("  sweep   --shape 8x8x8 --strategies ar,dr,tps,vmesh,xyz --sizes 64,912 [--coverage 0.25] [--jobs N] [--csv|--json]");
            eprintln!("          [--pacer none|rate:F|credit:W,E]");
            eprintln!(
                "          [--trace-interval CYCLES] [--trace-out FILE.json|FILE.csv] [--report]"
            );
            eprintln!("          [--perf] [--progress]");
            eprintln!("          [--fault link:X,Y,Z,DIR[:@FAIL[-RECOVER]]] [--fault node:RANK[:@FAIL[-RECOVER]]]");
            eprintln!("  fit     --shape 8x8x8");
            eprintln!("  pattern --shape 4x4x4 --pattern a2a|shift:3|transpose:8|random:8|plane:z --m 480 [--fault SPEC]");
            eprintln!("  validate [--tier quick|full] [--jobs N] [--bless] [--out FILE.json] [--perf] [--progress]");
            eprintln!("  profile --shape 8x8x8 --strategy ar --m 240 [--coverage F] [--json|--csv] [--out FILE]");
            std::process::exit(2);
        }
    }
}
