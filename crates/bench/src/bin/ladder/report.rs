//! Metric tables, the rows every output is made of (a value with its
//! median, quartile, min, max and n), the result-file schema, and
//! `ladder compare`.

use crate::spans::Span;
use serde::{Deserialize, Serialize};

/// An end-to-end metric: lower is better for all of them. B regresses
/// against A when its value is worse by more than `bound` (a share of A's
/// value) or `floor` (absolute, in `unit`), whichever is larger. The
/// bounds are per metric so that a quieter host can tighten them one by
/// one; `BENCHMARK.json` repeats each `bound`, capped at `DRIVER_MAX_BOUND`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
    pub floor: f64,
}

impl EndToEnd {
    /// How far above `baseline` a value may read before it regressed.
    fn slack(&self, baseline: f64) -> f64 {
        (self.bound * baseline).max(self.floor)
    }

    fn bound_label(&self) -> String {
        if self.floor > 0.0 {
            format!("{:.0}%|{}{}", 100.0 * self.bound, self.floor, self.unit)
        } else {
            format!("{:.0}%", 100.0 * self.bound)
        }
    }
}

/// The largest bound the driver's contract lets `BENCHMARK.json` state.
#[cfg(test)]
const DRIVER_MAX_BOUND: f64 = 0.25;

const fn end_to_end(name: &'static str, unit: &'static str, bound: f64, floor: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        bound,
        floor,
    }
}

pub const END_TO_END: [EndToEnd; 6] = [
    end_to_end("wall_s", "s", 0.25, 0.0),
    end_to_end("cpu_s", "s", 0.25, 0.0),
    // Every set-up here lasts under 3 ms, the suite's 40 us: below 5 ms a
    // relative bound judges the host's timer and cache state, not the code.
    end_to_end("setup_s", "s", 0.50, 0.005),
    end_to_end("ns_per_hop", "ns", 0.25, 0.0),
    end_to_end("ns_per_node_cycle", "ns", 0.25, 0.0),
    end_to_end("peak_rss_mb", "MB", 0.15, 0.0),
];

/// The seventh end-to-end metric, failed ÷ attempted operations. Its
/// bound is absolute (any rise is a regression) and its healthy value is
/// 0, so the driver's result line carries it as `failed`/`attempted`.
pub const FAILED_FRAC: &str = "failed_frac";

/// Which workloads produce a per-layer row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// All four; these are the rows `BENCHMARK.json` lists.
    Every,
    /// The three single-simulation workloads.
    SingleRun,
    /// `paper_suite_quick` only.
    Suite,
    /// The mode probes of `workloads::MODE_PROBES`.
    Modes,
}

pub const PER_LAYER: [(&str, &str, Scope); 37] = [
    ("torus.shape_parse_ns", "ns", Scope::Every),
    ("torus.hop_plan_ns", "ns", Scope::Every),
    ("torus.rank_coord_ns", "ns", Scope::Every),
    ("torus.load_analysis_us", "us", Scope::Every),
    ("model.peak_eval_ns", "ns", Scope::Every),
    ("core.dest_schedule_us", "us", Scope::Every),
    ("core.packetize_ns", "ns", Scope::Every),
    ("sim.ring_stream_ns_per_hop", "ns", Scope::Every),
    ("harness.runkey_hash_ns", "ns", Scope::Every),
    ("sim.run_s", "s", Scope::Every),
    ("sim.cycles", "count", Scope::Every),
    ("sim.packet_hops", "count", Scope::Every),
    ("sim.packets_delivered", "count", Scope::Every),
    ("sim.stepped_cycles", "count", Scope::Every),
    ("sim.skipped_cycles", "count", Scope::Every),
    ("sim.phase.arrivals_s", "s", Scope::Every),
    ("sim.phase.deliveries_s", "s", Scope::Every),
    ("sim.phase.cpu_s", "s", Scope::Every),
    ("sim.phase.id_fixup_s", "s", Scope::Every),
    ("sim.phase.arbitration_s", "s", Scope::Every),
    ("sim.phase.drain_s", "s", Scope::Every),
    ("sim.perf_overhead_frac", "ratio", Scope::Every),
    ("core.programs_build_s", "s", Scope::SingleRun),
    ("sim.engine_new_s", "s", Scope::SingleRun),
    ("sim.full_scan_run_s", "s", Scope::Modes),
    ("sim.event_run_s", "s", Scope::Modes),
    ("sim.shards2_run_s", "s", Scope::Modes),
    ("harness.points_executed", "count", Scope::Suite),
    ("harness.cache_hits", "count", Scope::Suite),
    ("harness.queue_wait_s", "s", Scope::Suite),
    ("harness.execute_s", "s", Scope::Suite),
    ("harness.parallel_efficiency", "ratio", Scope::Suite),
    ("harness.points_per_s", "1/s", Scope::Suite),
    ("harness.gather_points_s", "s", Scope::Suite),
    ("harness.render_s", "s", Scope::Suite),
    ("harness.warm_rerun_s", "s", Scope::Suite),
    ("harness.cache_hit_frac", "ratio", Scope::Suite),
];

/// A name starts with a letter or a digit and is made of at most 64
/// letters, digits, `_`, `.` and `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One named value measured by one child.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            value,
        }
    }
}

/// What a child prints as the last line of its standard output.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChildReport {
    pub metrics: Vec<Metric>,
    /// Hash of the outputs; equal for every repetition of a workload.
    pub fingerprint: String,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub spans: Vec<Span>,
}

impl ChildReport {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The value a share `p` of the way up the sorted `values`, between two
/// neighbours when it falls there; `quantile(v, 0.5)` is the median.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else {
        return f64::NAN;
    };
    let at = p * last as f64;
    let (below, above) = (v[at.floor() as usize], v[at.ceil() as usize]);
    below + (above - below) * at.fract()
}

/// Whether a unit is a time. A time is reported as its fastest repetition,
/// everything else as its median: the simulator is deterministic, so the
/// host can only add to a repetition's time, and on a shared host it does,
/// by up to 3x for tens of seconds at a stretch. Over 30 s of half-second
/// repetitions the fastest repeats within 4 % from run to run where the
/// median moves by 12 to 22 %.
pub fn is_time(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us" | "ns")
}

/// A metric over the repetitions that measured it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    pub name: String,
    pub unit: String,
    /// What is reported and compared: `min` of a time, `median` otherwise.
    pub value: f64,
    pub median: f64,
    /// The lower quartile.
    pub q1: f64,
    pub min: f64,
    pub max: f64,
    pub n: u64,
}

impl Row {
    pub fn new(name: &str, unit: &str, values: &[f64]) -> Row {
        let median = quantile(values, 0.5);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        Row {
            name: name.to_string(),
            unit: unit.to_string(),
            value: if is_time(unit) { min } else { median },
            median,
            q1: quantile(values, 0.25),
            min,
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len() as u64,
        }
    }

    /// How far the repetitions leave `value` in doubt: for a time, the
    /// distance from the fastest repetition to the lower quartile (the
    /// fastest quarter must agree for the floor to be known); otherwise
    /// the whole range.
    fn doubt(&self) -> f64 {
        if is_time(&self.unit) {
            self.q1 - self.min
        } else {
            self.max - self.min
        }
    }

    /// The rows named in `names` (with their units), each over every
    /// value the `reports` hold for it; names no report holds are skipped.
    pub fn collect<'a>(
        names: impl Iterator<Item = (&'a str, &'a str)>,
        reports: &[&ChildReport],
    ) -> Vec<Row> {
        names
            .filter_map(|(name, unit)| {
                let values: Vec<f64> = reports
                    .iter()
                    .flat_map(|r| r.metrics.iter().filter(|m| m.name == name))
                    .map(|m| m.value)
                    .collect();
                (!values.is_empty()).then(|| Row::new(name, unit, &values))
            })
            .collect()
    }
}

#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Host {
    pub logical_cpus: u64,
    pub jobs: u64,
    pub git_commit: String,
    pub dirty: bool,
    pub rustc: String,
    pub seed: u64,
    pub smoke: bool,
    pub argv: Vec<String>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Row>,
    pub per_layer: Vec<Row>,
}

/// What `--out` writes and `compare` reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultFile {
    pub schema: String,
    pub host: Host,
    pub workloads: Vec<WorkloadResult>,
}

pub const SCHEMA: &str = "ladder/1";

impl ResultFile {
    pub fn failed(&self) -> u64 {
        self.workloads.iter().map(|w| w.failed).sum()
    }

    pub fn print(&self) {
        let h = &self.host;
        println!(
            "ladder: seed {:#x}, {} logical CPUs, {} suite jobs, commit {}{}, {}",
            h.seed,
            h.logical_cpus,
            h.jobs,
            h.git_commit,
            if h.dirty { " (dirty)" } else { "" },
            h.rustc
        );
        for w in &self.workloads {
            println!(
                "\n== {} — {} of {} operations failed ==",
                w.name, w.failed, w.attempted
            );
            if let Some(known) = crate::workloads::workload(&w.name) {
                println!("  why: {}", known.why);
            }
            for f in &w.failures {
                println!("  FAILED: {f}");
            }
            println!(
                "  {:<30} {:>14} {:>14} {:>14} {:>14} {:>3}  unit",
                "metric", "value", "median", "min", "max", "n"
            );
            for r in w.end_to_end.iter().chain(&w.per_layer) {
                println!(
                    "  {:<30} {:>14} {:>14} {:>14} {:>14} {:>3}  {}",
                    r.name,
                    sig(r.value),
                    sig(r.median),
                    sig(r.min),
                    sig(r.max),
                    r.n,
                    r.unit
                );
            }
        }
    }
}

/// Six significant digits for tables; files and the driver line carry
/// every digit.
fn sig(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.0}")
    } else {
        let digits = (5 - x.abs().log10().floor() as i32).clamp(0, 12) as usize;
        format!("{x:.digits$}")
    }
}

/// The driver's result line: one JSON object, `metrics` keyed by name.
pub fn driver_line(attempted: u64, failed: u64, rows: &[Row]) -> String {
    use serde::Value;
    let metrics = rows
        .iter()
        .map(|r| {
            let entry = Value::Object(vec![
                ("value".to_string(), Value::F64(r.value)),
                ("unit".to_string(), Value::Str(r.unit.clone())),
            ]);
            (r.name.clone(), entry)
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(failed == 0)),
        ("attempted".to_string(), Value::U64(attempted)),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("a value tree serializes")
}

// ---------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The value moved by less than the bound, and neither file's
    /// repetitions leave it in doubt by more than the bound.
    Within,
    /// Every run of B reads better than every run of A.
    Improved,
    /// B's value is worse than A's by more than the bound.
    Regressed,
    /// Not regressed, but the repetitions of one file disagree by more
    /// than the bound (`Row::doubt`), so "unchanged" cannot be claimed.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within bound",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Lower is better; the slack is taken from A's value.
pub fn verdict(a: &Row, b: &Row, e: &EndToEnd) -> Verdict {
    if b.value > a.value + e.slack(a.value) {
        Verdict::Regressed
    } else if b.max < a.min {
        Verdict::Improved
    } else if a.doubt() > e.slack(a.value) || b.doubt() > e.slack(b.value) {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

/// Print one row per (workload, end-to-end metric) of both files plus
/// every `count` row that differs; `true` when nothing regressed and
/// nothing A holds is missing from B.
pub fn compare(a: &ResultFile, b: &ResultFile) -> bool {
    println!(
        "A: commit {}{}  B: commit {}{}",
        a.host.git_commit,
        if a.host.dirty { " (dirty)" } else { "" },
        b.host.git_commit,
        if b.host.dirty { " (dirty)" } else { "" },
    );
    println!(
        "{:<24} {:<20} {:>12} {:>12} {:>8} {:>9}  verdict",
        "workload", "metric", "A value", "B value", "change", "bound"
    );
    let mut ok = true;
    let mut unresolved = 0;
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            println!("{:<24} MISSING from B", wa.name);
            ok = false;
            continue;
        };
        for e in &END_TO_END {
            let (ra, rb) = match (find(&wa.end_to_end, e.name), find(&wb.end_to_end, e.name)) {
                (Some(ra), Some(rb)) => (ra, rb),
                // The micro-probes' entry has no end-to-end rows at all.
                (None, None) => continue,
                (ra, _) => {
                    let absent = if ra.is_some() { "B" } else { "A" };
                    println!("{:<24} {:<20} MISSING from {absent}", wa.name, e.name);
                    ok = false;
                    continue;
                }
            };
            let v = verdict(ra, rb, e);
            ok &= v != Verdict::Regressed;
            unresolved += usize::from(v == Verdict::Unresolved);
            println!(
                "{:<24} {:<20} {:>12} {:>12} {:>+7.1}% {:>9}  {}",
                wa.name,
                e.name,
                sig(ra.value),
                sig(rb.value),
                100.0 * (rb.value / ra.value - 1.0),
                e.bound_label(),
                v.label()
            );
        }
        let (fa, fb) = (failed_frac(wa), failed_frac(wb));
        let regressed = fb > fa;
        ok &= !regressed;
        println!(
            "{:<24} {:<20} {:>12} {:>12} {:>8} {:>9}  {}",
            wa.name,
            FAILED_FRAC,
            sig(fa),
            sig(fb),
            "",
            "0 abs",
            if regressed {
                "REGRESSED"
            } else {
                "within bound"
            }
        );
        for ra in wa.per_layer.iter().filter(|r| r.unit == "count") {
            match find(&wb.per_layer, &ra.name) {
                Some(rb) if rb.value == ra.value => {}
                other => println!(
                    "{:<24} {:<20} {:>12} {:>12}  count differs",
                    wa.name,
                    ra.name,
                    sig(ra.value),
                    other.map_or("absent".to_string(), |r| sig(r.value)),
                ),
            }
        }
    }
    for wb in &b.workloads {
        if !a.workloads.iter().any(|w| w.name == wb.name) {
            println!("{:<24} only in B, not judged", wb.name);
        }
    }
    println!(
        "{}; {unresolved} unresolved",
        if ok { "no regression" } else { "REGRESSION" }
    );
    ok
}

fn find<'a>(rows: &'a [Row], name: &str) -> Option<&'a Row> {
    rows.iter().find(|r| r.name == name)
}

fn failed_frac(w: &WorkloadResult) -> f64 {
    w.failed as f64 / w.attempted.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn median_quartile_min_max() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0], 0.5), 2.5);
        assert_eq!(quantile(&[5.0, 1.0, 2.0, 4.0, 3.0], 0.25), 2.0);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
        // A time reads as its fastest repetition, anything else as its median.
        let r = Row::new("wall_s", "s", &[3.0, 1.0, 2.0]);
        assert_eq!((r.median, r.q1, r.min, r.max, r.n), (2.0, 1.5, 1.0, 3.0, 3));
        assert_eq!(r.value, 1.0);
        assert_eq!(Row::new("peak_rss_mb", "MB", &[3.0, 1.0, 2.0]).value, 2.0);
    }

    #[test]
    fn name_rule() {
        for good in ["wall_s", "sim.phase.cpu_s", "8x8x8", "a-b", "A1"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn every_name_is_valid_and_used_once() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
        names.push(FAILED_FRAC);
        names.extend(WORKLOADS.iter().map(|w| w.name));
        names.extend(PER_LAYER.iter().map(|(name, _, _)| *name));
        let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len());
        assert!(names.iter().all(|n| valid_name(n)));
    }

    /// `BENCHMARK.json` repeats these tables for the driver; keep them equal.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let json: serde::Value =
            serde_json::from_str(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| match m.get(f) {
                        Some(serde::Value::Str(s)) => s.clone(),
                        _ => String::new(),
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            workloads,
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|e| (e.name.to_string(), e.unit.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        for (m, e) in json
            .get("end_to_end")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(
                m.get("bound"),
                Some(&serde::Value::F64(e.bound.min(DRIVER_MAX_BOUND))),
                "{}",
                e.name
            );
        }
        let every: Vec<(String, String)> = PER_LAYER
            .iter()
            .filter(|(_, _, scope)| *scope == Scope::Every)
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), every);
    }

    /// A time row whose repetitions were these: fastest, lower quartile,
    /// slowest.
    fn row(min: f64, q1: f64, max: f64) -> Row {
        Row::new("wall_s", "s", &[min, q1, q1, q1, max])
    }

    #[test]
    fn verdicts() {
        let e = end_to_end("wall_s", "s", 0.10, 0.0);
        let a = row(10.0, 10.1, 16.0);
        assert_eq!(verdict(&a, &row(10.5, 10.6, 12.0), &e), Verdict::Within);
        assert_eq!(verdict(&a, &row(11.5, 11.6, 12.0), &e), Verdict::Regressed);
        assert_eq!(verdict(&a, &row(9.0, 9.1, 9.9), &e), Verdict::Improved);
        // A fastest quarter wider than the bound cannot claim "unchanged" …
        assert_eq!(verdict(&a, &row(10.2, 11.5, 12.0), &e), Verdict::Unresolved);
        // … but can still be a regression.
        assert_eq!(verdict(&a, &row(12.0, 14.0, 15.0), &e), Verdict::Regressed);
        // Anything but a time is judged on its median and its whole range.
        let mb = |v: &[f64]| Row::new("peak_rss_mb", "MB", v);
        let (a, e) = (
            mb(&[10.0, 10.0, 10.1]),
            end_to_end("peak_rss_mb", "MB", 0.10, 0.0),
        );
        assert_eq!(verdict(&a, &mb(&[10.0, 10.5, 10.6]), &e), Verdict::Within);
        assert_eq!(
            verdict(&a, &mb(&[9.0, 10.5, 10.6]), &e),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&a, &mb(&[9.0, 11.5, 11.6]), &e), Verdict::Regressed);
    }

    /// Below the floor a metric is judged on the absolute slack: 37 us
    /// against 45 us is +22 % and 8 us, nothing against 5 ms.
    #[test]
    fn the_floor_is_the_bound_of_a_small_metric() {
        let e = find_metric("setup_s");
        let a = row(37e-6, 45e-6, 45e-6);
        assert_eq!(verdict(&a, &row(45e-6, 46e-6, 46e-6), e), Verdict::Within);
        assert_eq!(verdict(&a, &row(3e-3, 3e-3, 3e-3), e), Verdict::Within);
        assert_eq!(verdict(&a, &row(6e-3, 6e-3, 6e-3), e), Verdict::Regressed);
        // Above the floor the relative bound takes over: 50 % of 20 ms.
        let big = row(20e-3, 20e-3, 20e-3);
        assert_eq!(verdict(&big, &row(29e-3, 29e-3, 29e-3), e), Verdict::Within);
        assert_eq!(
            verdict(&big, &row(31e-3, 31e-3, 31e-3), e),
            Verdict::Regressed
        );
    }

    fn find_metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|e| e.name == name).unwrap()
    }

    fn file(workloads: Vec<WorkloadResult>) -> ResultFile {
        ResultFile {
            schema: SCHEMA.to_string(),
            host: Host::default(),
            workloads,
        }
    }

    fn result(name: &str, end_to_end: Vec<Row>) -> WorkloadResult {
        WorkloadResult {
            name: name.to_string(),
            attempted: 1,
            failed: 0,
            failures: vec![],
            end_to_end,
            per_layer: vec![],
        }
    }

    /// A row or a workload that A holds and B lacks is not a pass.
    #[test]
    fn compare_fails_on_what_is_missing_from_b() {
        let wall = Row::new("wall_s", "s", &[1.0]);
        let cpu = Row::new("cpu_s", "s", &[1.0]);
        let a = file(vec![
            result("w1", vec![wall.clone(), cpu.clone()]),
            result("w2", vec![wall.clone()]),
        ]);
        assert!(compare(&a, &a));
        let without_cpu = file(vec![
            result("w1", vec![wall.clone()]),
            result("w2", vec![wall.clone()]),
        ]);
        assert!(!compare(&a, &without_cpu));
        assert!(!compare(&without_cpu, &a));
        let without_w2 = file(vec![result("w1", vec![wall.clone(), cpu.clone()])]);
        assert!(!compare(&a, &without_w2));
        // A workload only B has is reported, not judged.
        assert!(compare(&without_w2, &a));
    }
}
