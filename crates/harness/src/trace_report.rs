//! Human-readable run reports from a traced simulation.
//!
//! [`render_run_report`] turns an [`AaReport`] that carries a
//! [`Trace`](bgl_sim::Trace) into the `bglsim --report` text: a
//! per-interval utilization timeline, phase boundaries for the indirect
//! strategies, FIFO-occupancy highlights and (when detailed link stats
//! were collected) the [`NetStats::hottest_links`] top-k table. This is
//! the tooling face of the paper's Section 4 diagnosis: on an asymmetric
//! torus the timeline makes the Y/Z VC-FIFO ramp of adaptive routing
//! visible, while TPS's timeline stays flat.

use bgl_core::AaReport;
use bgl_sim::{NetStats, TraceSample};
use bgl_torus::{Dim, Partition};
use std::fmt::Write as _;

/// Width of the utilization bar, characters at 100 %.
const BAR_WIDTH: usize = 24;

/// Render the full report. Works without a trace (header, aggregates and
/// hottest-links only) but shines with one.
pub fn render_run_report(report: &AaReport) -> String {
    let mut out = String::new();
    let part = report.partition;
    let _ = writeln!(
        out,
        "run report: {} on {part}, m={} B/dest, coverage {:.4}",
        report.strategy.name(),
        report.workload.m_bytes,
        report.workload.coverage,
    );
    let _ = writeln!(
        out,
        "  completion {} cycles ({:.3} ms), {:.1} % of peak, {:.1} MB/s per node",
        report.cycles,
        report.time_secs * 1e3,
        report.percent_of_peak,
        report.per_node_bandwidth / 1e6,
    );
    let s = &report.stats;
    let _ = writeln!(
        out,
        "  injected {} delivered {} packets, reception stalls {}, bubble fraction {:.3}",
        s.packets_injected,
        s.packets_delivered,
        s.reception_stall_events,
        s.bubble_fraction(),
    );
    if s.dropped_by_fault > 0 {
        let _ = writeln!(
            out,
            "  fault injection: {} packets dropped in flight by link faults \
             (delivered + dropped == injected)",
            s.dropped_by_fault,
        );
    }
    let util: Vec<String> = part
        .dims()
        .map(|d| format!("{d} {:.1}%", 100.0 * s.dim_utilization(&part, d)))
        .collect();
    let _ = writeln!(out, "  link utilization: {}", util.join("  "));

    match &report.trace {
        Some(trace) => {
            out.push('\n');
            render_timeline(&mut out, trace, &part);
            render_phases(&mut out, trace);
            render_fifo_highlights(&mut out, trace);
        }
        None => {
            let _ = writeln!(out, "\n(no trace recorded — rerun with --trace-interval)");
        }
    }
    render_hottest_links(&mut out, s, &part);
    out
}

/// The per-interval timeline: one row per sample, a bar for the busiest
/// dimension's window utilization plus the numbers that tell the
/// head-of-line-blocking story (per-dim dynamic-VC max occupancy, HOL
/// heads, in-flight packets).
fn render_timeline(out: &mut String, trace: &bgl_sim::Trace, part: &Partition) {
    let _ = writeln!(
        out,
        "timeline ({} samples, every {} cycles; bar = busiest dim's link utilization):",
        trace.samples.len(),
        trace.interval_cycles,
    );
    let dim_names: Vec<&str> = Dim::all(part.ndims()).map(|d| d.name()).collect();
    let _ = writeln!(
        out,
        "  {:>10}  {:<bw$}  {:>5}  dynVC max {}  {:>6}  {:>8}",
        "cycle",
        "util",
        "busy%",
        dim_names.join("/"),
        "HOL",
        "inflight",
        bw = BAR_WIDTH,
    );
    let mut prev_cycle = 0u64;
    for sample in &trace.samples {
        let window = sample.cycle.saturating_sub(prev_cycle).max(1);
        prev_cycle = sample.cycle;
        let util = window_utilization(sample, part, window);
        let busiest = util.into_iter().fold(0.0f64, f64::max);
        let filled = ((busiest * BAR_WIDTH as f64).round() as usize).min(BAR_WIDTH);
        let bar: String = "#".repeat(filled) + &"-".repeat(BAR_WIDTH - filled);
        let occ: Vec<String> = sample
            .dyn_vc_occupancy
            .iter()
            .map(|o| format!("{:>4}", o.max_chunks))
            .collect();
        let _ = writeln!(
            out,
            "  {:>10}  {bar}  {:>5.1}  {}  {:>6}  {:>8}",
            sample.cycle,
            100.0 * busiest,
            occ.join("/"),
            sample.hol_blocked_heads,
            sample.packets_in_flight,
        );
    }
    if trace.truncated {
        let _ = writeln!(out, "  … sample cap reached; series truncated");
    }
}

/// Per-dimension link utilization over one sample's window.
fn window_utilization(sample: &TraceSample, part: &Partition, window: u64) -> Vec<f64> {
    let mut util = vec![0.0f64; part.ndims()];
    for d in part.dims() {
        let links = part.directed_links(d);
        if links > 0 {
            util[d.index()] =
                sample.link_busy_delta[d.index()] as f64 / (links as f64 * window as f64);
        }
    }
    util
}

/// Phase boundaries, if any packet ever carried a phase kind (TPS, VMesh
/// and XYZ tag phase-1/phase-2 packets through `PacketMeta::kind`).
fn render_phases(out: &mut String, trace: &bgl_sim::Trace) {
    let spans: Vec<String> = [1u8, 2]
        .into_iter()
        .filter_map(|k| {
            trace
                .phase_span(k)
                .map(|(a, b)| format!("phase {k} in flight over cycles {a}..{b}"))
        })
        .collect();
    if !spans.is_empty() {
        let _ = writeln!(out, "phases: {}", spans.join("; "));
    }
}

/// The "where did packets pile up" headline numbers.
fn render_fifo_highlights(out: &mut String, trace: &bgl_sim::Trace) {
    let peak = trace.peak_dyn_occupancy();
    let peak_bubble = trace
        .samples
        .iter()
        .flat_map(|s| s.bubble_vc_occupancy.iter().map(|o| o.max_chunks))
        .max()
        .unwrap_or(0);
    let peak_recv = trace
        .samples
        .iter()
        .map(|s| s.reception_occupancy.max_chunks)
        .max()
        .unwrap_or(0);
    let peak_hol = trace
        .samples
        .iter()
        .map(|s| s.hol_blocked_heads)
        .max()
        .unwrap_or(0);
    let peaks: Vec<String> = peak.iter().map(|p| p.to_string()).collect();
    let names: Vec<&str> = Dim::all(peak.len()).map(|d| d.name()).collect();
    let _ = writeln!(
        out,
        "FIFO highlights: peak dynamic-VC occupancy {} = {} chunks, \
         peak bubble-VC {} chunks, peak reception {} chunks, peak HOL-blocked heads {}",
        names.join("/"),
        peaks.join("/"),
        peak_bubble,
        peak_recv,
        peak_hol,
    );
}

/// Top-k busiest directed links (needs `detailed_link_stats`; `--report`
/// turns it on).
fn render_hottest_links(out: &mut String, stats: &NetStats, part: &Partition) {
    let hot = stats.hottest_links(part.ports(), 8);
    if hot.is_empty() {
        return;
    }
    let _ = writeln!(out, "hottest links (node, direction, utilization):");
    for (node, dir, util) in hot {
        let _ = writeln!(out, "  node {node:>6}  {dir:<3}  {:>5.1} %", 100.0 * util);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgl_core::{run_aa, AaWorkload, StrategyKind};
    use bgl_model::MachineParams;
    use bgl_sim::{SimConfig, TraceConfig};

    /// `strategy` with 240 B per destination on `shape`, traced every
    /// `interval` cycles if given.
    fn report(shape: &str, strategy: StrategyKind, interval: Option<u64>) -> AaReport {
        let part: Partition = shape.parse().unwrap();
        let mut cfg = SimConfig::new(part);
        cfg.trace = interval.map(TraceConfig::every);
        cfg.detailed_link_stats = true;
        let workload = AaWorkload::full(240);
        run_aa(part, &workload, &strategy, &MachineParams::bgl(), cfg).unwrap()
    }

    fn traced_report() -> AaReport {
        report("4x4", StrategyKind::ar(), Some(200))
    }

    #[test]
    fn report_renders_all_sections() {
        let report = traced_report();
        assert!(report.trace.is_some(), "trace must be recorded");
        let text = render_run_report(&report);
        assert!(text.contains("run report: AR on 4x4"), "{text}");
        assert!(text.contains("timeline ("), "{text}");
        assert!(text.contains("FIFO highlights:"), "{text}");
        assert!(text.contains("hottest links"), "{text}");
    }

    #[test]
    fn report_without_trace_suggests_flag() {
        let text = render_run_report(&report("4x4", StrategyKind::ar(), None));
        assert!(text.contains("no trace recorded"), "{text}");
    }

    #[test]
    fn tps_report_shows_phase_spans() {
        let text = render_run_report(&report("4x2x2", StrategyKind::tps(), Some(100)));
        assert!(text.contains("phases: phase 1 in flight"), "{text}");
    }

    #[test]
    fn timeline_bar_is_bounded() {
        let report = traced_report();
        let text = render_run_report(&report);
        for line in text.lines() {
            let hashes = line.chars().filter(|&c| c == '#').count();
            assert!(hashes <= BAR_WIDTH, "{line}");
        }
    }
}
