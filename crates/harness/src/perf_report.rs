//! Human-readable host-profiling reports.
//!
//! [`render_perf_report`] turns an [`AaReport`] that carries a
//! [`PerfProfile`](bgl_sim::PerfProfile) into the `bglsim profile` text:
//! a per-phase wall-clock breakdown, the skipping clock's wake-cause
//! breakdown and its power-of-two skip-length histogram.
//! Everything here is *host* time (seconds on the machine running the
//! simulator); the simulated-cycle figures next to it exist precisely so
//! the two are never confused.

use bgl_core::AaReport;
use bgl_sim::{EventPerf, PerfProfile};
use std::fmt::Write as _;

/// Width of the share bars, characters at 100 %.
const BAR_WIDTH: usize = 24;

/// Render the full profile report. Falls back to a one-line hint when the
/// report carries no profile (the run was made without `SimConfig::perf`).
pub fn render_perf_report(report: &AaReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "perf profile: {} on {}, m={} B/dest, coverage {:.4}",
        report.strategy.name(),
        report.partition,
        report.workload.m_bytes,
        report.workload.coverage,
    );
    let Some(p) = &report.perf else {
        let _ = writeln!(out, "(no profile recorded — rerun with --perf)");
        return out;
    };
    let _ = writeln!(
        out,
        "  simulated {} cycles ({:.3} ms of machine time) in {:.3} s of host wall-clock",
        report.cycles,
        report.time_secs * 1e3,
        p.total_secs,
    );
    let _ = writeln!(
        out,
        "  stepped {} cycles, skipped {} cycles",
        p.stepped_cycles,
        p.skipped_cycles(),
    );
    let _ = writeln!(
        out,
        "  active set: mean {:.1}, max {} marked nodes per stepped cycle",
        p.active_occupancy_mean, p.active_occupancy_max,
    );
    let [(_, cpu), (_, cpu_parked), (_, arb), (_, arb_parked), (_, refused)] = p.visit_totals();
    let _ = writeln!(
        out,
        "  visits: cpu {cpu} made / {cpu_parked} parked, \
         arbitration {arb} made / {arb_parked} parked ({refused} output attempts refused)",
    );
    let [(_, live), (_, slots)] = p.packet_totals();
    let _ = writeln!(out, "  packets: peak {live} live in {slots} slab slots");
    let [(_, queued), (_, slots)] = p.send_totals();
    let _ = writeln!(out, "  sends: peak {queued} queued in {slots} slots");
    out.push('\n');
    render_phase_breakdown(&mut out, p);
    render_event_counters(&mut out, &p.event);
    out
}

/// A `#`/`-` bar whose fill is `share` of [`BAR_WIDTH`].
fn bar(share: f64) -> String {
    let filled = ((share.clamp(0.0, 1.0) * BAR_WIDTH as f64).round() as usize).min(BAR_WIDTH);
    "#".repeat(filled) + &"-".repeat(BAR_WIDTH - filled)
}

/// Per-phase host seconds, as shares of the phase-attributed busy total.
fn render_phase_breakdown(out: &mut String, p: &PerfProfile) {
    let totals = p.phase_totals();
    let busy = totals.total();
    let _ = writeln!(
        out,
        "phase breakdown (host seconds; bar = share of busy time):"
    );
    // `id_fixup` is a slot the engine no longer fills (`PhaseSecs`).
    for (label, secs) in totals.named().into_iter().filter(|r| r.0 != "id_fixup") {
        let share = if busy > 0.0 { secs / busy } else { 0.0 };
        let _ = writeln!(
            out,
            "  {label:<12} {}  {secs:>9.4}s  {:>5.1}%",
            bar(share),
            100.0 * share,
        );
    }
    let attributed = if p.total_secs > 0.0 {
        100.0 * busy / p.total_secs
    } else {
        0.0
    };
    let _ = writeln!(out, "  busy {busy:.4}s ({attributed:.1}% of wall-clock)");
}

/// Skipping-clock section: jump totals, wake-cause breakdown and the
/// skip-length histogram (only non-empty buckets are printed).
fn render_event_counters(out: &mut String, ev: &EventPerf) {
    let avg = if ev.skips > 0 {
        ev.skipped_cycles as f64 / ev.skips as f64
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "event engine: {} cycles skipped in {} jumps (avg {avg:.1} cycles/jump), \
         {} fresh suppressions",
        ev.skipped_cycles, ev.skips, ev.fresh_suppressions,
    );
    let _ = writeln!(out, "wake causes (what bounded each jump):");
    for (label, count) in ev.wake_causes() {
        let share = if ev.skips > 0 {
            count as f64 / ev.skips as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  {label:<18} {}  {count:>8}  {:>5.1}%",
            bar(share),
            100.0 * share,
        );
    }
    let _ = writeln!(out, "skip-length histogram (cycles per jump):");
    let max = ev.skip_histogram.iter().copied().max().unwrap_or(0);
    for (k, &count) in ev.skip_histogram.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let share = if max > 0 {
            count as f64 / max as f64
        } else {
            0.0
        };
        let lo = 1u64 << k;
        let label = if k + 1 == ev.skip_histogram.len() {
            format!("{lo}+")
        } else {
            format!("{lo}..{}", (lo << 1) - 1)
        };
        let _ = writeln!(out, "  {label:>14} {}  {count:>8}", bar(share));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgl_core::{run_aa, AaWorkload, StrategyKind};
    use bgl_model::MachineParams;
    use bgl_sim::{EngineMode, PerfConfig, SimConfig};
    use bgl_torus::Partition;

    /// AR with 240 B per destination on 4x4 under `engine`.
    fn report(engine: EngineMode, perf: Option<PerfConfig>) -> AaReport {
        let part: Partition = "4x4".parse().unwrap();
        let mut cfg = SimConfig::new(part);
        (cfg.engine, cfg.perf) = (engine, perf);
        let workload = AaWorkload::full(240);
        run_aa(
            part,
            &workload,
            &StrategyKind::ar(),
            &MachineParams::bgl(),
            cfg,
        )
        .unwrap()
    }

    fn profiled_report(engine: EngineMode) -> AaReport {
        report(engine, Some(PerfConfig::default()))
    }

    #[test]
    fn report_renders_the_phase_section() {
        let report = profiled_report(EngineMode::FullScan);
        assert!(report.perf.is_some(), "profile must be recorded");
        let text = render_perf_report(&report);
        assert!(text.contains("perf profile: AR on 4x4"), "{text}");
        assert!(text.contains("  visits: cpu "), "{text}");
        assert!(text.contains(" slab slots\n"), "{text}");
        assert!(text.contains("  sends: peak "), "{text}");
        assert!(text.contains("phase breakdown"), "{text}");
        assert!(text.contains("arbitration"), "{text}");
    }

    #[test]
    fn event_mode_report_has_wake_causes_and_histogram() {
        let report = profiled_report(EngineMode::EventDriven);
        let text = render_perf_report(&report);
        assert!(text.contains("event engine:"), "{text}");
        assert!(text.contains("wake causes"), "{text}");
        assert!(text.contains("skip-length histogram"), "{text}");
    }

    #[test]
    fn report_without_profile_suggests_flag() {
        let text = render_perf_report(&report(EngineMode::default(), None));
        assert!(text.contains("no profile recorded"), "{text}");
    }

    #[test]
    fn bars_are_bounded() {
        let report = profiled_report(EngineMode::EventDriven);
        let text = render_perf_report(&report);
        for line in text.lines() {
            let hashes = line.chars().filter(|&c| c == '#').count();
            assert!(hashes <= BAR_WIDTH, "{line}");
        }
    }
}
