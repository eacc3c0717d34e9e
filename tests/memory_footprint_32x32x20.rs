//! Memory footprint at the paper's largest partition: building and running
//! one exchange on the 20,480 nodes of `32x32x20` may grow the process's
//! peak RSS only so far (ROADMAP item 7, memory bounded at the paper's
//! scale).
//!
//! One test, so one process: `VmHWM` is the high-water mark of the whole
//! process, and its growth across the run is the run's own footprint. The
//! 4,096-node row is `tests/memory_footprint.rs`; this one pins what grows
//! with the node count (node states, FIFO rows, per-link tables, programs)
//! where the paper measured.

use bgl_alltoall::prelude::*;

/// Peak resident set of this process in MB (`VmHWM` of
/// `/proc/self/status`); `None` where there is no such file.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// TPS on `32x32x20`, m = 912 B, four destinations per node (638,580
/// packets at this seed; 7.5 s in the test profile).
#[test]
fn tps_on_32x32x20_stays_within_its_memory_bound() {
    /// 25 % above the 45.5 MB this layout measures. The 64-slot ring,
    /// inline credit maps and 56-byte body measured 62.0 MB and would fail
    /// it.
    const BOUND_MB: f64 = 57.0;
    let Some(before) = peak_rss_mb() else {
        eprintln!("no /proc/self/status: footprint not measured on this platform");
        return;
    };
    let part: Partition = "32x32x20".parse().unwrap();
    let workload = AaWorkload::sampled(912, 4.0 / (part.num_nodes() - 1) as f64);
    let tps = StrategyKind::tps();
    let report = run_aa(
        part,
        &workload,
        &tps,
        &MachineParams::bgl(),
        SimConfig::new(part),
    )
    .unwrap();
    assert_eq!(report.stats.packets_delivered, 638_580);
    let grown = peak_rss_mb().expect("read a moment ago") - before;
    assert!(
        grown < BOUND_MB,
        "peak RSS grew by {grown:.1} MB across build + run, bound {BOUND_MB} MB"
    );
}
