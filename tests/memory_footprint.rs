//! Memory footprint of the paper's regime: building and running one
//! 4,096-node exchange may grow the process's peak RSS only so far.
//!
//! This file holds one test so that it is one process: `VmHWM` is the
//! high-water mark of the whole process, and its growth across the run is
//! the run's own footprint — programs, engine, packets. What it pins is
//! the packet layout (DESIGN.md §6, "Memory layout"): with a buffer behind
//! every FIFO, kept at its high-water capacity, this run grew the process
//! by 39.6 MB; with one slab of packets and the FIFO headers in per-node
//! rows, 10.6 MB; holding only what the run reads (a 16-slot flight ring,
//! no credit maps unless credit-paced, a 40-byte packet body), 8.0 MB. The
//! 20,480-node `32x32x20` run is `tests/memory_footprint_32x32x20.rs`.

use bgl_alltoall::prelude::*;

/// Peak resident set of this process in MB (`VmHWM` of
/// `/proc/self/status`); `None` where there is no such file.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// TPS on `8x32x16`, m = 912 B, four destinations per node — the input of
/// the ladder's `asym_tps_8x32x16` (128,672 packets, 915,944 hops at this
/// seed).
#[test]
fn tps_on_8x32x16_stays_within_its_memory_bound() {
    /// 25 % above the 8.0 MB this layout measures (7.96 to 8.02 over four
    /// runs). The 64-slot ring, inline credit maps and 56-byte body measured
    /// 10.5 and would fail it; the per-FIFO-buffer layout measured 39.6 MB.
    const BOUND_MB: f64 = 10.0;
    let Some(before) = peak_rss_mb() else {
        eprintln!("no /proc/self/status: footprint not measured on this platform");
        return;
    };
    let part: Partition = "8x32x16".parse().unwrap();
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
    assert_eq!(report.stats.packets_delivered, 128_672);
    let grown = peak_rss_mb().expect("read a moment ago") - before;
    assert!(
        grown < BOUND_MB,
        "peak RSS grew by {grown:.1} MB across build + run, bound {BOUND_MB} MB"
    );
}
