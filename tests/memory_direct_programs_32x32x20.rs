//! Memory of the direct schemes' programs at the paper's largest
//! partition: building an AR program for every one of the 20,480 nodes of
//! `32x32x20` at full coverage may grow the process's peak RSS only so far.
//! A node's destinations are a formula of its rank and the visit index
//! (`bgl_core::DestinationOrder`), so what a program holds does not grow
//! with the number of peers it sends to.
//!
//! One test, so one process: `VmHWM` is the high-water mark of the whole
//! process, and its growth across the build is the programs' own
//! footprint. The run's footprint is `tests/memory_footprint_32x32x20.rs`.

use bgl_alltoall::core::{DirectConfig, DirectProgram};
use bgl_alltoall::prelude::*;

/// Peak resident set of this process in MB (`VmHWM` of
/// `/proc/self/status`); `None` where there is no such file.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// AR programs for all of `32x32x20`, m = 912 B, every node sending to
/// all 20,479 peers.
#[test]
fn ar_programs_on_32x32x20_stay_within_their_memory_bound() {
    /// Eleven times the 2.9 MB these programs measure. A stored destination
    /// list per node (20,479 `u32` each) measured 1,603 MB and would fail
    /// it by fifty times.
    const BOUND_MB: f64 = 32.0;
    let Some(before) = peak_rss_mb() else {
        eprintln!("no /proc/self/status: footprint not measured on this platform");
        return;
    };
    let part: Partition = "32x32x20".parse().unwrap();
    let (params, workload) = (MachineParams::bgl(), AaWorkload::full(912));
    let ar = DirectConfig::ar(&params);
    let programs: Vec<DirectProgram> = (0..part.num_nodes())
        .map(|rank| DirectProgram::new(rank, &part, &workload, &ar, &params))
        .collect();
    assert_eq!(programs.len(), 20_480);
    assert!(programs.iter().all(|p| !p.is_complete()));
    let grown = peak_rss_mb().expect("read a moment ago") - before;
    assert!(
        grown < BOUND_MB,
        "peak RSS grew by {grown:.1} MB building {} programs, bound {BOUND_MB} MB",
        programs.len()
    );
}
