//! AR around one dead link: on a torus an adaptive exchange routes around
//! any single link that is dead from the start and never recovers, so every
//! such run completes. A detour that took the dead direction's reverse came
//! straight back on the minimal route and ping-ponged until its budget was
//! spent, ending 67 of the 256 runs on 8x8 and 31 of the 384 on 4x4x4 in a
//! false "destination unreachable". On a ring the reverse is the only
//! detour, and it now goes on the long way round: before that, every packet
//! that needed the dead link was stranded.

use bgl_alltoall::prelude::*;
use bgl_alltoall::sim::{FaultPlan, LinkFault};

/// Run AR at m = 64 with the oracle on once per directed link of `shape`,
/// that link dead; return the links whose run did not complete. A size-1
/// dimension has no links to kill.
fn failures(shape: &str) -> Vec<String> {
    let part: Partition = shape.parse().unwrap();
    let workload = AaWorkload::full(64);
    let mut failed = Vec::new();
    for node in 0..part.num_nodes() {
        let links = part.directions();
        for dir in links.filter(|&d| part.neighbor(part.coord_of(node), d).is_some()) {
            let mut cfg = SimConfig::new(part);
            cfg.check_invariants = true;
            cfg.fault = FaultPlan {
                links: vec![LinkFault::dead(node, dir)],
                nodes: vec![],
            };
            let ar = StrategyKind::ar();
            if let Err(e) = run_aa(part, &workload, &ar, &MachineParams::bgl(), cfg) {
                failed.push(format!("{node}:{dir}: {e}"));
            }
        }
    }
    failed
}

#[test]
fn ar_completes_around_every_single_dead_link_on_8x8() {
    let failed = failures("8x8");
    assert!(failed.is_empty(), "{} of 256: {failed:#?}", failed.len());
}

#[test]
fn ar_completes_around_every_single_dead_link_on_4x4x4() {
    let failed = failures("4x4x4");
    assert!(failed.is_empty(), "{} of 384: {failed:#?}", failed.len());
}

#[test]
fn ar_completes_around_every_single_dead_link_on_the_8_ring() {
    let failed = failures("8x1x1");
    assert!(failed.is_empty(), "{} of 16: {failed:#?}", failed.len());
}

#[test]
fn ar_completes_around_every_single_dead_link_on_the_16_ring() {
    let failed = failures("16x1x1");
    assert!(failed.is_empty(), "{} of 32: {failed:#?}", failed.len());
}
