//! Figure 7: short-message AA on the asymmetric 8×32×16 (4096-node)
//! torus — AR vs TPS vs VMesh. VMesh wins small, TPS takes over at
//! ~64 bytes, AR trails throughout because of asymmetric contention.

use super::{full_aa_ms, Experiment, Line, Rows};
use crate::runner::{RunPoint, RunResult, Runner, Scale, Unit};
use bgl_core::{Pacer, StrategyKind};
use bgl_torus::Partition;

pub(super) const FIG7: Experiment = Experiment {
    id: "fig7",
    title: "Short-message AA on asymmetric torus: AR vs TPS vs VMesh (paper Figure 7)",
    columns: &["m (B)", "AR ms", "TPS ms", "VMesh ms", "best"],
    notes: &["paper: at 8 B VMesh ≈ 2× TPS and ≈ 3× AR; TPS/VMesh crossover at 64 B"],
    rows,
};

/// One row from its cells, in column order; `None` is a cell this scale
/// does not simulate.
fn row(m: u64, cells: [Option<&RunResult>; 3]) -> Line {
    let mut out = vec![m.to_string()];
    let mut best = ("-", f64::INFINITY);
    for (name, cell) in ["AR", "TPS", "VMesh"].into_iter().zip(cells) {
        out.push(match cell {
            None => "-".into(),
            Some(Ok(r)) => {
                let t = full_aa_ms(r);
                if t < best.1 {
                    best = (name, t);
                }
                format!("{t:.4}")
            }
            Some(Err(e)) => format!("ERR:{e}"),
        });
    }
    out.push(best.0.to_string());
    Line::Row(out)
}

fn rows(runner: &Runner) -> Rows {
    // The partition (shrunk for quick scale but still asymmetric), the
    // message sizes swept, and VMesh. At paper scale VMesh carries the
    // stop-and-wait credit window: its full-coverage phase-1 burst on the
    // 4096-node 8×32×16 wedges the network unpaced (the conformance
    // suite's old known limitation — see
    // `conformance::families::vmesh_paced`), and a one-packet window per
    // row intermediate keeps it live.
    let (shape, sizes, vmesh): (_, &[u64], _) = match runner.scale {
        Scale::Quick => ("4x8x4", &[8, 64], StrategyKind::vmesh()),
        Scale::Paper => (
            "8x32x16",
            &[8, 16, 32, 64, 128],
            StrategyKind::vmesh().with_pacer(Pacer::credit(1, 1)),
        ),
    };
    let part: Partition = shape.parse().unwrap();
    let row_for = |&m: &u64| {
        let tps = runner.point(shape, &StrategyKind::tps(), m);
        // VMesh is pinned at full coverage (a combined message carries a
        // whole column's data, so destination sampling cannot shrink its
        // traffic and the budgeted coverage would misreport); the direct
        // and forwarding schemes run at the runner's budgeted coverage.
        let vm = RunPoint::new(part, vmesh.clone(), m, 1.0);
        // The congestion-collapsed AR runs are the slowest to simulate
        // and the paper only needs AR's (bad) level: paper scale samples
        // it at two sizes.
        if runner.scale == Scale::Quick || m == 8 || m == 64 {
            let ar = runner.point(shape, &StrategyKind::ar(), m);
            Unit::new([ar, tps, vm], move |[ar, tps, vm]| {
                row(m, [Some(ar), Some(tps), Some(vm)])
            })
        } else {
            Unit::new([tps, vm], move |[tps, vm]| {
                row(m, [None, Some(tps), Some(vm)])
            })
        }
    };
    sizes.iter().map(row_for).collect()
}

#[cfg(test)]
mod tests {
    use crate::experiments::quick;

    #[test]
    fn quick_fig7_vmesh_best_at_8_bytes() {
        let rep = quick("fig7");
        assert_eq!(rep.rows[0][4], "VMesh", "{:?}", rep.rows[0]);
    }
}
