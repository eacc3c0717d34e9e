//! Strategy planner for short messages: sweeps message sizes on a chosen
//! partition, measures all applicable strategies, and reports the winner at
//! each size together with the analytic crossover (Equations 3 vs 4).
//!
//! This is the decision an MPI library has to bake into `MPI_Alltoall`
//! dispatch tables; the paper's answer is "combining below ~32–64 B,
//! direct/TPS above".
//!
//! ```text
//! cargo run --release --example short_message_planner [shape]
//! ```

use bgl_alltoall::model::vmesh as vmesh_model;
use bgl_alltoall::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let shape = args.first().map(String::as_str).unwrap_or("8x8x8");
    let part: Partition = shape.parse().expect("valid shape");
    let params = MachineParams::bgl();
    let p = part.num_nodes();

    // The paper's layout, by `VirtualMesh::choose`'s rule: plane-aligned
    // on an asymmetric 3-D partition, the most nearly square blocks
    // otherwise.
    let vm = VirtualMesh::choose(part);
    println!(
        "partition {part}: virtual mesh {}x{} ({})",
        vm.pvx(),
        vm.pvy(),
        if part.dimensionality() == 3 && !part.is_symmetric() {
            "plane-aligned"
        } else {
            "balanced blocks"
        }
    );
    if let Some(x) = vmesh_model::crossover_exact(&vm, &params) {
        println!("model crossover (Eq 3 = Eq 4): m ≈ {x:.0} B\n");
    }

    let direct_pick = if part.is_symmetric() {
        StrategyKind::ar()
    } else {
        StrategyKind::tps()
    };
    let vmesh = StrategyKind::vmesh();
    let coverage = (150_000.0 / p as f64).clamp(0.05, 1.0);

    println!(
        "{:>7} {:>12} {:>12} {:>10} {:>8}",
        "m (B)", "direct (ms)", "vmesh (ms)", "winner", "auto"
    );
    for m in [1u64, 4, 8, 16, 32, 64, 128, 256] {
        let workload = if coverage >= 1.0 {
            AaWorkload::full(m)
        } else {
            AaWorkload::sampled(m, coverage)
        };
        let run = |s: &StrategyKind| {
            run_aa(part, &workload, s, &params, SimConfig::new(part))
                .map(|r| r.time_secs * 1e3 / r.workload.coverage)
                .expect("simulation completes")
        };
        let td = run(&direct_pick);
        let tv = run(&vmesh);
        let auto = auto_select(&part, m, &params);
        println!(
            "{:>7} {:>12.4} {:>12.4} {:>10} {:>8}",
            m,
            td,
            tv,
            if tv < td { "vmesh" } else { direct_pick.name() },
            auto.name()
        );
    }
}
