//! Figure 5: the Equation-4 virtual-mesh model prediction on 512 nodes
//! (pure model — its units read no simulation).

use super::{Experiment, Line, Rows};
use crate::runner::{Runner, Unit};
use bgl_model::{direct, vmesh as vmesh_model, MachineParams};
use bgl_torus::{Partition, VirtualMesh};

/// Message sizes plotted.
const SIZES: [u64; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

pub(super) const FIG5: Experiment = Experiment {
    id: "fig5",
    title: "VMesh Equation-4 prediction, 32x16 virtual mesh on 8x8x8 (paper Figure 5)",
    columns: &[
        "m (B)",
        "T_vmesh model (ms)",
        "T_direct model (ms)",
        "winner",
    ],
    notes: &[],
    rows,
};

fn model() -> (Partition, VirtualMesh, MachineParams) {
    let part: Partition = "8x8x8".parse().unwrap();
    let vm = VirtualMesh::choose(part);
    assert_eq!((vm.pvx(), vm.pvy()), (32, 16), "paper's 32x16 mesh");
    (part, vm, MachineParams::bgl())
}

fn rows(_runner: &Runner) -> Rows {
    let row = |m: u64| {
        Unit::new([], move |[]| {
            let (part, vm, params) = model();
            let t_v = vmesh_model::aa_vmesh_time_secs(&vm, m, &params) * 1e3;
            let t_d = direct::aa_direct_time_secs(&part, m, &params) * 1e3;
            Line::Row(vec![
                m.to_string(),
                format!("{t_v:.4}"),
                format!("{t_d:.4}"),
                if t_v < t_d { "vmesh" } else { "direct" }.to_string(),
            ])
        })
    };
    let crossover = Unit::new([], |[]| {
        let (_, vm, params) = model();
        let cross = vmesh_model::crossover_exact(&vm, &params).unwrap_or(f64::NAN);
        Line::Note(format!(
            "model crossover at m = {cross:.0} B (paper: β-terms-only estimate 32 B, measured 32–64 B)"
        ))
    });
    SIZES.map(row).into_iter().chain([crossover]).collect()
}

#[cfg(test)]
mod tests {
    use crate::experiments::quick;

    #[test]
    fn winner_flips_once_from_vmesh_to_direct() {
        let rep = quick("fig5");
        let winners: Vec<&str> = rep.rows.iter().map(|r| r[3].as_str()).collect();
        let first_direct = winners
            .iter()
            .position(|&w| w == "direct")
            .expect("direct wins large");
        assert!(first_direct > 0, "vmesh must win the smallest sizes");
        assert!(
            winners[first_direct..].iter().all(|&w| w == "direct"),
            "single crossover"
        );
    }
}
