//! Equation 4: the 2-D virtual-mesh message-combining model
//! `T ≈ (Pvx+Pvy)·α + 2·P·(m+proto)·((M/8)·β + γ)`
//! and the direct/combining crossover point.
//!
//! Each node sends `Pvx` row messages then `Pvy` column messages (the α
//! term collapses from `P` messages to `Pvx+Pvy`), but every byte crosses
//! the network twice and is memory-copied once on the intermediate node
//! (the doubled β term and the γ term).

use crate::params::MachineParams;
use bgl_torus::{AaLoadAnalysis, VirtualMesh};

/// Virtual-mesh all-to-all time in seconds (Equation 4).
pub fn aa_vmesh_time_secs(vm: &VirtualMesh, m: u64, params: &MachineParams) -> f64 {
    let part = vm.partition();
    let p = part.num_nodes() as f64;
    let contention = AaLoadAnalysis::new(*part).contention_factor().max(1.0);
    let proto = params.proto_header_bytes as f64;
    (vm.pvx() + vm.pvy()) as f64 * params.alpha_message_secs()
        + 2.0
            * p
            * (m as f64 + proto)
            * (contention * params.beta_secs_per_byte() + params.gamma_secs_per_byte())
}

/// Exact model crossover: the message size where Equation 3 equals
/// Equation 4 (both are affine in `m`). Returns `None` when the combining
/// strategy never wins (e.g. the lines are parallel or cross at negative
/// `m`).
pub fn crossover_exact(vm: &VirtualMesh, params: &MachineParams) -> Option<f64> {
    let part = vm.partition();
    let p = part.num_nodes() as f64;
    let c = AaLoadAnalysis::new(*part).contention_factor().max(1.0);
    let beta = params.beta_secs_per_byte();
    let gamma = params.gamma_secs_per_byte();
    // direct(m) = a_d + b_d·m ; vmesh(m) = a_v + b_v·m
    let a_d = p * params.alpha_direct_secs() + p * c * params.software_header_bytes as f64 * beta;
    let b_d = p * c * beta;
    let a_v = (vm.pvx() + vm.pvy()) as f64 * params.alpha_message_secs()
        + 2.0 * p * params.proto_header_bytes as f64 * (c * beta + gamma);
    let b_v = 2.0 * p * (c * beta + gamma);
    if b_v <= b_d {
        // Combining never loses its lead — no finite crossover.
        return None;
    }
    let m = (a_d - a_v) / (b_v - b_d);
    (m > 0.0).then_some(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgl_torus::Partition;

    fn vm512() -> VirtualMesh {
        VirtualMesh::choose("8x8x8".parse().unwrap())
    }

    #[test]
    fn equation_4_literal_form() {
        let params = MachineParams::bgl();
        let vm = vm512();
        let m = 64u64;
        let want = (32.0 + 16.0) * params.alpha_message_secs()
            + 2.0
                * 512.0
                * (64.0 + 8.0)
                * (1.0 * params.beta_secs_per_byte() + params.gamma_secs_per_byte());
        assert!((aa_vmesh_time_secs(&vm, m, &params) - want).abs() / want < 1e-12);
    }

    #[test]
    fn exact_crossover_in_paper_range() {
        // The paper observes the measured change-over between 32 and 64
        // bytes; the full model (α terms included) must agree broadly.
        let params = MachineParams::bgl();
        let m = crossover_exact(&vm512(), &params).expect("crossover exists");
        assert!(m > 16.0 && m < 96.0, "crossover at {m}");
    }

    #[test]
    fn vmesh_wins_small_loses_large() {
        let params = MachineParams::bgl();
        let vm = vm512();
        let part = *vm.partition();
        let small = 8;
        let large = 4096;
        assert!(
            aa_vmesh_time_secs(&vm, small, &params)
                < crate::direct::aa_direct_time_secs(&part, small, &params)
        );
        assert!(
            aa_vmesh_time_secs(&vm, large, &params)
                > crate::direct::aa_direct_time_secs(&part, large, &params)
        );
    }

    #[test]
    fn large_message_efficiency_capped_near_half() {
        // Twice-injected bytes: ≤ ~50 % of peak for large m.
        let params = MachineParams::bgl();
        let vm = vm512();
        let peak = crate::peak::aa_peak_time_secs(vm.partition(), 65536, &params);
        let eff = crate::percent_of_peak(peak, aa_vmesh_time_secs(&vm, 65536, &params));
        assert!(eff < 51.0, "{eff}");
        assert!(eff > 30.0, "{eff}");
    }

    #[test]
    fn asymmetric_4096_vmesh_beats_direct_for_8_bytes() {
        // Figure 7's headline: on 8×32×16, VMesh is ~3× faster than AR at
        // 8 bytes. The models should already show a large gap.
        let params = MachineParams::bgl();
        let part: Partition = "8x32x16".parse().unwrap();
        let vm = VirtualMesh::choose(part);
        let t_direct = crate::direct::aa_direct_time_secs(&part, 8, &params);
        let t_vmesh = aa_vmesh_time_secs(&vm, 8, &params);
        assert!(t_direct / t_vmesh > 1.5, "{}", t_direct / t_vmesh);
    }
}
