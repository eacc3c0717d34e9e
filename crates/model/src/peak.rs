//! Equation 2: the contention-derived peak all-to-all time
//! `T = P·(M/8)·m·β`, generalised over [`bgl_torus::AaLoadAnalysis`] to
//! mesh dimensions and odd sizes.

use crate::params::MachineParams;
use bgl_torus::{AaLoadAnalysis, Partition};

/// Peak (network-bound) all-to-all time in seconds for `m` bytes per
/// destination — the denominator of every "percent of peak" in the paper.
pub fn aa_peak_time_secs(part: &Partition, m: u64, params: &MachineParams) -> f64 {
    AaLoadAnalysis::new(*part).peak_time_byte_times(m) * params.beta_secs_per_byte()
}

/// Peak per-node send bandwidth during the all-to-all, bytes/second
/// (Figure 3's "peak bisection bandwidth per node" curve).
pub fn peak_per_node_bandwidth(part: &Partition, params: &MachineParams) -> f64 {
    AaLoadAnalysis::new(*part).peak_per_node_rate() / params.beta_secs_per_byte()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation_2_literal_form() {
        // T = P·(M/8)·m·β on an even symmetric torus.
        let params = MachineParams::bgl();
        let part: Partition = "8x8x8".parse().unwrap();
        let m = 4096u64;
        let want = 512.0 * (8.0 / 8.0) * m as f64 * params.beta_secs_per_byte();
        assert!((aa_peak_time_secs(&part, m, &params) - want).abs() / want < 1e-12);
    }

    #[test]
    fn equation_2_generalizes_beyond_three_dims() {
        // The paper's closed form T = P·(M/8)·m·β (M the longest
        // dimension) survives the arity generalization: it holds
        // exactly on even symmetric tori of any dimensionality.
        let params = MachineParams::bgl();
        let m = 1024u64;
        for (shape, longest) in [("8x8", 8.0), ("4x4x4x4", 4.0), ("4x4x4x4x2", 4.0)] {
            let part: Partition = shape.parse().unwrap();
            let p = part.num_nodes() as f64;
            let want = p * (longest / 8.0) * m as f64 * params.beta_secs_per_byte();
            let got = aa_peak_time_secs(&part, m, &params);
            assert!(
                (got - want).abs() / want < 1e-12,
                "{shape}: {got} vs {want}"
            );
        }
        // A size-1 dimension carries no links: the 2-D torus and its
        // legacy 3-D spelling share one peak.
        let flat: Partition = "8x8".parse().unwrap();
        let padded: Partition = "8x8x1".parse().unwrap();
        assert_eq!(
            aa_peak_time_secs(&flat, m, &params),
            aa_peak_time_secs(&padded, m, &params),
        );
        // And the peak stays linear in m at 4-D.
        let four: Partition = "4x4x4x4".parse().unwrap();
        let one = aa_peak_time_secs(&four, m, &params);
        let two = aa_peak_time_secs(&four, 2 * m, &params);
        assert!((two / one - 2.0).abs() < 1e-12);
    }

    #[test]
    fn per_node_bandwidth_for_midplane() {
        // ≈ 8/(M·β): for M = 8, ≈ 154 MB/s.
        let params = MachineParams::bgl();
        let part: Partition = "8x8x8".parse().unwrap();
        let bw = peak_per_node_bandwidth(&part, &params);
        assert!((bw / 1e6 - 154.0).abs() < 1.0, "{bw}");
    }

    #[test]
    fn larger_machines_have_longer_peaks() {
        let params = MachineParams::bgl();
        let small: Partition = "8x8x8".parse().unwrap();
        let large: Partition = "16x16x16".parse().unwrap();
        assert!(
            aa_peak_time_secs(&large, 1024, &params) > aa_peak_time_secs(&small, 1024, &params)
        );
    }
}
