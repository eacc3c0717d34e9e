//! Equation 3: the simple-direct all-to-all cost model
//! `T ≈ P·α + P·(M/8)·(m+h)·β`.
//!
//! The first term is the per-destination startup that cannot be pipelined;
//! the second is the time to push every byte (payload plus the software
//! header, which rides in each message's first packet) through the
//! bottleneck links. Generalised here through [`AaLoadAnalysis`] so the
//! contention factor is exact for meshes and odd sizes too.

use crate::params::MachineParams;
use bgl_torus::{AaLoadAnalysis, Partition};

/// Direct all-to-all time in seconds (Equation 3).
pub fn aa_direct_time_secs(part: &Partition, m: u64, params: &MachineParams) -> f64 {
    let p = part.num_nodes() as f64;
    let contention = AaLoadAnalysis::new(*part).contention_factor().max(1.0);
    let header = params.software_header_bytes as f64;
    p * params.alpha_direct_secs()
        + p * contention * (m as f64 + header) * params.beta_secs_per_byte()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation_3_literal_form() {
        let params = MachineParams::bgl();
        let part: Partition = "16x16x16".parse().unwrap();
        let m = 1024u64;
        let p = 4096.0;
        let want = p * params.alpha_direct_secs()
            + p * 2.0 * (m as f64 + 48.0) * params.beta_secs_per_byte();
        assert!((aa_direct_time_secs(&part, m, &params) - want).abs() / want < 1e-12);
    }

    #[test]
    fn contention_floor_is_one() {
        // A 2-node line has load factor 2·2/8 < 1 per the torus formula, but
        // a message still can't move faster than β — C clamps at 1.
        let params = MachineParams::bgl();
        let part: Partition = "2x1x1".parse().unwrap();
        let t = aa_direct_time_secs(&part, 1000, &params);
        assert!(t >= 2.0 * 1000.0 * params.beta_secs_per_byte());
    }

    /// Peak over modelled time, percent.
    fn efficiency(part: &Partition, m: u64, params: &MachineParams) -> f64 {
        let peak = crate::peak::aa_peak_time_secs(part, m, params);
        crate::percent_of_peak(peak, aa_direct_time_secs(part, m, params))
    }

    #[test]
    fn large_message_efficiency_approaches_payload_fraction() {
        let params = MachineParams::bgl();
        let part: Partition = "8x8x8".parse().unwrap();
        // m/(m+h): 4096/(4096+48) ≈ 98.8 %.
        let eff = efficiency(&part, 4096, &params);
        assert!(eff > 95.0 && eff < 100.0, "{eff}");
        let eff_huge = efficiency(&part, 1 << 20, &params);
        assert!(eff_huge > 99.9, "{eff_huge}");
    }

    #[test]
    fn small_message_efficiency_is_startup_bound() {
        let params = MachineParams::bgl();
        let part: Partition = "8x8x8".parse().unwrap();
        let eff = efficiency(&part, 8, &params);
        assert!(eff < 15.0, "{eff}");
    }
}
