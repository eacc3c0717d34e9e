//! Equation 1: the point-to-point message time model
//! `T_ptp = α + (m+h)·C·β + L`.

use crate::params::MachineParams;

/// The paper's point-to-point model (Equation 1).
#[derive(Debug, Clone)]
pub struct PointToPoint<'a> {
    params: &'a MachineParams,
}

impl<'a> PointToPoint<'a> {
    /// Build the model over a parameter set.
    pub fn new(params: &'a MachineParams) -> Self {
        PointToPoint { params }
    }

    /// `T_ptp` in seconds for an `m`-byte message experiencing contention
    /// factor `contention` (`C = 1` on an idle network) over `hops` hops.
    ///
    /// * α — non-pipelinable startup, per message.
    /// * (m+h)·C·β — serialization of payload plus software header.
    /// * L — hop latency, `hops · hop_latency_cycles`.
    pub fn time_secs(&self, m: u64, contention: f64, hops: u32) -> f64 {
        let p = self.params;
        p.alpha_direct_secs()
            + (m as f64 + p.software_header_bytes as f64) * contention * p.beta_secs_per_byte()
            + hops as f64 * p.hop_latency_cycles * p.secs_per_cpu_cycle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_byte_cost_is_alpha_plus_header_plus_latency() {
        let p = MachineParams::bgl();
        let m = PointToPoint::new(&p);
        let t = m.time_secs(0, 1.0, 0);
        let want = p.alpha_direct_secs() + 48.0 * p.beta_secs_per_byte();
        assert!((t - want).abs() < 1e-15);
    }

    #[test]
    fn time_is_affine_in_message_size() {
        let p = MachineParams::bgl();
        let m = PointToPoint::new(&p);
        let t1 = m.time_secs(1000, 1.0, 4);
        let t2 = m.time_secs(2000, 1.0, 4);
        let t3 = m.time_secs(3000, 1.0, 4);
        assert!((t3 - t2 - (t2 - t1)).abs() < 1e-15);
        assert!((t2 - t1 - 1000.0 * p.beta_secs_per_byte()).abs() < 1e-15);
    }

    #[test]
    fn contention_multiplies_only_the_bandwidth_term() {
        let p = MachineParams::bgl();
        let m = PointToPoint::new(&p);
        let base = m.time_secs(1000, 1.0, 0) - p.alpha_direct_secs();
        let loaded = m.time_secs(1000, 4.0, 0) - p.alpha_direct_secs();
        assert!((loaded / base - 4.0).abs() < 1e-12);
    }

    #[test]
    fn hop_latency_counts() {
        let p = MachineParams::bgl();
        let m = PointToPoint::new(&p);
        let extra = m.time_secs(100, 1.0, 12) - m.time_secs(100, 1.0, 1);
        assert!((extra - 11.0 * p.hop_latency_cycles * p.secs_per_cpu_cycle()).abs() < 1e-15);
    }
}
