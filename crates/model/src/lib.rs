//! Analytical performance models for all-to-all on the BG/L torus
//! (Section 2.1 and Equations 1–4 of the paper).
//!
//! Everything here is closed-form: no simulation, no randomness. The
//! simulator ([`bgl-sim`](../bgl_sim/index.html)) and strategy library
//! ([`bgl-core`](../bgl_core/index.html)) are validated against these
//! models, exactly as the paper validates its measurements (Figures 1, 2
//! and 5 overlay model prediction on measurement).
//!
//! * [`MachineParams`] — the measured BG/L constants (α, β, γ, h, proto)
//!   and unit conversions; [`CHUNK_BYTES`], [`MAX_PACKET_BYTES`] and
//!   [`PACKET_OVERHEAD_BYTES`] — the fixed packet geometry.
//! * [`PointToPoint`] — Equation 1, `T_ptp = α + (m+h)·C·β + L`.
//! * [`peak`] — Equation 2, the contention-derived peak all-to-all time.
//! * [`direct`] — Equation 3, the simple-direct all-to-all cost model.
//! * [`vmesh`] — Equation 4, the 2-D virtual-mesh combining model and the
//!   direct/combining crossover point.
//!
//! # Example
//!
//! ```
//! use bgl_model::{MachineParams, peak, direct};
//! use bgl_torus::Partition;
//!
//! let params = MachineParams::bgl();
//! let part: Partition = "8x8x8".parse().unwrap();
//! let m = 4096; // bytes per destination
//! let t_peak = peak::aa_peak_time_secs(&part, m, &params);
//! let t_model = direct::aa_direct_time_secs(&part, m, &params);
//! assert!(t_model > t_peak);
//! // Large messages approach peak: the model predicts > 90 % efficiency.
//! assert!(t_peak / t_model > 0.9);
//! ```

pub mod direct;
pub mod params;
pub mod peak;
pub mod ptp;
pub mod vmesh;

pub use params::{
    MachineParams, CHUNK_BYTES, MAX_PACKET_BYTES, MAX_PACKET_PAYLOAD, PACKET_OVERHEAD_BYTES,
};
pub use ptp::PointToPoint;

/// Percent of peak achieved: `100 · t_peak / t_measured`.
///
/// Returns 0 when `t_measured` is not a positive finite number.
pub fn percent_of_peak(t_peak: f64, t_measured: f64) -> f64 {
    if t_measured.is_finite() && t_measured > 0.0 {
        100.0 * t_peak / t_measured
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_of_peak_basic() {
        assert_eq!(percent_of_peak(1.0, 2.0), 50.0);
        assert_eq!(percent_of_peak(1.0, 1.0), 100.0);
        assert_eq!(percent_of_peak(1.0, 0.0), 0.0);
        assert_eq!(percent_of_peak(1.0, f64::NAN), 0.0);
        assert_eq!(percent_of_peak(1.0, f64::INFINITY), 0.0);
    }
}
