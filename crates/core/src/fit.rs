//! Measuring the model parameters from benchmarks — the paper's §2.1
//! ("The model parameters are measured from ping-pong benchmark and
//! measuring all-to-all performance with small messages on smaller
//! processor partitions"), reproduced against the simulator.
//!
//! [`fit_ptp_params`] runs single-message latency benchmarks across
//! message sizes on an otherwise idle partition and least-squares fits
//! Equation 1's affine form `T(m) = α + (m+h)·β`, recovering the α and β
//! that the rest of the models consume. The fit doubles as an end-to-end
//! consistency check: the recovered β must match the link bandwidth the
//! simulator was built around.

use crate::walk::SendWalk;
use crate::workload::Framing;
use bgl_model::MachineParams;
use bgl_sim::{Engine, NodeProgram, RoutingMode, ScriptedProgram, SimConfig, SimError};
use bgl_torus::Partition;

/// Result of a parameter fit.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedModel {
    /// Fitted per-message startup α, in simulator cycles.
    pub alpha_cycles: f64,
    /// Fitted per-byte time β, in nanoseconds.
    pub beta_ns_per_byte: f64,
    /// Coefficient of determination of the linear fit.
    pub r_squared: f64,
    /// The (m, cycles) samples the fit used.
    pub samples: Vec<(u64, u64)>,
}

/// One-way message time in cycles between two neighbouring nodes on
/// `part`, sending `m` application bytes with the direct runtime's
/// packetization and per-destination α.
///
/// # Errors
/// [`SimError::TooFewNodes`] ("a one-way message") on a one-node
/// partition; the engine's error if the message does not arrive.
pub fn one_way_message_cycles(
    part: &Partition,
    m: u64,
    params: &MachineParams,
) -> Result<u64, SimError> {
    let p = part.num_nodes();
    if p < 2 {
        return Err(SimError::TooFewNodes {
            what: "a one-way message",
            nodes: p,
        });
    }
    let alpha = params.cpu_to_sim_cycles(params.alpha_direct_cycles);
    let walk = SendWalk::new(vec![1], Framing::direct(m, params), 1, alpha);
    let n = walk.framing().packets() as u64;
    let sends = walk
        .map(|s| s.send(s.target, RoutingMode::Adaptive))
        .collect();
    let mut programs: Vec<Box<dyn NodeProgram>> = vec![
        Box::new(ScriptedProgram::new(sends, 0)),
        Box::new(ScriptedProgram::new(vec![], n)),
    ];
    for _ in 2..p {
        programs.push(Box::new(ScriptedProgram::idle()));
    }
    let cfg = SimConfig::new(*part);
    Ok(Engine::new(cfg, programs).run()?.completion_cycle)
}

/// Least-squares fit of `T(m) = α' + m·β` over one-way latencies measured
/// on the simulator (α' absorbs the software header's wire time, exactly
/// as the paper's ping-pong fit does).
///
/// # Errors
/// [`SimError::TooFewNodes`] ("a ping-pong fit") on a one-node partition;
/// else the first error of [`one_way_message_cycles`].
pub fn fit_ptp_params(part: &Partition, params: &MachineParams) -> Result<FittedModel, SimError> {
    if part.num_nodes() < 2 {
        return Err(SimError::TooFewNodes {
            what: "a ping-pong fit",
            nodes: part.num_nodes(),
        });
    }
    let sizes: Vec<u64> = vec![192, 432, 912, 1872, 3792, 7632, 15312];
    let samples: Vec<(u64, u64)> = sizes
        .iter()
        .map(|&m| Ok((m, one_way_message_cycles(part, m, params)?)))
        .collect::<Result<_, SimError>>()?;
    let n = samples.len() as f64;
    let sx: f64 = samples.iter().map(|&(m, _)| m as f64).sum();
    let sy: f64 = samples.iter().map(|&(_, t)| t as f64).sum();
    let sxx: f64 = samples.iter().map(|&(m, _)| (m as f64) * (m as f64)).sum();
    let sxy: f64 = samples.iter().map(|&(m, t)| (m as f64) * (t as f64)).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - slope * sx) / n;
    // R².
    let mean_y = sy / n;
    let ss_tot: f64 = samples
        .iter()
        .map(|&(_, t)| (t as f64 - mean_y).powi(2))
        .sum();
    let ss_res: f64 = samples
        .iter()
        .map(|&(m, t)| (t as f64 - (intercept + slope * m as f64)).powi(2))
        .sum();
    let r_squared = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        1.0
    };
    Ok(FittedModel {
        alpha_cycles: intercept,
        beta_ns_per_byte: slope * params.secs_per_sim_cycle() * 1e9,
        r_squared,
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_way_latency_grows_with_size() {
        let part: Partition = "4x1x1".parse().unwrap();
        let params = MachineParams::bgl();
        let small = one_way_message_cycles(&part, 192, &params).unwrap();
        let large = one_way_message_cycles(&part, 3792, &params).unwrap();
        assert!(large > small * 10, "{small} vs {large}");
    }

    #[test]
    fn fit_recovers_beta_near_configured() {
        // The simulator serializes one 30-payload-byte chunk per cycle on
        // an idle path, so the fitted β must come out at the configured
        // 6.48 ns/B within a few percent (granularity noise).
        let part: Partition = "4x1x1".parse().unwrap();
        let params = MachineParams::bgl();
        let fit = fit_ptp_params(&part, &params).unwrap();
        let err = (fit.beta_ns_per_byte - params.beta_ns_per_byte).abs() / params.beta_ns_per_byte;
        assert!(
            err < 0.10,
            "fitted β = {} ns/B (configured {})",
            fit.beta_ns_per_byte,
            params.beta_ns_per_byte
        );
        assert!(fit.r_squared > 0.999, "r² = {}", fit.r_squared);
    }

    #[test]
    fn fit_alpha_is_positive_and_reasonable() {
        // α' = configured α (≈3.3 cycles) + per-packet handling + header
        // wire time: positive and below ~50 cycles.
        let part: Partition = "4x1x1".parse().unwrap();
        let params = MachineParams::bgl();
        let fit = fit_ptp_params(&part, &params).unwrap();
        assert!(fit.alpha_cycles > 0.0, "{}", fit.alpha_cycles);
        assert!(fit.alpha_cycles < 50.0, "{}", fit.alpha_cycles);
    }

    #[test]
    fn fit_samples_are_recorded() {
        let part: Partition = "2x1x1".parse().unwrap();
        let fit = fit_ptp_params(&part, &MachineParams::bgl()).unwrap();
        assert_eq!(fit.samples.len(), 7);
        assert!(fit.samples.windows(2).all(|w| w[1].1 > w[0].1));
    }

    #[test]
    fn a_one_node_partition_is_a_typed_error() {
        let part: Partition = "1x1x1".parse().unwrap();
        let params = MachineParams::bgl();
        let one_way = one_way_message_cycles(&part, 192, &params).unwrap_err();
        assert_eq!(
            one_way.to_string(),
            "a one-way message needs at least two nodes, got a 1-node partition"
        );
        let fit = fit_ptp_params(&part, &params).unwrap_err();
        assert_eq!(
            fit,
            SimError::TooFewNodes {
                what: "a ping-pong fit",
                nodes: 1
            }
        );
        assert_eq!(
            fit.to_string(),
            "a ping-pong fit needs at least two nodes, got a 1-node partition"
        );
    }
}
