//! Automatic strategy selection — the paper's bottom line (Section 5):
//! "all-to-all performance in excess of 95 % of peak can be achieved by
//! using our best algorithm: a direct algorithm on a symmetric torus or the
//! Two Phase algorithm on an asymmetric torus", with virtual-mesh combining
//! below the short-message crossover.

use crate::strategy::StrategyKind;
use bgl_model::MachineParams;
use bgl_torus::{Partition, VirtualMesh, VmeshLayout};

/// Message size (bytes) below which combining wins. The paper measures the
/// crossover between 32 and 64 bytes; we use the exact Equation-3/4 model
/// crossover when it exists, clamped into the paper's observed band.
pub fn combining_crossover_bytes(part: &Partition, params: &MachineParams) -> u64 {
    let vm = VirtualMesh::choose(*part, VmeshLayout::Auto);
    let exact = bgl_model::vmesh::crossover_exact(&vm, params)
        .unwrap_or(params.software_header_bytes as f64 - 2.0 * params.proto_header_bytes as f64);
    (exact.round() as u64).clamp(16, 64)
}

/// Pick the paper's best strategy for `(part, m)`.
pub fn auto_select(part: &Partition, m: u64, params: &MachineParams) -> StrategyKind {
    // The indirect schedules are 3-D constructions (see
    // [`StrategyKind::supported_dims`]); on higher-arity tori the adaptive
    // direct scheme is the only paper strategy that generalizes, so Auto
    // must resolve to it — Auto never yields a strategy that would reject
    // the partition.
    if part.ndims() > 3 {
        return StrategyKind::ar();
    }
    if part.num_nodes() >= 16 && m <= combining_crossover_bytes(part, params) {
        return StrategyKind::vmesh();
    }
    if part.is_symmetric() {
        StrategyKind::ar()
    } else {
        StrategyKind::tps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Scheme;

    fn sel(shape: &str, m: u64) -> StrategyKind {
        auto_select(&shape.parse().unwrap(), m, &MachineParams::bgl())
    }

    #[test]
    fn symmetric_large_message_uses_ar() {
        assert_eq!(sel("8x8x8", 4096), StrategyKind::ar());
        assert_eq!(sel("16x16", 1024), StrategyKind::ar());
    }

    #[test]
    fn asymmetric_large_message_uses_tps() {
        for (shape, m) in [("8x32x16", 4096), ("40x32x16", 1024), ("8x8x2M", 1024)] {
            assert!(matches!(
                sel(shape, m).scheme,
                Scheme::TwoPhaseSchedule { .. }
            ));
        }
    }

    #[test]
    fn short_messages_use_vmesh() {
        for (shape, m) in [("8x8x8", 8), ("8x32x16", 16)] {
            assert!(matches!(sel(shape, m).scheme, Scheme::VirtualMesh { .. }));
        }
    }

    #[test]
    fn crossover_in_paper_band() {
        let c = combining_crossover_bytes(&"8x8x8".parse().unwrap(), &MachineParams::bgl());
        assert!((16..=64).contains(&c), "{c}");
    }

    #[test]
    fn tiny_partitions_never_combine() {
        // Combining gains nothing on a couple of nodes.
        assert_eq!(sel("4x1x1", 8), StrategyKind::ar());
    }

    #[test]
    fn high_arity_tori_always_use_a_direct_scheme() {
        // TPS and VMesh are 3-D-only; Auto must never resolve to them on
        // a higher-arity torus, whatever the symmetry or message size.
        assert_eq!(sel("4x4x4x4", 4096), StrategyKind::ar());
        assert_eq!(sel("4x4x4x4x2", 1024), StrategyKind::ar());
        assert_eq!(sel("4x4x4x4", 8), StrategyKind::ar());
        let part: bgl_torus::Partition = "4x4x4x4x2".parse().unwrap();
        assert!(sel("4x4x4x4x2", 16)
            .supported_dims()
            .contains(&part.ndims()));
    }
}
