//! # bgl-alltoall
//!
//! A from-scratch reproduction of *Performance Analysis and Optimization of
//! All-to-all Communication on the Blue Gene/L Supercomputer* (Kumar &
//! Heidelberger): a cycle-level BG/L torus network simulator, the paper's
//! all-to-all strategies (AR, DR, throttled, Two Phase Schedule, Virtual
//! Mesh), its analytical models (Equations 1–4), and a harness regenerating
//! every table and figure.
//!
//! This crate is the facade: it re-exports the workspace members so
//! examples and downstream users need a single dependency.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`torus`] | `bgl-torus` | partition geometry, routing math, load analysis |
//! | [`model`] | `bgl-model` | Equations 1–4, machine parameters |
//! | [`sim`] | `bgl-sim` | the cycle-level network simulator |
//! | [`core`] | `bgl-core` | the all-to-all strategies and runner |
//! | [`harness`] | `bgl-harness` | per-table/figure experiments |
//!
//! ## Quickstart
//!
//! ```
//! use bgl_alltoall::prelude::*;
//!
//! let part: Partition = "8x8x8".parse().unwrap();
//! let report = run_aa(
//!     part,
//!     &AaWorkload::sampled(912, 0.25),
//!     &StrategyKind::auto(),
//!     &MachineParams::bgl(),
//!     SimConfig::new(part),
//! )
//! .unwrap();
//! println!("{}: {:.1}% of peak", report.strategy.name(), report.percent_of_peak);
//! ```

pub use bgl_core as core;
pub use bgl_harness as harness;
pub use bgl_model as model;
pub use bgl_sim as sim;
pub use bgl_torus as torus;

/// The names most programs need.
pub mod prelude {
    pub use bgl_core::{
        auto_select, run_aa, AaReport, AaWorkload, CreditConfig, Pacer, StrategyKind,
    };
    pub use bgl_model::MachineParams;
    pub use bgl_sim::{Engine, NodeApi, NodeProgram, SendSpec, SimConfig};
    /// `VirtualMesh::choose(part)` is the paper's layout for `part`; there
    /// is no layout to pick.
    pub use bgl_torus::{AaLoadAnalysis, Coord, Dim, Partition, VirtualMesh};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let part: Partition = "4x4".parse().unwrap();
        let analysis = AaLoadAnalysis::new(part);
        assert!(analysis.bottleneck().load_factor > 0.0);
        let strategy = auto_select(&part, 4096, &MachineParams::bgl());
        assert_eq!(strategy, StrategyKind::ar());
    }
}
