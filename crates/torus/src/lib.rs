//! Torus/mesh geometry for the Blue Gene/L all-to-all reproduction.
//!
//! This crate is the geometric substrate shared by the simulator
//! ([`bgl-sim`](../bgl_sim/index.html)), the analytical models
//! ([`bgl-model`](../bgl_model/index.html)) and the all-to-all strategy
//! library ([`bgl-core`](../bgl_core/index.html)). It knows nothing about
//! packets or time; it answers purely structural questions:
//!
//! * coordinates, ranks and neighbours on a k-ary n-dimensional partition
//!   (up to [`coord::MAX_DIMS`] dimensions) whose dimensions may
//!   independently be a **torus** (wrap links present) or a **mesh**
//!   ([`Partition`]), and the rank-order walk that visits every node with
//!   its neighbours' ranks ([`Partition::walk`]),
//! * minimal-hop distances, direction choices and dimension-ordered routes
//!   ([`routing`]),
//! * uniform all-to-all load analysis: average hops, per-dimension
//!   bottleneck-link load and the peak-time denominator of the paper's
//!   Equation 2 ([`analysis`]),
//! * factorisation of a partition into the 2-D *virtual mesh* used by the
//!   short-message combining strategy ([`vmesh`]).
//!
//! # Example
//!
//! ```
//! use bgl_torus::{Partition, Coord, Dim};
//!
//! let part: Partition = "8x32x16".parse().unwrap();
//! assert_eq!(part.num_nodes(), 4096);
//! assert_eq!(part.longest_dim(), Dim::Y);
//! assert!(!part.is_symmetric());
//!
//! let a = Coord::new(0, 0, 0);
//! let b = Coord::new(4, 31, 8);
//! // Y wraps, so 0 -> 31 is one hop in the minus direction.
//! assert_eq!(part.hops(a, b), 4 + 1 + 8);
//! ```

pub mod analysis;
pub mod coord;
pub mod partition;
pub mod routing;
pub mod vmesh;

pub use analysis::{AaLoadAnalysis, DimLoad};
pub use coord::{Coord, Dim, Direction, Sign, MAX_DIMS, MAX_PORTS};
pub use partition::{Partition, PartitionParseError, Rank, Site, Walk};
pub use routing::{DimensionOrder, HopPlan, TieBreak};
pub use vmesh::VirtualMesh;
