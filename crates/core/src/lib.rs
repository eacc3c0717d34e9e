//! The paper's contribution: optimized all-to-all strategies for the BG/L
//! torus, running on the `bgl-sim` network simulator.
//!
//! * [`direct`] — direct strategies (Section 3): the MPI-like baseline, the
//!   randomized adaptive **AR** scheme, deterministic **DR** routing and
//!   bisection-paced throttling.
//! * [`tps`] — the **Two Phase Schedule** (Section 4.1): pipelined
//!   line-then-plane forwarding with reserved injection FIFOs, plus the
//!   future-work credit-based flow control.
//! * [`vmesh`] — the 2-D **virtual mesh** message-combining strategy for
//!   short messages (Section 4.2).
//! * [`select`] — automatic strategy selection (Section 5's "best
//!   algorithm" rule).
//! * [`strategy`] — the [`run_aa`] runner producing percent-of-peak
//!   reports; [`workload`] — message sizes, packetization, randomized
//!   destination orders; [`walk`] — the send order every scheme shares.
//!
//! # What a scheme is
//!
//! The schemes differ in one thing: where a packet's next software hop is.
//! A scheme supplies its *targets* (the randomized destination order, or
//! VMesh's row and column members), the *next hop* of a packet bound for a
//! target (the target itself; TPS's line intermediate; XYZ's next dimension
//! corner) with the data kind, injection class and routing mode it travels
//! under, and *whom it reserves a credit toward* before sending. It inherits
//! the rest: the [`walk`] over targets × packet shapes with α on packet 0,
//! the receive half of the credit handshake ([`flow`]: receipt → ack →
//! apply, one ack kind for all), the α/γ unit conversions on
//! [`MachineParams`](bgl_model::MachineParams), and `bgl-sim`'s three hooks
//! with [`SendSpec`](bgl_sim::SendSpec)'s builders as the only way to make
//! a send. A [`StrategyKind`] is one [`Scheme`] under one [`Pacer`], which
//! paces every scheme the same way.
//!
//! # Quickstart
//!
//! [`run_aa`] is the one way to run an all-to-all: partition, workload,
//! strategy, machine parameters, and the simulator configuration to start
//! from — `SimConfig::new(part)` for the defaults, or one with an ablation
//! applied:
//!
//! ```
//! use bgl_core::{run_aa, AaWorkload, StrategyKind};
//! use bgl_model::MachineParams;
//! use bgl_sim::SimConfig;
//!
//! let part = "4x4x4".parse().unwrap();
//! let workload = AaWorkload::full(1872); // ~8 full packets/destination
//! let params = MachineParams::bgl();
//! let report = run_aa(part, &workload, &StrategyKind::ar(), &params, SimConfig::new(part)).unwrap();
//! assert!(report.percent_of_peak > 70.0);
//!
//! let mut shallow = SimConfig::new(part);
//! shallow.router.vc_fifo_chunks = 16;
//! let ablated = run_aa(part, &workload, &StrategyKind::ar(), &params, shallow).unwrap();
//! assert!(ablated.cycles > 0);
//! ```

pub mod direct;
pub mod fit;
pub mod flow;
pub mod patterns;
pub mod select;
pub mod strategy;
pub mod tps;
pub mod vmesh;
pub mod walk;
pub mod workload;
pub mod xyz;

pub use direct::{DirectConfig, DirectProgram};
pub use fit::{fit_ptp_params, FittedModel};
pub use flow::{CreditConfig, Pacer};
pub use patterns::{run_pattern, Pattern, PatternReport};
pub use select::{auto_select, combining_crossover_bytes};
pub use strategy::{peak_cycles_for, peak_injection_rate, run_aa, AaReport, Scheme, StrategyKind};
pub use tps::{choose_linear_dim, tps_inj_class_masks, TpsConfig, TpsProgram};
pub use vmesh::VmeshProgram;
pub use walk::{SendWalk, Step};
pub use workload::{
    destination_schedule, direct_shapes, packetize, total_chunks, AaWorkload, DestinationOrder,
    Framing, PacketShape,
};
pub use xyz::{xyz_inj_class_masks, XyzProgram};
