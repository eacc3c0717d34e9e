//! Simulator configuration: router microarchitecture and buffer geometry,
//! and the node CPU model, which is fixed.
//!
//! Time is measured in *cycles*: one cycle is the time a 32-byte chunk takes
//! to cross one link (~207 ns, ~145 CPU cycles on the real machine — see
//! `bgl_model::MachineParams` for conversions). All buffer capacities are in
//! chunks; all CPU costs are in (fractional) cycles.

use crate::fault::FaultPlan;
use crate::flow::FlowSpec;
use crate::perf::PerfConfig;
use crate::trace::TraceConfig;
use bgl_torus::Partition;

/// Number of torus virtual channels the simulator models.
///
/// BG/L has four (two dynamic, one bubble-normal, one high-priority); the
/// high-priority VC is never used by application messaging or by any of the
/// paper's strategies, so we model the three that matter.
pub const NUM_VCS: usize = 3;

/// Virtual channel indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Vc {
    /// First dynamic (adaptively routed) VC.
    Dynamic0 = 0,
    /// Second dynamic VC.
    Dynamic1 = 1,
    /// The "bubble normal" VC: dimension-ordered, deadlock-free escape.
    Bubble = 2,
}

impl Vc {
    /// Dense index in `0..NUM_VCS`.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Both dynamic VCs.
    pub const DYNAMIC: [Vc; 2] = [Vc::Dynamic0, Vc::Dynamic1];
}

/// Engine scheduling mode: how the simulator advances time.
///
/// Both modes produce byte-identical results — `NetStats`, traces,
/// error cycles — on every workload; they differ only in wall-clock cost.
/// The differential suite (`crates/sim/tests/common/mod.rs` and its
/// callers) pins the equivalence.
///
/// * [`EngineMode::FullScan`] visits every node in every phase of every
///   cycle: the reference semantics, O(nodes) per cycle regardless of
///   activity. Exists for equivalence testing and before/after
///   benchmarking, never for speed.
/// * [`EngineMode::EventDriven`] (the default) visits only marked nodes
///   that can act, and skips idle *time*: after a stepped cycle in which
///   nothing moved, the simulator computes the earliest next wake-up
///   (arrival, CPU timeline, rate-window boundary, link release) and
///   jumps straight to it. Latency-dominated workloads with long quiet
///   gaps run order-of-magnitude faster; on a saturated one every cycle
///   makes progress, so the clock costs one compare per cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum EngineMode {
    /// Reference engine: scan every node every cycle.
    FullScan,
    /// Marked nodes that can act, plus time skipping.
    #[default]
    EventDriven,
}

impl EngineMode {
    /// Both modes, reference first (handy for equivalence loops in tests
    /// and benches).
    pub const ALL: [EngineMode; 2] = [EngineMode::FullScan, EngineMode::EventDriven];
}

/// `full-scan` or `event`, for test and benchmark messages.
impl std::fmt::Display for EngineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EngineMode::FullScan => "full-scan",
            EngineMode::EventDriven => "event",
        })
    }
}

/// Sustained CPU data bandwidth of a node, in chunks per cycle, shared
/// between injection, reception and copies. The cores do all of this
/// themselves (BG/L has no DMA engine), and the paper's "the processor can
/// only keep about four links busy" is 4.0.
pub const CPU_CHUNKS_PER_CYCLE: f64 = 4.0;

/// Fixed CPU time per packet injected, cycles: FIFO descriptor writes and
/// bookkeeping, separate from the per-message α a strategy charges.
pub const CPU_INJECT_CYCLES_PER_PACKET: f64 = 0.35;

/// Fixed CPU time per packet drained from the reception FIFO, cycles.
pub const CPU_RECEIVE_CYCLES_PER_PACKET: f64 = 0.35;

/// Reception FIFO capacity of a node, chunks (eight full packets). When it
/// is full, arriving packets stall in their VC FIFOs and back-pressure the
/// network.
pub const RECEPTION_FIFO_CHUNKS: u32 = 64;

/// Router microarchitecture knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// Per-(input port, VC) FIFO capacity in chunks. The default of 64
    /// chunks (2 KB, eight full packets) calibrates the model against the
    /// paper's measured asymmetric-torus efficiencies: real BG/L packets
    /// cut through routers flit by flit, so a packet in flight effectively
    /// spans several nodes' worth of buffering that this packet-atomic
    /// model must provide explicitly.
    pub vc_fifo_chunks: u32,
    /// Whether in-transit packets win arbitration over injected packets
    /// (BG/L behaviour: yes).
    pub transit_priority: bool,
    /// Extra free space (in chunks) a packet must find downstream when
    /// *entering* the bubble VC — the bubble rule. BG/L requires one full
    /// packet of slack (8 chunks) beyond the packet itself; packets
    /// continuing along the same dimension on the bubble VC need only their
    /// own space. Set to 0 to disable the rule (ablation).
    pub bubble_slack_chunks: u32,
    /// Whether adaptive (dynamic-VC) packets may fall back to the bubble
    /// escape VC when every dynamic choice is blocked. BG/L behaviour: yes.
    pub adaptive_bubble_escape: bool,
    /// Longest-first shaping (an extension beyond the hardware, off by
    /// default): adaptive packets move only along their longest remaining
    /// dimension(s), keeping the dimension-ordered direction as the bubble
    /// escape — hint-bit style software shaping against the tree
    /// saturation of Section 3.2. Deterministic packets ignore it.
    pub longest_first_bias: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            vc_fifo_chunks: 64,
            transit_priority: true,
            bubble_slack_chunks: 8,
            adaptive_bubble_escape: true,
            longest_first_bias: false,
        }
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The partition to simulate.
    pub partition: Partition,
    /// Router knobs.
    pub router: RouterConfig,
    /// Number of injection FIFOs per node (BG/L has eight; six is enough
    /// for every strategy here and keeps state small).
    pub inj_fifo_count: u32,
    /// Per-injection-FIFO class masks: FIFO `f` accepts packets of class
    /// `c` iff `masks[f] & (1 << c) != 0`. Empty (the default) means every
    /// FIFO accepts every class. The Two Phase Schedule reserves disjoint
    /// FIFO subsets for its two phases through this knob.
    pub inj_class_masks: Vec<u8>,
    /// Injection flow control, enforced by the engine for every node (see
    /// [`crate::flow`]): [`FlowSpec::Unpaced`] (the default) lets programs
    /// inject as fast as the CPU and FIFOs allow; [`FlowSpec::Rate`]
    /// throttles pulls to a chunks-per-cycle budget; [`FlowSpec::Credit`]
    /// bounds unacknowledged packets per intermediate node.
    pub flow: FlowSpec,
    /// Abort the run if no packet moves and no CPU work happens for this
    /// many consecutive cycles while traffic remains (deadlock/livelock
    /// watchdog).
    pub watchdog_cycles: u64,
    /// Hard cycle limit (safety net for miswritten programs).
    pub max_cycles: u64,
    /// Collect per-directed-link busy counters (see
    /// `NetStats::link_busy_per_link`). Off by default: it adds a vector
    /// of `6·P` counters to every run.
    pub detailed_link_stats: bool,
    /// Time-series tracing: `Some(cfg)` records a [`TraceSample`]
    /// (see [`crate::trace`]) every `cfg.interval_cycles` cycles,
    /// retrievable after the run via `Engine::take_trace`. `None` (the
    /// default) costs one predictable branch per cycle and nothing else.
    /// Tracing never perturbs results: `NetStats` is byte-identical with
    /// tracing on or off.
    pub trace: Option<TraceConfig>,
    /// Engine scheduling mode (see [`EngineMode`]). Results are
    /// byte-identical across both modes — they differ only in
    /// wall-clock cost — so this is a performance knob, never a
    /// correctness one.
    pub engine: EngineMode,
    /// Unread. The engine runs on one thread (EXPERIMENTS.md, "Why the
    /// engine has no threads"); this was the thread count of the removed
    /// intra-run parallelism. It stays declared only because the ladder
    /// benchmark's `sim.shards2_run_s` probe assigns it and the benchmark
    /// may not change together with the code it measures; the benchmark
    /// change that retires the probe deletes the field. Nothing else may
    /// name it (CI greps), and `the_shards_field_is_inert` below keeps it
    /// from regaining a meaning.
    pub shards: std::num::NonZeroUsize,
    /// Invariant oracle: independently re-derive the simulator's
    /// conservation laws and panic on the first violation — every injected
    /// packet delivered exactly once, payload bytes conserved end-to-end,
    /// hops taken equal to the packet's `HopPlan` length, FIFO occupancy
    /// plus outstanding reservations within capacity at every cycle
    /// boundary, and all injection/reception credit counters telescoped
    /// back to zero at quiesce. Composes with both engine modes and with
    /// tracing; never perturbs results. Off (the default) it costs one
    /// predictable branch per cycle, like the tracer.
    pub check_invariants: bool,
    /// Host-side performance profiling: `Some(cfg)` makes the engine
    /// record where *wall-clock* time goes (per-phase timing, visit and
    /// park counts, event-engine skip and wake counters — see
    /// [`crate::perf`]), retrievable after the run via
    /// `Engine::take_perf`. `None` (the default) costs one predictable
    /// branch beside the tracer's. Profiling never perturbs results:
    /// `NetStats` is byte-identical with profiling on or off, in every
    /// engine mode.
    pub perf: Option<PerfConfig>,
    /// Opt-in progress heartbeat: `true` makes the engine print a status
    /// line (cycle, packets delivered, elapsed, ETA) to **stderr** at most
    /// once a second during the run. Stdout and results are untouched, so
    /// piped output stays byte-identical. `false` (the default) is silent.
    pub progress: bool,
    /// Fault injection plan (see [`crate::fault`]): directed links and
    /// whole nodes that are dead from the start or fail/recover at
    /// scheduled cycles. The empty plan (the default) is the healthy
    /// machine and costs nothing. Fault semantics are identical in every
    /// engine mode.
    pub fault: FaultPlan,
}

impl SimConfig {
    /// Defaults for a given partition (a BG/L-like router).
    pub fn new(partition: Partition) -> SimConfig {
        SimConfig {
            partition,
            router: RouterConfig::default(),
            inj_fifo_count: 6,
            inj_class_masks: Vec::new(),
            flow: FlowSpec::Unpaced,
            watchdog_cycles: 200_000,
            max_cycles: 2_000_000_000,
            detailed_link_stats: false,
            trace: None,
            engine: EngineMode::default(),
            shards: std::num::NonZeroUsize::new(1).expect("1 is non-zero"),
            check_invariants: false,
            perf: None,
            progress: false,
            fault: FaultPlan::default(),
        }
    }

    /// Per-class eligible injection FIFOs: bit `f` of entry `c` is set iff
    /// FIFO `f` accepts class `c` — [`inj_class_masks`](Self::inj_class_masks)
    /// transposed, which is how the injector reads it.
    ///
    /// # Panics
    /// Panics if the masks are neither empty nor one per injection FIFO.
    pub fn class_fifos(&self) -> [u32; 8] {
        if self.inj_class_masks.is_empty() {
            return [((1u64 << self.inj_fifo_count) - 1) as u32; 8];
        }
        assert_eq!(
            self.inj_class_masks.len(),
            self.inj_fifo_count as usize,
            "inj_class_masks length must equal inj_fifo_count"
        );
        std::array::from_fn(|c| {
            let fifos = self.inj_class_masks.iter().enumerate();
            fifos.fold(0, |m, (f, &classes)| m | u32::from(classes >> c & 1) << f)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_bgl_like() {
        let c = SimConfig::new("8x8x8".parse().unwrap());
        assert_eq!(c.router.vc_fifo_chunks, 64);
        assert!(c.router.transit_priority);
        assert!(c.router.adaptive_bubble_escape);
        assert_eq!(c.inj_fifo_count, 6);
    }

    #[test]
    fn the_skipping_clock_is_the_default() {
        let c = SimConfig::new("4x4".parse().unwrap());
        assert_eq!(c.engine, EngineMode::EventDriven);
    }

    /// `SimConfig::shards` is a leftover (see its docs): a run with it set
    /// is the default run — same statistics, same trace, same profile
    /// counts.
    #[test]
    fn the_shards_field_is_inert() {
        use crate::{Engine, NodeProgram, ScriptedProgram, SendSpec, TraceConfig};
        let part: Partition = "4x4x2".parse().unwrap();
        let run = |shards: usize| {
            let mut cfg = SimConfig::new(part);
            cfg.shards = std::num::NonZeroUsize::new(shards).unwrap();
            cfg.trace = Some(TraceConfig::every(50));
            cfg.perf = Some(PerfConfig::default());
            let n = part.num_nodes();
            let programs = (0..n).map(|r| {
                let sends = (1..n).map(|k| SendSpec::adaptive((r + k) % n, 8, 240));
                Box::new(ScriptedProgram::new(sends.collect(), n as u64 - 1))
                    as Box<dyn NodeProgram>
            });
            let mut engine = Engine::new(cfg, programs.collect());
            let stats = engine.run().expect("the exchange completes");
            let perf = engine.take_perf().expect("profiled");
            let counts = (
                perf.stepped_cycles,
                perf.visit_totals(),
                perf.packet_totals(),
            );
            (stats, engine.take_trace(), counts, perf.skipped_cycles())
        };
        assert_eq!(run(7), run(1));
    }

    #[test]
    fn dynamic_vcs_are_the_first_two() {
        assert_eq!(Vc::DYNAMIC[0].index(), 0);
        assert_eq!(Vc::DYNAMIC[1].index(), 1);
        assert_ne!(Vc::Bubble.index(), 0);
        assert_ne!(Vc::Bubble.index(), 1);
    }
}
