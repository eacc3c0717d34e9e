//! The simulation engine.
//!
//! One cycle is the time a 32-byte chunk takes to cross a link. Each cycle
//! runs four phases (see [`phases`]), in an order fixed for determinism:
//!
//! 1. **Arrivals** — packets whose last chunk crossed a link this cycle are
//!    committed into the downstream VC FIFO (space was reserved at
//!    arbitration time, so credits are never oversubscribed).
//! 2. **Deliveries** — VC-FIFO heads that have reached their destination
//!    move into the reception FIFO (or stall, back-pressuring the network,
//!    when it is full).
//! 3. **CPU** — each node's simulated cores drain the reception FIFO
//!    (running the program's `on_packet` hook), pull new sends from the
//!    program and pay the injection costs to place packets into injection
//!    FIFOs. All costs are charged against a single per-node CPU timeline.
//! 4. **Arbitration** — every idle output link picks, round-robin, a
//!    feasible head among the 18 transit VC FIFOs and the injection FIFOs.
//!    Adaptive packets choose a dynamic VC by join-shortest-queue, with an
//!    optional dimension-ordered bubble-VC escape; deterministic packets
//!    use the bubble VC only, honouring the bubble deadlock-avoidance rule.
//!
//! How *time* advances between those phases is the
//! [`EngineMode`](crate::EngineMode): the default clock visits only marked
//! nodes and, after any stepped cycle in which nothing moved, skips to the
//! next cycle it cannot prove inert (see [`event`]); the two references
//! step every cycle — the active-set mode over marked nodes, the full scan
//! over every node. All three produce byte-identical [`NetStats`] and
//! traces. The mode steers the simulation in three places only: the two
//! full-scan iteration forks of phases 3 and 4, and the skip decision in
//! the run loop (the profiler reads it once more, to know whether its
//! profile carries skip counters).
//!
//! ## Sharding
//!
//! The torus is partitioned into `SimConfig::shards` contiguous rank
//! ranges (slabs along the outermost dimension, since ranks are
//! x-innermost). Each cycle runs as three *sections* per shard:
//!
//! - **A** (phases 1–3): touches only the shard's own nodes, plus
//!   commutative cross-shard effects (credit releases on this shard's own
//!   cells);
//! - **B** (packet-id fix-up + phase 4): arbitration reads neighbour
//!   state *only* through the shared credit array, whose cells each have
//!   exactly one reading/spending shard (the unique upstream of the
//!   FIFO), and stages its wins: into the shard's own list, or — the
//!   downstream node being another shard's — into that shard's outbox;
//! - **C**: files the staged wins into the in-flight ring in ascending
//!   source-shard order (which reproduces the global ascending-node win
//!   order exactly) and applies the cycle's deferred credit releases.
//!
//! Each shard *owns* its rank range ([`ShardData`]: nodes, their FIFO
//! header rows and per-link tables, the packets queued at or flying
//! towards them, programs, per-cycle statistics, ring and outboxes);
//! everything sections only read or touch atomically lives in one
//! [`Shared`]. `Engine::step`
//! is therefore a loop over `self.shards`: with `shards > 1` (and the
//! invariant oracle off) each shard's three sections run on a scoped
//! thread of their own, separated by two barriers (A→B orders credit
//! releases before credit reads, B→C the mailbox hand-off before its
//! drain; the scope join closes the cycle); otherwise they run on the
//! caller's thread in ascending shard order. Both drive the *same*
//! section code over the same data, so results are byte-identical for
//! every shard count, threaded or not.
//!
//! A packet is written into its shard's slab at injection and stays in
//! that slot, advanced in place hop by hop, until it is drained or won by
//! a node of another shard — the one hop that copies it; FIFOs, ring and
//! win lists hold `u32` handles (`fifo.rs`; DESIGN.md §6, "Memory
//! layout").
//!
//! Two accounting rules make the sections order-independent (and apply
//! identically at `shards = 1`): credit freed by a phase-4 pop is
//! released at the cycle boundary, not mid-phase, so arbitration sees a
//! fixed credit snapshot regardless of node visit order; and CPU-busy
//! time accumulates per node, folded into `NetStats::cpu_busy_cycles` in
//! ascending node order only at observation points, so the float sum
//! never depends on execution interleaving.
//!
//! The run ends when every program reports complete and no packet remains
//! anywhere; a watchdog aborts with diagnostics if traffic stops moving.
//!
//! With [`SimConfig::trace`] set, the engine additionally records a
//! [`TraceSample`](crate::trace::TraceSample) time series (see
//! [`crate::trace`]) at a fixed cycle interval — purely observational
//! sampling that never changes results.

mod event;
mod oracle;
mod perf;
mod phases;
mod tracer;

use crate::config::{EngineMode, SimConfig, Vc, NUM_VCS};
use crate::fifo::{ChunkFifo, FifoRows, Slab};
use crate::node::NodeState;
use crate::packet::{Packet, RoutingMode, DETOUR_BUDGET};
use crate::perf::ShardPerf;
use crate::program::NodeProgram;
use crate::stats::{NetStats, LATENCY_BUCKETS};
use bgl_torus::{Direction, MAX_DIMS, MAX_PORTS};
use oracle::Oracle;
use perf::{PerfState, ProgressState};
use phases::{Shard, Shared};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Barrier, Mutex};
use tracer::Tracer;

/// In-flight ring size; must exceed max packet chunks + hop latency.
const RING: usize = 64;

/// Why frozen traffic is frozen, computed from the queue state at the
/// moment the watchdog fires so a stall is diagnosable without a trace
/// run. The three causes are not exclusive and do not partition the live
/// packets — each counts a distinct blocking condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StallBreakdown {
    /// Incomplete programs with at least one full credit window (their
    /// next sends are flow-control blocked, see [`crate::flow`]).
    pub credit_blocked_nodes: usize,
    /// Total full credit windows across those nodes.
    pub closed_credit_windows: u64,
    /// Transit-FIFO head packets with every allowed output direction
    /// busy or out of downstream VC credit (head-of-line blocking).
    pub hol_blocked_heads: u64,
    /// VC FIFOs whose deliverable head found the reception FIFO full.
    pub reception_stalled_fifos: u64,
    /// Transit- or injection-FIFO head packets parked purely behind
    /// faulted links (every direction their routing allows is dead and,
    /// for adaptive packets, no detour move remains). Counted separately
    /// from `hol_blocked_heads`: a fault park is a topology problem, not
    /// congestion.
    pub fault_blocked_heads: u64,
}

impl std::fmt::Display for StallBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} nodes credit-blocked ({} closed windows), {} HOL-blocked heads, \
             {} reception-stalled FIFOs, {} fault-blocked heads",
            self.credit_blocked_nodes,
            self.closed_credit_windows,
            self.hol_blocked_heads,
            self.reception_stalled_fifos,
            self.fault_blocked_heads
        )
    }
}

/// One dead directed link and how many queued packets it is blocking, in
/// the per-fault breakdown of [`SimError::Unreachable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultBlock {
    /// Rank of the node the dead link leaves.
    pub node: u32,
    /// Output direction of the dead link.
    pub dir: Direction,
    /// FIFO-head packets parked behind it at the watchdog snapshot.
    pub blocked: u64,
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No packet moved and no CPU work happened for `watchdog_cycles`
    /// while traffic remained (deadlock or stuck program).
    Stalled {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Packets still alive in FIFOs or flight.
        live_packets: u64,
        /// Programs not yet complete.
        incomplete_programs: usize,
        /// Why the frozen traffic is frozen (credit vs HOL vs reception),
        /// snapshotted at the watchdog.
        breakdown: StallBreakdown,
        /// With tracing enabled, compact summaries of the last few
        /// [`TraceSample`](crate::trace::TraceSample)s (the final one
        /// taken at the stall itself), so a deadlock is debuggable from
        /// the error text alone. Empty when tracing was off.
        trace_tail: Vec<String>,
    },
    /// `max_cycles` exceeded.
    CycleLimit {
        /// The configured limit.
        limit: u64,
    },
    /// Traffic froze behind permanently dead links with no recovery
    /// scheduled: deterministic routing cannot leave its dimension-ordered
    /// path, and adaptive packets exhausted their detour options. Reported
    /// instead of [`SimError::Stalled`] so a fault-induced park is never
    /// mistaken for congestion deadlock.
    Unreachable {
        /// Cycle at which the watchdog classified the park.
        cycle: u64,
        /// Packets that will never be delivered (queued plus pending).
        blocked_packets: u64,
        /// Per-dead-link breakdown of the parked FIFO heads, sorted by
        /// (node, direction).
        faults: Vec<FaultBlock>,
    },
    /// The requested component is not defined for the partition's
    /// dimensionality (e.g. the two-phase indirect schedules factor a
    /// 3-D torus and reject higher-arity shapes before simulating).
    /// Raised up front, never after cycles have run.
    UnsupportedDims {
        /// The rejecting component (a strategy's short name).
        what: &'static str,
        /// The partition's dimensionality.
        ndims: usize,
        /// Highest dimensionality the component supports.
        max_dims: usize,
    },
    /// A collective was asked of a partition with nobody to exchange
    /// with. Raised up front, never after cycles have run.
    TooFewNodes {
        /// The partition's node count.
        nodes: u32,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Stalled {
                cycle,
                live_packets,
                incomplete_programs,
                breakdown,
                trace_tail,
            } => {
                write!(
                    f,
                    "simulation stalled at cycle {cycle}: {live_packets} live packets, \
                     {incomplete_programs} incomplete programs; {breakdown}"
                )?;
                for line in trace_tail {
                    write!(f, "\n  trace {line}")?;
                }
                Ok(())
            }
            SimError::CycleLimit { limit } => write!(f, "cycle limit {limit} exceeded"),
            SimError::Unreachable {
                cycle,
                blocked_packets,
                faults,
            } => {
                write!(
                    f,
                    "destination unreachable at cycle {cycle}: {blocked_packets} packets \
                     blocked behind dead links with no recovery scheduled"
                )?;
                for fb in faults {
                    write!(
                        f,
                        "\n  dead link {}:{} blocking {} queued packets",
                        fb.node, fb.dir, fb.blocked
                    )?;
                }
                Ok(())
            }
            SimError::UnsupportedDims {
                what,
                ndims,
                max_dims,
            } => write!(
                f,
                "{what} supports partitions of at most {max_dims} dimensions, \
                 got a {ndims}-dimensional shape"
            ),
            SimError::TooFewNodes { nodes } => write!(
                f,
                "an all-to-all needs at least two nodes, got a {nodes}-node partition"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// A packet crossing a link into one of this shard's nodes: everything
/// phase 1 needs to commit it, computed once at the win, so an arrival
/// behind a queued packet never touches the packet itself.
struct Arrival {
    /// Global rank of the receiving node.
    node: u32,
    /// The packet's slot in the receiving shard's slab.
    h: u32,
    /// Transit FIFO it joins (`vc_fifo_index(port, vc)`).
    fifo: u8,
    chunks: u8,
    /// The hop it is finishing is its last (`plan.is_done()`).
    done: bool,
}

impl Arrival {
    /// The record of `pkt`, stored in slot `h` of the receiving shard's
    /// slab with the hop already written into it, on its way into transit
    /// FIFO `fifo` of node `node`.
    fn new(node: u32, h: u32, fifo: u8, pkt: &Packet) -> Arrival {
        Arrival {
            node,
            h,
            fifo,
            chunks: pkt.chunks,
            done: pkt.plan.is_done(),
        }
    }
}

/// A staged cross-shard win — the one place a packet changes owner, hence
/// the one hop that copies it: phase 4 takes it out of the winner's slab
/// into the outbox; section C of the destination shard stores it in its
/// own slab and files the [`Arrival`].
struct OutMsg {
    arrive: u64,
    node: u32,
    fifo: u8,
    pkt: Packet,
}

#[derive(Clone, Copy)]
enum WinSource {
    Transit { fifo: u8 },
    Inject { fifo: u8 },
}

#[derive(Clone, Copy)]
struct Win {
    source: WinSource,
    vc: Vc,
    /// Non-minimal fault sidestep: the winner re-plans its route from the
    /// downstream node (see `apply_win`). Always false on a healthy run.
    detour: bool,
}

/// A lazily-cleared bitset over node indices, scanned in ascending index
/// order (never hash order) so the active-set engine visits nodes in
/// exactly the sequence the full scan would.
///
/// The engine maintains the invariant that every node with work is marked;
/// a marked node that turns out to be idle is cleared when visited. Bits
/// are only ever *set* for nodes of the same shard between phases
/// (arrivals mark arbitration work, deliveries mark CPU work), so a phase
/// can iterate a snapshot of each word without missing work.
struct ActiveSet {
    words: Vec<u64>,
}

impl ActiveSet {
    /// A set over `n` nodes with every node marked (the engine prunes
    /// lazily from the conservative side).
    fn all(n: usize) -> ActiveSet {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            let tail = n % 64;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
        ActiveSet { words }
    }

    #[inline]
    fn mark(&mut self, i: usize) {
        self.words[i >> 6] |= 1 << (i & 63);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        self.words[i >> 6] &= !(1 << (i & 63));
    }

    /// Marked-node count. Conservative marks make this an upper bound on
    /// real work — exactly the right direction for the threading gate.
    fn popcount(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// One shard: a contiguous slab of global ranks `base..base + nodes.len()`
/// and every piece of simulation state only that slab's sections mutate.
/// The per-node vectors and the active sets are indexed *locally*
/// (`global - base`); `deliver_q` and ring arrivals carry global ranks.
struct ShardData {
    /// This shard's index (ascending shard = ascending rank).
    si: usize,
    /// First global rank of the slab.
    base: usize,
    nodes: Vec<NodeState>,
    /// The nodes' FIFO headers, one row per local node.
    fifos: FifoRows,
    /// Every packet queued at, or in flight towards, this shard's nodes.
    slab: Slab,
    programs: Vec<Box<dyn NodeProgram>>,
    /// `busy_until[local * ports + dir]`. This and the three tables below
    /// are per output link, `ports` entries per node: sized by the
    /// partition's arity.
    link_busy_until: Vec<u64>,
    /// Request masks over the transit FIFOs: bit `f` of `want[link]` is set
    /// iff the node's transit FIFO `f` is non-empty and its head's routing
    /// allows that output (`Shared::wants`). A function of the head packet
    /// and the router config alone, so the engine refreshes FIFO `f`'s bits
    /// exactly where its head changes, and arbitration reads them instead
    /// of re-routing every head for every link every cycle. At the
    /// 6-dimension maximum there are 12 ports × 3 VCs = 36 FIFOs.
    want: Vec<u64>,
    /// The same over the injection FIFOs.
    inj_want: Vec<u32>,
    /// Round-robin arbitration pointer of each output link.
    rr: Vec<u8>,
    /// The slab's rows of `NetStats::link_busy_per_link` (folded in at
    /// observation points); empty when detailed link stats are off.
    link_stats: Vec<u64>,
    /// In-flight ring: slot `t % RING` holds the packets arriving at this
    /// shard's nodes at cycle `t`.
    ring: Vec<Vec<Arrival>>,
    deliver_q: Vec<(u32, u8)>,
    /// Nodes that may have CPU work (non-empty reception/pending/pulled
    /// queues, or a program that has not declared completion).
    cpu_active: ActiveSet,
    /// Nodes that may have a packet to arbitrate out (non-zero `vc_mask`
    /// or `inj_mask`).
    arb_active: ActiveSet,
    /// Per local node, the earliest cycle at which a CPU-phase visit could
    /// change anything (0: visit; `u64::MAX`: not until re-armed) — see
    /// "Parking" in [`phases`]. The full scan never reads it.
    cpu_at: Vec<u64>,
    /// The same for phase 4.
    arb_at: Vec<u64>,
    /// This cycle's wins into this shard's own nodes, with their arrival
    /// cycles: the handle stays put, and section C files the record at its
    /// place among the other shards' mailboxes.
    own: Vec<(u64, Arrival)>,
    /// Per-destination-shard staged wins of the current cycle (this
    /// shard's own entry stays empty).
    outbox: Vec<Vec<OutMsg>>,
    /// Handles of the packets injected this cycle, in injection order:
    /// their provisional ids become final at the section-B fix-up.
    injected: Vec<u32>,
    /// Credit releases from this cycle's phase-4 pops, applied at the
    /// cycle boundary (section C): `(credit cell, chunks)`.
    deferred: Vec<(u32, u32)>,
    /// This cycle's statistics, merged into `NetStats` at the boundary.
    cs: CycleStats,
    /// This shard's record of the host profiler (`SimConfig::perf`). The
    /// profiler only reads the host clock and writes its own accumulator,
    /// so enabling it can never perturb simulation results.
    perf: Option<ShardPerf>,
}

/// The set bits of `mask`, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            b
        })
    })
}

impl ShardData {
    /// The head packet of every occupied FIFO of local node `i` (only the
    /// masks' bits are walked): `(Some(f), head)` for transit FIFO `f`,
    /// ascending, then `(None, head)` per injection FIFO.
    fn heads(&self, i: usize) -> impl Iterator<Item = (Option<usize>, &Packet)> {
        let node = &self.nodes[i];
        let head = |f: &ChunkFifo| &self.slab[f.head().expect("mask says non-empty")];
        let transit = bits(node.vc_mask).map(move |f| (Some(f), head(&self.fifos.vcs(i)[f])));
        let inj = bits(node.inj_mask.into()).map(move |f| (None, head(&self.fifos.inj(i)[f])));
        transit.chain(inj)
    }
}

/// Statistics a single shard accumulates over one cycle, merged into the
/// engine's `NetStats` (in ascending shard order, though every merge is
/// order-independent) at the cycle boundary.
#[derive(Default)]
struct CycleStats {
    progress: bool,
    live: i64,
    pending: i64,
    done: usize,
    injected: u64,
    delivered: u64,
    payload: u64,
    latency_sum: u64,
    latency_max: u64,
    hist: [u64; LATENCY_BUCKETS],
    reception_stalls: u64,
    pacing: u64,
    credit_blocked: u64,
    // Fixed-size per-dimension counters (only the first `ndims` entries are
    // used): this struct is reset and merged every cycle, so it must stay
    // allocation-free.
    link_busy: [u64; MAX_DIMS],
    hops: [u64; MAX_DIMS],
    bubble: u64,
    dynamic: u64,
}

/// One scheduled liveness flip of one directed link, expanded from the
/// [`FaultPlan`](crate::FaultPlan) at engine construction.
#[derive(Debug, Clone, Copy)]
struct FaultEvent {
    cycle: u64,
    link: u32,
    alive: bool,
}

/// The simulator.
pub struct Engine {
    /// Configuration, topology, credits and mailboxes: what every shard
    /// reads (see [`Shared`]).
    shared: Shared,
    now: u64,
    /// The slabs, ascending by rank; each owns its nodes and programs.
    shards: Vec<ShardData>,
    /// Run sections on one thread per shard. Requires > 1 shard and no
    /// oracle (whose ledgers are inherently global; it still runs the
    /// sharded *structure* sequentially, byte-identically).
    parallel: bool,
    live_packets: u64,
    pending_total: u64,
    done_programs: usize,
    next_packet_id: u64,
    stats: NetStats,
    last_progress: u64,
    /// Time-series sampler; `None` unless `SimConfig::trace` is set.
    tracer: Option<Box<Tracer>>,
    /// Conservation-law oracle; `None` unless
    /// `SimConfig::check_invariants` is set.
    oracle: Option<Box<Oracle>>,
    /// Host-side wall-clock profiler; `None` unless `SimConfig::perf` is
    /// set (see [`crate::perf`]).
    perf: Option<Box<PerfState>>,
    /// Stderr progress heartbeat; `None` unless `SimConfig::progress` is
    /// set.
    progress: Option<Box<ProgressState>>,
    /// The fault plan expanded to per-link liveness flips, sorted by
    /// (cycle, link).
    fault_schedule: Vec<FaultEvent>,
    /// First unapplied entry of `fault_schedule`.
    fault_cursor: usize,
}

impl Engine {
    /// Build an engine over `cfg` with one program per node (rank order).
    ///
    /// # Panics
    /// Panics if `programs.len() != partition.num_nodes()` or the
    /// configuration is internally inconsistent.
    pub fn new(cfg: SimConfig, programs: Vec<Box<dyn NodeProgram>>) -> Engine {
        let part = cfg.partition;
        let p = part.num_nodes() as usize;
        assert_eq!(programs.len(), p, "need exactly one program per node");
        assert!(
            (8 + cfg.router.hop_latency_cycles as usize) < RING,
            "hop latency too large for the in-flight ring"
        );
        assert!(
            cfg.cpu.chunks_per_cycle > 0.0,
            "CPU bandwidth must be positive"
        );
        assert!(cfg.inj_fifo_count <= 32, "inj_mask is a u32 bitmask");
        cfg.flow.validate();
        if let Err(e) = cfg.fault.validate(&part) {
            panic!("invalid fault plan: {e}");
        }
        let ports = part.ports();
        let vc_cells = ports * NUM_VCS;
        // Contiguous rank ranges (shard `s` owns ranks `s·p/n..(s+1)·p/n`);
        // u16::MAX shards is plenty and keeps the ownership map compact.
        // The shards are built before the shared tables on purpose: with
        // the per-node allocations first, glibc keeps the heap across a
        // drop-and-rebuild instead of trimming it and faulting every page
        // back in (measured on 16x8x8: `Engine::new` 170 µs this way round,
        // 410 µs the other) — what a caller that builds many engines pays.
        // "Per-node allocations" is one small block per node today, the
        // pulled queue (`NodeState::new`), and it carries that effect alone:
        // with no block per node, every table here being one large
        // allocation, the same caller paid +50 % on 16x8x8 (0.26 → 0.39 ms,
        // 0/6 pairs; its own program vectors faulted back in too); with it,
        // 0.18 ms. The packet slabs start empty and grow with the traffic,
        // after and above everything built here.
        let nshards = cfg.shards.get().min(p).min(u16::MAX as usize);
        let mut shard_of = vec![0u16; p];
        let mut programs = programs.into_iter();
        let mut shards: Vec<ShardData> = Vec::with_capacity(nshards);
        // Programs with nothing to do are complete before cycle 0.
        let mut done_programs = 0;
        for s in 0..nshards {
            let (base, end) = (s * p / nshards, (s + 1) * p / nshards);
            shard_of[base..end].fill(s as u16);
            let links = (end - base) * ports;
            let programs: Vec<Box<dyn NodeProgram>> = programs.by_ref().take(end - base).collect();
            let nodes = (base..end).zip(&programs).map(|(r, prog)| {
                let mut node = NodeState::new(part.coord_of(r as u32), &cfg);
                done_programs += usize::from(node.latch_done(prog.as_ref()));
                node
            });
            shards.push(ShardData {
                si: s,
                base,
                nodes: nodes.collect(),
                fifos: FifoRows::new(end - base, vc_cells, cfg.inj_fifo_count as usize),
                slab: Slab::new(),
                programs,
                link_busy_until: vec![0; links],
                want: vec![0; links],
                inj_want: vec![0; links],
                rr: vec![0; links],
                link_stats: vec![0; if cfg.detailed_link_stats { links } else { 0 }],
                ring: (0..RING).map(|_| Vec::new()).collect(),
                deliver_q: Vec::new(),
                cpu_active: ActiveSet::all(end - base),
                arb_active: ActiveSet::all(end - base),
                cpu_at: vec![0; end - base],
                arb_at: vec![0; end - base],
                own: Vec::new(),
                outbox: (0..nshards).map(|_| Vec::new()).collect(),
                injected: Vec::new(),
                deferred: Vec::new(),
                cs: CycleStats::default(),
                perf: cfg.perf.is_some().then(ShardPerf::default),
            });
        }
        let neighbors: Vec<[u32; MAX_PORTS]> = (0..p as u32)
            .map(|r| {
                let c = part.coord_of(r);
                let mut row = [u32::MAX; MAX_PORTS];
                for d in part.directions() {
                    if let Some(nc) = part.neighbor(c, d) {
                        row[d.index()] = part.rank_of(nc);
                    }
                }
                row
            })
            .collect();
        let stats = NetStats {
            link_busy_chunks: vec![0; part.ndims()],
            hops_taken: vec![0; part.ndims()],
            latency_histogram: vec![0; LATENCY_BUCKETS],
            link_busy_per_link: if cfg.detailed_link_stats {
                vec![0; p * ports]
            } else {
                Vec::new()
            },
            ..NetStats::default()
        };
        let tracer = cfg
            .trace
            .as_ref()
            .map(|tc| Box::new(Tracer::new(tc, part.ndims())));
        let oracle = cfg.check_invariants.then(|| Box::new(Oracle::new()));
        let perf = cfg
            .perf
            .is_some()
            .then(|| Box::new(PerfState::new(cfg.engine == EngineMode::EventDriven)));
        let progress = cfg
            .progress
            .as_ref()
            .map(|pc| Box::new(ProgressState::new(pc)));
        let parallel = nshards > 1 && oracle.is_none();
        let mut fault_alive = Vec::new();
        let mut fault_schedule = Vec::new();
        if !cfg.fault.is_empty() {
            fault_alive = vec![true; p * ports];
            for s in cfg.fault.link_schedules(&part) {
                fault_schedule.push(FaultEvent {
                    cycle: s.fail_at,
                    link: s.link as u32,
                    alive: false,
                });
                if let Some(r) = s.recover_at {
                    fault_schedule.push(FaultEvent {
                        cycle: r,
                        link: s.link as u32,
                        alive: true,
                    });
                }
            }
            fault_schedule.sort_by_key(|e| (e.cycle, e.link));
        }
        let shared = Shared {
            class_fifos: cfg.class_fifos(),
            credits: (0..p * vc_cells)
                .map(|_| AtomicU32::new(cfg.router.vc_fifo_chunks))
                .collect(),
            full_scan: cfg.engine == EngineMode::FullScan,
            cfg,
            part,
            neighbors,
            ports,
            vc_cells,
            shard_of,
            staging: (0..nshards * (nshards - 1))
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            counts: (0..nshards).map(|_| AtomicU64::new(0)).collect(),
            fault_alive,
        };
        Engine {
            shared,
            now: 0,
            shards,
            parallel,
            live_packets: 0,
            pending_total: 0,
            done_programs,
            next_packet_id: 0,
            stats,
            last_progress: 0,
            tracer,
            oracle,
            perf,
            progress,
            fault_schedule,
            fault_cursor: 0,
        }
    }

    /// Run to completion. Returns the final statistics.
    pub fn run(&mut self) -> Result<NetStats, SimError> {
        // Time the whole call — every exit path included — when profiling
        // is on; off, this is one branch and no clock read.
        let t0 = self.perf.as_ref().map(|_| std::time::Instant::now());
        let result = self.run_inner();
        if let Some(t0) = t0 {
            if let Some(p) = self.perf.as_deref_mut() {
                p.profile.total_secs += t0.elapsed().as_secs_f64();
            }
        }
        result
    }

    fn run_inner(&mut self) -> Result<NetStats, SimError> {
        while !self.is_complete() {
            if self.progress_due() {
                self.progress_heartbeat();
            }
            if self.now >= self.shared.cfg.max_cycles {
                self.sync_ledgers();
                return Err(SimError::CycleLimit {
                    limit: self.shared.cfg.max_cycles,
                });
            }
            if self.now.saturating_sub(self.last_progress) > self.shared.cfg.watchdog_cycles {
                // Capture the stalled queue state itself as a final
                // sample, then report the tail: the last windows before
                // the deadlock plus the frozen snapshot.
                if self.tracer.is_some() {
                    self.record_trace_sample(true);
                }
                self.sync_ledgers();
                let breakdown = self.stall_breakdown();
                // Heads parked purely behind dead links, with no recovery
                // left in the schedule, will never move: report the
                // topology problem (with its per-link breakdown) rather
                // than a generic stall.
                if breakdown.fault_blocked_heads > 0 && !self.fault_recovery_pending() {
                    return Err(SimError::Unreachable {
                        cycle: self.now,
                        blocked_packets: self.live_packets + self.pending_total,
                        faults: self.fault_block_report(),
                    });
                }
                let trace_tail = self
                    .tracer
                    .as_ref()
                    .map(|t| t.trace.summary_tail(4))
                    .unwrap_or_default();
                return Err(SimError::Stalled {
                    cycle: self.now,
                    live_packets: self.live_packets + self.pending_total,
                    incomplete_programs: self.num_nodes() - self.done_programs,
                    breakdown,
                    trace_tail,
                });
            }
            let t = self.now;
            self.step();
            // The skipping clock: jump over cycles no component can act
            // in. Stepped cycles behave identically in every mode, so this
            // is the *only* place the clocks differ. Progress at `t`
            // (a move, a drain, a fault transition) may have changed what
            // its neighbours can do at `t + 1`, so only a cycle without
            // any is followed by a wake computation — a busy cycle costs
            // this compare and nothing else.
            if self.shared.cfg.engine == EngineMode::EventDriven && !self.is_complete() {
                if self.last_progress != t {
                    self.fast_forward();
                } else if let Some(evp) = self.perf_event_counters() {
                    evp.fresh_suppressions += 1;
                }
            }
        }
        self.sync_ledgers();
        if self.oracle.is_some() {
            self.oracle_quiesce_check();
        }
        Ok(self.stats.clone())
    }

    /// Whether the simulation has fully drained and every program reports
    /// complete.
    fn is_complete(&self) -> bool {
        self.live_packets == 0 && self.pending_total == 0 && self.done_programs == self.num_nodes()
    }

    fn num_nodes(&self) -> usize {
        self.shared.shard_of.len()
    }

    /// Every node's state in ascending global rank (ascending shard =
    /// ascending rank) — the order every fold and diagnostic sweep uses.
    fn nodes(&self) -> impl Iterator<Item = &NodeState> {
        self.shards.iter().flat_map(|sd| &sd.nodes)
    }

    /// The shard owning global rank `g` and `g`'s local index in it.
    fn locate(&self, g: usize) -> (&ShardData, usize) {
        let sd = &self.shards[self.shared.shard_of[g] as usize];
        (sd, g - sd.base)
    }

    /// Fold the per-node CPU-busy accumulators into
    /// `stats.cpu_busy_cycles`, in ascending node order — the one float
    /// reduction in the stats, pinned to a shard-independent order — and
    /// the shards' detailed link counters into `stats.link_busy_per_link`.
    fn sync_ledgers(&mut self) {
        self.stats.cpu_busy_cycles = self.nodes().map(|n| n.cpu_busy).sum();
        let per_link = self.shards.iter().flat_map(|sd| &sd.link_stats);
        for (total, &chunks) in self.stats.link_busy_per_link.iter_mut().zip(per_link) {
            *total = chunks;
        }
    }

    /// Cycle of the next unapplied fault transition (`u64::MAX` once the
    /// schedule is exhausted) — a skip must never jump over it.
    fn next_fault_cycle(&self) -> u64 {
        self.fault_schedule
            .get(self.fault_cursor)
            .map_or(u64::MAX, |e| e.cycle)
    }

    /// Apply every fault transition scheduled at or before the current
    /// cycle: flip link liveness, drop packets in flight on dying links,
    /// and wake the affected endpoints. Runs at the top of `step()` —
    /// before any phase, on one thread — so every engine mode and shard
    /// count observes transitions at exactly the same point and results
    /// stay byte-identical.
    fn apply_fault_transitions(&mut self) {
        while let Some(&ev) = self.fault_schedule.get(self.fault_cursor) {
            if ev.cycle > self.now {
                break;
            }
            self.fault_cursor += 1;
            let link = ev.link as usize;
            self.shared.fault_alive[link] = ev.alive;
            let u = link / self.shared.ports;
            let d = Direction::from_index(link % self.shared.ports);
            let v = self.shared.neighbors[u][d.index()];
            debug_assert_ne!(v, u32::MAX, "validated plans never fault mesh edges");
            if !ev.alive {
                self.drop_in_flight(d, v as usize);
            }
            // A transition is progress: the topology changed, so the
            // watchdog clock restarts (a long wait for a scheduled
            // recovery must not fire it).
            self.last_progress = self.now;
            self.wake_for_fault(u, v as usize);
        }
    }

    /// Mark both endpoints of a flipped link active: a recovery can
    /// unpark their heads, a failure changes what their arbitration may do.
    fn wake_for_fault(&mut self, u: usize, v: usize) {
        for g in [u, v] {
            let sd = &mut self.shards[self.shared.shard_of[g] as usize];
            sd.arb_active.mark(g - sd.base);
            sd.cpu_active.mark(g - sd.base);
            (sd.arb_at[g - sd.base], sd.cpu_at[g - sd.base]) = (0, 0);
        }
    }

    /// Remove every packet still crossing a link into `v` on port `dp`
    /// (the receive port of a link that just died). Dropped packets
    /// release their reserved downstream credit, count into
    /// `NetStats::dropped_by_fault`, and notify the destination program —
    /// exactly-once delivery becomes "delivered or dropped, exactly
    /// once", which the oracle checks at quiesce.
    fn drop_in_flight(&mut self, d: Direction, v: usize) {
        let dp = d.opposite().index();
        let sv = self.shared.shard_of[v] as usize;
        let keep = (self.now % RING as u64) as usize;
        let mut dropped: Vec<Arrival> = Vec::new();
        for (slot, ring) in self.shards[sv].ring.iter_mut().enumerate() {
            // Arrivals of the current cycle finished crossing before the
            // transition; they arrive normally. Every other slot holds
            // future arrivals: chunks still on the dying wire.
            if slot == keep {
                continue;
            }
            let mut i = 0;
            while i < ring.len() {
                if ring[i].node as usize == v && ring[i].fifo as usize / NUM_VCS == dp {
                    dropped.push(ring.remove(i));
                } else {
                    i += 1;
                }
            }
        }
        for arr in dropped {
            let cell = v * self.shared.vc_cells + arr.fifo as usize;
            self.shared.release(cell, arr.chunks as u32);
            let pkt = self.shards[sv].slab.take(arr.h);
            self.live_packets -= 1;
            self.stats.dropped_by_fault += 1;
            if let Some(o) = self.oracle.as_deref_mut() {
                o.on_drop(&pkt);
            }
            let dst = self.shared.part.rank_of(pkt.dst) as usize;
            let sd = &mut self.shards[self.shared.shard_of[dst] as usize];
            let i = dst - sd.base;
            sd.programs[i].on_packet_dropped(&pkt);
            self.done_programs += usize::from(sd.nodes[i].latch_done(sd.programs[i].as_ref()));
            sd.cpu_active.mark(i);
            sd.cpu_at[i] = 0;
        }
    }

    /// Per-cycle gate for the threaded path: spawning the shard threads
    /// costs tens of microseconds, so thin cycles — sparse traffic,
    /// warm-up, drain tails — run the same three sections inline on this
    /// thread instead. Both paths execute identical section code in the
    /// same order, so the choice is invisible in every statistic; it only
    /// moves wall-clock. The estimate is the marked active-set population
    /// plus the pending delivery retries and this cycle's ring arrivals,
    /// an upper bound on nodes actually visited.
    fn cycle_is_wide(&self, t: u64) -> bool {
        /// Minimum estimated active nodes per shard before threads pay.
        const MIN_ACTIVE_PER_SHARD: usize = 128;
        let floor = self.shards.len() * MIN_ACTIVE_PER_SHARD;
        if self.shared.full_scan {
            // The full scan visits every node every cycle by definition.
            return self.num_nodes() >= floor;
        }
        let mut active = 0usize;
        for sd in &self.shards {
            active += sd.cpu_active.popcount()
                + sd.arb_active.popcount()
                + sd.deliver_q.len()
                + sd.ring[(t % RING as u64) as usize].len();
            if active >= floor {
                return true;
            }
        }
        false
    }

    /// Advance one cycle.
    fn step(&mut self) {
        if self.fault_cursor < self.fault_schedule.len() {
            self.apply_fault_transitions();
        }
        let t = self.now;
        let wide = self.parallel && self.cycle_is_wide(t);
        if self.perf.is_some() {
            self.perf_note_step(wide);
        }
        let (shared, next_id0) = (&self.shared, self.next_packet_id);
        if wide {
            // One scoped thread per shard, spawned fresh each cycle (the
            // gate above keeps thin cycles off this path): no persistent
            // worker state, and a panicking section propagates out of the
            // scope immediately. `parallel` guarantees the one global
            // observer (the oracle) is absent.
            let barrier = &Barrier::new(self.shards.len());
            std::thread::scope(|scope| {
                for sd in &mut self.shards {
                    scope.spawn(move || {
                        let mut shard = Shard::new(shared, sd, None);
                        shard.section_a(t);
                        shard.timed_wait(barrier, |p| &mut p.barrier_a_wait_secs);
                        shard.section_b(t, next_id0);
                        shard.timed_wait(barrier, |p| &mut p.barrier_b_wait_secs);
                        shard.section_c();
                    });
                }
            });
        } else {
            let oracle = &mut self.oracle;
            for sd in &mut self.shards {
                Shard::new(shared, sd, oracle.as_deref_mut()).section_a(t);
            }
            for sd in &mut self.shards {
                Shard::new(shared, sd, oracle.as_deref_mut()).section_b(t, next_id0);
            }
            for sd in &mut self.shards {
                Shard::new(shared, sd, oracle.as_deref_mut()).section_c();
            }
        }
        self.merge_cycle(t);
        self.now = t + 1;
        // Cycle-boundary oracle sweep: all four phases have run, so the
        // global counters must agree and no FIFO may be over its credit
        // budget. Disabled, this is one predictable branch per cycle.
        if self.oracle.is_some() {
            self.oracle_cycle_check(t);
        }
        // The only tracing cost in the disabled case: one predictable
        // branch per cycle (None → fall through).
        if let Some(tr) = &self.tracer {
            if self.now >= tr.next_at {
                self.record_trace_sample(false);
            }
        }
    }

    /// Fold the cycle's per-shard statistics into the run totals, leaving
    /// each shard's slate clean for the next cycle. Every merge is
    /// order-independent (sums, maxima), so the ascending shard order here
    /// is a convention, not a requirement.
    fn merge_cycle(&mut self, t: u64) {
        let mut id_total = 0;
        for sd in &mut self.shards {
            let cs = std::mem::take(&mut sd.cs);
            id_total += self.shared.counts[sd.si].load(Relaxed);
            if cs.progress {
                self.last_progress = t;
            }
            self.live_packets = (self.live_packets as i64 + cs.live) as u64;
            self.pending_total = (self.pending_total as i64 + cs.pending) as u64;
            self.done_programs += cs.done;
            let st = &mut self.stats;
            st.packets_injected += cs.injected;
            st.packets_delivered += cs.delivered;
            st.payload_bytes_delivered += cs.payload;
            st.total_latency_cycles += cs.latency_sum;
            st.max_latency_cycles = st.max_latency_cycles.max(cs.latency_max);
            if cs.delivered > 0 {
                st.completion_cycle = t;
            }
            for (h, d) in st.latency_histogram.iter_mut().zip(cs.hist) {
                *h += d;
            }
            st.reception_stall_events += cs.reception_stalls;
            st.pacing_blocked_cycles += cs.pacing;
            st.credit_blocked_events += cs.credit_blocked;
            for d in 0..st.link_busy_chunks.len() {
                st.link_busy_chunks[d] += cs.link_busy[d];
                st.hops_taken[d] += cs.hops[d];
            }
            st.bubble_hops += cs.bubble;
            st.dynamic_hops += cs.dynamic;
        }
        self.next_packet_id += id_total;
    }

    /// Whether the head packet of transit FIFO `fifo` at node `n` cannot
    /// move right now: every output direction its routing mode allows
    /// (its minimal quadrant, shaped by the longest-first bias /
    /// dimension order) is either mid-transmission or out of downstream
    /// VC credit. This is the paper's head-of-line blocking signal —
    /// packets parked behind saturated long-dimension links.
    fn head_is_hol_blocked(&self, n: usize, fifo: usize, pkt: &Packet) -> bool {
        let router = &self.shared;
        let from_dim = Some(fifo / NUM_VCS / 2); // port index / 2 = dimension
        let (sd, i) = self.locate(n);
        let mut any_dir = false;
        for d in router.part.directions() {
            if !router.wants(pkt, d) {
                continue;
            }
            let nb = router.neighbors[n][d.index()];
            if nb == u32::MAX {
                continue;
            }
            // A dead link is not congestion: faulted directions neither
            // count as available nor as HOL evidence (the fault-blocked
            // classifier owns them).
            if !router.alive(n, d) {
                continue;
            }
            any_dir = true;
            if sd.link_busy_until[i * router.ports + d.index()] <= self.now
                && router
                    .feasible_vc(pkt, n, from_dim, d, nb as usize)
                    .is_some()
            {
                return false;
            }
        }
        any_dir
    }

    /// Whether `pkt`, queued at node `n`, is parked purely behind dead
    /// links: every direction its routing allows is faulted and, for an
    /// adaptive packet with detour budget left, no live link is available
    /// to sidestep through either. Returns the first dead direction the
    /// packet wanted, attributing the park to that link.
    fn head_is_fault_blocked(&self, n: usize, pkt: &Packet) -> Option<Direction> {
        let router = &self.shared;
        if router.healthy() {
            return None;
        }
        let mut first_dead = None;
        for d in router.part.directions() {
            if !router.wants(pkt, d) {
                continue;
            }
            if router.neighbors[n][d.index()] == u32::MAX {
                continue;
            }
            if router.alive(n, d) {
                // A live wanted direction exists: any park here is
                // congestion (HOL/credit), not the fault's fault.
                return None;
            }
            if first_dead.is_none() {
                first_dead = Some(d);
            }
        }
        let first_dead = first_dead?;
        if pkt.routing == RoutingMode::Adaptive && pkt.detour_count() < DETOUR_BUDGET {
            for d in router.part.directions() {
                if router.neighbors[n][d.index()] != u32::MAX
                    && router.alive(n, d)
                    && pkt.detour_from() != Some(d.index())
                {
                    // A detour move is still open; the packet is waiting
                    // on credit or a busy wire, not unroutable.
                    return None;
                }
            }
        }
        Some(first_dead)
    }

    /// Visit every fault-blocked transit- and injection-FIFO head with
    /// the dead link it is parked behind.
    fn scan_fault_blocked<F: FnMut(usize, Direction)>(&self, mut f: F) {
        if self.shared.healthy() {
            return;
        }
        for sd in &self.shards {
            for i in 0..sd.nodes.len() {
                for (_, head) in sd.heads(i) {
                    if head.plan.is_done() {
                        continue;
                    }
                    if let Some(d) = self.head_is_fault_blocked(sd.base + i, head) {
                        f(sd.base + i, d);
                    }
                }
            }
        }
    }

    /// Whether any recovery remains in the unapplied tail of the fault
    /// schedule (if so, parked heads may yet move and the watchdog
    /// reports a stall, not unreachability).
    fn fault_recovery_pending(&self) -> bool {
        self.fault_schedule[self.fault_cursor..]
            .iter()
            .any(|e| e.alive)
    }

    /// Aggregate the fault-blocked heads per dead link, sorted by
    /// (node, direction) — the `faults` payload of
    /// [`SimError::Unreachable`].
    fn fault_block_report(&self) -> Vec<FaultBlock> {
        let mut counts: std::collections::BTreeMap<usize, u64> = std::collections::BTreeMap::new();
        let ports = self.shared.ports;
        self.scan_fault_blocked(|n, d| {
            *counts.entry(n * ports + d.index()).or_insert(0) += 1;
        });
        counts
            .into_iter()
            .map(|(link, blocked)| FaultBlock {
                node: (link / ports) as u32,
                dir: Direction::from_index(link % ports),
                blocked,
            })
            .collect()
    }

    /// Diagnostic snapshot of why live traffic is blocked, taken when the
    /// watchdog fires (also usable from tests via [`Engine::run`]'s
    /// [`SimError::Stalled`] payload).
    fn stall_breakdown(&self) -> StallBreakdown {
        let mut b = StallBreakdown::default();
        for sd in &self.shards {
            for (i, node) in sd.nodes.iter().enumerate() {
                let ni = sd.base + i;
                if !node.program_done {
                    let closed = node.flow.closed_windows();
                    if closed > 0 {
                        b.credit_blocked_nodes += 1;
                        b.closed_credit_windows += closed as u64;
                    }
                }
                b.reception_stalled_fifos += node.blocked_deliveries.len() as u64;
                for (transit, head) in sd.heads(i) {
                    if head.plan.is_done() {
                        continue;
                    }
                    // Fault parks are classified first so a head with
                    // only dead exits never inflates the HOL count.
                    if self.head_is_fault_blocked(ni, head).is_some() {
                        b.fault_blocked_heads += 1;
                    } else if transit.is_some_and(|f| self.head_is_hol_blocked(ni, f, head)) {
                        b.hol_blocked_heads += 1;
                    }
                }
            }
        }
        b
    }
}
