//! The simulation engine.
//!
//! One cycle is the time a 32-byte chunk takes to cross a link. Each cycle
//! runs four phases (see [`phases`]) and a boundary, on one thread, in an
//! order fixed for determinism:
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
//! The **boundary** returns the credit freed by phase 4's pops (below).
//!
//! How *time* advances between those phases is the
//! [`EngineMode`](crate::EngineMode): the default clock visits only marked
//! nodes that can act and, after any stepped cycle with no arrival or
//! delivery due next, skips to the next cycle it cannot prove inert (see
//! [`event`]); the
//! reference, the full scan, steps every cycle and visits every node. Both
//! produce byte-identical [`NetStats`] and traces. `Engine::new` turns the
//! mode into one flag, `Shared::full_scan`, read in three places only:
//! phases 3 and 4, whose node loop then clears no mark and parks no node,
//! and the skip decision in the run loop.
//!
//! ## State and order
//!
//! Everything a cycle mutates lives in one [`State`] (nodes, their FIFO
//! header rows and per-link tables, the packet slab, programs, the
//! in-flight ring, the run's statistics); everything it only reads, plus
//! the credit cells, in one [`Shared`], whose methods are the routing rules
//! (those that read credit are the router's, [`router`]). Whether a head
//! can leave now has one answer, the arbiter's ([`State::can_leave`] over
//! `Shared::exit_vc`): the oracle's parking law asks it, and so do the
//! watchdog's stall and unreachable reports and the trace's HOL count,
//! through [`Engine::stuck`]. There is no
//! parallelism inside a run and nothing to configure about it: the
//! reproduction's parallelism is across runs (EXPERIMENTS.md, "Why the
//! engine has no threads").
//!
//! A packet is written into the slab at injection and stays in that slot,
//! its 20-byte hop record advanced in place hop by hop and its body left
//! cold, until it is drained or dropped by a fault; FIFOs and the ring hold
//! `u32` handles. A send waits for injection the same way, in a slot of one
//! send slab on one of its node's two lists (`fifo.rs`; DESIGN.md §6,
//! "Memory layout").
//!
//! Two accounting rules make a cycle's outcome independent of the order in
//! which a phase visits nodes, which lets the marked-node scans, parking
//! and the full scan agree byte for byte: phase-4 pops release credit at
//! the cycle boundary ([`router`]), and CPU-busy time is folded into
//! `NetStats::cpu_busy_cycles` in ascending node order only at observation
//! points, so the float sum has one order.
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
mod router;
#[cfg(test)]
mod tests;
mod tracer;

use crate::config::{EngineMode, SimConfig, Vc, NUM_VCS};
use crate::fifo::{FifoRows, SendSlab, Slab};
use crate::node::{NodeState, PollState};
use crate::packet::{Hop, SendSpec, MAX_PACKET_CHUNKS};
use crate::program::NodeProgram;
use crate::stats::{NetStats, LATENCY_BUCKETS};
use bgl_torus::{Direction, MAX_PORTS};
use oracle::Oracle;
use perf::{PerfState, ProgressState};
use phases::{Phases, Shared, HOP_LATENCY_CYCLES};
use router::Credits;
use std::collections::VecDeque;
use tracer::Tracer;

/// In-flight ring size: the next power of two above the longest flight,
/// `MAX_PACKET_CHUNKS + HOP_LATENCY_CYCLES` cycles from win to arrival, so
/// a slot holds one cycle's arrivals and `t % RING` is a mask. Every slot
/// keeps the capacity of its busiest cycle, so a slot more is memory held
/// and never read: at 64 slots the 4,096-node TPS row held room for
/// 171,008 arrivals (2.05 MB), at 16 for 45,056 (0.54 MB).
const RING: usize =
    (MAX_PACKET_CHUNKS as usize + HOP_LATENCY_CYCLES as usize + 1).next_power_of_two();
const _: () = assert!(MAX_PACKET_CHUNKS as u64 + HOP_LATENCY_CYCLES < RING as u64);

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
    /// Transit-FIFO head packets with no output the arbiter would give
    /// them: every live output they request is busy, refused on credit, or
    /// a suppressed return (head-of-line blocking).
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

/// Why a queued head cannot leave its node now ([`Engine::stuck`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stuck {
    /// Head-of-line blocked: a transit head refused by every live output it
    /// requests — busy, out of downstream credit, or a suppressed return.
    Hol,
    /// Parked behind dead links, no detour open: the lowest dead output
    /// the head requests.
    Fault(Direction),
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
    /// A collective or a measurement was asked of a partition with nobody
    /// to exchange with. Raised up front, never after cycles have run.
    TooFewNodes {
        /// What needs a peer (e.g. "an all-to-all", "a ping-pong fit").
        what: &'static str,
        /// The partition's node count.
        nodes: u32,
    },
    /// A node program handed the engine a [`SendSpec`](crate::SendSpec)
    /// it cannot inject. Checked where a send enters the node's queues;
    /// the run stops at the end of that cycle.
    InvalidSend {
        /// Cycle of the offending hook call.
        cycle: u64,
        /// Rank of the sending node.
        node: u32,
        /// What is wrong with the send.
        reason: String,
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
            SimError::TooFewNodes { what, nodes } => write!(
                f,
                "{what} needs at least two nodes, got a {nodes}-node partition"
            ),
            SimError::InvalidSend {
                cycle,
                node,
                reason,
            } => write!(
                f,
                "node {node} made an invalid send at cycle {cycle}: {reason}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// A packet crossing a link: everything phase 1 needs to commit it,
/// computed once at the win, so an arrival behind a queued packet never
/// touches the packet itself.
struct Arrival {
    /// Rank of the receiving node.
    node: u32,
    /// The packet's slot in the slab.
    h: u32,
    /// Transit FIFO it joins (`vc_fifo_index(port, vc)`).
    fifo: u8,
    chunks: u8,
    /// The hop it is finishing is its last (`plan.is_done()`).
    done: bool,
}

impl Arrival {
    /// The record of `pkt`, slot `h`'s hop record with the hop already
    /// written into it, on its way into transit FIFO `fifo` of node `node`.
    fn new(node: u32, h: u32, fifo: u8, pkt: &Hop) -> Arrival {
        Arrival {
            node,
            h,
            fifo,
            chunks: pkt.chunks,
            done: pkt.plan.is_done(),
        }
    }
}

#[derive(Clone, Copy)]
struct Win {
    /// The winning FIFO, transit or injection (`NodeMasks::occupied`'s
    /// index space).
    fifo: u8,
    vc: Vc,
    /// Non-minimal fault sidestep: the winner re-plans its route from the
    /// downstream node, minimally or the long way round a torus ring (see
    /// `apply_win`). Always false on a healthy run.
    detour: bool,
}

/// A lazily-cleared bitset over node indices, scanned in ascending index
/// order (never hash order) so a scan visits marked nodes in exactly the
/// sequence a scan of every node would — which is what the full scan is:
/// the same scan over a set it never clears.
///
/// The engine maintains the invariant that every node with work is marked;
/// a marked node that turns out to be idle is cleared when visited (an
/// arbitration mark also by the delivery pop that empties the node). Bits
/// are only ever *set* between phases (arrivals mark arbitration work,
/// deliveries mark CPU work), so a phase can iterate a snapshot of each
/// word without missing work.
struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    /// A set over `n` nodes with every node marked (the engine prunes
    /// lazily from the conservative side).
    fn all(n: usize) -> NodeSet {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            let tail = n % 64;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
        NodeSet { words }
    }

    /// The marked nodes, ascending (the walks that only read the set; the
    /// phases, which clear bits as they go, walk word snapshots).
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let words = self.words.iter().enumerate();
        words.flat_map(|(w, &word)| bits(word).map(move |b| w << 6 | b))
    }

    #[inline]
    fn mark(&mut self, i: usize) {
        self.words[i >> 6] |= 1 << (i & 63);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        self.words[i >> 6] &= !(1 << (i & 63));
    }

    /// Marked-node count: an upper bound on real work (marks are
    /// conservative), sampled by the profiler.
    fn popcount(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// What arbitration reads of a node before anything else, kept apart from
/// its [`NodeState`] so the scan over marked nodes and a visit's first
/// reads touch 16 bytes per node, not a 168-byte state. Both masks are
/// written by [`State::set_head`] alone.
#[derive(Debug, Clone, Copy, Default)]
struct NodeMasks {
    /// Bitmask of non-empty FIFOs over the node's one FIFO index space:
    /// transit FIFO `f` (indexed by `vc_fifo_index`) is bit `f`, injection
    /// FIFO `k` bit `ports · NUM_VCS + k` — the order of its row of FIFO
    /// headers. At the 6-dimension maximum the 36 transit FIFOs leave room
    /// for 28 injection FIFOs.
    occupied: u64,
    /// Bit `d` set iff some FIFO head requests output `d`: the non-zero
    /// directions of the node's row of [`State::want`].
    requested: u16,
}

/// Every piece of simulation state a cycle mutates, the credit cells
/// apart (the router's, [`router`]). Per-node vectors and the node sets are
/// indexed by rank.
struct State {
    nodes: Vec<NodeState>,
    /// Per node, its occupancy mask and requested outputs.
    masks: Vec<NodeMasks>,
    /// The nodes' FIFO headers, one row per node.
    fifos: FifoRows,
    /// Every packet queued at, or in flight towards, a node.
    slab: Slab,
    /// Every send queued at a node (its pending or pulled list), not yet
    /// injected.
    sends: SendSlab,
    /// The queue a hook's [`NodeApi`](crate::NodeApi) sends into, emptied
    /// onto the node's pending list after every hook (`Phases::run_hook`).
    scratch: VecDeque<SendSpec>,
    programs: Vec<Box<dyn NodeProgram>>,
    /// `busy_until[node * ports + dir]`. This and the three tables below
    /// are per output link, `ports` entries per node: sized by the
    /// partition's arity.
    link_busy_until: Vec<u64>,
    /// Request masks over the node's FIFOs, transit and injection
    /// ([`NodeMasks::occupied`]'s index space): bit `f` of `want[link]` is
    /// set iff the node's FIFO `f` is non-empty and its head's routing
    /// allows that output (`Shared::wants`). A function of the head packet
    /// and the router config alone, so [`State::set_head`] flips FIFO `f`'s
    /// bits that change exactly where its head changes, and arbitration
    /// reads them instead of re-routing every head for every link every
    /// cycle.
    want: Vec<u64>,
    /// Round-robin arbitration pointer of each output link.
    rr: Vec<u8>,
    /// The run's statistics, written by the phases where each event
    /// happens; `cpu_busy_cycles` alone is folded in at observation points
    /// (`Engine::sync_ledgers`).
    stats: NetStats,
    /// Packets injected and neither drained nor dropped.
    live_packets: u64,
    /// Programs that have declared completion.
    done_programs: usize,
    /// Whether this cycle moved anything (a packet, a drain, an injection):
    /// folded into `Engine::last_progress` at the end of the cycle.
    progress: bool,
    /// In-flight ring: slot `t % RING` holds the packets arriving at cycle
    /// `t`, in the order they won their links — ascending node, then
    /// direction, within a cycle, since phase 4 files each win as it makes
    /// it and every arrival is later than its win (`arrive − t < RING`,
    /// asserted at construction, keeps the slot phase 1 is emptying out of
    /// reach).
    ring: Vec<Vec<Arrival>>,
    deliver_q: Vec<(u32, u8)>,
    /// Nodes that may have CPU work (non-empty reception/pending/pulled
    /// queues, or a program that has not declared completion).
    cpu_active: NodeSet,
    /// Nodes that may have a packet to arbitrate out (non-zero
    /// [`NodeMasks::occupied`]).
    arb_active: NodeSet,
    /// Per node, the earliest cycle at which a CPU-phase visit could do
    /// more than a blocked poll (0: visit; `u64::MAX`: not until re-armed)
    /// — see "Parking" in [`phases`]. The full scan writes it and never
    /// reads it; the skipping clock takes its minimum.
    cpu_at: Vec<u64>,
    /// Per node, the first cycle of blocked polls not yet counted into the
    /// statistics (`u64::MAX`: none owed), written beside `cpu_at`.
    owed_from: Vec<u64>,
    /// The same for phase 4, lowered besides by a credit release that may
    /// let the node win a link (`Shared::release`).
    arb_at: Vec<u64>,
    /// Id of the next packet injected: ids are dense and ascend with
    /// (cycle, node, injection order).
    next_packet_id: u64,
    /// Credit releases from this cycle's phase-4 pops, applied at the
    /// cycle boundary: `(node, transit FIFO, chunks)`.
    deferred: Vec<(u32, u8, u8)>,
    /// The cycle's first [`SimError::InvalidSend`], returned at its end.
    invalid_send: Option<SimError>,
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

impl State {
    /// The head packet's record of every occupied FIFO of node `i`,
    /// ascending (only the occupancy mask's bits are walked): `(f, head)`.
    fn heads(&self, i: usize) -> impl Iterator<Item = (usize, &Hop)> {
        let row = self.fifos.row(i);
        let head = move |f: usize| &self.slab[row[f].head().expect("mask says non-empty")];
        bits(self.masks[i].occupied).map(move |f| (f, head(f)))
    }

    /// The head of node `i`'s FIFO `f`, which requested the outputs `old`
    /// (0 for an empty FIFO or an arrived head), changed to one requesting
    /// the outputs `head` (`Shared::request_dirs`: `Some(0)` for a head that
    /// has arrived), or the FIFO emptied (`None`). The one writer of the
    /// node's [`NodeMasks`] and its row of [`want`](Self::want); it flips
    /// only the request bits that change, and an output leaves the
    /// requested set when its word empties.
    #[inline]
    fn set_head(&mut self, i: usize, ports: usize, f: usize, old: u16, head: Option<u16>) {
        let masks = &mut self.masks[i];
        masks.occupied = masks.occupied & !(1 << f) | u64::from(head.is_some()) << f;
        let (row, new) = (&mut self.want[i * ports..][..ports], head.unwrap_or(0));
        debug_assert!(
            (0..ports).all(|d| row[d] >> f & 1 == u64::from(old >> d & 1)),
            "FIFO {f} of node {i}: `old` {old:#b} is not its row of requests"
        );
        let mut requested = masks.requested;
        for d in bits((old ^ new).into()) {
            row[d] ^= 1 << f;
            requested &= !(u16::from(row[d] == 0) << d);
        }
        masks.requested = requested | new;
    }

    /// Count the blocked polls node `i` owes for the cycles `owed_from..upto`:
    /// 1 `pacing_blocked_cycles` each under a closed rate window, the
    /// sleeper's denials of `credit_blocked_events` — per `poll`, which only a
    /// visit changes. Every visit and every reader of the statistics calls it.
    fn settle_blocked(&mut self, i: usize, upto: u64) {
        let from = self.owed_from[i];
        if upto <= from {
            return;
        }
        self.owed_from[i] = upto;
        let cycles = upto - from;
        match self.nodes[i].poll {
            PollState::Rate => self.stats.pacing_blocked_cycles += cycles,
            PollState::Asleep { denials } => self.stats.credit_blocked_events += denials * cycles,
            PollState::Open => unreachable!("an open poll owes nothing"),
        }
    }

    /// Re-arm node `i`'s CPU after an event that may give it work: a
    /// delivery into its reception FIFO, an injection-FIFO pop that frees
    /// room for its stuck sends, a fault drop or a fault transition. The
    /// visit comes no earlier than its CPU is free, where the visit's own
    /// park would have put it. The one CPU re-arm: with `cpu_park`, it keeps
    /// `cpu_at >= floor(cpu_free)`, so outside the full scan a CPU visit
    /// never finds its CPU booked.
    fn wake_cpu(&mut self, i: usize) {
        self.cpu_active.mark(i);
        self.cpu_at[i] = self.cpu_at[i].min(self.nodes[i].cpu_free as u64);
    }

    /// Wake node `i`'s arbitration for a new head, which requests the
    /// outputs `dirs`, at cycle `t`: at `t` if one of them is free, else at
    /// the earliest release among them (on a healthy run every requested
    /// output is live); at once under a fault plan, where a detour may take
    /// any link. An arrived head (`dirs == 0`) leaves the wake as it was.
    fn wake_arb(&mut self, sh: &Shared, i: usize, dirs: u16, t: u64) {
        let wake = if sh.fault_dirs != 0 {
            0
        } else {
            let busy = &self.link_busy_until[i * sh.ports..][..sh.ports];
            let releases = bits(dirs.into()).map(|d| busy[d].max(t));
            releases.min().unwrap_or(u64::MAX)
        };
        self.arb_active.mark(i);
        self.arb_at[i] = self.arb_at[i].min(wake);
    }

    /// Node `i` has nothing left to move out: it leaves the arbitration set,
    /// its wake unset until a new head re-arms it ([`wake_arb`]). Outside
    /// the full scan only.
    ///
    /// [`wake_arb`]: Self::wake_arb
    fn leave_arb(&mut self, i: usize) {
        self.arb_active.clear(i);
        self.arb_at[i] = u64::MAX;
    }

    /// Whether output `d` of node `i` takes `pkt`, the head of its FIFO `f`,
    /// at cycle `t`: the link is up (bit `d` of `Shared::up`) and free, and
    /// the arbiter's test ([`Shared::exit_vc`], what `pick` asks) accepts
    /// the head — its minimal move if it requests `d`, else a detour. The
    /// one answer to "can this head leave?" that the stall report, the
    /// trace's HOL count and the oracle's parking law share.
    fn can_leave(&self, sh: &Shared, i: usize, f: usize, pkt: &Hop, d: usize, t: u64) -> bool {
        let link = i * sh.ports + d;
        let nb = sh.neighbors[link] as usize;
        let (dir, wanted) = (Direction::from_index(d), self.want[link] >> f & 1 != 0);
        sh.up[i] >> d & 1 != 0
            && self.link_busy_until[link] <= t
            && sh.exit_vc(pkt, i, f, dir, nb, wanted).is_some()
    }
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
    /// Configuration, topology and credits: what the phases only read,
    /// credit cells apart (see [`Shared`]).
    shared: Shared,
    now: u64,
    /// What the phases mutate: nodes, FIFOs, packets, programs, counters.
    state: State,
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
            cfg.cpu.chunks_per_cycle > 0.0,
            "CPU bandwidth must be positive"
        );
        cfg.flow.validate();
        if let Err(e) = cfg.fault.validate(&part) {
            panic!("invalid fault plan: {e}");
        }
        let ports = part.ports();
        let vc_cells = ports * NUM_VCS;
        let inj = cfg.inj_fifo_count as usize;
        assert!(inj <= 32, "a class's injection FIFOs are a u32 bitmask");
        assert!(vc_cells + inj <= 64, "a node's FIFOs are a u64 bitmask");
        let links = p * ports;
        // The machine is one rank-order walk (`Partition::walk`): a
        // neighbour is `rank ± stride`, no coordinate round trip per link
        // (EXPERIMENTS.md, "Building the machine"). It runs twice, node
        // states first and the neighbour table after the state's tables:
        // that allocation order keeps glibc from trimming a dropped engine's
        // heap and faulting its pages back in for the next one, which a
        // caller that builds many engines pays (one walk, its tables
        // allocated first, read 400 µs of `setup_s` on 16x8x8 where this
        // order reads 120; DESIGN.md §6, "Memory layout"). A node state
        // allocates nothing: its send queues are lists through the engine's
        // send slab. Programs with nothing to do are complete before cycle 0.
        let mut done_programs = 0;
        let nodes = part.walk().zip(&programs).map(|(site, prog)| {
            let mut node = NodeState::new(site.coord, &cfg);
            done_programs += usize::from(node.latch_done(prog.as_ref()));
            node
        });
        let state = State {
            nodes: nodes.collect(),
            masks: vec![NodeMasks::default(); p],
            fifos: FifoRows::new(p, vc_cells, inj),
            slab: Slab::new(),
            sends: SendSlab::new(),
            scratch: VecDeque::new(),
            programs,
            link_busy_until: vec![0; links],
            want: vec![0; links],
            rr: vec![0; links],
            stats: NetStats {
                link_busy_chunks: vec![0; part.ndims()],
                hops_taken: vec![0; part.ndims()],
                latency_histogram: vec![0; LATENCY_BUCKETS],
                link_busy_per_link: vec![0; if cfg.detailed_link_stats { links } else { 0 }],
                ..NetStats::default()
            },
            live_packets: 0,
            done_programs,
            progress: false,
            ring: (0..RING).map(|_| Vec::new()).collect(),
            deliver_q: Vec::new(),
            cpu_active: NodeSet::all(p),
            arb_active: NodeSet::all(p),
            cpu_at: vec![0; p],
            owed_from: vec![u64::MAX; p],
            arb_at: vec![0; p],
            next_packet_id: 0,
            deferred: Vec::new(),
            invalid_send: None,
        };
        // At cycle 0 every link is alive: `up` names the linked outputs.
        let (mut neighbors, mut up) = (Vec::with_capacity(links), Vec::with_capacity(p));
        for site in part.walk() {
            let mut linked = 0;
            for d in part.directions() {
                let nb = site.neighbor_rank(d);
                neighbors.push(nb.unwrap_or(u32::MAX));
                linked |= u16::from(nb.is_some()) << d.index();
            }
            up.push(linked);
        }
        let tracer = cfg
            .trace
            .as_ref()
            .map(|tc| Box::new(Tracer::new(tc, &state.stats)));
        let oracle = cfg.check_invariants.then(|| Box::new(Oracle::new()));
        let perf = cfg.perf.is_some().then(Box::<PerfState>::default);
        let progress = cfg.progress.then(|| Box::new(ProgressState::new()));
        let (mut fault_schedule, mut fault_dirs) = (Vec::new(), 0);
        if !cfg.fault.is_empty() {
            fault_dirs = (1 << ports) - 1;
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
            credits: Credits::new(p * vc_cells, cfg.router.vc_fifo_chunks),
            full_scan: cfg.engine == EngineMode::FullScan,
            cfg,
            part,
            neighbors,
            ports,
            vc_cells,
            up,
            fault_dirs,
        };
        Engine {
            shared,
            now: 0,
            state,
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
                let (breakdown, faults) = self.stall_breakdown();
                // Heads parked purely behind dead links, with no recovery
                // left in the schedule, will never move: report the
                // topology problem (with its per-link breakdown) rather
                // than a generic stall.
                let st = &self.state;
                let recovery = self.fault_schedule[self.fault_cursor..]
                    .iter()
                    .any(|e| e.alive);
                if !faults.is_empty() && !recovery {
                    return Err(SimError::Unreachable {
                        cycle: self.now,
                        blocked_packets: st.live_packets + st.sends.live() as u64,
                        faults,
                    });
                }
                let trace_tail = self
                    .tracer
                    .as_ref()
                    .map(|t| t.trace.summary_tail(4))
                    .unwrap_or_default();
                return Err(SimError::Stalled {
                    cycle: self.now,
                    live_packets: st.live_packets + st.sends.live() as u64,
                    incomplete_programs: self.num_nodes() - st.done_programs,
                    breakdown,
                    trace_tail,
                });
            }
            self.step();
            if let Some(e) = self.state.invalid_send.take() {
                self.sync_ledgers();
                return Err(e);
            }
            // The skipping clock: jump over cycles no component can act in.
            if !self.shared.full_scan && !self.is_complete() {
                if self.may_skip() {
                    self.fast_forward();
                } else if let Some(p) = self.perf.as_deref_mut() {
                    p.profile.event.fresh_suppressions += 1;
                }
            }
        }
        self.sync_ledgers();
        if self.oracle.is_some() {
            self.oracle_quiesce_check();
        }
        Ok(self.state.stats.clone())
    }

    /// Whether the simulation has fully drained and every program reports
    /// complete.
    fn is_complete(&self) -> bool {
        let st = &self.state;
        st.live_packets == 0 && st.sends.live() == 0 && st.done_programs == self.num_nodes()
    }

    fn num_nodes(&self) -> usize {
        self.state.nodes.len()
    }

    /// Bring the statistics up to `now` for a reader: settle every node's
    /// blocked polls, and fold the per-node CPU-busy accumulators into
    /// `stats.cpu_busy_cycles` in ascending node order — the one float
    /// reduction in the stats.
    fn sync_ledgers(&mut self) {
        let st = &mut self.state;
        for i in 0..st.nodes.len() {
            st.settle_blocked(i, self.now);
        }
        st.stats.cpu_busy_cycles = st.nodes.iter().map(|n| n.cpu_busy).sum();
    }

    /// Cycle of the next unapplied fault transition (`u64::MAX` once the
    /// schedule is exhausted) — a skip must never jump over it.
    fn next_fault_cycle(&self) -> u64 {
        self.fault_schedule
            .get(self.fault_cursor)
            .map_or(u64::MAX, |e| e.cycle)
    }

    /// Apply every fault transition scheduled at or before the current
    /// cycle: set or clear the link's bit of `Shared::up` (the one writer
    /// after `Engine::new`), drop packets in flight on dying links,
    /// and wake the affected endpoints. Runs at the top of `step()` —
    /// before any phase — so every engine mode observes transitions at
    /// exactly the same point and results stay byte-identical.
    fn apply_fault_transitions(&mut self) {
        while let Some(&ev) = self.fault_schedule.get(self.fault_cursor) {
            if ev.cycle > self.now {
                break;
            }
            self.fault_cursor += 1;
            let link = ev.link as usize;
            let u = link / self.shared.ports;
            let d = Direction::from_index(link % self.shared.ports);
            let up = &mut self.shared.up[u];
            *up = *up & !(1 << d.index()) | u16::from(ev.alive) << d.index();
            let v = self.shared.neighbors[link];
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
        let st = &mut self.state;
        for i in [u, v] {
            st.arb_active.mark(i);
            st.arb_at[i] = 0;
            st.wake_cpu(i);
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
        let keep = (self.now % RING as u64) as usize;
        let mut dropped: Vec<Arrival> = Vec::new();
        for (slot, ring) in self.state.ring.iter_mut().enumerate() {
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
            let (st, part) = (&mut self.state, &self.shared.part);
            self.shared
                .release(st, v, arr.fifo.into(), arr.chunks.into());
            // The hop was written at the win: the plan leads on from `v`.
            let pkt = st.slab.take_dropped(arr.h, part, v as u32);
            let dst = part.rank_of(pkt.dst);
            st.live_packets -= 1;
            st.stats.dropped_by_fault += 1;
            if let Some(o) = self.oracle.as_deref_mut() {
                o.on_drop(&pkt, dst);
            }
            let i = dst as usize;
            st.programs[i].on_packet_dropped(&pkt);
            st.done_programs += usize::from(st.nodes[i].latch_done(st.programs[i].as_ref()));
            st.wake_cpu(i);
        }
    }

    /// Advance one cycle.
    fn step(&mut self) {
        if self.fault_cursor < self.fault_schedule.len() {
            self.apply_fault_transitions();
        }
        let t = self.now;
        if self.perf.is_some() {
            self.perf_note_step();
        }
        Phases {
            shared: &self.shared,
            st: &mut self.state,
            oracle: self.oracle.as_deref_mut(),
            perf: self.perf.as_deref_mut().map(|p| &mut p.profile),
        }
        .cycle(t);
        if std::mem::take(&mut self.state.progress) {
            self.last_progress = t;
        }
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

    /// Why `pkt`, the head of node `i`'s FIFO `f`, cannot leave now, asked
    /// of the arbiter's own rule ([`State::can_leave`]); `None` if some
    /// output would take it, or it has arrived (it requests none). A head
    /// none of whose requests is up (`Shared::up`: its hint bits name no
    /// missing link, so each is a dead one, only under a fault plan), with
    /// no detour open, is a [`Stuck::Fault`] behind the lowest of them; a
    /// transit head refused by every live output it requests is
    /// [`Stuck::Hol`]: with a live request no detour opens, so the live
    /// requests are every output the arbiter could give it.
    fn stuck(&self, i: usize, f: usize, pkt: &Hop) -> Option<Stuck> {
        let sh = &self.shared;
        let (wanted, up) = (sh.request_dirs(pkt), sh.up[i]);
        let live = wanted & up;
        if wanted != 0 && live == 0 && sh.detour_dirs(pkt, i) == 0 {
            let d = Direction::from_index(wanted.trailing_zeros() as usize);
            return Some(Stuck::Fault(d));
        }
        let refused = |d| !self.state.can_leave(sh, i, f, pkt, d, self.now);
        let hol = sh.input_dim(f).is_some() && live != 0 && bits(live.into()).all(refused);
        hol.then_some(Stuck::Hol)
    }

    /// Diagnostic snapshot of why live traffic is blocked, taken when the
    /// watchdog fires (also usable from tests via [`Engine::run`]'s
    /// [`SimError::Stalled`] payload), in one walk over the heads: with it,
    /// the fault-blocked heads per dead link, sorted by (node, direction) —
    /// the `faults` of [`SimError::Unreachable`].
    fn stall_breakdown(&self) -> (StallBreakdown, Vec<FaultBlock>) {
        let (mut b, mut faults) = (StallBreakdown::default(), Vec::new());
        for (i, node) in self.state.nodes.iter().enumerate() {
            if !node.program_done {
                let closed = node.flow.closed_windows();
                if closed > 0 {
                    b.credit_blocked_nodes += 1;
                    b.closed_credit_windows += closed as u64;
                }
            }
            b.reception_stalled_fifos += node.blocked_deliveries.len() as u64;
            let mut dead = [0u64; MAX_PORTS];
            for (f, head) in self.state.heads(i) {
                match self.stuck(i, f, head) {
                    Some(Stuck::Hol) => b.hol_blocked_heads += 1,
                    Some(Stuck::Fault(d)) => dead[d.index()] += 1,
                    None => {}
                }
            }
            for (d, &blocked) in dead.iter().enumerate().filter(|(_, &n)| n > 0) {
                let (node, dir) = (i as u32, Direction::from_index(d));
                faults.push(FaultBlock { node, dir, blocked });
                b.fault_blocked_heads += blocked;
            }
        }
        (b, faults)
    }
}
