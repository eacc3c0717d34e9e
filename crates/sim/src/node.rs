//! Per-node simulator state: send queue headers, CPU accounting and flow
//! control. The queued sends themselves live in the engine's
//! [`SendSlab`](crate::fifo::SendSlab); the FIFO headers are the node's row
//! of the engine's [`FifoRows`](crate::fifo::FifoRows); its occupancy mask
//! and requested outputs, which arbitration reads first, one entry of the
//! engine's per-node mask array; and what the engine keeps per output link
//! — request masks, round-robin pointer, busy-until — the node's rows of
//! its per-link tables. Building a node allocates nothing.

use crate::config::{SimConfig, NUM_VCS};
use crate::fifo::SendList;
use crate::flow::FlowLedger;
use crate::program::NodeProgram;
use bgl_torus::Coord;

/// Index of the VC FIFO for (input port, VC). The number of ports — and so
/// the number of VC FIFOs, `2n · NUM_VCS` — is the partition's, not a
/// constant: a 2D node has 12 transit FIFOs, a 3D node 18, a 6D node 36.
#[inline]
pub fn vc_fifo_index(port: usize, vc: usize) -> usize {
    port * NUM_VCS + vc
}

/// Below this pulled-queue depth the engine keeps pulling the program's
/// own sends, so reactive sends waiting for FIFO space do not starve a
/// node's proactive schedule.
pub(crate) const PULL_THRESHOLD: usize = 8;

/// What a node's last CPU visit learned about its ability to make
/// progress on its own (without a delivery): the visit's wake and the
/// blocked-poll counters its node owes follow from it ("Parking" in
/// `engine/phases.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PollState {
    /// No standing decline: the node may accept a pull whenever its CPU is
    /// free.
    #[default]
    Open,
    /// The engine-level rate window was closed; re-poll no earlier than
    /// `next_allowed`, read from the node's flow ledger when the visit
    /// ends (a send it pulled first may have moved it). Every cycle until
    /// then counts one `pacing_blocked_cycles`.
    Rate,
    /// The program declined its pull (`NodeProgram::next_send`): no timed
    /// wake at all, only a delivery re-arms the node. `denials` credit
    /// acquisitions failed during the declining poll; the decline is pure,
    /// so a cycle-stepped clock would repeat exactly that count every idle
    /// cycle — settled per node over the cycles it is passed over for.
    Asleep {
        /// Failed credit acquisitions of the declining poll.
        denials: u64,
    },
}

/// All simulator state for one node.
pub struct NodeState {
    /// Node coordinate.
    pub coord: Coord,
    /// Reactive sends queued by the program (api.send from hooks), not yet
    /// paid for / injected: a list through the engine's send slab.
    pub(crate) pending: SendList,
    /// Sends pulled from the program's own schedule (`next_send`), kept
    /// separate so a backlog of reactive forwards can never starve a
    /// node's proactive stream (and vice versa).
    pub(crate) pulled: SendList,
    /// Absolute time (cycles, fractional) the CPU becomes free.
    pub cpu_free: f64,
    /// Total CPU-cycles this node has been charged so far. Kept per node
    /// (not accumulated straight into `NetStats`) so the global
    /// `cpu_busy_cycles` float is always the ascending-node-order fold of
    /// these values — an order that does not depend on which nodes a
    /// clock visits, or when.
    pub cpu_busy: f64,
    /// VC FIFO indices whose head is deliverable but found the reception
    /// FIFO full; retried after the CPU drains a packet.
    pub blocked_deliveries: Vec<u8>,
    /// Injection flow-control state (see [`crate::flow`]): the engine's
    /// rate window and the program-visible credit ledger.
    pub flow: FlowLedger,
    /// Cached program completion flag.
    pub program_done: bool,
    /// Wake hint, rewritten at each CPU visit.
    pub poll: PollState,
    /// The last CPU visit ended with queued sends that no injection FIFO
    /// could take, and no pull due if the CPU was booked: the next visit
    /// could do nothing until an arbitration win drains an injection FIFO,
    /// which clears this if a stuck send fits then.
    pub inject_blocked: bool,
}

impl NodeState {
    /// Fresh state per `cfg`.
    pub fn new(coord: Coord, cfg: &SimConfig) -> NodeState {
        NodeState {
            coord,
            pending: SendList::default(),
            pulled: SendList::default(),
            cpu_free: 0.0,
            cpu_busy: 0.0,
            blocked_deliveries: Vec::new(),
            flow: FlowLedger::new(cfg.flow),
            program_done: false,
            poll: PollState::Open,
            inject_blocked: false,
        }
    }

    /// Latch `prog`'s completion into [`program_done`](Self::program_done):
    /// `true` exactly once, the first time the program reports complete —
    /// the caller's cue to count it. The one place the flag is set.
    pub fn latch_done(&mut self, prog: &dyn NodeProgram) -> bool {
        let newly = !self.program_done && prog.is_complete();
        if newly {
            self.program_done = true;
        }
        newly
    }

    /// Whether the CPU phase would poll the program for its next send: the
    /// program has not completed and the pulled queue is below
    /// `PULL_THRESHOLD`. [`poll`](Self::poll) is read only while this
    /// holds.
    #[inline]
    pub fn pull_due(&self) -> bool {
        !self.program_done && self.pulled.len() < PULL_THRESHOLD
    }

    /// Whether a send waits in this node's queues (the quiesce check; the
    /// FIFOs are the caller's to look at).
    pub fn holds_sends(&self) -> bool {
        !self.pending.is_empty() || !self.pulled.is_empty()
    }
}
