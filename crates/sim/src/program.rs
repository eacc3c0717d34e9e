//! Node programs: the "software" running on each simulated node.
//!
//! The BG/L cores do all communication work themselves (no DMA): they build
//! packets, stuff injection FIFOs, drain reception FIFOs, and — for the
//! indirect strategies — forward or combine data in software. A
//! [`NodeProgram`] models exactly that through three hooks, all called from
//! the simulated CPU:
//!
//! * [`next_send`](NodeProgram::next_send) — the engine *pulls* the
//!   program's own schedule one packet at a time;
//! * [`on_packet`](NodeProgram::on_packet) — a delivery, to which the
//!   program may react with [`NodeApi::send`] (forwards, credit acks);
//! * [`on_packet_dropped`](NodeProgram::on_packet_dropped) — a fault
//!   notification for a packet that will never arrive.
//!
//! The engine charges the fixed costs of every injection and drain itself.
//! A program charges software time — per-message α, copy γ — in exactly one
//! way: [`SendSpec::with_cpu_cost`] on the send the work belongs to, served
//! from `max(cpu_free, now)` when that packet is injected.

use crate::flow::FlowLedger;
use crate::packet::{Packet, SendSpec};
use bgl_torus::{Coord, Partition};
use std::collections::VecDeque;

/// How the engine may schedule [`NodeProgram::next_send`] polls after a
/// decline — the contract a program makes with the event-driven engine
/// mode ([`crate::EngineMode::EventDriven`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PollHint {
    /// Poll again every cycle (the conservative default). A declined
    /// program with this hint keeps its node awake, so the event-driven
    /// engine cannot skip time while it is incomplete — correct for any
    /// program, including ones whose readiness depends on wall-clock
    /// cycle counts rather than deliveries.
    #[default]
    EveryCycle,
    /// A decline is stable until something is delivered to this node:
    /// `next_send` is pure on the decline path (no self-mutation beyond
    /// credit-denial counting) and its answer can only change via
    /// `on_packet`/`apply_credit`. The event-driven engine lets the node
    /// sleep until the next delivery instead of re-polling every cycle.
    SleepUntilDelivery,
}

/// Per-node software hooks. One boxed instance per node; all calls run "on"
/// the node's simulated CPU.
pub trait NodeProgram: Send {
    /// A packet addressed to this node has been drained from the reception
    /// FIFO. The engine has already charged the drain cost; charge any
    /// additional software cost (forwarding, copies) by attaching
    /// `cpu_cost_cycles` to the sends it causes.
    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: &Packet) {
        let _ = (api, pkt);
    }

    /// Pull the next packet to inject. Called whenever the node's pending
    /// queue is empty and the CPU has injection capacity. Return `None` to
    /// decline this cycle (the engine polls again next cycle), e.g. for
    /// paced/throttled injection.
    fn next_send(&mut self, api: &mut NodeApi<'_>) -> Option<SendSpec> {
        let _ = api;
        None
    }

    /// A packet addressed to this node was *dropped in flight* by a link
    /// fault (see [`crate::fault`]): it will never be delivered. Called
    /// outside the CPU timeline (no [`NodeApi`], no CPU charge — this
    /// models the fault notification, not software work) at the cycle the
    /// link died. Programs that count expected deliveries should account
    /// the loss here so completion still converges; the default ignores
    /// the notification. Must never turn a complete program incomplete.
    fn on_packet_dropped(&mut self, pkt: &Packet) {
        let _ = pkt;
    }

    /// `true` once this node will neither send nor expects to receive
    /// anything further. The simulation ends when every program is complete
    /// *and* the network has fully drained.
    fn is_complete(&self) -> bool;

    /// How a `None` from [`NodeProgram::next_send`] may be scheduled
    /// around (see [`PollHint`]). The default keeps legacy programs
    /// correct under every engine mode at the cost of event-skipping;
    /// programs whose declines are delivery-driven should return
    /// [`PollHint::SleepUntilDelivery`].
    fn poll_hint(&self) -> PollHint {
        PollHint::EveryCycle
    }
}

/// The runtime interface a [`NodeProgram`] sees.
pub struct NodeApi<'a> {
    /// This node's rank.
    pub rank: u32,
    /// This node's coordinate.
    pub coord: Coord,
    /// Current simulation cycle.
    pub now: u64,
    part: &'a Partition,
    sends: &'a mut VecDeque<SendSpec>,
    /// Flow-control ledger, attached by the engine. `None` (tests that
    /// drive programs directly) behaves like an unpaced ledger.
    flow: Option<&'a mut FlowLedger>,
    credit_blocked: u64,
}

impl<'a> NodeApi<'a> {
    /// Construct an API view. Used by the engine each time it runs a hook;
    /// public so strategy crates can drive programs directly in their tests.
    /// No flow-control ledger is attached: every credit is granted.
    pub fn new(
        rank: u32,
        coord: Coord,
        now: u64,
        part: &'a Partition,
        sends: &'a mut VecDeque<SendSpec>,
    ) -> NodeApi<'a> {
        NodeApi {
            rank,
            coord,
            now,
            part,
            sends,
            flow: None,
            credit_blocked: 0,
        }
    }

    /// Attach a flow-control ledger (engine use, and tests exercising
    /// credit windows): subsequent credit calls consult `ledger`.
    pub fn with_flow(mut self, ledger: &'a mut FlowLedger) -> NodeApi<'a> {
        self.flow = Some(ledger);
        self
    }

    /// The partition being simulated.
    pub fn partition(&self) -> &Partition {
        self.part
    }

    /// Enqueue a packet for injection. Packets are injected in FIFO order,
    /// after their `cpu_cost_cycles` (if any) plus the standard per-packet
    /// injection cost has been paid.
    pub fn send(&mut self, spec: SendSpec) {
        self.sends.push_back(spec);
    }

    /// Number of sends enqueued and not yet taken by the engine (useful
    /// to tests that drive programs directly).
    pub fn queued(&self) -> usize {
        self.sends.len()
    }

    /// Reserve one flow-control credit toward `intermediate` before
    /// sending it a packet that occupies its memory. Returns `true` when
    /// the send may proceed — always, unless the node is configured with
    /// [`FlowSpec::Credit`](crate::FlowSpec::Credit) and `intermediate`'s
    /// window is full (decline the send and retry later).
    pub fn try_acquire_credit(&mut self, intermediate: u32) -> bool {
        let Some(flow) = self.flow.as_deref_mut() else {
            return true;
        };
        if flow.try_acquire(intermediate) {
            true
        } else {
            self.credit_blocked += 1;
            false
        }
    }

    /// Count one credited receipt from `src`. `Some(n)` means an
    /// acknowledgement worth `n` credits is due: the program must send
    /// `src` a credit packet that ends in [`NodeApi::apply_credit`] on the
    /// other side. Always `None` without credit flow control.
    pub fn credit_receipt(&mut self, src: u32) -> Option<u32> {
        self.flow.as_deref_mut()?.receipt(src)
    }

    /// Apply `n` returned credits from `intermediate`, reopening its
    /// window. No-op without credit flow control.
    pub fn apply_credit(&mut self, intermediate: u32, n: u32) {
        if let Some(flow) = self.flow.as_deref_mut() {
            flow.apply_credit(intermediate, n);
        }
    }

    /// Credit acquisitions denied during this hook invocation (engine
    /// use: feeds `NetStats::credit_blocked_events`).
    pub(crate) fn take_credit_blocked(&mut self) -> u64 {
        std::mem::take(&mut self.credit_blocked)
    }
}

/// A trivial program that sends a fixed list of packets and counts
/// deliveries; used by the simulator's own tests and micro-benchmarks.
#[derive(Debug)]
pub struct ScriptedProgram {
    /// Packets still to send, in order.
    pub to_send: VecDeque<SendSpec>,
    /// Number of packets this node expects to receive.
    pub expect: u64,
    /// Packets received so far.
    pub received: u64,
    /// Packets bound for this node that a link fault dropped in flight
    /// (counted toward `expect`: the loss is accounted, not awaited).
    pub dropped: u64,
    /// Payload bytes received so far.
    pub received_bytes: u64,
}

impl ScriptedProgram {
    /// A program sending `sends` and expecting `expect` deliveries.
    pub fn new(sends: Vec<SendSpec>, expect: u64) -> ScriptedProgram {
        ScriptedProgram {
            to_send: sends.into(),
            expect,
            received: 0,
            dropped: 0,
            received_bytes: 0,
        }
    }

    /// A silent node: sends nothing, expects nothing.
    pub fn idle() -> ScriptedProgram {
        ScriptedProgram::new(Vec::new(), 0)
    }
}

impl NodeProgram for ScriptedProgram {
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, pkt: &Packet) {
        self.received += 1;
        self.received_bytes += pkt.payload_bytes as u64;
    }

    fn next_send(&mut self, _api: &mut NodeApi<'_>) -> Option<SendSpec> {
        self.to_send.pop_front()
    }

    fn on_packet_dropped(&mut self, _pkt: &Packet) {
        self.dropped += 1;
    }

    fn is_complete(&self) -> bool {
        self.to_send.is_empty() && self.received + self.dropped >= self.expect
    }

    /// `next_send` only declines once the script is exhausted, which no
    /// delivery can undo — but the *completion* of the node is
    /// delivery-driven, so sleeping until the next delivery is exact.
    fn poll_hint(&self) -> PollHint {
        PollHint::SleepUntilDelivery
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::SendSpec;

    #[test]
    fn scripted_program_completes_when_sent_and_received() {
        let mut p = ScriptedProgram::new(vec![SendSpec::adaptive(1, 1, 32)], 2);
        assert!(!p.is_complete());
        let part: Partition = "2x1x1".parse().unwrap();
        let mut q = VecDeque::new();
        let mut api = NodeApi::new(0, part.coord_of(0), 0, &part, &mut q);
        assert!(p.next_send(&mut api).is_some());
        assert!(p.next_send(&mut api).is_none());
        assert!(!p.is_complete());
        p.received = 2;
        assert!(p.is_complete());
    }

    #[test]
    fn api_send_enqueues_in_order() {
        let part: Partition = "4x1x1".parse().unwrap();
        let mut q = VecDeque::new();
        let mut api = NodeApi::new(1, part.coord_of(1), 7, &part, &mut q);
        api.send(SendSpec::adaptive(2, 4, 100));
        api.send(SendSpec::adaptive(3, 4, 100));
        assert_eq!(api.queued(), 2);
        assert_eq!(q[0].dst_rank, 2);
    }
}
