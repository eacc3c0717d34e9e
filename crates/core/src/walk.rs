//! The send walk every scheme shares: which packet of which message a node
//! hands the network next.
//!
//! A node's own traffic is plain data — its *targets* (final destinations,
//! in visiting order), the [`Framing`] every message splits into packets
//! by, and `k`, the packets sent to one target before moving to the next.
//! The walk covers `targets × packets` visit by visit: packets `0..k` of
//! every target in order, then `k..2k` of every target, and so on,
//! charging the per-message startup α with packet 0. Both halves are
//! formulas where they can be: a packet's shape is computed from its index
//! when it is sent, and the direct schemes' targets are a
//! [`DestinationOrder`], whose visit `i` is computed once, when the cursor
//! reaches it. Only a scheme with a short list of its own (VMesh's row and
//! column, a pattern's pairs) hands the walk a list.
//!
//! * `k = 1` is the round-major interleave AR, DR, TPS and XYZ share
//!   (packet `r` of every message before packet `r + 1` of any): a whole
//!   message back-to-back would stream one path for hundreds of cycles
//!   and leave the opposite-direction links idle at the source;
//! * `k = 2` is the production MPI tuning;
//! * `k ≥` the message length is message-major — each of VMesh's two
//!   phases.
//!
//! The cursor only moves on [`advance`](SendWalk::advance), so a program
//! that finds its next hop credit-blocked [`peek`](SendWalk::peek)s, declines
//! and sees the same packet again on the next poll.

use crate::workload::{destination_schedule, AaWorkload, DestinationOrder, Framing, PacketShape};
use bgl_model::MachineParams;
use bgl_sim::{RoutingMode, SendSpec};
use bgl_torus::Partition;

/// One packet of a [`SendWalk`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Final destination of the message this packet belongs to.
    pub target: u32,
    /// The packet's wire size and payload.
    pub shape: PacketShape,
    /// The message's startup α in simulator cycles on its packet 0; zero on
    /// every later packet.
    pub alpha: f64,
}

impl Step {
    /// The send carrying this packet to `hop` — the target itself or a
    /// scheme's intermediate — with α attached as its CPU cost.
    pub fn send(&self, hop: u32, routing: RoutingMode) -> SendSpec {
        SendSpec::new(hop, self.shape.chunks, self.shape.payload, routing).with_cpu_cost(self.alpha)
    }
}

/// Whom a [`SendWalk`] visits, by visit index.
#[derive(Debug, Clone)]
enum Targets {
    /// A scheme's own list.
    List(Vec<u32>),
    /// A direct node's destination order.
    Order(DestinationOrder),
}

impl Targets {
    fn len(&self) -> usize {
        match self {
            Targets::List(list) => list.len(),
            Targets::Order(order) => order.len() as usize,
        }
    }

    /// The target of visit `i`, `i < len`.
    fn at(&self, i: usize) -> u32 {
        match self {
            Targets::List(list) => list[i],
            Targets::Order(order) => order.at(i as u32),
        }
    }

    /// The target of visit `i`, `None` past the last.
    fn get(&self, i: usize) -> Option<u32> {
        (i < self.len()).then(|| self.at(i))
    }
}

/// A cursor over `targets × packets`, `k` packets per visit (see the
/// module docs). Iterating it yields every remaining [`Step`] in order.
#[derive(Debug, Clone)]
pub struct SendWalk {
    targets: Targets,
    /// The target of visit `idx`, computed when the cursor moves to it
    /// rather than on every [`peek`](Self::peek); `None` with no targets.
    target: Option<u32>,
    framing: Framing,
    /// Packets per visit, in `1..=framing.packets()`.
    k: usize,
    alpha: f64,
    /// First packet index of the current round of visits (a multiple of `k`).
    round: usize,
    /// Target being visited.
    idx: usize,
    /// Packets of this visit already sent.
    in_visit: usize,
}

impl SendWalk {
    /// Walk a message framed by `framing` to each of `targets`, `k` packets
    /// per visit (clamped to `1..=framing.packets()`), with `alpha`
    /// simulator cycles on every message's packet 0.
    pub fn new(targets: Vec<u32>, framing: Framing, k: u32, alpha: f64) -> SendWalk {
        SendWalk::over(Targets::List(targets), framing, k, alpha)
    }

    fn over(targets: Targets, framing: Framing, k: u32, alpha: f64) -> SendWalk {
        SendWalk {
            k: (k as usize).clamp(1, framing.packets()),
            target: targets.get(0),
            targets,
            framing,
            alpha,
            round: 0,
            idx: 0,
            in_visit: 0,
        }
    }

    /// The direct runtime's walk for `rank`: the workload's randomized
    /// destination order ([`destination_schedule`]), `m` bytes framed by
    /// [`Framing::direct`], and a startup of `alpha_cpu_cycles` CPU cycles
    /// per destination.
    pub fn direct(
        rank: u32,
        part: &Partition,
        workload: &AaWorkload,
        k: u32,
        alpha_cpu_cycles: f64,
        params: &MachineParams,
    ) -> SendWalk {
        let p = part.num_nodes();
        let order = destination_schedule(rank, p, workload.dests_per_node(p), workload.seed);
        SendWalk::over(
            Targets::Order(order),
            Framing::direct(workload.m_bytes, params),
            k,
            params.cpu_to_sim_cycles(alpha_cpu_cycles),
        )
    }

    /// The targets, in visiting order.
    pub fn targets(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        (0..self.targets.len()).map(|i| self.targets.at(i))
    }

    /// How one message splits into packets.
    pub fn framing(&self) -> Framing {
        self.framing
    }

    /// The next packet, without moving the cursor; `None` once done.
    pub fn peek(&self) -> Option<Step> {
        let packet = self.round + self.in_visit;
        Some(Step {
            target: self.target?,
            shape: self.framing.shape(packet)?,
            alpha: if packet == 0 { self.alpha } else { 0.0 },
        })
    }

    /// Move past the packet [`peek`](Self::peek) returned.
    pub fn advance(&mut self) {
        self.in_visit += 1;
        if self.in_visit == self.k || self.round + self.in_visit == self.framing.packets() {
            self.in_visit = 0;
            self.idx += 1;
            if self.idx == self.targets.len() {
                self.idx = 0;
                self.round += self.k;
            }
            self.target = self.targets.get(self.idx);
        }
    }

    /// Whether every packet has been walked (at once, with no targets).
    pub fn is_done(&self) -> bool {
        self.target.is_none() || self.round >= self.framing.packets()
    }
}

impl Iterator for SendWalk {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        let step = self.peek()?;
        self.advance();
        Some(step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `len`-packet messages (`len` in 2..=3) whose packets carry distinct
    /// payloads (192 then 208; 192, 240 then 68 bytes), so a step names its
    /// packet: the direct framing of 400 and of 500 bytes.
    fn framing(len: u32) -> Framing {
        let m = [400, 500][len as usize - 2];
        let framing = Framing::new(m, 48, 64);
        assert_eq!(framing.packets(), len as usize);
        framing
    }

    /// A walk over targets `10, 11, 12` of `len`-packet messages.
    fn walk(len: u32, k: u32) -> SendWalk {
        SendWalk::new(vec![10, 11, 12], framing(len), k, 3.5)
    }

    /// Each step as (target, packet index within its message).
    fn order(w: SendWalk) -> Vec<(u32, u32)> {
        let packets: Vec<PacketShape> = w.framing().shapes().collect();
        let index = |s: &Step| packets.iter().position(|p| *p == s.shape).unwrap() as u32;
        w.map(|s| (s.target, index(&s))).collect()
    }

    #[test]
    fn k1_sends_packet_r_of_every_target_before_packet_r_plus_1_of_any() {
        let got = order(walk(3, 1));
        let want: Vec<_> = (0..3).flat_map(|r| [10, 11, 12].map(|t| (t, r))).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn k2_pairs_packets_and_ends_on_a_short_visit() {
        let got = order(walk(3, 2));
        let want = [
            (10, 0),
            (10, 1),
            (11, 0),
            (11, 1),
            (12, 0),
            (12, 1),
            (10, 2),
            (11, 2),
            (12, 2),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn k_at_least_the_message_length_sends_whole_messages() {
        let want: Vec<_> = [10, 11, 12]
            .into_iter()
            .flat_map(|t| (0..3).map(move |r| (t, r)))
            .collect();
        assert_eq!(order(walk(3, 3)), want);
        assert_eq!(order(walk(3, u32::MAX)), want);
    }

    #[test]
    fn alpha_rides_packet_zero_only() {
        for k in [1, 2, 5] {
            let first = framing(3).shape(0).unwrap();
            for s in walk(3, k) {
                let want = if s.shape == first { 3.5 } else { 0.0 };
                assert_eq!(s.alpha, want, "k={k} {s:?}");
                assert_eq!(
                    s.send(s.target, RoutingMode::Adaptive).cpu_cost_cycles,
                    want
                );
            }
        }
    }

    #[test]
    fn an_unadvanced_peek_repeats() {
        let mut w = walk(2, 1);
        let first = w.peek().unwrap();
        assert_eq!(w.peek(), Some(first));
        w.advance();
        assert_ne!(w.peek(), Some(first));
        assert_eq!(w.count(), 5, "six packets, one walked");
    }

    #[test]
    fn no_targets_is_done_at_once() {
        let mut w = SendWalk::new(vec![], Framing::new(192, 48, 64), 1, 3.5);
        assert!(w.is_done());
        assert_eq!(w.peek(), None);
        assert_eq!(w.next(), None);
        let mut w = walk(2, 1);
        assert!(!w.is_done());
        w.by_ref().for_each(drop);
        assert!(w.is_done());
    }
}
