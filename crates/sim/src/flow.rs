//! Engine-level injection flow control.
//!
//! Strategies describe *how much* a node may inject through a
//! [`FlowSpec`]; the engine owns the per-node state (a [`FlowLedger`])
//! and enforces the spec on the hot injection path:
//!
//! * [`FlowSpec::Rate`] — a rate window. The engine stops pulling new
//!   sends from a node's program while `now < next_allowed`, and each
//!   pulled packet advances `next_allowed` by `chunks / rate`. This is
//!   the bisection-bandwidth throttle of the paper's AR-throttled
//!   scheme, now available to every strategy.
//! * [`FlowSpec::Credit`] — credit-based bounds on intermediate-node
//!   memory (the paper's future-work item). A program reserves a credit
//!   per in-flight packet to each intermediate via
//!   [`NodeApi::try_acquire_credit`](crate::NodeApi::try_acquire_credit);
//!   the intermediate acknowledges every `credit_every` receipts
//!   ([`NodeApi::credit_receipt`](crate::NodeApi::credit_receipt)) with a
//!   strategy-defined credit packet that reopens the window
//!   ([`NodeApi::apply_credit`](crate::NodeApi::apply_credit)).
//!
//! The ledger lives in the engine's per-node state (`NodeState`) so both
//! engine modes (the skipping clock and the full scan) see identical
//! state, and the counters it feeds ([`NetStats::pacing_blocked_cycles`]
//! and [`NetStats::credit_blocked_events`](crate::NetStats)) stay
//! byte-identical across modes.
//!
//! [`NetStats::pacing_blocked_cycles`]: crate::NetStats

use std::collections::HashMap;

/// An injection flow-control policy, resolved to engine units.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum FlowSpec {
    /// No pacing: programs inject as fast as the CPU and FIFOs allow.
    #[default]
    Unpaced,
    /// Rate window: cap sustained injection at `chunks_per_cycle`.
    Rate {
        /// Injection budget in 32-byte chunks per cycle (> 0).
        chunks_per_cycle: f64,
    },
    /// Credit window: at most `window_packets` unacknowledged packets
    /// outstanding per intermediate node; receivers acknowledge every
    /// `credit_every` receipts.
    Credit {
        /// Outstanding-packet bound per intermediate (≥ 1).
        window_packets: u32,
        /// Receipts per acknowledgement (1 ..= `window_packets`, or the
        /// window can close forever).
        credit_every: u32,
    },
}

impl FlowSpec {
    /// Whether this spec imposes any pacing at all.
    pub fn is_unpaced(&self) -> bool {
        matches!(self, FlowSpec::Unpaced)
    }

    /// Panics if the spec is internally inconsistent (zero rate, or a
    /// credit quantum larger than the window — a guaranteed deadlock).
    pub fn validate(&self) {
        match *self {
            FlowSpec::Unpaced => {}
            FlowSpec::Rate { chunks_per_cycle } => {
                assert!(
                    chunks_per_cycle > 0.0 && chunks_per_cycle.is_finite(),
                    "flow rate must be positive and finite, got {chunks_per_cycle}"
                );
            }
            FlowSpec::Credit {
                window_packets,
                credit_every,
            } => {
                assert!(window_packets >= 1, "credit window must be at least 1");
                assert!(
                    (1..=window_packets).contains(&credit_every),
                    "credit_every must be in 1..={window_packets}, got {credit_every} \
                     (an ack quantum above the window deadlocks the sender)"
                );
            }
        }
    }
}

/// Per-node flow-control state, owned by the engine.
///
/// The credit pacer's two maps are keyed by node rank (the intermediate
/// being bounded, resp. the source being counted) and are allocated the
/// first time [`FlowSpec::Credit`] uses them: under every other spec a
/// ledger is 32 bytes of the node's state, where two empty maps inline made
/// it 120.
#[derive(Debug, Clone)]
pub struct FlowLedger {
    /// The policy in force (copied from `SimConfig::flow`).
    pub spec: FlowSpec,
    /// First cycle the next pull is allowed ([`FlowSpec::Rate`] only).
    pub next_allowed: f64,
    /// The credit windows, `None` until the credit pacer first counts.
    credit: Option<Box<CreditMaps>>,
}

/// The credit pacer's per-node state ([`FlowSpec::Credit`]).
#[derive(Debug, Clone, Default)]
struct CreditMaps {
    /// Unacknowledged packets per intermediate rank.
    outstanding: HashMap<u32, u32>,
    /// Receipts per source rank since the last acknowledgement.
    recv_counts: HashMap<u32, u32>,
}

impl FlowLedger {
    /// A fresh ledger for `spec`.
    pub fn new(spec: FlowSpec) -> FlowLedger {
        FlowLedger {
            spec,
            next_allowed: 0.0,
            credit: None,
        }
    }

    /// Reserve one credit toward `intermediate`. `true` when the send may
    /// proceed (always, unless the spec is [`FlowSpec::Credit`] and the
    /// window is full).
    pub(crate) fn try_acquire(&mut self, intermediate: u32) -> bool {
        let FlowSpec::Credit { window_packets, .. } = self.spec else {
            return true;
        };
        let maps = self.credit.get_or_insert_with(Box::default);
        let out = maps.outstanding.entry(intermediate).or_insert(0);
        if *out >= window_packets {
            return false;
        }
        *out += 1;
        true
    }

    /// Count one receipt from `src`; `Some(n)` when an acknowledgement
    /// worth `n` credits is now due back to `src`.
    pub(crate) fn receipt(&mut self, src: u32) -> Option<u32> {
        let FlowSpec::Credit { credit_every, .. } = self.spec else {
            return None;
        };
        let maps = self.credit.get_or_insert_with(Box::default);
        let c = maps.recv_counts.entry(src).or_insert(0);
        *c += 1;
        (*c).is_multiple_of(credit_every).then_some(credit_every)
    }

    /// Apply `n` returned credits from `intermediate`.
    pub(crate) fn apply_credit(&mut self, intermediate: u32, n: u32) {
        let out = self
            .credit
            .as_mut()
            .and_then(|m| m.outstanding.get_mut(&intermediate));
        if let Some(out) = out {
            *out = out.saturating_sub(n);
        }
    }

    /// Number of intermediates whose credit window is currently full
    /// (stall diagnostics).
    pub(crate) fn closed_windows(&self) -> usize {
        let (FlowSpec::Credit { window_packets, .. }, Some(maps)) = (self.spec, &self.credit)
        else {
            return 0;
        };
        let full = |&&out: &&u32| out >= window_packets;
        maps.outstanding.values().filter(full).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpaced_ledger_always_grants() {
        let mut l = FlowLedger::new(FlowSpec::Unpaced);
        for _ in 0..1000 {
            assert!(l.try_acquire(7));
        }
        assert_eq!(l.receipt(3), None);
        assert_eq!(l.closed_windows(), 0);
    }

    /// Only the credit pacer's counting allocates its maps: a ledger of
    /// every other spec, asked the same questions, holds none.
    #[test]
    fn only_the_credit_pacer_allocates_its_maps() {
        let rate = FlowSpec::Rate {
            chunks_per_cycle: 0.5,
        };
        for spec in [FlowSpec::Unpaced, rate] {
            let mut l = FlowLedger::new(spec);
            l.try_acquire(7);
            l.receipt(3);
            l.apply_credit(7, 1);
            assert!(l.credit.is_none(), "{spec:?}");
        }
        let mut l = FlowLedger::new(FlowSpec::Credit {
            window_packets: 2,
            credit_every: 1,
        });
        assert!(l.credit.is_none());
        assert_eq!(l.receipt(3), Some(1));
        assert!(l.credit.is_some());
        assert_eq!(std::mem::size_of::<FlowLedger>(), 32);
    }

    #[test]
    fn credit_window_blocks_then_reopens() {
        let mut l = FlowLedger::new(FlowSpec::Credit {
            window_packets: 2,
            credit_every: 2,
        });
        assert!(l.try_acquire(5));
        assert!(l.try_acquire(5));
        assert!(!l.try_acquire(5), "window of 2 must block the third");
        assert!(l.try_acquire(6), "windows are per intermediate");
        assert_eq!(l.closed_windows(), 1);
        l.apply_credit(5, 2);
        assert_eq!(l.closed_windows(), 0);
        assert!(l.try_acquire(5));
    }

    #[test]
    fn receipts_ack_every_quantum() {
        let mut l = FlowLedger::new(FlowSpec::Credit {
            window_packets: 4,
            credit_every: 3,
        });
        assert_eq!(l.receipt(9), None);
        assert_eq!(l.receipt(9), None);
        assert_eq!(l.receipt(9), Some(3));
        assert_eq!(l.receipt(9), None);
        // Independent per source.
        assert_eq!(l.receipt(8), None);
    }

    #[test]
    fn rate_spec_validates() {
        FlowSpec::Rate {
            chunks_per_cycle: 0.5,
        }
        .validate();
        FlowSpec::Credit {
            window_packets: 4,
            credit_every: 4,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "deadlocks")]
    fn oversized_credit_quantum_rejected() {
        FlowSpec::Credit {
            window_packets: 2,
            credit_every: 3,
        }
        .validate();
    }
}
