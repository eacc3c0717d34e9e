//! Strategy-level injection pacing and intermediate-memory flow control.
//!
//! Every [`StrategyKind`](crate::StrategyKind) variant carries a
//! [`Pacer`] describing *how* its injection is flow-controlled; the
//! pacer is resolved against the workload's peak injection rate into a
//! concrete [`bgl_sim::FlowSpec`] that the engine enforces per cycle.
//! This is the one place the paper's two flow-control ideas — pacing at
//! the bisection-peak rate (Section 4.3's throttling experiments) and
//! the future-work credit window bounding intermediate memory — are
//! defined; direct, TPS, XYZ and VMesh strategies all compose with it
//! rather than growing private knobs.
//!
//! The credit window's wire protocol lives here too, written once for every
//! scheme: a sender reserves toward whichever node its scheme bounds
//! (`NodeApi::try_acquire_credit` — the one decision a scheme keeps), the
//! receiver counts the receipt and acknowledges per quantum
//! (`acknowledge`), and the sender applies the returned credits
//! (`apply_ack`).

use bgl_sim::{FlowSpec, NodeApi, Packet, PacketMeta, SendSpec};

/// Credit-based flow control bounding intermediate-node memory (the
/// paper's future-work sketch): a source may have at most
/// `window_packets` unacknowledged packets outstanding per
/// intermediate; intermediates return one small credit packet per
/// `credit_every` packets received from a source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub struct CreditConfig {
    /// Max unacknowledged packets per (source, intermediate) pair.
    pub window_packets: u32,
    /// Intermediate acknowledges every this-many packets from a source
    /// (the paper's example: one 32-byte credit per ten 256-byte packets
    /// ≈ 1 % bandwidth overhead).
    pub credit_every: u32,
}

impl Default for CreditConfig {
    fn default() -> Self {
        CreditConfig {
            window_packets: 40,
            credit_every: 10,
        }
    }
}

/// How a strategy's injection is paced.
///
/// `Eq`/`Hash` are implemented manually (the rate factor is hashed by
/// bit pattern, with `-0.0` collapsed onto `0.0`) so pacers can key
/// caches and deduplicated run sets; a NaN factor is not meaningful and
/// must not be constructed.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize)]
pub enum Pacer {
    /// No pacing: inject as fast as FIFO space allows.
    #[default]
    Unpaced,
    /// Rate-window throttling: pace injection at `factor ×` the
    /// workload's bisection-peak rate (1.0 = exactly the peak).
    RateWindow {
        /// Pacing multiplier over the peak injection rate.
        factor: f64,
    },
    /// Credit-based windows bounding per-intermediate memory.
    CreditWindow {
        /// Window size and acknowledgement quantum.
        credit: CreditConfig,
    },
}

impl Eq for Pacer {}

impl std::hash::Hash for Pacer {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Pacer::Unpaced => {}
            // `+ 0.0` collapses -0.0 onto 0.0 so Hash stays consistent
            // with the derived PartialEq.
            Pacer::RateWindow { factor } => (factor + 0.0).to_bits().hash(state),
            Pacer::CreditWindow { credit } => credit.hash(state),
        }
    }
}

impl Pacer {
    /// Rate-window pacing at `factor ×` the peak injection rate.
    pub fn rate(factor: f64) -> Pacer {
        Pacer::RateWindow { factor }
    }

    /// Credit windows of `window_packets`, acknowledged every
    /// `credit_every` receipts.
    pub fn credit(window_packets: u32, credit_every: u32) -> Pacer {
        Pacer::CreditWindow {
            credit: CreditConfig {
                window_packets,
                credit_every,
            },
        }
    }

    /// Whether this is [`Pacer::Unpaced`].
    pub fn is_unpaced(&self) -> bool {
        matches!(self, Pacer::Unpaced)
    }

    /// The credit configuration, if this pacer is credit-based.
    pub fn credit_config(&self) -> Option<CreditConfig> {
        match self {
            Pacer::CreditWindow { credit } => Some(*credit),
            _ => None,
        }
    }

    /// Resolve into the engine-enforced [`FlowSpec`], given the
    /// workload's peak injection rate in chunks per cycle (the
    /// rate-window factor is a multiplier over that peak).
    pub fn resolve(&self, peak_injection_rate: f64) -> FlowSpec {
        match self {
            Pacer::Unpaced => FlowSpec::Unpaced,
            Pacer::RateWindow { factor } => FlowSpec::Rate {
                chunks_per_cycle: peak_injection_rate * factor,
            },
            Pacer::CreditWindow { credit } => FlowSpec::Credit {
                window_packets: credit.window_packets,
                credit_every: credit.credit_every,
            },
        }
    }
}

/// Packet kind of a credit acknowledgement, the same under every scheme.
/// It sits outside the kinds a trace buckets as phase-1 / phase-2 traffic
/// (1 and 2), above XYZ's per-dimension kinds (`1..=MAX_DIMS`) and below its
/// `FRESH` bit (`0x80`).
pub(crate) const KIND_CREDIT: u8 = 0x7f;

/// Receive half of the credit handshake, step one: count the credited
/// data packet `pkt` against its sender's window and, once the quantum
/// fills, return the credits in one minimum-size packet that travels as
/// the data did (its routing mode, its injection class). Whom a sender
/// reserves toward — and so which of its packets a receiver acknowledges —
/// is each scheme's own decision; without credit flow control this is a
/// no-op.
pub(crate) fn acknowledge(api: &mut NodeApi<'_>, pkt: &Packet) {
    if let Some(n) = api.credit_receipt(pkt.src_rank) {
        let meta = PacketMeta {
            kind: KIND_CREDIT,
            a: api.rank,
            b: n,
        };
        let ack = SendSpec::new(pkt.src_rank, 1, 0, pkt.routing);
        api.send(ack.with_class(pkt.class).with_meta(meta));
    }
}

/// Step two, back at the sender: the [`KIND_CREDIT`] packet `ack` reopens
/// the window toward the node that sent it.
pub(crate) fn apply_ack(api: &mut NodeApi<'_>, ack: &Packet) {
    debug_assert_eq!(ack.meta.kind, KIND_CREDIT);
    api.apply_credit(ack.meta.a, ack.meta.b);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpaced_resolves_to_unpaced() {
        assert_eq!(Pacer::Unpaced.resolve(3.0), FlowSpec::Unpaced);
        assert!(Pacer::default().is_unpaced());
    }

    #[test]
    fn rate_window_scales_peak() {
        let spec = Pacer::rate(0.5).resolve(4.0);
        assert_eq!(
            spec,
            FlowSpec::Rate {
                chunks_per_cycle: 2.0
            }
        );
    }

    #[test]
    fn credit_window_passes_through() {
        let spec = Pacer::credit(8, 2).resolve(4.0);
        assert_eq!(
            spec,
            FlowSpec::Credit {
                window_packets: 8,
                credit_every: 2
            }
        );
        assert_eq!(
            Pacer::credit(8, 2).credit_config(),
            Some(CreditConfig {
                window_packets: 8,
                credit_every: 2
            })
        );
    }

    #[test]
    fn hash_matches_eq_for_signed_zero() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Pacer::rate(0.0));
        assert!(set.contains(&Pacer::rate(-0.0)));
        set.insert(Pacer::rate(1.0));
        set.insert(Pacer::rate(1.0));
        set.insert(Pacer::credit(4, 2));
        assert_eq!(set.len(), 3);
    }
}
