//! Time-skipping: jump from interesting cycle to interesting cycle.
//!
//! [`EngineMode::EventDriven`](crate::EngineMode), the default clock,
//! keeps the four cycle-stepped phases untouched and adds a *skip-ahead*
//! layer on top: after every stepped cycle, unless an arrival is due in the
//! next ring slot or a delivery is queued (`Engine::may_skip`),
//! [`Engine::fast_forward`] computes a conservative earliest next-event
//! cycle from per-component wake-ups — in-flight arrivals (the ring) and the
//! CPU and arbitration wakes the phases keep per node (`State::cpu_at`,
//! `State::arb_at`) — and jumps `now` straight there.
//!
//! The clock keeps no state of its own: everything it reads is state the
//! phases maintain anyway. The jump is decided between stepped cycles.
//!
//! This is the *global* half of one idea. A loaded run has an arrival due
//! almost every cycle, so it rarely jumps; there the phases pass over the
//! nodes that cannot act (see "Parking" in [`super::phases`]). A parked
//! node keeps its mark and its state is what a visit would have left, so
//! what this module reads — the marked node sets, the wakes — is the same
//! with or without parking, and a stepped cycle in which every marked node
//! is parked does what a skipped one does: nothing.
//!
//! ## Why the skip is exact
//!
//! A cycle may be skipped only when a cycle-stepped clock, run over that
//! same cycle, would have mutated *nothing* except two counters:
//!
//! - no arrivals (the in-flight ring is empty until the next wake-up),
//! - no deliveries (the gate found `deliver_q` empty, and a push onto it
//!   comes only from an arrival, a drain re-queueing stalled deliveries,
//!   or a win exposing an arrived head — each in a stepped cycle),
//! - every CPU visit is a blocked poll — a rate-window check or a
//!   `next_send` decline, which is pure until a delivery — whose only
//!   effect is incrementing `pacing_blocked_cycles` /
//!   `credit_blocked_events` by a per-cycle constant: the node's own
//!   `owed_from` already counts those cycles, settled when it is next
//!   visited or the statistics are read, skipped or not,
//! - no arbitration win is possible: every marked node's `arb_at` lies
//!   ahead. A visit leaves there the release of the busy links its heads
//!   request (`link_busy_until`, known exactly); a new head lowers it to
//!   the cycle one of its requested links is free (`State::wake_arb`); a
//!   head refused on downstream credit needs room, and the release that
//!   returns it lowers the wake of the one node that can spend it
//!   (`Shared::release`).
//!
//! No bound needs a cycle without progress. Every event writes, at the node
//! it reaches and in the cycle it happens, the cycle at which that node can
//! next act — a CPU re-arm waits for the CPU (`State::wake_cpu`), an arrival
//! behind a queued head writes nothing — so after a busy cycle the wakes are
//! as exact as after an idle one, and the clock may skip after either.
//!
//! The wake-up invariant (see DESIGN.md): **no component may be woken
//! later than its true next state change.** Waking too early merely steps
//! a provably-inert cycle (identical to what the cycle-stepped full scan
//! does); waking too late would diverge. Every bound below is therefore
//! conservative — `u64::MAX` is only ever reported by a component that
//! provably cannot act until another component's stepped event (progress,
//! by definition) changes its inputs.
//!
//! Trace samples land at exactly the cycles the full scan would produce:
//! a skip is segmented at every tracer `next_at` boundary and a
//! periodic sample (frozen deltas, live occupancy snapshot) is recorded
//! there, so traced runs are byte-identical too.

use super::{Engine, RING};
use crate::node::PollState;

/// Which component's bound won the earliest-event minimum. Tracked for
/// the host profiler's wake-cause breakdown only — the skip logic itself
/// never consults it, so profiling cannot perturb skip decisions. Ties
/// keep the earlier-evaluated cause (strict-`<` updates below leave the
/// minimum value itself exactly as the plain `min` fold computed it).
#[derive(Clone, Copy)]
pub(super) enum WakeCause {
    /// The earliest in-flight ring arrival.
    Arrival,
    /// A CPU-phase wake of a node whose last visit left this hint.
    Cpu(PollState),
    /// A busy output link's release cycle.
    LinkBusy,
    /// No component has any scheduled wake at all.
    Idle,
}

impl Engine {
    /// Earliest cycle at which any component can change state, evaluated
    /// at a cycle boundary (`self.now` is the next unstepped cycle).
    /// Returns `self.now` as soon as any immediate work is found, along
    /// with the component that set the bound.
    fn next_event_cycle(&self) -> (u64, WakeCause) {
        let (now, st) = (self.now, &self.state);
        debug_assert!(
            st.deliver_q.is_empty(),
            "the skip gate saw the delivery queue empty"
        );
        // Earliest in-flight arrival. Every launched packet lands within
        // RING cycles (asserted at construction), so one lap suffices.
        let mut e = u64::MAX;
        let mut cause = WakeCause::Idle;
        'lap: for off in 0..RING as u64 {
            let slot = ((now + off) % RING as u64) as usize;
            if !st.ring[slot].is_empty() {
                e = now + off;
                cause = WakeCause::Arrival;
                break 'lap;
            }
        }
        if e == now {
            return (now, cause);
        }
        // A wake is what the node's last visit computed (`cpu_park`,
        // `arbitrate_node`), lowered by every event since that could move
        // it, in the cycle of that event: none is pending at a boundary.
        for i in st.cpu_active.iter() {
            let wake = st.cpu_at[i].max(now);
            if wake < e {
                e = wake;
                cause = WakeCause::Cpu(st.nodes[i].poll);
            }
            if e <= now {
                return (now, cause);
            }
        }
        for i in st.arb_active.iter() {
            let wake = st.arb_at[i].max(now);
            if wake < e {
                e = wake;
                cause = WakeCause::LinkBusy;
            }
            if e <= now {
                return (now, cause);
            }
        }
        (e, cause)
    }

    /// The skip gate, asked after every stepped cycle, busy or not: every
    /// event of that cycle wrote the wake it enables, so only an arrival due
    /// in the next ring slot or a queued delivery rules a skip out — at the
    /// cost of these two compares, with no wake computation.
    #[inline]
    pub(super) fn may_skip(&self) -> bool {
        let slot = (self.now % RING as u64) as usize;
        self.state.ring[slot].is_empty() && self.state.deliver_q.is_empty()
    }

    /// Jump `now` to the next event cycle, recording the periodic trace
    /// samples that fall inside the skipped window. Bounded so the `run`
    /// loop's watchdog and cycle-limit checks fire at exactly the cycle
    /// the full scan would report. Only past the gate ([`may_skip`]).
    ///
    /// [`may_skip`]: Self::may_skip
    pub(super) fn fast_forward(&mut self) {
        let (raw, cause) = self.next_event_cycle();
        if raw <= self.now {
            return;
        }
        let watchdog_fire = self
            .last_progress
            .saturating_add(self.shared.cfg.watchdog_cycles)
            .saturating_add(1);
        // Never skip over a scheduled fault transition: the transition
        // cycle is stepped in every engine mode, keeping fault runs
        // byte-identical across modes.
        let e = raw
            .min(watchdog_fire)
            .min(self.shared.cfg.max_cycles)
            .min(self.next_fault_cycle());
        if self.perf.is_some() {
            self.perf_note_skip(raw, e, watchdog_fire, cause);
        }
        while let Some(tr) = self.tracer.as_ref().filter(|tr| tr.next_at <= e) {
            // `next_at > now` is an invariant here: `step`/`fast_forward`
            // record any due sample immediately, and recording advances
            // `next_at` past the sample cycle.
            debug_assert!(tr.next_at > self.now, "tracer boundary must advance");
            self.now = tr.next_at;
            self.record_trace_sample(false);
        }
        self.now = e;
    }
}
