//! Time-skipping: jump from interesting cycle to interesting cycle.
//!
//! [`EngineMode::EventDriven`](crate::EngineMode), the default clock,
//! keeps the four cycle-stepped phases untouched and adds a *skip-ahead*
//! layer on top: after a stepped cycle that made no progress (the
//! watchdog's own flag — see the gate in `Engine::run_inner`),
//! [`Engine::fast_forward`] computes a conservative earliest next-event
//! cycle from per-component wake-ups — in-flight arrivals (the ring),
//! pending deliveries, CPU timelines, program poll hints, rate windows,
//! and link-busy horizons — and jumps `now` straight there.
//!
//! The clock keeps no state of its own: everything it reads is state the
//! phases maintain anyway, plus two per-node hints the CPU phase leaves on
//! the node it is visiting ([`NodeState::poll`](crate::node::NodeState),
//! `inject_blocked`). The jump is decided between stepped cycles.
//!
//! This is the *global* half of one idea. A loaded run never has a cycle
//! without progress, so it never jumps; there the phases apply the same
//! bounds node by node and pass over the ones that cannot act (see
//! "Parking" in [`super::phases`]). A parked node keeps its mark and its
//! state is what a visit would have left, so what this module reads — the
//! marked node sets, the node hints — is the same with or without parking.
//!
//! ## Why the skip is exact
//!
//! A cycle may be skipped only when a cycle-stepped clock, run over that
//! same cycle, would have mutated *nothing* except two closed-form
//! counters:
//!
//! - no arrivals (the in-flight ring is empty until the next wake-up),
//! - no deliveries (`deliver_q` empty, and stalled
//!   deliveries are only re-queued by a CPU drain, which is itself a
//!   stepped event),
//! - every CPU visit is a blocked poll — a rate-window check or a pure
//!   `next_send` decline ([`PollHint::SleepUntilDelivery`]) — whose only
//!   effect is incrementing `pacing_blocked_cycles` /
//!   `credit_blocked_events` by a per-cycle constant, replayed in closed
//!   form by [`Engine::replay_blocked_counters`],
//! - no arbitration win is possible: every candidate head lost its last
//!   stepped arbitration on *feasibility* (downstream credit), which only
//!   changes when a downstream FIFO pops or a win spends credit — both
//!   *progress*, after which no skip is attempted, so the heads are
//!   re-arbitrated on the next stepped cycle — or on a busy link, whose
//!   release cycle is known exactly (`link_busy_until`).
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
    /// A pending delivery forced an immediate re-step.
    DeliverQ,
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
        if !st.deliver_q.is_empty() {
            return (now, WakeCause::DeliverQ);
        }
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
        for i in st.cpu_active.iter() {
            let wake = self.cpu_wake(i);
            if wake < e {
                e = wake;
                cause = WakeCause::Cpu(st.nodes[i].poll);
            }
            if e <= now {
                return (now, cause);
            }
        }
        for i in st.arb_active.iter() {
            let wake = self.arb_wake(i);
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

    /// Next cycle the CPU phase of node `i` could do anything
    /// but a replayable blocked poll. `cpu_visit` skips cycles with
    /// `cpu_free >= t + 1`, so the first visitable cycle is
    /// `floor(cpu_free)` — before that, even a pending drain cannot run.
    fn cpu_wake(&self, i: usize) -> u64 {
        let n = &self.state.nodes[i];
        let ready = (n.cpu_free as u64).max(self.now);
        if !self.state.fifos.reception(i).is_empty() {
            // A drain mutates real state: never skip past it.
            return ready;
        }
        let mut wake = u64::MAX;
        if (!n.pending.is_empty() || !n.pulled.is_empty()) && !n.inject_blocked {
            // Queued sends with injection space available: injections
            // happen as soon as the CPU frees up.
            wake = ready;
        }
        if n.pull_due() {
            match n.poll {
                PollState::Open => wake = wake.min(ready),
                PollState::Rate => {
                    // First cycle `t` with `t >= next_allowed`; every
                    // earlier visit is a pure `pacing_blocked_cycles`
                    // increment, replayed in closed form.
                    let open = n.flow.next_allowed.ceil() as u64;
                    wake = wake.min(ready.max(open));
                }
                PollState::Asleep { .. } => {}
            }
        }
        wake
    }

    /// Next cycle the arbitration of node `i` could win an output.
    /// Heads on *free* links already lost their last stepped arbitration
    /// on downstream feasibility, which only a stepped event can change
    /// (progress: no skip is attempted after it); so the only timed wake
    /// is a busy link becoming usable. `busy_until == now` must wake now: the link was
    /// busy during the last stepped cycle but is usable this cycle.
    ///
    /// Only links some head requests count (the request masks: exactly
    /// the links arbitration probes). Against a bound over every head's
    /// whole minimal quadrant this can only wake *later*, and only where
    /// no head wants the link, so no win is slept through.
    fn arb_wake(&self, i: usize) -> u64 {
        let st = &self.state;
        let node = &st.nodes[i];
        if node.vc_mask == 0 && node.inj_mask == 0 {
            return u64::MAX;
        }
        // Under a fault plan a detour may take a head along a link no mask
        // names: consider every direction (waking early is always safe).
        // Fault transitions themselves count as progress, so dead links
        // becoming live never rely on this bound.
        let faulted = !self.shared.healthy();
        let ports = self.shared.ports;
        let mut wake = u64::MAX;
        for d in 0..ports {
            let link = i * ports + d;
            let requested = faulted || st.want[link] != 0 || st.inj_want[link] != 0;
            if !requested || self.shared.neighbors[i][d] == u32::MAX {
                continue;
            }
            let busy = st.link_busy_until[link];
            if busy >= self.now {
                wake = wake.min(busy);
            }
        }
        wake
    }

    /// Apply the per-cycle blocked-poll counter increments the
    /// cycle-stepped full scan would have made over the skipped window
    /// `[self.now, stop)`, in closed form. For each cpu-active node the
    /// eligible cycles are those from `max(now, floor(cpu_free))` on
    /// (earlier ones are CPU-booked no-ops); `stop` never exceeds the
    /// node's own wake, so a `Rate` window is closed and an `Asleep`
    /// decline repeats verbatim across the whole eligible span.
    fn replay_blocked_counters(&mut self, stop: u64) {
        let st = &mut self.state;
        for i in st.cpu_active.iter() {
            let n = &st.nodes[i];
            if !n.pull_due() || !st.fifos.reception(i).is_empty() {
                continue;
            }
            let from = (n.cpu_free as u64).max(self.now);
            if stop <= from {
                continue;
            }
            let cycles = stop - from;
            match n.poll {
                PollState::Rate => st.stats.pacing_blocked_cycles += cycles,
                PollState::Asleep { denials } if denials > 0 => {
                    st.stats.credit_blocked_events += denials * cycles;
                }
                _ => {}
            }
        }
    }

    /// Jump `now` to the next event cycle, replaying blocked-poll
    /// counters over the skipped window and recording the periodic trace
    /// samples that fall inside it. Bounded so the `run` loop's watchdog
    /// and cycle-limit checks fire at exactly the cycle the full scan
    /// would report.
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
        while self.now < e {
            let stop = match &self.tracer {
                Some(tr) => e.min(tr.next_at),
                None => e,
            };
            // `next_at > now` is an invariant here: `step`/`fast_forward`
            // record any due sample immediately, and recording advances
            // `next_at` past the sample cycle.
            debug_assert!(stop > self.now, "tracer boundary must advance");
            self.replay_blocked_counters(stop);
            self.now = stop;
            if let Some(tr) = &self.tracer {
                if self.now >= tr.next_at {
                    self.record_trace_sample(false);
                }
            }
        }
    }
}
