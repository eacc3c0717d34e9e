//! Engine-side state for the host profiler and the progress heartbeat
//! (the public data model lives in [`crate::perf`]).
//!
//! Both are observers in the tracer/oracle mould: `Option<Box<...>>`
//! fields on the engine, one predictable branch per cycle when disabled,
//! and no reads of (let alone writes to) simulation state that could
//! perturb results — the profiler touches only the host clock and its own
//! counters, the heartbeat only stderr.

use super::event::WakeCause;
use super::Engine;
use crate::node::PollState;
use crate::perf::PerfProfile;
use std::time::Instant;

/// Live profiler state: the profile under construction plus accumulators
/// that only make sense mid-run (the occupancy sum becomes a mean in
/// [`Engine::take_perf`]).
#[derive(Default)]
pub(super) struct PerfState {
    pub(super) profile: PerfProfile,
    /// Sum of per-cycle marked node-set populations over stepped cycles.
    pub(super) occupancy_sum: u64,
}

/// Minimum wall-clock seconds between heartbeat lines.
const PROGRESS_INTERVAL_SECS: f64 = 1.0;

/// Rate-limited stderr heartbeat. Consulting the host clock every cycle
/// would dominate thin cycles, so the state adapts a cycle stride aimed at
/// a handful of clock reads per emit interval.
pub(super) struct ProgressState {
    started: Instant,
    last_emit: Instant,
    /// Next cycle at which to consult the host clock.
    next_check: u64,
    /// Current stride between clock checks, in cycles.
    stride: u64,
}

impl ProgressState {
    pub(super) fn new() -> ProgressState {
        let now = Instant::now();
        ProgressState {
            started: now,
            last_emit: now,
            next_check: 0,
            stride: 1024,
        }
    }
}

impl Engine {
    /// Detach the collected [`PerfProfile`], finalizing derived fields.
    /// Returns `None` if profiling was off or the profile was already
    /// taken. Call after [`Engine::run`] (also meaningful after an `Err`:
    /// the profile covers the cycles that did run).
    pub fn take_perf(&mut self) -> Option<PerfProfile> {
        let state = self.perf.take()?;
        let mut profile = state.profile;
        profile.slab_slots = self.state.slab.slots() as u64;
        if profile.stepped_cycles > 0 {
            profile.active_occupancy_mean =
                state.occupancy_sum as f64 / profile.stepped_cycles as f64;
        }
        Some(profile)
    }

    /// Per-stepped-cycle bookkeeping: the occupancy sample. Only called
    /// when profiling is on.
    pub(super) fn perf_note_step(&mut self) {
        let st = &self.state;
        let occ = (st.cpu_active.popcount() + st.arb_active.popcount()) as u64;
        let p = self
            .perf
            .as_deref_mut()
            .expect("perf_note_step requires profiling on");
        p.profile.stepped_cycles += 1;
        p.occupancy_sum += occ;
        p.profile.active_occupancy_max = p.profile.active_occupancy_max.max(occ);
        p.profile.peak_live_packets = p.profile.peak_live_packets.max(st.live_packets);
    }

    /// Record one fast-forward jump: `raw` is the unclamped earliest
    /// event, `clamped` what the engine will actually jump to, `cause`
    /// the component that set the raw bound. Called before `now` moves.
    /// Only called with profiling on.
    pub(super) fn perf_note_skip(
        &mut self,
        raw: u64,
        clamped: u64,
        watchdog_fire: u64,
        cause: WakeCause,
    ) {
        let len = clamped - self.now;
        let fault_at = self.next_fault_cycle();
        let p = self.perf.as_deref_mut().expect("caller checked");
        let evp = &mut p.profile.event;
        evp.record_skip(len);
        if clamped < raw {
            // The jump was cut short by a safety horizon, not a wake.
            if clamped == watchdog_fire {
                evp.wake_watchdog_clamp += 1;
            } else if clamped == fault_at {
                evp.wake_fault_transition += 1;
            } else {
                evp.wake_cycle_limit_clamp += 1;
            }
            return;
        }
        match cause {
            WakeCause::Arrival => evp.wake_arrival_ring += 1,
            WakeCause::Cpu(poll) => match poll {
                PollState::Open => evp.wake_open_poll += 1,
                PollState::Rate => evp.wake_rate_window += 1,
                PollState::Asleep { .. } => evp.wake_credit_sleeper += 1,
            },
            WakeCause::LinkBusy => evp.wake_link_busy += 1,
            // Idle without a clamp cannot reach here: `u64::MAX` always
            // clamps.
            WakeCause::Idle => {}
        }
    }

    /// Rate-limited heartbeat, called from the run loop whenever
    /// `now >= next_check`. Reads the host clock, and if the emit
    /// interval has elapsed prints one status line to stderr; either way
    /// it re-aims the cycle stride at ~8 clock reads per interval.
    pub(super) fn progress_heartbeat(&mut self) {
        let total = self.num_nodes();
        let Some(pr) = self.progress.as_deref_mut() else {
            return;
        };
        let since_emit = pr.last_emit.elapsed().as_secs_f64();
        if since_emit >= PROGRESS_INTERVAL_SECS {
            let elapsed = pr.started.elapsed().as_secs_f64();
            let done = self.state.done_programs;
            let eta = if done > 0 && done < total && elapsed > 0.0 {
                let rate = done as f64 / elapsed;
                format!("~{:.0}s", (total - done) as f64 / rate)
            } else {
                "?".to_string()
            };
            eprintln!(
                "progress: cycle {}, {} packets delivered, {}/{} programs done, \
                 elapsed {:.1}s, eta {}",
                self.now, self.state.stats.packets_delivered, done, total, elapsed, eta
            );
            pr.last_emit = Instant::now();
        } else {
            // Aim the stride so ~8 checks span each interval, using the
            // run-average cycle rate, clamped to stay responsive yet cheap.
            let elapsed = pr.started.elapsed().as_secs_f64();
            let cycles_per_sec = self.now as f64 / elapsed.max(1e-6);
            let want = (cycles_per_sec * PROGRESS_INTERVAL_SECS / 8.0) as u64;
            pr.stride = want.clamp(256, 1 << 24);
        }
        pr.next_check = self.now + pr.stride;
    }

    /// Whether the run loop should consult [`Engine::progress_heartbeat`]
    /// this cycle. Off-path cost: one predictable branch.
    #[inline]
    pub(super) fn progress_due(&self) -> bool {
        match &self.progress {
            Some(pr) => self.now >= pr.next_check,
            None => false,
        }
    }
}
