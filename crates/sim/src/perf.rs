//! Host-side performance profiling: where *wall-clock* time goes inside
//! the engine, as opposed to [`crate::trace`], which records *simulated*
//! time. A [`Trace`](crate::Trace) answers "at which cycle did the Y
//! FIFOs fill up?"; a [`PerfProfile`] answers "which engine phase or skip
//! decision did the host spend its seconds on?".
//!
//! Enable collection by setting [`SimConfig::perf`](crate::SimConfig::perf)
//! to a [`PerfConfig`]; retrieve the profile after the run via
//! [`Engine::take_perf`](crate::Engine::take_perf). The collector records:
//!
//! * wall-clock time per engine phase (arrivals, deliveries, CPU,
//!   arbitration, the cycle boundary);
//! * how many marked nodes phases 3 and 4 visited and how many they passed
//!   over as parked, the output attempts arbitration refused, and the
//!   packet slab's high-water mark;
//! * skipping-clock counters: a power-of-two skip-length histogram, the
//!   wake-up cause breakdown (arrival ring, open poll, rate window,
//!   credit sleeper, link busy, watchdog/cycle-limit/fault-transition
//!   clamps) and skip attempts suppressed by fresh progress — all zero
//!   under the full scan, which never skips;
//! * marked node-set occupancy.
//!
//! Collection is purely observational: the profiler reads the host clock
//! and its own counters, never simulation state, so `NetStats`, traces
//! and error cycles are byte-identical with profiling on or off under
//! both engine modes (pinned by the engine equivalence tests). Disabled, it
//! costs one predictable branch beside the tracer's. Wall-clock fields are
//! host-dependent by nature and are excluded from golden fingerprints and
//! run-cache identity.

use serde::Serialize;

/// Number of power-of-two skip-length buckets in
/// [`EventPerf::skip_histogram`]: bucket `k` counts fast-forward jumps of
/// `c` cycles with `floor(log2(c)) == k` (bucket 0 holds length-1 skips).
/// 24 buckets cover skips up to 16M cycles, far beyond the watchdog clamp.
pub const SKIP_BUCKETS: usize = 24;

/// Profiler configuration; attach to
/// [`SimConfig::perf`](crate::SimConfig::perf) to enable collection.
/// Carries no knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PerfConfig {}

/// Wall-clock seconds spent in each engine phase (see `Phases::cycle` in
/// `crates/sim/src/engine/phases.rs`). The labels are rows of the ladder
/// benchmark, which is why `id_fixup` — the packet-id rewrite of the
/// removed threaded engine — is still a slot: it reports 0 until a
/// benchmark change retires the row.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct PhaseSecs {
    /// Phase 1: committing in-flight ring arrivals into VC FIFOs.
    pub arrivals: f64,
    /// Phase 2: moving deliverable FIFO heads into reception FIFOs.
    pub deliveries: f64,
    /// Phase 3: reception drains, program pulls and injections.
    pub cpu: f64,
    /// Always 0: packets take their final id at injection (phase 3).
    pub id_fixup: f64,
    /// Phase 4: output-link arbitration, wins filed into the in-flight
    /// ring included.
    pub arbitration: f64,
    /// The cycle boundary: the deferred credit releases.
    pub drain: f64,
}

impl PhaseSecs {
    /// Sum of all six phase slots.
    pub fn total(&self) -> f64 {
        self.arrivals + self.deliveries + self.cpu + self.id_fixup + self.arbitration + self.drain
    }

    /// Accumulate another record into this one.
    pub fn add(&mut self, other: &PhaseSecs) {
        self.arrivals += other.arrivals;
        self.deliveries += other.deliveries;
        self.cpu += other.cpu;
        self.id_fixup += other.id_fixup;
        self.arbitration += other.arbitration;
        self.drain += other.drain;
    }

    /// `(label, seconds)` pairs in phase order, for reports and CSV.
    pub fn named(&self) -> [(&'static str, f64); 6] {
        [
            ("arrivals", self.arrivals),
            ("deliveries", self.deliveries),
            ("cpu", self.cpu),
            ("id_fixup", self.id_fixup),
            ("arbitration", self.arbitration),
            ("drain", self.drain),
        ]
    }
}

/// Event-engine counters: what the skip-ahead layer did and why it woke.
/// Wake-cause counts classify each actual fast-forward jump by the
/// component whose bound won the earliest-event minimum; clamp counts
/// record jumps cut short by the watchdog or cycle-limit horizon or by a
/// scheduled fault transition.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct EventPerf {
    /// Cycles the engine never stepped (total fast-forward distance).
    pub skipped_cycles: u64,
    /// Number of fast-forward jumps taken.
    pub skips: u64,
    /// Power-of-two histogram of jump lengths (see [`SKIP_BUCKETS`]).
    pub skip_histogram: [u64; SKIP_BUCKETS],
    /// Skip attempts refused outright, with no wake computation: an arrival
    /// is due in the next cycle's ring slot, or a delivery is queued for it.
    pub fresh_suppressions: u64,
    /// Jumps bounded by the earliest in-flight ring arrival.
    pub wake_arrival_ring: u64,
    /// Jumps bounded by a CPU-ready node with an open poll (queued sends
    /// or a program that may accept a pull as soon as its CPU frees up).
    pub wake_open_poll: u64,
    /// Jumps bounded by a closed rate window's `next_allowed` boundary.
    pub wake_rate_window: u64,
    /// Jumps bounded by a `SleepUntilDelivery` sleeper (typically a
    /// credit-window-blocked program) whose reception FIFO has work.
    pub wake_credit_sleeper: u64,
    /// Jumps bounded by a busy output link's release cycle.
    pub wake_link_busy: u64,
    /// Jumps clamped to the watchdog horizon
    /// (`last_progress + watchdog_cycles + 1`).
    pub wake_watchdog_clamp: u64,
    /// Jumps clamped to the `max_cycles` safety limit.
    pub wake_cycle_limit_clamp: u64,
    /// Jumps cut short by the next scheduled fault transition (its cycle
    /// is stepped under every clock).
    pub wake_fault_transition: u64,
}

impl EventPerf {
    /// Record one fast-forward jump of `len` cycles (`len > 0`).
    pub fn record_skip(&mut self, len: u64) {
        debug_assert!(len > 0, "a skip must move the clock");
        self.skipped_cycles += len;
        self.skips += 1;
        let bucket = (63 - len.max(1).leading_zeros() as usize).min(SKIP_BUCKETS - 1);
        self.skip_histogram[bucket] += 1;
    }

    /// `(label, count)` pairs for the wake-cause breakdown, in the order
    /// reports render them.
    pub fn wake_causes(&self) -> [(&'static str, u64); 8] {
        [
            ("arrival_ring", self.wake_arrival_ring),
            ("open_poll", self.wake_open_poll),
            ("rate_window", self.wake_rate_window),
            ("credit_sleeper", self.wake_credit_sleeper),
            ("link_busy", self.wake_link_busy),
            ("watchdog_clamp", self.wake_watchdog_clamp),
            ("cycle_limit_clamp", self.wake_cycle_limit_clamp),
            ("fault_transition", self.wake_fault_transition),
        ]
    }
}

/// A completed run's host-side performance profile (see the module docs
/// for what is collected). All times are wall-clock seconds on the host;
/// none of this data describes *simulated* time.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct PerfProfile {
    /// Wall-clock seconds of the whole `Engine::run` call, every exit
    /// path included (completion, stall, cycle limit).
    pub total_secs: f64,
    /// Cycles actually stepped through the four phases. Equals the final
    /// cycle count except under the skipping clock, where skipped cycles
    /// are absent.
    pub stepped_cycles: u64,
    /// Mean marked population of the CPU and arbitration node sets over
    /// the stepped cycles.
    pub active_occupancy_mean: f64,
    /// Largest marked node-set population seen in any stepped cycle.
    pub active_occupancy_max: u64,
    /// Most packets alive at once (queued or in flight, whole machine), as
    /// seen at the start of a stepped cycle.
    pub peak_live_packets: u64,
    /// Phase-attributed host time.
    pub phases: PhaseSecs,
    /// Marked nodes the CPU phase visited, summed over stepped cycles.
    pub cpu_visits: u64,
    /// Marked nodes the CPU phase passed over because no visit could have
    /// changed anything yet (booked CPU, or stuck on injection-FIFO
    /// space); always 0 under the full scan, which visits every node.
    pub cpu_parked: u64,
    /// Nodes with a queued packet that phase 4 arbitrated.
    pub arb_visits: u64,
    /// Marked nodes phase 4 passed over because no visit could win a link
    /// yet: every link their heads may take was mid-transmission or had no
    /// room downstream for them; always 0 under the full scan.
    pub arb_parked: u64,
    /// Output attempts phase 4 refused: a free, live link some head
    /// requests that no head could take (no room downstream, or a rule such
    /// as the shaped escape's turned it down). Each costs a candidate walk.
    pub arb_refused: u64,
    /// Length of the packet slab at the end of the run. Slots are recycled
    /// but never returned to the allocator, so this is the high-water mark
    /// of packets queued or in flight — what the run's packet memory was
    /// sized by.
    pub slab_slots: u64,
    /// Most sends queued at the nodes at once (injected by none yet, whole
    /// machine), counted at every queueing.
    pub peak_queued_sends: u64,
    /// Length of the send slab at the end of the run: the slots that held
    /// the queued sends, recycled like the packet slab's, so it is the
    /// high-water mark of [`peak_queued_sends`](Self::peak_queued_sends) —
    /// what the run's send memory was sized by.
    pub send_slots: u64,
    /// Skipping-clock counters; all zero under
    /// [`EngineMode::FullScan`](crate::EngineMode).
    pub event: EventPerf,
}

impl PerfProfile {
    /// The phase times (the ladder benchmark's spelling of
    /// [`phases`](Self::phases)).
    pub fn phase_totals(&self) -> PhaseSecs {
        self.phases
    }

    /// `[cpu_visits, cpu_parked, arb_visits, arb_parked, arb_refused]`: how
    /// many marked nodes phases 3 and 4 visited, how many they passed over
    /// because no visit could have changed anything, and how many output
    /// attempts the visits to arbitration refused.
    pub fn visit_totals(&self) -> [(&'static str, u64); 5] {
        [
            ("cpu_visits", self.cpu_visits),
            ("cpu_parked", self.cpu_parked),
            ("arb_visits", self.arb_visits),
            ("arb_parked", self.arb_parked),
            ("arb_refused", self.arb_refused),
        ]
    }

    /// `[peak_live_packets, slab_slots]`: the most packets alive at once
    /// and the slab slots that held them.
    pub fn packet_totals(&self) -> [(&'static str, u64); 2] {
        [
            ("peak_live_packets", self.peak_live_packets),
            ("slab_slots", self.slab_slots),
        ]
    }

    /// `[peak_queued_sends, send_slots]`: the most sends queued at once and
    /// the send slab slots that held them.
    pub fn send_totals(&self) -> [(&'static str, u64); 2] {
        [
            ("peak_queued_sends", self.peak_queued_sends),
            ("send_slots", self.send_slots),
        ]
    }

    /// Cycles skipped by the skipping clock (0 under the full scan).
    pub fn skipped_cycles(&self) -> u64 {
        self.event.skipped_cycles
    }

    /// RFC-4180 CSV rendering (CRLF rows, via the shared
    /// [`crate::csv::push_row`] writer): a `metric,value` pair per row —
    /// run totals, visit/park, packet and send totals, per-phase times, and the
    /// skip counters + skip histogram.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let mut row = |metric: String, value: String| {
            crate::csv::push_row(&mut out, [metric, value], "\r\n");
        };
        row("metric".into(), "value".into());
        row("total_secs".into(), self.total_secs.to_string());
        row("stepped_cycles".into(), self.stepped_cycles.to_string());
        row(
            "active_occupancy_mean".into(),
            self.active_occupancy_mean.to_string(),
        );
        row(
            "active_occupancy_max".into(),
            self.active_occupancy_max.to_string(),
        );
        let counts = self.visit_totals().into_iter().chain(self.packet_totals());
        for (label, count) in counts.chain(self.send_totals()) {
            row(label.into(), count.to_string());
        }
        for (label, secs) in self.phase_totals().named() {
            row(format!("phase_{label}_secs"), secs.to_string());
        }
        let ev = &self.event;
        row("skipped_cycles".into(), ev.skipped_cycles.to_string());
        row("skips".into(), ev.skips.to_string());
        row(
            "fresh_suppressions".into(),
            ev.fresh_suppressions.to_string(),
        );
        for (label, count) in ev.wake_causes() {
            row(format!("wake_{label}"), count.to_string());
        }
        for (k, count) in ev.skip_histogram.iter().enumerate() {
            row(format!("skip_len_2e{k}"), count.to_string());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phases(busy: f64) -> PhaseSecs {
        PhaseSecs {
            cpu: busy * 0.5,
            arbitration: busy * 0.5,
            ..PhaseSecs::default()
        }
    }

    #[test]
    fn skip_histogram_buckets_are_powers_of_two() {
        let mut ev = EventPerf::default();
        for len in [1, 2, 3, 4, 7, 8, 1 << 20, 1 << 40] {
            ev.record_skip(len);
        }
        assert_eq!(ev.skips, 8);
        assert_eq!(ev.skip_histogram[0], 1); // 1
        assert_eq!(ev.skip_histogram[1], 2); // 2, 3
        assert_eq!(ev.skip_histogram[2], 2); // 4, 7
        assert_eq!(ev.skip_histogram[3], 1); // 8
        assert_eq!(ev.skip_histogram[20], 1);
        // Out-of-range lengths land in the last bucket.
        assert_eq!(ev.skip_histogram[SKIP_BUCKETS - 1], 1);
        assert_eq!(
            ev.skipped_cycles,
            1 + 2 + 3 + 4 + 7 + 8 + (1 << 20) + (1 << 40)
        );
    }

    #[test]
    fn csv_is_metric_value_pairs() {
        let p = PerfProfile {
            total_secs: 0.5,
            stepped_cycles: 100,
            phases: phases(0.25),
            ..PerfProfile::default()
        };
        let csv = p.to_csv();
        let rows = crate::csv::parse(&csv);
        assert_eq!(rows[0], vec!["metric", "value"]);
        for r in &rows {
            assert_eq!(r.len(), 2, "{r:?}");
        }
        assert!(rows.iter().any(|r| r[0] == "total_secs" && r[1] == "0.5"));
        assert!(rows.iter().any(|r| r[0] == "arb_parked" && r[1] == "0"));
        assert!(rows.iter().any(|r| r[0] == "arb_refused" && r[1] == "0"));
        assert!(rows.iter().any(|r| r[0] == "slab_slots" && r[1] == "0"));
        assert!(rows.iter().any(|r| r[0] == "send_slots" && r[1] == "0"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "phase_cpu_secs" && r[1] == "0.125"));
        assert!(rows.iter().any(|r| r[0] == "wake_rate_window"));
        assert!(rows.iter().any(|r| r[0] == "skip_len_2e0"));
        // No quoting ever triggers: metrics and numbers are comma-free.
        assert!(!csv.contains('"'));
    }
}
