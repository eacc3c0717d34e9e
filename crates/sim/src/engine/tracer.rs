//! Time-series sampling: the [`Tracer`] component and the engine's
//! trace-recording methods.
//!
//! Sampling is purely observational — `NetStats` is byte-identical with
//! tracing on or off, under both [`EngineMode`](crate::EngineMode)s. The
//! skipping clock guarantees this by treating each `next_at` boundary as a
//! wake-up of its own: a skipped interval is split at every sample
//! boundary and a (forced-position, regular-content) sample is recorded
//! there, so per-window deltas telescope to the run totals exactly as they
//! do under the full scan's cycle-stepped time.

use super::{bits, Engine, Stuck};
use crate::config::{Vc, NUM_VCS};
use crate::stats::NetStats;
use crate::trace::{OccStat, Trace, TraceSample};

/// Sampling state for an enabled tracer: the accumulating [`Trace`] plus
/// the traced counters as of the previous sample, so each [`TraceSample`]
/// records exact per-window deltas. Boxed behind an `Option` on the engine
/// — the disabled case costs one pointer and one predictable branch per
/// cycle.
pub(super) struct Tracer {
    pub(super) interval: u64,
    pub(super) max_samples: usize,
    /// Cycle at which the next periodic sample fires (`u64::MAX` once the
    /// `max_samples` cap is hit).
    pub(super) next_at: u64,
    last: Counters,
    pub(super) trace: Trace,
}

/// The cumulative [`NetStats`] counters a sample reports the deltas of —
/// not the whole `NetStats`, whose per-link table under `--report` would
/// be copied at every sample.
#[derive(Clone, PartialEq)]
struct Counters {
    link_busy: Vec<u64>,
    hops: Vec<u64>,
    cpu_busy: f64,
    stalls: u64,
    injected: u64,
    delivered: u64,
    pacing_blocked: u64,
    credit_blocked: u64,
}

impl Counters {
    fn of(s: &NetStats) -> Counters {
        Counters {
            link_busy: s.link_busy_chunks.clone(),
            hops: s.hops_taken.clone(),
            cpu_busy: s.cpu_busy_cycles,
            stalls: s.reception_stall_events,
            injected: s.packets_injected,
            delivered: s.packets_delivered,
            pacing_blocked: s.pacing_blocked_cycles,
            credit_blocked: s.credit_blocked_events,
        }
    }
}

impl Tracer {
    pub(super) fn new(cfg: &crate::trace::TraceConfig, stats: &NetStats) -> Tracer {
        assert!(cfg.interval_cycles > 0, "trace interval must be positive");
        Tracer {
            interval: cfg.interval_cycles,
            max_samples: cfg.max_samples,
            next_at: cfg.interval_cycles,
            last: Counters::of(stats),
            trace: Trace {
                interval_cycles: cfg.interval_cycles,
                samples: Vec::new(),
                truncated: false,
            },
        }
    }
}

impl Engine {
    /// Finalize and return the trace: records one last partial-window
    /// sample if its deltas are not all zero (so the per-sample deltas sum
    /// exactly to the [`NetStats`] totals), then hands the series out.
    /// Returns `None` when tracing was disabled.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.tracer.as_ref()?;
        self.sync_ledgers();
        if self.tracer.as_ref()?.last != Counters::of(&self.state.stats) {
            self.record_trace_sample(true);
        }
        self.tracer.take().map(|t| t.trace)
    }

    /// Record one sample at the current cycle. Periodic calls (`force ==
    /// false`) stop at the `max_samples` cap; forced calls (completion /
    /// stall snapshots) always record, folding any residual deltas into
    /// the final sample so totals stay exact.
    pub(super) fn record_trace_sample(&mut self, force: bool) {
        if self.tracer.is_none() {
            return;
        }
        // Fold the per-node CPU ledgers into `stats.cpu_busy_cycles` so
        // the sampled delta is exact.
        self.sync_ledgers();
        let Some(mut tracer) = self.tracer.take() else {
            return;
        };
        let at_cap = tracer.trace.samples.len() >= tracer.max_samples;
        let dup = tracer.trace.samples.last().map(|s| s.cycle) == Some(self.now);
        if at_cap && !force {
            tracer.trace.truncated = true;
            tracer.next_at = u64::MAX;
        } else if !dup {
            let sample = self.build_trace_sample(&mut tracer);
            tracer.trace.samples.push(sample);
            tracer.next_at = self.now.saturating_add(tracer.interval);
        }
        self.tracer = Some(tracer);
    }

    /// Build the sample for the window ending now and advance the
    /// tracer's counter snapshot. Read-only over the simulation state:
    /// sampling must never perturb results.
    fn build_trace_sample(&self, tracer: &mut Tracer) -> TraceSample {
        let (st, s) = (&self.state, &self.state.stats);
        let last = std::mem::replace(&mut tracer.last, Counters::of(s));
        let now = &tracer.last;
        let sub =
            |a: &[u64], b: &[u64]| -> Vec<u64> { a.iter().zip(b).map(|(x, y)| x - y).collect() };
        let mut sample = TraceSample {
            cycle: self.now,
            link_busy_delta: sub(&now.link_busy, &last.link_busy),
            hops_delta: sub(&now.hops, &last.hops),
            cpu_busy_delta: now.cpu_busy - last.cpu_busy,
            reception_stall_delta: now.stalls - last.stalls,
            injected_delta: now.injected - last.injected,
            delivered_delta: now.delivered - last.delivered,
            pacing_blocked_delta: now.pacing_blocked - last.pacing_blocked,
            credit_blocked_delta: now.credit_blocked - last.credit_blocked,
            packets_in_flight: st.live_packets,
            pending_sends: st.sends.live() as u64,
            ..TraceSample::default()
        };

        // Instantaneous FIFO occupancy, split by input-port dimension and
        // by bubble-vs-dynamic VC.
        let ndims = self.shared.part.ndims();
        let mut dyn_sum = vec![0u64; ndims];
        let mut dyn_max = vec![0u32; ndims];
        let mut bub_sum = vec![0u64; ndims];
        let mut bub_max = vec![0u32; ndims];
        let mut inj_sum = 0u64;
        let mut inj_max = 0u32;
        let mut recv_sum = 0u64;
        let mut recv_max = 0u32;
        for i in 0..st.nodes.len() {
            for (f, fifo) in st.fifos.row(i).iter().enumerate() {
                let occ = fifo.occupied_chunks();
                let (sum, max) = match self.shared.input_dim(f) {
                    None => (&mut inj_sum, &mut inj_max),
                    Some(dim) if f % NUM_VCS == Vc::Bubble.index() => {
                        (&mut bub_sum[dim], &mut bub_max[dim])
                    }
                    Some(dim) => (&mut dyn_sum[dim], &mut dyn_max[dim]),
                };
                *sum += occ as u64;
                *max = (*max).max(occ);
            }
            let occ = st.fifos.reception(i).occupied_chunks();
            recv_sum += occ as u64;
            recv_max = recv_max.max(occ);
        }
        let p = self.num_nodes() as f64;
        let occ_stat = |sum: u64, max: u32, fifos_per_node: f64| OccStat {
            mean_chunks: sum as f64 / (p * fifos_per_node),
            max_chunks: max,
        };
        // Per node and dimension: 2 ports × 2 dynamic VCs, 2 × 1 bubble.
        sample.dyn_vc_occupancy = (0..ndims)
            .map(|d| occ_stat(dyn_sum[d], dyn_max[d], 4.0))
            .collect();
        sample.bubble_vc_occupancy = (0..ndims)
            .map(|d| occ_stat(bub_sum[d], bub_max[d], 2.0))
            .collect();
        let inj_fifos = self.shared.cfg.inj_fifo_count.max(1) as f64;
        sample.inj_occupancy = occ_stat(inj_sum, inj_max, inj_fifos);
        sample.reception_occupancy = occ_stat(recv_sum, recv_max, 1.0);

        // Phase attribution and head-of-line blocking. Only occupied
        // FIFOs (the masks) are walked, so a sample on a mostly idle
        // partition stays cheap.
        let mut p1 = 0u64;
        let mut p2 = 0u64;
        let mut count_kind = |kind: u8| match kind {
            1 => p1 += 1,
            2 => p2 += 1,
            _ => {}
        };
        let mut hol = 0u64;
        for (i, masks) in st.masks.iter().enumerate() {
            let queued = bits(masks.occupied).flat_map(|f| st.fifos.row(i)[f].iter(&st.slab));
            for h in queued {
                count_kind(st.slab.body(h).kind);
            }
            for (f, head) in st.heads(i) {
                hol += u64::from(self.stuck(i, f, head) == Some(Stuck::Hol));
            }
        }
        for arrival in st.ring.iter().flatten() {
            count_kind(st.slab.body(arrival.h).kind);
        }
        sample.phase1_in_flight = p1;
        sample.phase2_in_flight = p2;
        sample.hol_blocked_heads = hol;
        sample
    }
}
