//! Time-series tracing: periodic samples of where packets sit and which
//! links are busy, turning end-of-run aggregates into a diagnostic
//! timeline.
//!
//! The paper's central diagnosis — adaptively-routed packets piling up in
//! Y/Z VC FIFOs behind saturated long-dimension links on asymmetric tori
//! (Section 4) — is a *dynamic* phenomenon. [`NetStats`](crate::NetStats)
//! only says *that* a strategy lost throughput; a [`Trace`] shows *when*
//! and *where* the head-of-line blocking built up.
//!
//! Enable tracing by setting [`SimConfig::trace`](crate::SimConfig::trace)
//! to a [`TraceConfig`]. Every `interval_cycles` cycles the engine records
//! a [`TraceSample`]: deltas of the run counters since the previous sample
//! (link-busy chunks, hops, CPU busy, reception stalls, injections,
//! deliveries) plus an instantaneous snapshot of FIFO occupancy split by
//! dimension and by bubble-vs-dynamic VC, packets in flight, head-of-line
//! blocked FIFO heads, and phase attribution (phase-1 vs phase-2 packets
//! for the indirect strategies, identified by `PacketMeta::kind`).
//!
//! Tracing is purely observational: a run produces byte-identical
//! [`NetStats`](crate::NetStats) with tracing on or off, under both
//! [`EngineMode`](crate::EngineMode)s (pinned by the engine equivalence
//! tests). Under the skipping clock the engine forces a sample at each
//! skipped-interval boundary so the delta series still telescopes. With
//! tracing disabled the engine's hot loop pays one predictable branch
//! per cycle and nothing else.

use bgl_torus::Dim;
use serde::Serialize;

/// Tracer configuration; attach to
/// [`SimConfig::trace`](crate::SimConfig::trace) to enable sampling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Cycles between samples. Each sample covers the window since the
    /// previous one; the engine records a final partial sample at
    /// completion so the deltas always sum to the run totals.
    pub interval_cycles: u64,
    /// Hard cap on recorded samples (memory bound for runaway or very
    /// long simulations). When reached, sampling stops and
    /// [`Trace::truncated`] is set; counter deltas after the cap are
    /// folded into the final completion sample.
    pub max_samples: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            interval_cycles: 1024,
            max_samples: 1 << 20,
        }
    }
}

impl TraceConfig {
    /// A tracer sampling every `interval_cycles` cycles (must be > 0).
    ///
    /// # Panics
    /// Panics if `interval_cycles` is zero.
    pub fn every(interval_cycles: u64) -> TraceConfig {
        assert!(interval_cycles > 0, "trace interval must be positive");
        TraceConfig {
            interval_cycles,
            ..TraceConfig::default()
        }
    }
}

/// Mean + max occupancy (in chunks) over a population of FIFOs at one
/// sampling instant.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct OccStat {
    /// Mean occupied chunks per FIFO.
    pub mean_chunks: f64,
    /// Largest occupied-chunk count of any FIFO in the population.
    pub max_chunks: u32,
}

/// One trace record: counter deltas over the window ending at `cycle`
/// plus an instantaneous snapshot of queue state at that cycle.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct TraceSample {
    /// Cycle the sample was taken (end of its window, inclusive).
    pub cycle: u64,
    /// Chunk-cycles each dimension's links transmitted during the window,
    /// one entry per partition dimension; summed over all samples these
    /// equal `NetStats::link_busy_chunks`.
    pub link_busy_delta: Vec<u64>,
    /// Packet-hops taken per dimension during the window.
    pub hops_delta: Vec<u64>,
    /// CPU-busy cycles accrued during the window.
    pub cpu_busy_delta: f64,
    /// Reception-FIFO stall events during the window.
    pub reception_stall_delta: u64,
    /// Packets injected during the window.
    pub injected_delta: u64,
    /// Packets delivered during the window.
    pub delivered_delta: u64,
    /// Node-cycles the engine's rate window blocked program pulls during
    /// the window (see `NetStats::pacing_blocked_cycles`).
    pub pacing_blocked_delta: u64,
    /// Credit acquisitions denied during the window (see
    /// `NetStats::credit_blocked_events`).
    pub credit_blocked_delta: u64,
    /// Packets alive in the network (injected, not yet drained) at the
    /// sampling instant.
    pub packets_in_flight: u64,
    /// Sends queued in node software (pending + pulled), not yet injected.
    pub pending_sends: u64,
    /// Dynamic-VC FIFO occupancy at the instant, split by the dimension of
    /// the input port (one entry per partition dimension).
    pub dyn_vc_occupancy: Vec<OccStat>,
    /// Bubble-VC FIFO occupancy at the instant, split by dimension.
    pub bubble_vc_occupancy: Vec<OccStat>,
    /// Injection-FIFO occupancy at the instant (all FIFOs, all nodes).
    pub inj_occupancy: OccStat,
    /// Reception-FIFO occupancy at the instant (one FIFO per node).
    pub reception_occupancy: OccStat,
    /// Transit VC-FIFO heads with no output the arbiter would give them
    /// this cycle: every live output their routing requests is busy,
    /// refused on credit, or a suppressed return — the head-of-line
    /// blocking signal of the paper's tree-saturation story. The watchdog's
    /// [`StallBreakdown`](crate::StallBreakdown) counts by the same rule.
    pub hol_blocked_heads: u64,
    /// In-network packets with `PacketMeta::kind == 1` (phase 1 for
    /// TPS/VMesh/XYZ-style indirect strategies).
    pub phase1_in_flight: u64,
    /// In-network packets with `PacketMeta::kind == 2` (phase 2).
    pub phase2_in_flight: u64,
}

impl TraceSample {
    /// Compact single-line rendering for stall diagnostics and logs; the
    /// bracketed lists carry one entry per partition dimension.
    pub fn summary(&self) -> String {
        fn join_u64(v: &[u64]) -> String {
            v.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(",")
        }
        fn join_max(v: &[OccStat]) -> String {
            v.iter()
                .map(|o| o.max_chunks.to_string())
                .collect::<Vec<_>>()
                .join(",")
        }
        format!(
            "cycle {}: busy Δ[{}] inflight {} pending {} hol {} \
             dynVC max[{}] bubbleVC max[{}] recvQ max {} p1 {} p2 {}",
            self.cycle,
            join_u64(&self.link_busy_delta),
            self.packets_in_flight,
            self.pending_sends,
            self.hol_blocked_heads,
            join_max(&self.dyn_vc_occupancy),
            join_max(&self.bubble_vc_occupancy),
            self.reception_occupancy.max_chunks,
            self.phase1_in_flight,
            self.phase2_in_flight,
        )
    }
}

/// A completed run's time series.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Trace {
    /// Configured sampling interval.
    pub interval_cycles: u64,
    /// Samples in cycle order. The last sample may cover a partial window
    /// (the run's completion cycle rarely lands on an interval boundary).
    pub samples: Vec<TraceSample>,
    /// Whether the `max_samples` cap cut sampling short.
    pub truncated: bool,
}

/// CSV column order for an `n`-dimensional partition; kept next to
/// [`Trace::to_csv`] so the header and the row writer cannot drift apart.
/// Per-dimension columns are named after [`Dim::name`] (`busy_x`,
/// `busy_y`, `busy_z`, `busy_d3`, …), so the 3D header is byte-identical
/// to the historical fixed 34-column layout.
fn csv_columns(ndims: usize) -> Vec<String> {
    let dims: Vec<&str> = Dim::all(ndims).map(|d| d.name()).collect();
    let mut cols = vec!["cycle".to_string()];
    cols.extend(dims.iter().map(|d| format!("busy_{d}")));
    cols.extend(dims.iter().map(|d| format!("hops_{d}")));
    cols.extend(
        [
            "cpu_busy",
            "recv_stalls",
            "injected",
            "delivered",
            "pacing_blocked",
            "credit_blocked",
            "in_flight",
            "pending",
        ]
        .map(String::from),
    );
    for d in &dims {
        cols.push(format!("dyn_{d}_mean"));
        cols.push(format!("dyn_{d}_max"));
    }
    for d in &dims {
        cols.push(format!("bub_{d}_mean"));
        cols.push(format!("bub_{d}_max"));
    }
    cols.extend(
        [
            "inj_mean",
            "inj_max",
            "recv_mean",
            "recv_max",
            "hol_blocked",
            "phase1",
            "phase2",
        ]
        .map(String::from),
    );
    cols
}

impl Trace {
    /// Number of partition dimensions the samples were recorded on (3 for
    /// an empty trace, matching the historical default).
    pub fn ndims(&self) -> usize {
        self.samples
            .first()
            .map(|s| s.link_busy_delta.len())
            .unwrap_or(3)
    }

    /// Total link-busy chunks per dimension across all samples; equals
    /// `NetStats::link_busy_chunks` for a completed traced run.
    pub fn link_busy_totals(&self) -> Vec<u64> {
        let mut t = vec![0u64; self.ndims()];
        for s in &self.samples {
            for (d, total) in t.iter_mut().enumerate() {
                *total += s.link_busy_delta[d];
            }
        }
        t
    }

    /// The peak dynamic-VC occupancy (max chunks) seen in any sample, per
    /// dimension — the "where did packets pile up" headline number.
    pub fn peak_dyn_occupancy(&self) -> Vec<u32> {
        let mut t = vec![0u32; self.ndims()];
        for s in &self.samples {
            for (d, peak) in t.iter_mut().enumerate() {
                *peak = (*peak).max(s.dyn_vc_occupancy[d].max_chunks);
            }
        }
        t
    }

    /// Cycle range `[first, last]` during which any in-network packet
    /// carried `PacketMeta::kind == kind`, or `None` if none ever did.
    /// Phase boundaries for the indirect strategies (kind 1 / kind 2).
    pub fn phase_span(&self, kind: u8) -> Option<(u64, u64)> {
        let count = |s: &TraceSample| match kind {
            1 => s.phase1_in_flight,
            2 => s.phase2_in_flight,
            _ => 0,
        };
        let first = self.samples.iter().find(|s| count(s) > 0)?.cycle;
        let last = self.samples.iter().rev().find(|s| count(s) > 0)?.cycle;
        Some((first, last))
    }

    /// The last `n` samples, compactly rendered (stall diagnostics).
    pub fn summary_tail(&self, n: usize) -> Vec<String> {
        let start = self.samples.len().saturating_sub(n);
        self.samples[start..].iter().map(|s| s.summary()).collect()
    }

    /// RFC-4180 CSV rendering (CRLF rows, via the shared
    /// [`crate::csv::push_row`] writer): header row plus one row per
    /// sample. All cells are plain numerics, so quoting never triggers;
    /// floats are written with enough precision to round-trip.
    pub fn to_csv(&self) -> String {
        let columns = csv_columns(self.ndims());
        let mut out = String::new();
        crate::csv::push_row(&mut out, &columns, "\r\n");
        for s in &self.samples {
            let mut row: Vec<String> = vec![s.cycle.to_string()];
            row.extend(s.link_busy_delta.iter().map(|v| v.to_string()));
            row.extend(s.hops_delta.iter().map(|v| v.to_string()));
            row.extend([
                s.cpu_busy_delta.to_string(),
                s.reception_stall_delta.to_string(),
                s.injected_delta.to_string(),
                s.delivered_delta.to_string(),
                s.pacing_blocked_delta.to_string(),
                s.credit_blocked_delta.to_string(),
                s.packets_in_flight.to_string(),
                s.pending_sends.to_string(),
            ]);
            for o in s
                .dyn_vc_occupancy
                .iter()
                .chain(&s.bubble_vc_occupancy)
                .chain([&s.inj_occupancy, &s.reception_occupancy])
            {
                row.push(o.mean_chunks.to_string());
                row.push(o.max_chunks.to_string());
            }
            row.push(s.hol_blocked_heads.to_string());
            row.push(s.phase1_in_flight.to_string());
            row.push(s.phase2_in_flight.to_string());
            debug_assert_eq!(row.len(), columns.len());
            crate::csv::push_row(&mut out, &row, "\r\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cycle: u64, busy: [u64; 3]) -> TraceSample {
        TraceSample {
            cycle,
            link_busy_delta: busy.to_vec(),
            hops_delta: vec![0; 3],
            dyn_vc_occupancy: vec![
                OccStat {
                    mean_chunks: 1.5,
                    max_chunks: 8,
                },
                OccStat::default(),
                OccStat {
                    mean_chunks: 0.25,
                    max_chunks: 64,
                },
            ],
            bubble_vc_occupancy: vec![OccStat::default(); 3],
            phase1_in_flight: if cycle < 200 { 3 } else { 0 },
            phase2_in_flight: if cycle > 100 { 5 } else { 0 },
            ..TraceSample::default()
        }
    }

    fn trace() -> Trace {
        Trace {
            interval_cycles: 100,
            samples: vec![
                sample(100, [10, 0, 0]),
                sample(200, [5, 7, 0]),
                sample(250, [1, 2, 3]),
            ],
            truncated: false,
        }
    }

    #[test]
    fn totals_sum_deltas() {
        assert_eq!(trace().link_busy_totals(), vec![16, 9, 3]);
    }

    #[test]
    fn peak_occupancy_is_max_over_samples() {
        assert_eq!(trace().peak_dyn_occupancy(), vec![8, 0, 64]);
    }

    #[test]
    fn csv_columns_follow_dimensionality() {
        // 3D keeps the historical 34-column layout byte-for-byte.
        let three = csv_columns(3);
        assert_eq!(three.len(), 34);
        assert_eq!(three[1], "busy_x");
        assert_eq!(three[3], "busy_z");
        assert_eq!(three[15], "dyn_x_mean");
        // 2D drops the z columns; 4D gains d3 columns in each group.
        let two = csv_columns(2);
        assert_eq!(two.len(), 1 + 2 * 2 + 8 + 4 * 2 + 7);
        assert!(!two.iter().any(|c| c.contains('z')));
        let four = csv_columns(4);
        assert!(four.iter().any(|c| c == "busy_d3"));
        assert!(four.iter().any(|c| c == "bub_d3_max"));
    }

    #[test]
    fn phase_spans() {
        let t = trace();
        assert_eq!(t.phase_span(1), Some((100, 100)));
        assert_eq!(t.phase_span(2), Some((200, 250)));
        assert_eq!(t.phase_span(7), None);
    }

    #[test]
    fn summary_tail_takes_last_n() {
        let t = trace();
        let tail = t.summary_tail(2);
        assert_eq!(tail.len(), 2);
        assert!(tail[0].starts_with("cycle 200:"), "{}", tail[0]);
        assert!(tail[1].starts_with("cycle 250:"), "{}", tail[1]);
        assert_eq!(t.summary_tail(99).len(), 3);
    }

    #[test]
    fn csv_is_rfc4180() {
        let csv = trace().to_csv();
        let lines: Vec<&str> = csv.split("\r\n").collect();
        // Header + 3 samples + trailing empty split.
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[4], "");
        let header_cols = lines[0].split(',').count();
        for row in &lines[1..4] {
            assert_eq!(row.split(',').count(), header_cols, "{row}");
            // Plain numerics only: no quoting may ever be needed.
            assert!(!row.contains('"'), "{row}");
        }
        assert!(lines[0].starts_with("cycle,busy_x"));
        assert!(lines[1].starts_with("100,10,0,0"));
    }

    #[test]
    fn csv_header_matches_row_width() {
        // One OccStat expands to two cells; the constant lists each.
        let t = trace();
        let csv = t.to_csv();
        let mut lines = csv.split("\r\n");
        let header = lines.next().unwrap();
        let row = lines.next().unwrap();
        assert_eq!(header.split(',').count(), row.split(',').count());
    }

    #[test]
    fn config_every_sets_interval() {
        let c = TraceConfig::every(512);
        assert_eq!(c.interval_cycles, 512);
        assert_eq!(c.max_samples, TraceConfig::default().max_samples);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_panics() {
        let _ = TraceConfig::every(0);
    }
}
