//! Strategy selection and the all-to-all runner: build per-node programs,
//! configure the simulator, run, and report percent-of-peak.

use crate::direct::{DirectConfig, DirectProgram};
use crate::flow::Pacer;
use crate::tps::{tps_inj_class_masks, TpsConfig, TpsProgram};
use crate::vmesh::VmeshProgram;
use crate::workload::{destination_schedule, direct_shapes, total_chunks, AaWorkload};
use crate::xyz::{xyz_inj_class_masks, XyzProgram};
use bgl_model::MachineParams;
use bgl_sim::{Engine, NetStats, NodeProgram, SimConfig, SimError};
use bgl_torus::{AaLoadAnalysis, Partition};

/// Where a packet's next software hop is: the paper's all-to-all schemes,
/// plus automatic selection. A [`StrategyKind`] runs one under a [`Pacer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Production-MPI-like randomized direct baseline.
    MpiBaseline,
    /// The paper's low-overhead randomized adaptive direct scheme (AR).
    /// Under [`Pacer::RateWindow`] this is the historical
    /// "ThrottledAdaptive" strategy: injection paced at `factor ×` the
    /// bisection-peak rate.
    AdaptiveRandomized,
    /// Deterministic dimension-order direct scheme (DR).
    DeterministicRouted,
    /// Two Phase Schedule (Section 4.1), on the linear dimension
    /// [`choose_linear_dim`](crate::tps::choose_linear_dim) picks. A
    /// [`Pacer::CreditWindow`] bounds per-intermediate memory (the paper's
    /// future-work credit flow control).
    TwoPhaseSchedule,
    /// Virtual-mesh message combining (Section 4.2), on the layout
    /// [`VirtualMesh::choose`](bgl_torus::VirtualMesh::choose) picks. A
    /// [`Pacer::CreditWindow`] bounds phase-1 reception memory, which is
    /// what lets full-coverage runs survive large asymmetric tori.
    VirtualMesh,
    /// Three-phase XYZ software routing (the HPCC-Randomaccess-style
    /// scheme Section 4.1 contrasts TPS against: two forwarding phases
    /// instead of one).
    XyzRouting,
    /// The paper's recommendation: VMesh below the combining crossover,
    /// a direct scheme on symmetric tori, TPS on asymmetric partitions
    /// ([`auto_select`](crate::select::auto_select) with the run's
    /// [`MachineParams`]).
    Auto,
}

/// An all-to-all strategy: a [`Scheme`] run under a [`Pacer`], its
/// injection flow control. Construct the common combinations through
/// [`StrategyKind::ar`], [`StrategyKind::throttled`], [`StrategyKind::tps`]
/// and friends, and attach a pacer with [`StrategyKind::with_pacer`].
///
/// `Eq`/`Hash` are derived: the pacer hashes its rate factor by bit
/// pattern, so a strategy can key caches and deduplicated run sets; a NaN
/// factor is not meaningful and must not be constructed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StrategyKind {
    /// Where a packet's next software hop is.
    pub scheme: Scheme,
    /// Injection flow control.
    pub pacer: Pacer,
}

/// The spelling the golden file's run keys are matched on (nothing reads
/// it back): the scheme's name, bare when it has no fields and is unpaced,
/// otherwise an object of its fields plus, when paced, a `pacer` field.
/// Four legacy forms stay: AR with a rate window is
/// `ThrottledAdaptive { factor }`; TPS always carries a `credit` field
/// (`null` when unpaced) in place of a credit `pacer`; TPS always carries
/// `"linear": null` and VMesh `"layout": "Auto"`, the settings they had
/// when they could be set.
impl serde::Serialize for StrategyKind {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        let (mut name, mut fields) = match self.scheme {
            Scheme::MpiBaseline => ("MpiBaseline", vec![]),
            Scheme::AdaptiveRandomized => ("AdaptiveRandomized", vec![]),
            Scheme::DeterministicRouted => ("DeterministicRouted", vec![]),
            Scheme::TwoPhaseSchedule => ("TwoPhaseSchedule", vec![("linear", Value::Null)]),
            Scheme::VirtualMesh => ("VirtualMesh", vec![("layout", Value::Str("Auto".into()))]),
            Scheme::XyzRouting => ("XyzRouting", vec![]),
            Scheme::Auto => ("Auto", vec![]),
        };
        match (self.scheme, self.pacer) {
            (Scheme::AdaptiveRandomized, Pacer::RateWindow { factor }) => {
                name = "ThrottledAdaptive";
                fields.push(("factor", factor.to_value()))
            }
            (Scheme::TwoPhaseSchedule, Pacer::Unpaced) => fields.push(("credit", Value::Null)),
            (Scheme::TwoPhaseSchedule, Pacer::CreditWindow { credit }) => {
                fields.push(("credit", credit.to_value()))
            }
            (_, Pacer::Unpaced) => {}
            (_, pacer) => fields.push(("pacer", pacer.to_value())),
        }
        if fields.is_empty() {
            return Value::Str(name.to_string());
        }
        let fields = fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        Value::Object(vec![(name.to_string(), Value::Object(fields))])
    }
}

impl StrategyKind {
    fn unpaced(scheme: Scheme) -> StrategyKind {
        StrategyKind {
            scheme,
            pacer: Pacer::Unpaced,
        }
    }

    /// Unpaced MPI-like baseline.
    pub fn mpi() -> StrategyKind {
        StrategyKind::unpaced(Scheme::MpiBaseline)
    }

    /// Unpaced AR.
    pub fn ar() -> StrategyKind {
        StrategyKind::unpaced(Scheme::AdaptiveRandomized)
    }

    /// Unpaced DR.
    pub fn dr() -> StrategyKind {
        StrategyKind::unpaced(Scheme::DeterministicRouted)
    }

    /// Unpaced XYZ routing.
    pub fn xyz() -> StrategyKind {
        StrategyKind::unpaced(Scheme::XyzRouting)
    }

    /// AR paced at `factor ×` the bisection-peak injection rate (the
    /// historical "ThrottledAdaptive" strategy).
    pub fn throttled(factor: f64) -> StrategyKind {
        StrategyKind::ar().with_pacer(Pacer::rate(factor))
    }

    /// Unpaced TPS.
    pub fn tps() -> StrategyKind {
        StrategyKind::unpaced(Scheme::TwoPhaseSchedule)
    }

    /// Unpaced VMesh.
    pub fn vmesh() -> StrategyKind {
        StrategyKind::unpaced(Scheme::VirtualMesh)
    }

    /// Automatic selection, unpaced.
    pub fn auto() -> StrategyKind {
        StrategyKind::unpaced(Scheme::Auto)
    }

    /// The same scheme under `pacer`.
    pub fn with_pacer(self, pacer: Pacer) -> StrategyKind {
        StrategyKind { pacer, ..self }
    }

    /// Canonical short name for reports.
    pub fn name(&self) -> &'static str {
        match self.scheme {
            Scheme::MpiBaseline => "MPI",
            Scheme::AdaptiveRandomized if matches!(self.pacer, Pacer::RateWindow { .. }) => {
                "AR-throttled"
            }
            Scheme::AdaptiveRandomized => "AR",
            Scheme::DeterministicRouted => "DR",
            Scheme::TwoPhaseSchedule => "TPS",
            Scheme::VirtualMesh => "VMesh",
            Scheme::XyzRouting => "XYZ",
            Scheme::Auto => "Auto",
        }
    }

    /// Resolve `Auto` to the scheme [`auto_select`](crate::select::auto_select)
    /// picks for `(part, m)` on the machine `params`, under this strategy's
    /// pacer; concrete strategies return themselves.
    pub fn resolve(&self, part: &Partition, m: u64, params: &MachineParams) -> StrategyKind {
        match self.scheme {
            Scheme::Auto => crate::select::auto_select(part, m, params).with_pacer(self.pacer),
            _ => self.clone(),
        }
    }

    /// Dimensionalities this strategy's schedule is defined for, as an
    /// inclusive range. The two-phase indirect schedules (TPS factors the
    /// torus into a linear dimension × orthogonal planes, VMesh into
    /// rows × columns) are 3-D constructions; every direct scheme and the
    /// XYZ software router generalize to any arity the topology supports.
    /// `Auto` only ever resolves to a supported schedule, so it accepts
    /// everything.
    pub fn supported_dims(&self) -> std::ops::RangeInclusive<usize> {
        match self.scheme {
            Scheme::TwoPhaseSchedule | Scheme::VirtualMesh => 1..=3,
            _ => 1..=bgl_torus::MAX_DIMS,
        }
    }

    /// `Ok` iff this strategy can run an all-to-all on `part`: the
    /// partition has a peer to exchange with and a dimensionality the
    /// schedule supports; otherwise the [`SimError::TooFewNodes`] or
    /// [`SimError::UnsupportedDims`] that a run would return. Checked
    /// before any simulation state is built, so an unsupported pairing
    /// fails fast instead of hanging or panicking mid-run.
    pub fn check_partition(&self, part: &Partition) -> Result<(), SimError> {
        let supported = self.supported_dims();
        if part.num_nodes() < 2 {
            Err(SimError::TooFewNodes {
                what: "an all-to-all",
                nodes: part.num_nodes(),
            })
        } else if supported.contains(&part.ndims()) {
            Ok(())
        } else {
            Err(SimError::UnsupportedDims {
                what: self.name(),
                ndims: part.ndims(),
                max_dims: *supported.end(),
            })
        }
    }
}

/// Result of one all-to-all run.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct AaReport {
    /// The partition.
    pub partition: Partition,
    /// The workload.
    pub workload: AaWorkload,
    /// Strategy actually run (Auto resolved).
    pub strategy: StrategyKind,
    /// Completion time in simulator cycles.
    pub cycles: u64,
    /// Equation-2 peak time (for the sampled traffic) in cycles.
    pub peak_cycles: f64,
    /// `100 · peak / measured`.
    pub percent_of_peak: f64,
    /// Wall-clock completion time in seconds (β-based conversion).
    pub time_secs: f64,
    /// Achieved per-node send bandwidth, bytes/second.
    pub per_node_bandwidth: f64,
    /// Raw simulator statistics.
    pub stats: NetStats,
    /// Time-series trace, present iff `SimConfig::trace` was set (see
    /// [`bgl_sim::trace`]). Purely observational: `stats` is
    /// byte-identical whether or not a trace was recorded.
    pub trace: Option<bgl_sim::Trace>,
    /// Host-side wall-clock profile, present iff `SimConfig::perf` was
    /// set (see [`bgl_sim::perf`]). Like the trace, purely observational:
    /// `stats` is byte-identical with profiling on or off. Host times are
    /// machine-dependent by nature, so this field never participates in
    /// golden fingerprints or run-cache identity.
    pub perf: Option<bgl_sim::PerfProfile>,
}

/// Run an all-to-all of `workload` on `part` with `strategy`.
///
/// `base` lets callers tweak the simulator (FIFO depths, router rules,
/// ablations); pass `SimConfig::new(part)` for the defaults. Strategy
/// requirements are applied on top: the strategy's pacer, and the TPS or
/// XYZ injection-FIFO reservation where `base` leaves
/// `inj_class_masks` empty (masks the caller set are kept).
///
/// # Panics
/// With `base.check_invariants` set, panics where the oracle finds a
/// broken law, and where a healthy full-coverage run finishes faster than
/// its Equation-2 peak.
pub fn run_aa(
    part: Partition,
    workload: &AaWorkload,
    strategy: &StrategyKind,
    params: &MachineParams,
    mut base: SimConfig,
) -> Result<AaReport, SimError> {
    let strategy = strategy.resolve(&part, workload.m_bytes, params);
    strategy.check_partition(&part)?;
    let p = part.num_nodes();
    base.partition = part;

    // The strategy's pacer becomes the engine-enforced flow spec. An
    // unpaced strategy leaves `base.flow` alone so ablations can still
    // set `SimConfig::flow` directly.
    let pacer = strategy.pacer;
    if !pacer.is_unpaced() {
        base.flow = pacer.resolve(peak_injection_rate(&part, workload, params));
    }

    // Deterministic routing has no freedom to steer around a dead link:
    // if a link that is dead from cycle 0 and never recovers sits on any
    // source→destination dimension-ordered path, the run can only end in
    // a watchdog timeout. Report the unreachable pairs up front instead
    // of simulating until the watchdog fires.
    if strategy.scheme == Scheme::DeterministicRouted {
        if let Some(err) = dr_static_preflight(&part, workload, &base.fault, params) {
            return Err(err);
        }
    }

    let direct =
        |cfg: DirectConfig| per_node(p, |r| DirectProgram::new(r, &part, workload, &cfg, params));
    let programs = match strategy.scheme {
        Scheme::MpiBaseline => direct(DirectConfig::mpi(params)),
        Scheme::AdaptiveRandomized => direct(DirectConfig::ar(params)),
        Scheme::DeterministicRouted => direct(DirectConfig::dr(params)),
        Scheme::TwoPhaseSchedule => {
            if base.inj_class_masks.is_empty() {
                base.inj_class_masks = tps_inj_class_masks(base.inj_fifo_count);
            }
            let cfg = TpsConfig::default();
            per_node(p, |r| TpsProgram::new(r, &part, workload, &cfg, params))
        }
        Scheme::VirtualMesh => {
            let vm = bgl_torus::VirtualMesh::choose(part);
            per_node(p, |r| VmeshProgram::new(r, &vm, workload, params))
        }
        Scheme::XyzRouting => {
            if base.inj_class_masks.is_empty() {
                base.inj_class_masks = xyz_inj_class_masks(base.inj_fifo_count, part.ndims());
            }
            per_node(p, |r| XyzProgram::new(r, &part, workload, params))
        }
        Scheme::Auto => unreachable!("Auto resolved above"),
    };

    // Equation 2 is a lower bound on a healthy full exchange: the
    // bottleneck dimension's links must carry their average payload, at
    // most 30 payload bytes per link per cycle. Checked with the oracle.
    let check_peak = base.check_invariants && base.fault.is_empty() && workload.coverage >= 1.0;
    let mut engine = Engine::new(base, programs);
    let stats = engine.run()?;
    let trace = engine.take_trace();
    let perf = engine.take_perf();
    let peak_cycles = peak_cycles_for(&part, workload, params);
    let cycles = stats.completion_cycle;
    assert!(
        !check_peak || cycles as f64 >= peak_cycles,
        "invariant violated: {} on {part} finished in {cycles} cycles, under the \
         Equation-2 peak of {peak_cycles:.1}",
        strategy.name()
    );
    let time_secs = cycles as f64 * params.secs_per_sim_cycle();
    let sent_per_node = workload.dests_per_node(p) as u64 * workload.m_bytes;
    Ok(AaReport {
        partition: part,
        workload: workload.clone(),
        strategy,
        cycles,
        peak_cycles,
        percent_of_peak: bgl_model::percent_of_peak(peak_cycles, cycles as f64),
        time_secs,
        per_node_bandwidth: if time_secs > 0.0 {
            sent_per_node as f64 / time_secs
        } else {
            0.0
        },
        stats,
        trace,
        perf,
    })
}

/// One boxed program per rank of a `p`-node partition, built by `new`.
fn per_node<P: NodeProgram + 'static>(p: u32, new: impl Fn(u32) -> P) -> Vec<Box<dyn NodeProgram>> {
    (0..p).map(|r| Box::new(new(r)) as _).collect()
}

/// Static-fault reachability preflight for deterministic routing: walk
/// every scheduled source→destination pair's X→Y→Z path against the
/// links that are dead from cycle 0 and never recover, and turn any hit
/// into [`SimError::Unreachable`] at cycle 0 with a per-fault breakdown
/// of how many packets each dead link strands. Scheduled (mid-run) or
/// recovering faults are left to the engine's watchdog classification —
/// whether those runs complete depends on timing, not topology.
fn dr_static_preflight(
    part: &Partition,
    workload: &AaWorkload,
    plan: &bgl_sim::FaultPlan,
    params: &MachineParams,
) -> Option<SimError> {
    use bgl_torus::{DimensionOrder, Direction, TieBreak};
    if plan.is_empty() {
        return None;
    }
    let ports = part.ports();
    let mut dead = vec![false; part.num_nodes() as usize * ports];
    let mut any = false;
    for s in plan.link_schedules(part) {
        if s.fail_at == 0 && s.recover_at.is_none() {
            dead[s.link] = true;
            any = true;
        }
    }
    if !any {
        return None;
    }
    let p = part.num_nodes();
    let dests = workload.dests_per_node(p);
    let pkts_per_pair = direct_shapes(workload.m_bytes, params).len() as u64;
    let mut blocked: std::collections::BTreeMap<(u32, Direction), u64> =
        std::collections::BTreeMap::new();
    let mut stranded = 0u64;
    for src in 0..p {
        let here = part.coord_of(src);
        for dst in destination_schedule(src, p, dests, workload.seed).iter() {
            let hit = DimensionOrder::first_blocked(
                part,
                here,
                part.coord_of(dst),
                TieBreak::SrcParity,
                |r, d| dead[r as usize * ports + d.index()],
            );
            if let Some((rank, dir)) = hit {
                *blocked.entry((rank, dir)).or_insert(0) += pkts_per_pair;
                stranded += pkts_per_pair;
            }
        }
    }
    if stranded == 0 {
        return None;
    }
    Some(SimError::Unreachable {
        cycle: 0,
        blocked_packets: stranded,
        faults: blocked
            .into_iter()
            .map(|((node, dir), n)| bgl_sim::FaultBlock {
                node,
                dir,
                blocked: n,
            })
            .collect(),
    })
}

/// Equation-2 peak time, in cycles, for the (possibly sampled) workload.
///
/// The peak moves `m` *payload* bytes per pair across the bottleneck links
/// at the full-packet payload rate (240 B per 8 cycles): the measured β the
/// paper computes its peak with already amortizes the per-packet link
/// overhead, so a run whose links carry back-to-back full packets scores
/// 100 %.
pub fn peak_cycles_for(part: &Partition, workload: &AaWorkload, params: &MachineParams) -> f64 {
    let analysis = AaLoadAnalysis::new(*part);
    analysis.peak_time_byte_times(workload.m_bytes) * workload.effective_fraction(part.num_nodes())
        / params.payload_bytes_per_cycle()
}

/// Per-node injection rate (chunks/cycle) at which the network runs exactly
/// at its bisection peak — the rate-window pacer's reference rate.
pub fn peak_injection_rate(part: &Partition, workload: &AaWorkload, params: &MachineParams) -> f64 {
    let p = part.num_nodes();
    let peak = peak_cycles_for(part, workload, params);
    let shapes = direct_shapes(workload.m_bytes, params);
    let chunks_per_node = workload.dests_per_node(p) as f64 * total_chunks(&shapes) as f64;
    if peak > 0.0 {
        chunks_per_node / peak
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> MachineParams {
        MachineParams::bgl()
    }

    /// A full exchange with the oracle on, so every run also checks
    /// Equation 2 as a lower bound.
    fn quick(part: &str, m: u64, strategy: StrategyKind) -> AaReport {
        let part: Partition = part.parse().unwrap();
        let w = AaWorkload::full(m);
        let mut cfg = SimConfig::new(part);
        cfg.check_invariants = true;
        run_aa(part, &w, &strategy, &params(), cfg).unwrap()
    }

    #[test]
    fn ar_on_a_line_delivers_everything() {
        let r = quick("8x1x1", 240, StrategyKind::ar());
        assert_eq!(r.stats.packets_delivered, r.stats.packets_injected);
        assert_eq!(r.stats.payload_bytes_delivered, 8 * 7 * 240);
        assert!(r.percent_of_peak > 40.0, "{}", r.percent_of_peak);
        assert!(r.percent_of_peak <= 101.0, "{}", r.percent_of_peak);
    }

    #[test]
    fn dr_on_a_line_delivers_everything() {
        let r = quick("8x1x1", 240, StrategyKind::dr());
        assert_eq!(r.stats.payload_bytes_delivered, 8 * 7 * 240);
        // DR rides the bubble VC exclusively.
        assert_eq!(r.stats.dynamic_hops, 0);
        assert!(r.stats.bubble_hops > 0);
    }

    #[test]
    fn tps_on_small_torus_delivers_everything() {
        let r = quick("4x2x2", 240, StrategyKind::tps());
        // Payload is delivered once via phase 1/direct and once more after
        // forwarding, so delivered bytes ≥ the application total.
        assert!(r.stats.payload_bytes_delivered >= 16 * 15 * 240);
        assert!(r.cycles > 0);
    }

    #[test]
    fn tps_with_credit_flow_control_completes() {
        let r = quick(
            "4x2x2",
            960,
            StrategyKind::tps().with_pacer(Pacer::credit(4, 2)),
        );
        assert!(r.cycles > 0);
        assert!(
            r.stats.credit_blocked_events > 0,
            "a 4-packet window on a 960-byte message must close at least once"
        );
    }

    /// Injection-FIFO masks the caller sets reach the engine: TPS and XYZ
    /// reserve FIFOs per phase only where the masks are left empty. With
    /// every FIFO refusing every class, no packet can be injected and the
    /// run stalls; a reservation laid over the caller's masks completes.
    #[test]
    fn caller_injection_masks_are_kept() {
        let part: Partition = "4x2x2".parse().unwrap();
        for strategy in [StrategyKind::tps(), StrategyKind::xyz()] {
            let mut cfg = SimConfig::new(part);
            cfg.inj_class_masks = vec![0; cfg.inj_fifo_count as usize];
            cfg.watchdog_cycles = 1_000;
            let run = run_aa(part, &AaWorkload::full(240), &strategy, &params(), cfg);
            assert!(
                matches!(run, Err(SimError::Stalled { .. })),
                "{}: {run:?}",
                strategy.name()
            );
        }
    }

    #[test]
    fn vmesh_on_small_plane_completes() {
        let r = quick("4x4", 8, StrategyKind::vmesh());
        assert!(r.cycles > 0);
        assert_eq!(r.stats.packets_delivered, r.stats.packets_injected);
    }

    #[test]
    fn vmesh_with_credit_window_completes() {
        let r = quick(
            "4x4",
            64,
            StrategyKind::vmesh().with_pacer(Pacer::credit(2, 1)),
        );
        assert!(r.cycles > 0);
        // Credit acks ride the network as extra packets; the payload still
        // arrives in full.
        let unpaced = quick("4x4", 64, StrategyKind::vmesh());
        assert_eq!(
            r.stats.payload_bytes_delivered,
            unpaced.stats.payload_bytes_delivered
        );
    }

    #[test]
    fn xyz_with_credit_window_completes() {
        let r = quick(
            "4x2x2",
            480,
            StrategyKind::xyz().with_pacer(Pacer::credit(2, 1)),
        );
        let unpaced = quick("4x2x2", 480, StrategyKind::xyz());
        assert_eq!(
            r.stats.payload_bytes_delivered,
            unpaced.stats.payload_bytes_delivered
        );
    }

    #[test]
    fn throttled_completes_and_is_not_faster_than_ar() {
        let ar = quick("4x4x2", 480, StrategyKind::ar());
        let th = quick("4x4x2", 480, StrategyKind::throttled(1.0));
        assert_eq!(
            th.stats.payload_bytes_delivered,
            ar.stats.payload_bytes_delivered
        );
        assert!(
            th.stats.pacing_blocked_cycles > 0,
            "pacing at the peak rate must block at least one pull"
        );
        // Pacing at the peak rate can't beat the unthrottled run by much.
        assert!(th.cycles as f64 >= ar.cycles as f64 * 0.5);
    }

    #[test]
    fn mpi_baseline_is_slower_than_ar_for_short_messages() {
        let ar = quick("4x4", 64, StrategyKind::ar());
        let mpi = quick("4x4", 64, StrategyKind::mpi());
        assert!(
            mpi.cycles > ar.cycles,
            "MPI {} vs AR {}",
            mpi.cycles,
            ar.cycles
        );
    }

    #[test]
    fn reports_are_deterministic() {
        let a = quick("4x4", 240, StrategyKind::ar());
        let b = quick("4x4", 240, StrategyKind::ar());
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.stats, b.stats);
    }

    /// At 912 bytes the link term dominates a run, so a network that moved
    /// more than 30 payload bytes per link-cycle would beat the peak: the
    /// oracle's Equation-2 law (on in `quick`) must hold for every scheme.
    #[test]
    fn full_exchanges_respect_the_equation_2_peak() {
        for s in every_strategy().into_iter().step_by(3) {
            let r = quick("8x8", 912, s);
            assert!(r.percent_of_peak <= 100.0, "{}", r.percent_of_peak);
        }
    }

    #[test]
    fn sampled_workload_peak_scales() {
        let part: Partition = "8x8".parse().unwrap();
        let full = AaWorkload::full(240);
        let half = AaWorkload::sampled(240, 0.5);
        let pf = peak_cycles_for(&part, &full, &params());
        let ph = peak_cycles_for(&part, &half, &params());
        // 63 destinations at full coverage, round(31.5) = 32 at half.
        assert!((pf / ph - 63.0 / 32.0).abs() < 0.01, "{pf} {ph}");
    }

    /// Every concrete scheme unpaced, under a rate window and under a
    /// credit window, then `Auto` unpaced.
    fn every_strategy() -> Vec<StrategyKind> {
        let schemes = [
            StrategyKind::mpi(),
            StrategyKind::ar(),
            StrategyKind::dr(),
            StrategyKind::tps(),
            StrategyKind::vmesh(),
            StrategyKind::xyz(),
        ];
        let pacers = [Pacer::Unpaced, Pacer::rate(0.5), Pacer::credit(4, 2)];
        let paced = schemes.map(|s| pacers.map(|p| s.clone().with_pacer(p)));
        let mut all: Vec<_> = paced.into_iter().flatten().collect();
        all.push(StrategyKind::auto());
        all
    }

    #[test]
    fn strategy_hash_matches_eq() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(StrategyKind::throttled(1.0));
        set.insert(StrategyKind::throttled(1.0));
        set.insert(StrategyKind::throttled(0.5));
        set.insert(StrategyKind::tps());
        set.insert(StrategyKind::tps());
        assert_eq!(set.len(), 3);
        // -0.0 and 0.0 compare equal and must hash equal.
        set.clear();
        set.insert(StrategyKind::throttled(0.0));
        assert!(set.contains(&StrategyKind::throttled(-0.0)));
        // A paced strategy never collides with its unpaced form.
        set.clear();
        set.insert(StrategyKind::ar());
        set.insert(StrategyKind::ar().with_pacer(Pacer::credit(4, 2)));
        set.insert(StrategyKind::vmesh());
        set.insert(StrategyKind::vmesh().with_pacer(Pacer::credit(4, 2)));
        assert_eq!(set.len(), 4);
        // Every scheme × pacer is its own entry, and a repeat is not.
        let all = every_strategy();
        let set: HashSet<_> = all.iter().chain(&all).cloned().collect();
        assert_eq!(set.len(), 19);
    }

    #[test]
    fn strategies_serialize_as_the_committed_spellings() {
        // The golden file is matched on these bytes: a run key whose
        // strategy rendered differently would silently lose its entry.
        for (json, s) in [
            ("\"AdaptiveRandomized\"", StrategyKind::ar()),
            ("\"MpiBaseline\"", StrategyKind::mpi()),
            (
                "{\"ThrottledAdaptive\":{\"factor\":1.25}}",
                StrategyKind::throttled(1.25),
            ),
            (
                "{\"TwoPhaseSchedule\":{\"linear\":null,\"credit\":null}}",
                StrategyKind::tps(),
            ),
            (
                "{\"TwoPhaseSchedule\":{\"linear\":null,\"credit\":{\"window_packets\":4,\"credit_every\":2}}}",
                StrategyKind::tps().with_pacer(Pacer::credit(4, 2)),
            ),
        ] {
            assert_eq!(serde_json::to_string(&s).unwrap(), json);
        }
        // The spellings of `every_strategy()`, in its order.
        let committed = [
            r#""MpiBaseline""#,
            r#"{"MpiBaseline":{"pacer":{"RateWindow":{"factor":0.5}}}}"#,
            r#"{"MpiBaseline":{"pacer":{"CreditWindow":{"credit":{"window_packets":4,"credit_every":2}}}}}"#,
            r#""AdaptiveRandomized""#,
            r#"{"ThrottledAdaptive":{"factor":0.5}}"#,
            r#"{"AdaptiveRandomized":{"pacer":{"CreditWindow":{"credit":{"window_packets":4,"credit_every":2}}}}}"#,
            r#""DeterministicRouted""#,
            r#"{"DeterministicRouted":{"pacer":{"RateWindow":{"factor":0.5}}}}"#,
            r#"{"DeterministicRouted":{"pacer":{"CreditWindow":{"credit":{"window_packets":4,"credit_every":2}}}}}"#,
            r#"{"TwoPhaseSchedule":{"linear":null,"credit":null}}"#,
            r#"{"TwoPhaseSchedule":{"linear":null,"pacer":{"RateWindow":{"factor":0.5}}}}"#,
            r#"{"TwoPhaseSchedule":{"linear":null,"credit":{"window_packets":4,"credit_every":2}}}"#,
            r#"{"VirtualMesh":{"layout":"Auto"}}"#,
            r#"{"VirtualMesh":{"layout":"Auto","pacer":{"RateWindow":{"factor":0.5}}}}"#,
            r#"{"VirtualMesh":{"layout":"Auto","pacer":{"CreditWindow":{"credit":{"window_packets":4,"credit_every":2}}}}}"#,
            r#""XyzRouting""#,
            r#"{"XyzRouting":{"pacer":{"RateWindow":{"factor":0.5}}}}"#,
            r#"{"XyzRouting":{"pacer":{"CreditWindow":{"credit":{"window_packets":4,"credit_every":2}}}}}"#,
            r#""Auto""#,
        ];
        let all = every_strategy();
        assert_eq!(all.len(), committed.len());
        for (json, s) in committed.into_iter().zip(all) {
            assert_eq!(serde_json::to_string(&s).unwrap(), json);
        }
    }

    #[test]
    fn ar_routes_around_a_statically_dead_link() {
        use bgl_sim::{FaultPlan, LinkFault};
        use bgl_torus::{Dim, Direction, Sign};
        let part: Partition = "4x4".parse().unwrap();
        let plan = FaultPlan {
            links: vec![LinkFault::dead(0, Direction::new(Dim::X, Sign::Plus))],
            nodes: vec![],
        };
        let workload = AaWorkload::full(240);
        let mut cfg = SimConfig::new(part);
        cfg.fault = plan;
        let faulty = run_aa(part, &workload, &StrategyKind::ar(), &params(), cfg).unwrap();
        // Everything still arrives — adaptively, around the dead link —
        // and nothing was in flight on it at cycle 0, so nothing dropped.
        assert_eq!(
            faulty.stats.payload_bytes_delivered,
            16 * 15 * 240,
            "AR must deliver the full all-to-all around a dead link"
        );
        assert_eq!(faulty.stats.dropped_by_fault, 0);
        let healthy = quick("4x4", 240, StrategyKind::ar());
        // Losing a link perturbs arbitration, so exact cycle counts may
        // wobble either way on a tiny run; the payload totals must agree.
        assert_eq!(
            faulty.stats.payload_bytes_delivered,
            healthy.stats.payload_bytes_delivered
        );
    }

    #[test]
    fn dr_reports_unreachable_on_a_statically_dead_link() {
        use bgl_sim::{FaultPlan, LinkFault};
        use bgl_torus::{Dim, Direction, Sign};
        let part: Partition = "4x4".parse().unwrap();
        let dir = Direction::new(Dim::X, Sign::Plus);
        let plan = FaultPlan {
            links: vec![LinkFault::dead(0, dir)],
            nodes: vec![],
        };
        let mut cfg = SimConfig::new(part);
        cfg.fault = plan;
        let err = run_aa(
            part,
            &AaWorkload::full(240),
            &StrategyKind::dr(),
            &params(),
            cfg,
        )
        .unwrap_err();
        match err {
            SimError::Unreachable {
                cycle,
                blocked_packets,
                faults,
            } => {
                assert_eq!(cycle, 0, "static faults are caught by the preflight");
                assert!(blocked_packets > 0);
                assert_eq!(faults.len(), 1);
                assert_eq!((faults[0].node, faults[0].dir), (0, dir));
                assert_eq!(faults[0].blocked, blocked_packets);
            }
            other => panic!("expected Unreachable, got {other:?}"),
        }
    }

    #[test]
    fn indirect_schedules_reject_high_arity_partitions_up_front() {
        let part: Partition = "4x4x4x4".parse().unwrap();
        let w = AaWorkload::full(64);
        for s in [StrategyKind::tps(), StrategyKind::vmesh()] {
            assert_eq!(s.supported_dims(), 1..=3);
            let err = run_aa(part, &w, &s, &params(), SimConfig::new(part)).unwrap_err();
            match err {
                SimError::UnsupportedDims {
                    what,
                    ndims,
                    max_dims,
                } => {
                    assert_eq!(what, s.name());
                    assert_eq!((ndims, max_dims), (4, 3));
                }
                other => panic!("expected UnsupportedDims, got {other:?}"),
            }
            // The error is its own one-line story.
            assert!(s
                .check_partition(&part)
                .unwrap_err()
                .to_string()
                .contains("4"));
        }
    }

    #[test]
    fn a_one_node_partition_is_a_typed_error_for_every_strategy() {
        let part: Partition = "1x1x1".parse().unwrap();
        let w = AaWorkload::full(64);
        for s in [
            StrategyKind::ar(),
            StrategyKind::tps(),
            StrategyKind::auto(),
        ] {
            let err = run_aa(part, &w, &s, &params(), SimConfig::new(part)).unwrap_err();
            let want = SimError::TooFewNodes {
                what: "an all-to-all",
                nodes: 1,
            };
            assert_eq!(err, want, "{}", s.name());
            assert_eq!(
                err.to_string(),
                "an all-to-all needs at least two nodes, got a 1-node partition"
            );
        }
    }

    #[test]
    fn direct_schemes_run_on_high_arity_tori() {
        // 2^4 hypercube-as-torus: every direct scheme and XYZ complete.
        for s in [StrategyKind::ar(), StrategyKind::dr(), StrategyKind::xyz()] {
            assert!(s.supported_dims().contains(&4));
            let r = quick("2x2x2x2", 64, s);
            assert_eq!(r.stats.packets_delivered, r.stats.packets_injected);
        }
        // Auto resolves to a supported scheme rather than erroring.
        let r = quick("2x2x2x2", 16, StrategyKind::auto());
        assert_eq!(r.strategy, StrategyKind::ar());
    }

    #[test]
    fn auto_resolves_with_the_runs_machine() {
        // A 4× slower copy moves the combining crossover of 8x8x8 from
        // 64 B down to 31 B: Auto must follow the machine it runs on.
        let part: Partition = "8x8x8".parse().unwrap();
        let mut slow_copy = params();
        slow_copy.gamma_ns_per_byte *= 4.0;
        let crossover = |params| crate::select::combining_crossover_bytes(&part, params);
        assert_eq!((crossover(&params()), crossover(&slow_copy)), (64, 31));
        for (m, name) in [(16, "VMesh"), (32, "AR"), (48, "AR"), (64, "AR")] {
            let want = crate::select::auto_select(&part, m, &slow_copy);
            let (w, cfg) = (AaWorkload::sampled(m, 0.05), SimConfig::new(part));
            let r = run_aa(part, &w, &StrategyKind::auto(), &slow_copy, cfg).unwrap();
            assert_eq!((r.strategy.name(), &r.strategy), (name, &want), "m={m}");
        }
    }

    #[test]
    fn strategy_names() {
        assert_eq!(StrategyKind::ar().name(), "AR");
        assert_eq!(StrategyKind::throttled(0.9).name(), "AR-throttled");
        assert_eq!(StrategyKind::tps().name(), "TPS");
        assert_eq!(
            StrategyKind::tps().with_pacer(Pacer::credit(4, 2)).name(),
            "TPS"
        );
    }
}
