//! Budgeted, cached, parallel simulation runner shared by all experiments.
//!
//! Several tables and figures evaluate the same (partition, strategy,
//! message size) points; the runner memoizes completed runs so the full
//! suite never repeats work. Runs are identified by a structured
//! [`RunKey`] (partition, strategy, message size, coverage in parts per
//! million, variant label) rather than a formatted string, so lookups
//! allocate nothing and cannot collide on formatting.
//!
//! Output is declared as [`Unit`]s: the [`RunPoint`]s a piece of output
//! reads, next to the closure that renders it from exactly those points'
//! results. [`Runner::render`] deduplicates every unit's points, executes
//! them across a scoped thread pool ([`Runner::with_jobs`]) and then
//! renders; [`Runner::run_points`] is the same batch for a bare point
//! list. Each run is independent and fully deterministic given its key,
//! so results are byte-identical regardless of the number of threads or
//! completion order.
//!
//! For large partitions the runner automatically samples the all-to-all
//! (uniform destination subsets, see [`bgl_core::AaWorkload::coverage`])
//! so a run stays within a node-cycle budget; every report records the
//! coverage used.

use bgl_core::{peak_cycles_for, run_aa, AaReport, AaWorkload, StrategyKind};
use bgl_model::MachineParams;
use bgl_sim::{FaultPlan, PerfConfig, SimConfig, SimError, TraceConfig};
use bgl_torus::Partition;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Coverage is stored in parts per million: f64 never enters the key.
pub const COVERAGE_PPM_FULL: u32 = 1_000_000;

/// How hard to push the simulations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small budgets for benches/CI: coarse percentages, seconds per
    /// experiment.
    Quick,
    /// Paper-shape partitions with node-cycle budgets sized for a full
    /// suite run of tens of minutes.
    Paper,
}

impl Scale {
    /// Node-cycle budget per run (nodes × simulated cycles).
    pub fn node_cycle_budget(self) -> f64 {
        match self {
            Scale::Quick => 8.0e6,
            Scale::Paper => 5.0e7,
        }
    }

    /// Minimum destinations per node when sampling.
    pub fn min_dests(self) -> u32 {
        match self {
            Scale::Quick => 16,
            Scale::Paper => 64,
        }
    }
}

/// Structured identity of one simulation run. Hash/Eq-safe: coverage is
/// quantized to integer parts per million (the same quantized value is
/// used to build the workload, so the key exactly describes the run).
/// Serialized only to be compared: the golden file is matched on the
/// JSON text of its keys, and nothing parses one back.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize)]
pub struct RunKey {
    /// The partition simulated.
    pub part: Partition,
    /// The all-to-all strategy.
    pub strategy: StrategyKind,
    /// Message size per destination, bytes.
    pub m: u64,
    /// Destination coverage in parts per million (1_000_000 = full AA).
    pub coverage_ppm: u32,
    /// Configuration-variant label ("" for the default config). Distinct
    /// config tweaks must carry distinct labels.
    pub variant: &'static str,
    /// Trace sampling interval in cycles, 0 = tracing off. Part of the
    /// key so traced and untraced runs never share a cache slot (their
    /// `NetStats` are identical by construction, but only the former
    /// carries an `AaReport::trace`).
    pub trace_interval: u64,
    /// Injected faults (empty = healthy run). A fault plan *changes the
    /// result*, so it is part of the key: a faulty run and its healthy
    /// twin never share a cache slot.
    pub fault: FaultPlan,
}

impl RunKey {
    /// Key for a run at `coverage` with the default config.
    pub fn new(part: Partition, strategy: StrategyKind, m: u64, coverage: f64) -> RunKey {
        RunKey {
            part,
            strategy,
            m,
            coverage_ppm: RunKey::quantize(coverage),
            variant: "",
            trace_interval: 0,
            fault: FaultPlan::default(),
        }
    }

    /// Quantize a coverage fraction to parts per million.
    pub fn quantize(coverage: f64) -> u32 {
        let ppm = (coverage.clamp(0.0, 1.0) * COVERAGE_PPM_FULL as f64).round() as u32;
        // A budgeted coverage never rounds to zero destinations.
        ppm.max(1)
    }

    /// The coverage fraction this key runs at.
    pub fn coverage(&self) -> f64 {
        self.coverage_ppm as f64 / COVERAGE_PPM_FULL as f64
    }

    /// Whether this is a full (unsampled) all-to-all.
    pub fn is_full(&self) -> bool {
        self.coverage_ppm >= COVERAGE_PPM_FULL
    }
}

/// The simulator-configuration tweak a variant label stands for.
type Tweak = Arc<dyn Fn(&mut SimConfig) + Send + Sync>;

/// A declared simulation point: a [`RunKey`] plus the configuration
/// tweak the variant label stands for. Cheap to clone (the tweak is
/// shared), and `Send + Sync` so point sets can fan out across threads.
#[derive(Clone)]
pub struct RunPoint {
    /// The identity of the run.
    pub key: RunKey,
    tweak: Option<Tweak>,
}

impl RunPoint {
    /// A point with the default simulator configuration.
    pub fn new(part: Partition, strategy: StrategyKind, m: u64, coverage: f64) -> RunPoint {
        RunPoint {
            key: RunKey::new(part, strategy, m, coverage),
            tweak: None,
        }
    }

    /// Attach a configuration variant. `label` must uniquely describe
    /// `tweak` — it is the part of the cache key that distinguishes this
    /// point from the default config.
    pub fn variant(
        mut self,
        label: &'static str,
        tweak: impl Fn(&mut SimConfig) + Send + Sync + 'static,
    ) -> RunPoint {
        self.key.variant = label;
        self.tweak = Some(Arc::new(tweak));
        self
    }

    /// Enable time-series tracing for this point: record a `TraceSample`
    /// every `interval_cycles` cycles and surface the series as
    /// `AaReport::trace`. The interval is part of the cache key, so a
    /// traced point never aliases its untraced twin; `NetStats` is
    /// byte-identical either way.
    ///
    /// # Panics
    /// Panics if `interval_cycles` is zero.
    pub fn traced(mut self, interval_cycles: u64) -> RunPoint {
        assert!(interval_cycles > 0, "trace interval must be positive");
        self.key.trace_interval = interval_cycles;
        self
    }

    /// Inject `fault` into this point's run. The plan is part of the
    /// cache key ([`RunKey::fault`]), so a faulty point and its healthy
    /// twin are always distinct runs. The plan is validated against the
    /// partition when the run executes (`Engine::new` panics on an
    /// invalid plan — validate earlier for a friendly error).
    pub fn with_fault(mut self, fault: FaultPlan) -> RunPoint {
        self.key.fault = fault;
        self
    }

    fn apply(&self, cfg: &mut SimConfig) {
        if let Some(tweak) = &self.tweak {
            tweak(cfg);
        }
    }
}

impl std::fmt::Debug for RunPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunPoint")
            .field("key", &self.key)
            .field("tweak", &self.tweak.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

/// What a run ends in: the report, or the error that stopped it.
pub type RunResult = Result<AaReport, SimError>;

type Render<T> = Box<dyn FnOnce(&[RunResult]) -> T>;

/// One piece of output — a table row, a family's conformance checks —
/// declared together with the runs it reads: the points, and the closure
/// that renders the output from exactly those points' results, in
/// declaration order. The closure is `'static` and is handed no
/// [`Runner`], so it cannot fetch a run it did not declare: what
/// [`Runner::render`] batches onto the pool is, by construction,
/// everything rendering reads.
pub struct Unit<T> {
    /// The runs this piece of output reads, in the order its closure
    /// receives their results.
    pub points: Vec<RunPoint>,
    render: Render<T>,
}

impl<T> Unit<T> {
    /// Declare `points` and the closure that renders from their results.
    /// It destructures one result per point (`|[tps, ar]| …`; `|[]| …`
    /// for model-only output), so reading more runs than were declared
    /// does not compile.
    pub fn new<const N: usize>(
        points: [RunPoint; N],
        render: impl FnOnce(&[RunResult; N]) -> T + 'static,
    ) -> Unit<T> {
        Unit {
            points: points.into(),
            render: Box::new(move |results| {
                render(results.try_into().expect("one result per declared point"))
            }),
        }
    }

    /// Render from `results`: one per declared point, in order.
    pub fn render(self, results: &[RunResult]) -> T {
        (self.render)(results)
    }
}

/// Wall-clock accounting of a profiling-enabled runner
/// ([`Runner::with_perf`]), aggregated across every worker thread of
/// [`Runner::run_points`] and every sequential fetch. Queue wait is
/// the time a declared point sat behind other points before a worker
/// picked it up; execute time is the simulation call itself. Cache hits
/// cost neither.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunnerTiming {
    /// Points actually simulated (cache misses).
    pub points_executed: u64,
    /// Lookups answered straight from the memo cache.
    pub cache_hits: u64,
    /// Total seconds points spent queued behind other work (summed over
    /// points, so with `--jobs > 1` this can exceed wall time).
    pub queue_wait_secs: f64,
    /// Total seconds spent inside simulation runs (summed over points).
    pub execute_secs: f64,
}

/// The memoizing parallel runner.
pub struct Runner {
    /// Machine parameters used for every run.
    pub params: MachineParams,
    /// Budget scale.
    pub scale: Scale,
    /// Workload/schedule seed.
    pub seed: u64,
    jobs: usize,
    /// Host profiling: pass `SimConfig::perf` to every run (so reports
    /// carry `AaReport::perf`) and aggregate [`RunnerTiming`]. Results
    /// are byte-identical on or off, so it is not part of the cache key.
    perf: bool,
    /// Opt-in stderr heartbeat (`SimConfig::progress`) for every run.
    /// Like `perf`, byte-identical results — not part of the cache key.
    progress: bool,
    timing: Mutex<RunnerTiming>,
    /// The memo cache: every completed (or failed) run by key. One map
    /// behind one lock — a suite holds tens of entries and touches the
    /// lock twice per simulation.
    results: Mutex<HashMap<RunKey, RunResult>>,
}

impl Runner {
    /// A runner at `scale` with BG/L parameters, using every available
    /// core for [`Runner::run_points`].
    pub fn new(scale: Scale) -> Runner {
        let jobs = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Runner {
            params: MachineParams::bgl(),
            scale,
            seed: 0xaa11,
            jobs,
            perf: false,
            progress: false,
            timing: Mutex::new(RunnerTiming::default()),
            results: Mutex::new(HashMap::new()),
        }
    }

    /// Set the worker-thread count for [`Runner::run_points`] (clamped
    /// to at least 1). Results do not depend on this.
    pub fn with_jobs(mut self, jobs: usize) -> Runner {
        self.jobs = jobs.max(1);
        self
    }

    /// Enable host profiling for every run this runner executes: reports
    /// carry `AaReport::perf` and the runner aggregates a
    /// [`RunnerTiming`] across all workers (read it with
    /// [`Runner::timing`]). Results are byte-identical on or off, so the
    /// cache key does not include it.
    pub fn with_perf(mut self, perf: bool) -> Runner {
        self.perf = perf;
        self
    }

    /// Whether host profiling is on (see [`Runner::with_perf`]).
    pub fn perf_enabled(&self) -> bool {
        self.perf
    }

    /// Enable the rate-limited stderr progress heartbeat
    /// (`SimConfig::progress`) for every run this runner executes. Purely
    /// observational: results are byte-identical on or off.
    pub fn with_progress(mut self, progress: bool) -> Runner {
        self.progress = progress;
        self
    }

    /// Snapshot of the aggregated wall-clock accounting. All zeros
    /// unless [`Runner::with_perf`] was enabled.
    pub fn timing(&self) -> RunnerTiming {
        *self.timing.lock().expect("timing lock")
    }

    /// The worker-thread count used by [`Runner::run_points`].
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Pick the coverage that keeps `nodes × estimated cycles` within
    /// budget. The estimate inflates the payload-based peak by the wire
    /// overhead ratio, which matters for tiny messages (a 1-byte message
    /// rides a 64-byte packet).
    pub fn budget_coverage(&self, part: &Partition, m: u64) -> f64 {
        let p = part.num_nodes();
        let m = m.max(1);
        let full = peak_cycles_for(part, &AaWorkload::full(m), &self.params);
        let shapes = bgl_core::direct_shapes(m, &self.params);
        let wire_bytes = bgl_core::total_chunks(&shapes) * bgl_model::CHUNK_BYTES as u64;
        let wire_factor = (wire_bytes as f64 / m as f64).max(1.0);
        let budget = self.scale.node_cycle_budget();
        let mut cov = (budget / (p as f64 * full * wire_factor)).min(1.0);
        // Keep enough destinations for the sample to look like an AA.
        let floor = (self.scale.min_dests(), p.saturating_sub(1).max(1));
        let min_cov = (floor.0.min(floor.1) as f64) / floor.1 as f64;
        cov = cov.max(min_cov).min(1.0);
        cov
    }

    /// Declare a point with automatic (budgeted) coverage.
    pub fn point(&self, shape: &str, strategy: &StrategyKind, m: u64) -> RunPoint {
        let part: Partition = shape.parse().expect("valid shape");
        let cov = self.budget_coverage(&part, m);
        RunPoint::new(part, strategy.clone(), m, cov)
    }

    /// Run (or fetch) a declared point.
    pub fn report(&self, point: &RunPoint) -> RunResult {
        let key = &point.key;
        if let Some(hit) = self.lookup(key) {
            if self.perf {
                self.timing.lock().expect("timing lock").cache_hits += 1;
            }
            return hit;
        }
        let t0 = self.perf.then(Instant::now);
        let result = self.execute(point);
        if let Some(t0) = t0 {
            let mut timing = self.timing.lock().expect("timing lock");
            timing.points_executed += 1;
            timing.execute_secs += t0.elapsed().as_secs_f64();
        }
        self.results
            .lock()
            .expect("cache lock")
            .insert(key.clone(), result.clone());
        result
    }

    /// Run every unit's points as one deduplicated batch on the worker
    /// pool, then render the units in order, each from its own points'
    /// results.
    pub fn render<T>(&self, units: Vec<Unit<T>>) -> Vec<T> {
        self.run_batch(units.iter().flat_map(|u| &u.points));
        units
            .into_iter()
            .map(|u| {
                let results: Vec<RunResult> = u.points.iter().map(|p| self.report(p)).collect();
                u.render(&results)
            })
            .collect()
    }

    /// Execute a point set: deduplicate by key, drop what the cache
    /// already holds, and run the rest across `jobs` worker threads.
    /// Results land in the cache (including errors, so a failing
    /// configuration is never re-simulated); fetch them afterwards with
    /// [`Runner::report`]. Thread count affects wall-clock only — every
    /// run is deterministic given its key.
    pub fn run_points(&self, points: &[RunPoint]) {
        self.run_batch(points.iter());
    }

    fn run_batch<'a>(&self, points: impl Iterator<Item = &'a RunPoint>) {
        let mut seen = HashSet::new();
        let todo: Vec<&RunPoint> = {
            let cached = self.results.lock().expect("cache lock");
            points
                .filter(|p| seen.insert(&p.key) && !cached.contains_key(&p.key))
                .collect()
        };
        if todo.is_empty() {
            return;
        }
        // Queue wait is measured from when the whole batch was enqueued
        // (here) to when a worker picks each point up, so it sums the time
        // points spent waiting behind other points across all workers.
        let enqueued = self.perf.then(Instant::now);
        let note_pickup = |enqueued: Option<Instant>| {
            if let Some(t0) = enqueued {
                self.timing.lock().expect("timing lock").queue_wait_secs +=
                    t0.elapsed().as_secs_f64();
            }
        };
        let jobs = self.jobs.min(todo.len()).max(1);
        if jobs == 1 {
            for p in todo {
                note_pickup(enqueued);
                let _ = self.report(p);
            }
            return;
        }
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    match todo.get(i) {
                        Some(p) => {
                            note_pickup(enqueued);
                            let _ = self.report(p);
                        }
                        None => break,
                    }
                });
            }
        });
    }

    /// How many distinct runs the cache holds (completed or failed).
    pub fn cached_runs(&self) -> usize {
        self.results.lock().expect("cache lock").len()
    }

    /// A large-message size that packs into full 256-byte packets
    /// (m + h ≡ 0 mod 240), scaled down for `Quick` and for very large
    /// partitions (where destination sampling already bounds the run and a
    /// smaller per-pair message keeps wall-clock in budget; 912 B is still
    /// four full packets per destination — asymptotic for % of peak).
    pub fn large_m_for(&self, part: &Partition) -> u64 {
        match self.scale {
            Scale::Quick => 912,
            Scale::Paper => {
                if part.num_nodes() > 4096 {
                    912
                } else {
                    3792
                }
            }
        }
    }

    fn lookup(&self, key: &RunKey) -> Option<RunResult> {
        self.results.lock().expect("cache lock").get(key).cloned()
    }

    /// One deterministic run: the workload is rebuilt from the key (the
    /// quantized coverage, not the caller's f64) and the runner's fixed
    /// seed, so identical keys produce identical reports on any thread.
    fn execute(&self, point: &RunPoint) -> RunResult {
        let key = &point.key;
        let mut workload = if key.is_full() {
            AaWorkload::full(key.m)
        } else {
            AaWorkload::sampled(key.m, key.coverage())
        };
        workload.seed = self.seed;
        let mut cfg = SimConfig::new(key.part);
        cfg.perf = self.perf.then(PerfConfig::default);
        cfg.progress = self.progress;
        point.apply(&mut cfg);
        // The key's trace interval and fault plan win over any tweak:
        // the key is the identity of the run, so what it says must be
        // what executes.
        if key.trace_interval > 0 {
            cfg.trace = Some(TraceConfig::every(key.trace_interval));
        }
        if !key.fault.is_empty() {
            cfg.fault = key.fault.clone();
        }
        run_aa(key.part, &workload, &key.strategy, &self.params, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_coverage_full_for_small() {
        let r = Runner::new(Scale::Paper);
        let part: Partition = "8x8x8".parse().unwrap();
        assert_eq!(r.budget_coverage(&part, 3792), 1.0);
    }

    #[test]
    fn budget_coverage_samples_large() {
        let r = Runner::new(Scale::Paper);
        let part: Partition = "40x32x16".parse().unwrap();
        let cov = r.budget_coverage(&part, 3792);
        assert!(cov < 0.1, "{cov}");
        // Still at least the destination floor.
        let w = AaWorkload::sampled(3792, cov);
        assert!(w.dests_per_node(part.num_nodes()) >= 64);
    }

    #[test]
    fn cache_hits_return_identical_reports() {
        let r = Runner::new(Scale::Quick);
        let a = r.report(&r.point("4x4", &StrategyKind::ar(), 240)).unwrap();
        let b = r.report(&r.point("4x4", &StrategyKind::ar(), 240)).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(r.cached_runs(), 1);
    }

    #[test]
    fn variants_do_not_collide() {
        let r = Runner::new(Scale::Quick);
        let plain = RunPoint::new("4x4".parse().unwrap(), StrategyKind::ar(), 240, 1.0);
        let vc8 = plain
            .clone()
            .variant("vc8", |c| c.router.vc_fifo_chunks = 8);
        let base = r.report(&plain).unwrap();
        let tweaked = r.report(&vc8).unwrap();
        assert_eq!(r.cached_runs(), 2);
        // Each label re-fetches its own cached result.
        let base2 = r.report(&plain).unwrap();
        let tweaked2 = r.report(&vc8).unwrap();
        assert_eq!(base.stats, base2.stats);
        assert_eq!(tweaked.stats, tweaked2.stats);
        // A collision would hand back the same report; the tweak may tie
        // the completion cycle, so compare everything the run counted.
        assert_ne!(base.stats, tweaked.stats, "vc8 tweak must change the run");
        assert_eq!(r.cached_runs(), 2);
    }

    #[test]
    fn quick_scale_is_cheap() {
        let r = Runner::new(Scale::Quick);
        let rep = r
            .report(&r.point("8x8x8", &StrategyKind::ar(), 912))
            .unwrap();
        // Budgeted coverage keeps the run small.
        assert!(rep.workload.coverage < 1.0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// `quantize` → `coverage` → `quantize` is a fixed point: the
        /// fraction a key reports re-keys to the same key, so cache
        /// lookups through a report's coverage can never alias or miss.
        #[test]
        fn quantize_coverage_round_trips(ppm in 1u32..=COVERAGE_PPM_FULL) {
            let part: Partition = "4x4".parse().unwrap();
            let coverage = ppm as f64 / COVERAGE_PPM_FULL as f64;
            let key = RunKey::new(part, StrategyKind::ar(), 240, coverage);
            proptest::prop_assert_eq!(key.coverage_ppm, ppm);
            let rekeyed =
                RunKey::new(part, StrategyKind::ar(), 240, key.coverage());
            proptest::prop_assert_eq!(&rekeyed, &key);
        }

        /// Arbitrary (even denormal-ish or out-of-range) fractions
        /// quantize into 1..=PPM_FULL and stabilize after one round.
        #[test]
        fn quantize_is_idempotent_for_raw_fractions(bits in proptest::arbitrary::any::<u64>()) {
            let raw = (bits as f64 / u64::MAX as f64) * 1.5 - 0.25; // spans [-0.25, 1.25]
            let ppm = RunKey::quantize(raw);
            proptest::prop_assert!((1..=COVERAGE_PPM_FULL).contains(&ppm));
            let again = RunKey::quantize(ppm as f64 / COVERAGE_PPM_FULL as f64);
            proptest::prop_assert_eq!(again, ppm);
        }
    }

    #[test]
    fn faulty_and_healthy_runs_never_share_a_cache_slot() {
        let r = Runner::new(Scale::Quick);
        let healthy = r.point("4x4", &StrategyKind::ar(), 240);
        let faulty = healthy.clone().with_fault(FaultPlan {
            links: vec![bgl_sim::LinkFault::dead(
                0,
                bgl_torus::Direction::from_index(0),
            )],
            nodes: vec![],
        });
        assert_ne!(healthy.key, faulty.key);
        let h = r.report(&healthy).expect("healthy run completes");
        let f = r.report(&faulty).expect("AR routes around one dead link");
        assert_eq!(r.cached_runs(), 2, "distinct cache slots");
        assert_eq!(h.stats.dropped_by_fault, 0);
        // The plan is static-dead from cycle 0: nothing is ever in
        // flight on the link, so nothing drops — but the link counters
        // must differ (traffic detoured around it).
        assert_ne!(h.stats, f.stats, "the fault must change the run");
        // Re-fetching each key is a pure cache hit onto its own slot.
        let h2 = r.report(&healthy).unwrap();
        let f2 = r.report(&faulty).unwrap();
        assert_eq!(h.stats, h2.stats);
        assert_eq!(f.stats, f2.stats);
        assert_eq!(r.cached_runs(), 2);
    }

    #[test]
    fn keys_quantize_coverage_to_ppm() {
        let part: Partition = "4x4".parse().unwrap();
        let a = RunKey::new(part, StrategyKind::ar(), 240, 0.2500004);
        let b = RunKey::new(part, StrategyKind::ar(), 240, 0.2499996);
        // Sub-ppm noise maps to the same key — and the same workload.
        assert_eq!(a, b);
        assert_eq!(a.coverage_ppm, 250_000);
        assert!(!a.is_full());
        assert!(RunKey::new(part, StrategyKind::auto(), 240, 1.0).is_full());
    }

    #[test]
    fn run_points_dedups_and_fills_cache() {
        let r = Runner::new(Scale::Quick).with_jobs(2);
        let p1 = r.point("4x4", &StrategyKind::ar(), 240);
        let p2 = r.point("4x4", &StrategyKind::ar(), 240);
        let p3 = r.point("4x4", &StrategyKind::dr(), 240);
        r.run_points(&[p1.clone(), p2, p3]);
        assert_eq!(r.cached_runs(), 2);
        // The sequential fetch is now a pure cache hit.
        r.report(&p1).unwrap();
        assert_eq!(r.cached_runs(), 2);
    }

    #[test]
    fn render_hands_each_unit_its_own_results_in_declaration_order() {
        let r = Runner::new(Scale::Quick).with_jobs(2);
        let [ar, dr] = [StrategyKind::ar(), StrategyKind::dr()].map(|s| r.point("4x4", &s, 240));
        let names = |runs: &[RunResult; 2]| {
            runs.each_ref()
                .map(|run| run.as_ref().unwrap().strategy.name())
        };
        let rendered = r.render(vec![
            Unit::new([ar.clone(), dr.clone()], names),
            Unit::new([dr, ar], names),
        ]);
        assert_eq!(rendered, [["AR", "DR"], ["DR", "AR"]]);
        // Both units read both keys: each ran once.
        assert_eq!(r.cached_runs(), 2);
    }

    #[test]
    fn perf_timing_counts_executions_and_cache_hits() {
        let r = Runner::new(Scale::Quick).with_perf(true);
        let p = r.point("4x4", &StrategyKind::ar(), 240);
        let first = r.report(&p).expect("runs");
        assert!(first.perf.is_some(), "profile must ride the report");
        let _ = r.report(&p).expect("cached");
        let t = r.timing();
        assert_eq!(t.points_executed, 1);
        assert_eq!(t.cache_hits, 1);
        assert!(t.execute_secs > 0.0);
    }

    #[test]
    fn perf_off_is_free_and_profile_free() {
        let r = Runner::new(Scale::Quick);
        assert!(!r.perf_enabled());
        let report = r
            .report(&r.point("4x4", &StrategyKind::ar(), 240))
            .expect("runs");
        assert!(report.perf.is_none(), "no profile unless asked");
        assert_eq!(r.timing(), RunnerTiming::default());
    }

    #[test]
    fn perf_does_not_change_results() {
        let plain = Runner::new(Scale::Quick);
        let profiled = Runner::new(Scale::Quick).with_perf(true).with_jobs(2);
        let strategies = [StrategyKind::ar(), StrategyKind::tps()];
        let pts: Vec<RunPoint> = strategies
            .iter()
            .map(|s| profiled.point("4x4", s, 240))
            .collect();
        profiled.run_points(&pts);
        for s in &strategies {
            let a = plain.report(&plain.point("4x4", s, 240)).unwrap();
            let b = profiled.report(&profiled.point("4x4", s, 240)).unwrap();
            assert_eq!(a.cycles, b.cycles, "{}", s.name());
            assert_eq!(a.stats, b.stats, "{}", s.name());
        }
        let t = profiled.timing();
        assert_eq!(t.points_executed, 2);
        assert!(t.queue_wait_secs >= 0.0);
    }

    #[test]
    fn parallel_and_serial_results_match() {
        let strategies = [StrategyKind::ar(), StrategyKind::dr(), StrategyKind::xyz()];
        let serial = Runner::new(Scale::Quick).with_jobs(1);
        let parallel = Runner::new(Scale::Quick).with_jobs(4);
        for r in [&serial, &parallel] {
            let pts: Vec<RunPoint> = strategies.iter().map(|s| r.point("4x4", s, 240)).collect();
            r.run_points(&pts);
        }
        for s in &strategies {
            let a = serial.report(&serial.point("4x4", s, 240)).unwrap();
            let b = parallel.report(&parallel.point("4x4", s, 240)).unwrap();
            assert_eq!(a.cycles, b.cycles, "{}", s.name());
            assert_eq!(a.stats, b.stats, "{}", s.name());
        }
    }

    #[test]
    fn errors_are_cached_too() {
        let r = Runner::new(Scale::Quick);
        let point = r
            .point("4x4", &StrategyKind::ar(), 240)
            .variant("deadlock", |c| {
                c.router.bubble_slack_chunks = 0;
                c.router.vc_fifo_chunks = 32;
                c.watchdog_cycles = 50_000;
            });
        let first = r.report(&point);
        let second = r.report(&point);
        assert_eq!(first, second);
        assert_eq!(r.cached_runs(), 1);
    }
}
