//! The four workloads, run inside a child process: inputs generated from
//! the seed, the calls into each layer wrapped in spans, the output
//! checks, and the per-repetition metrics. The parent (`main.rs`) only
//! aggregates what these functions report.

use crate::report::{ChildReport, Metric};
use crate::spans::{total_s, Recorder};
use bgl_core::{
    peak_cycles_for, run_aa, tps_inj_class_masks, AaWorkload, DirectConfig, DirectProgram,
    StrategyKind, TpsConfig, TpsProgram,
};
use bgl_harness::experiments;
use bgl_harness::runner::RunPoint;
use bgl_harness::{run_suite, ExperimentReport, Runner, Scale};
use bgl_model::MachineParams;
use bgl_sim::{
    Engine, EngineMode, FlowSpec, NetStats, NodeProgram, PerfConfig, PerfProfile, PhaseSecs,
    ScriptedProgram, SendSpec, SimConfig,
};
use bgl_torus::{Dim, Partition};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Instant;

/// Four full packets per destination: the all-to-all message size of
/// `asym_tps_8x32x16` and of every toy-size input.
const M_BYTES: u64 = 912;
/// Sixty-four full packets per destination, so that the 64 nodes of
/// `dense_aa_4x4x4` keep every link busy for a quarter of a second.
const DENSE_M_BYTES: u64 = 16 * M_BYTES;
/// Destinations each node of `asym_tps_8x32x16` sends to, of 4,095 peers:
/// a repetition of one second, not of the sixty a full exchange takes.
const ASYM_DESTS: u32 = 4;
/// `setup_s` is the fastest of several set-ups per repetition: the first
/// feeds the measured run; after its clock has stopped, more follow until
/// at least `MIN_SETUPS` and `SETUP_BUDGET_S` of set-up have been timed.
/// A set-up lasts milliseconds or less, so on a shared host the fastest of
/// many is the undisturbed cost, where their median still carries whatever
/// else the host was doing (measured: 2 % against 10 % between windows).
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 400;
const SETUP_BUDGET_S: f64 = 0.03;

/// Time `again` after the `first` set-up until the budget above is met.
fn fastest_setup_s(first: f64, mut again: impl FnMut()) -> f64 {
    let (mut n, mut total, mut fastest) = (1, first, first);
    while n < MAX_SETUPS && (n < MIN_SETUPS || total < SETUP_BUDGET_S) {
        let t = Instant::now();
        again();
        let s = t.elapsed().as_secs_f64();
        n += 1;
        total += s;
        fastest = fastest.min(s);
    }
    fastest
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    /// Toy inputs for `--smoke` and for the discarded warm-up.
    Smoke,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Input {
    /// Full-coverage adaptive-randomized all-to-all.
    DenseAr,
    /// Two Phase Schedule at the quick-scale budgeted coverage.
    AsymTps,
    /// Four rate-paced point-to-point streams on an idle partition.
    Streams,
    /// The quick paper suite through the harness runner.
    Suite,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Measured repetitions of a full set.
    pub reps: u32,
    input: Input,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dense_aa_4x4x4",
        why: "every link busy, state resident in the core's own cache: per-hop router/FIFO/arbitration cost does all the work",
        reps: 20,
        input: Input::DenseAr,
    },
    Workload {
        name: "asym_tps_8x32x16",
        why: "4,096 nodes, working set beyond cache, software forwarding and reserved injection FIFOs in bgl-core",
        reps: 12,
        input: Input::AsymTps,
    },
    Workload {
        name: "sparse_streams_16x8x8",
        why: "almost no packet moves: all time in wake/active-set bookkeeping and idle-cycle stepping",
        reps: 20,
        input: Input::Streams,
    },
    Workload {
        name: "paper_suite_quick",
        why: "what users run: many small engines through the runner's dedupe, cache, pool and report rendering",
        reps: 12,
        input: Input::Suite,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Runner threads of `paper_suite_quick`; every other workload is one
/// simulation on one thread.
pub fn suite_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// `(workload, metric)` of each mode probe: one repetition under a
/// non-default engine mode, timed around `Engine::run`.
pub const MODE_PROBES: [(&str, &str); 4] = [
    ("dense_aa_4x4x4", "sim.full_scan_run_s"),
    ("dense_aa_4x4x4", "sim.event_run_s"),
    ("dense_aa_4x4x4", "sim.shards2_run_s"),
    ("sparse_streams_16x8x8", "sim.event_run_s"),
];

/// The only place the benchmark names an engine mode or a shard count.
/// Everything else runs the default `SimConfig::new(part)`.
fn mode_tweak(metric: &str) -> Option<fn(&mut SimConfig)> {
    Some(match metric {
        "sim.full_scan_run_s" => |cfg| cfg.engine = EngineMode::FullScan,
        "sim.event_run_s" => |cfg| cfg.engine = EngineMode::EventDriven,
        "sim.shards2_run_s" => {
            |cfg| cfg.shards = std::num::NonZeroUsize::new(2).expect("2 is non-zero")
        }
        _ => return None,
    })
}

/// Per-layer rows that are the total duration of one span name.
const SPAN_ROWS: [(&str, &str); 4] = [
    ("core.programs_build_s", "core.build_programs"),
    ("sim.engine_new_s", "sim.engine_new"),
    ("harness.gather_points_s", "harness.gather_points"),
    ("harness.render_s", "harness.render"),
];

/// How one repetition runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass<'a> {
    /// Tracing and `SimConfig::perf` off; reports the end-to-end metrics.
    Measured,
    /// Spans and `SimConfig::perf` on; reports the per-layer rows.
    Traced,
    /// A mode probe: reports only the metric named.
    Mode(&'a str),
}

/// One repetition of workload `w`.
pub fn run_child(w: &Workload, pass: Pass, seed: u64, size: Size) -> ChildReport {
    let mut rec = Recorder::new(pass == Pass::Traced);
    let mut out = if w.input == Input::Suite {
        run_suite_rep(w, pass, seed, size, &mut rec)
    } else {
        run_single_rep(w, pass, seed, size, &mut rec)
    };
    out.spans = rec.finish();
    for (metric, span) in SPAN_ROWS {
        if out.spans.iter().any(|s| s.name == span) {
            out.metrics
                .push(Metric::new(metric, total_s(&out.spans, span)));
        }
    }
    out.failed = (out.failures.len() as u64).min(out.attempted);
    out
}

// ---------------------------------------------------------------------
// Single-simulation workloads
// ---------------------------------------------------------------------

/// A constructed engine plus what the output checks need.
struct Setup {
    part: Partition,
    engine: Engine,
    /// The all-to-all behind the engine; `None` for the streams.
    aa: Option<(AaWorkload, StrategyKind)>,
    /// Payload bytes the run must deliver, as a range: the Two Phase
    /// Schedule forwards in software, so a byte that goes through an
    /// intermediate is delivered twice.
    payload_bytes: std::ops::RangeInclusive<u64>,
    /// The pacer's lower bound on the streams' completion cycle; the
    /// all-to-alls get their Equation-2 peak after the run.
    floor_cycles: f64,
}

impl Workload {
    fn shape(&self, size: Size) -> &'static str {
        match (size, self.input) {
            (Size::Smoke, _) => "4x4x2",
            (Size::Full, Input::DenseAr) => "4x4x4",
            (Size::Full, Input::AsymTps) => "8x32x16",
            (Size::Full, Input::Streams) => "16x8x8",
            (Size::Full, Input::Suite) => unreachable!("the suite names its own shapes"),
        }
    }

    /// Everything before the first simulated cycle: shape parse, program
    /// construction, `Engine::new`. `tweak` edits the otherwise default
    /// `SimConfig::new(part)`.
    fn set_up(
        &self,
        seed: u64,
        size: Size,
        tweak: fn(&mut SimConfig),
        rec: &mut Recorder,
    ) -> Setup {
        let part: Partition = rec.span("torus.parse", || {
            self.shape(size).parse().expect("workload shapes are valid")
        });
        let params = MachineParams::bgl();
        let p = part.num_nodes();
        let mut cfg = SimConfig::new(part);
        let mut aa = None;
        let mut floor_cycles = 0.0;
        let payload_bytes;
        let programs: Vec<Box<dyn NodeProgram>> = match self.input {
            Input::DenseAr => {
                let mut workload = AaWorkload::full(match size {
                    Size::Full => DENSE_M_BYTES,
                    Size::Smoke => M_BYTES,
                });
                workload.seed = seed;
                let sent = p as u64 * workload.dests_per_node(p) as u64 * workload.m_bytes;
                payload_bytes = sent..=sent;
                let direct = DirectConfig::ar(&params);
                let programs = rec.span("core.build_programs", || {
                    (0..p)
                        .map(|r| {
                            Box::new(DirectProgram::new(r, &part, &workload, &direct, &params))
                                as Box<dyn NodeProgram>
                        })
                        .collect()
                });
                aa = Some((workload, StrategyKind::ar()));
                programs
            }
            Input::AsymTps => {
                let mut workload = match size {
                    Size::Full => AaWorkload::sampled(M_BYTES, ASYM_DESTS as f64 / (p - 1) as f64),
                    Size::Smoke => AaWorkload::full(M_BYTES),
                };
                workload.seed = seed;
                let sent = p as u64 * workload.dests_per_node(p) as u64 * M_BYTES;
                payload_bytes = sent..=2 * sent;
                cfg.inj_class_masks = tps_inj_class_masks(cfg.inj_fifo_count);
                let tps = TpsConfig::default();
                let programs = rec.span("core.build_programs", || {
                    (0..p)
                        .map(|r| {
                            Box::new(TpsProgram::new(r, &part, &workload, &tps, &params))
                                as Box<dyn NodeProgram>
                        })
                        .collect()
                });
                aa = Some((workload, StrategyKind::tps()));
                programs
            }
            Input::Streams => {
                const CHUNKS: u8 = 8;
                const PAYLOAD: u32 = 240;
                const CYCLES_PER_CHUNK: f64 = 32.0;
                let packets: u64 = if size == Size::Full { 5_000 } else { 200 };
                cfg.flow = FlowSpec::Rate {
                    chunks_per_cycle: 1.0 / CYCLES_PER_CHUNK,
                };
                let pairs = stream_endpoints(&part, seed);
                let sent = pairs.len() as u64 * packets * PAYLOAD as u64;
                payload_bytes = sent..=sent;
                // The pacer admits one chunk per 32 cycles, so the last
                // of `packets` 8-chunk packets cannot leave before this.
                floor_cycles = (packets - 1) as f64 * CHUNKS as f64 * CYCLES_PER_CHUNK;
                rec.span("core.build_programs", || {
                    let mut programs: Vec<Box<dyn NodeProgram>> = (0..p)
                        .map(|_| Box::new(ScriptedProgram::idle()) as Box<dyn NodeProgram>)
                        .collect();
                    for (src, dst) in pairs {
                        programs[src as usize] = Box::new(ScriptedProgram::new(
                            (0..packets)
                                .map(|_| SendSpec::adaptive(dst, CHUNKS, PAYLOAD))
                                .collect(),
                            0,
                        ));
                        programs[dst as usize] = Box::new(ScriptedProgram::new(vec![], packets));
                    }
                    programs
                })
            }
            Input::Suite => unreachable!("the suite does not build one engine"),
        };
        tweak(&mut cfg);
        let engine = rec.span("sim.engine_new", || Engine::new(cfg, programs));
        Setup {
            part,
            engine,
            aa,
            payload_bytes,
            floor_cycles,
        }
    }
}

/// Four seeded sources, each streaming to the node (+2, +2, +1) away:
/// the endpoints move with the seed, the 5-hop distance (and with it the
/// hop count the normalized metrics divide by) does not.
fn stream_endpoints(part: &Partition, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut used = HashSet::new();
    let mut pairs = Vec::new();
    while pairs.len() < 4 {
        let src = rng.gen_range(0..part.num_nodes());
        let mut c = part.coord_of(src);
        for (dim, step) in [(Dim::X, 2), (Dim::Y, 2), (Dim::Z, 1)] {
            c.set(dim, (c.get(dim) + step) % part.size(dim));
        }
        let dst = part.rank_of(c);
        if !used.contains(&src) && !used.contains(&dst) {
            used.extend([src, dst]);
            pairs.push((src, dst));
        }
    }
    pairs
}

fn run_single_rep(
    w: &Workload,
    pass: Pass,
    seed: u64,
    size: Size,
    rec: &mut Recorder,
) -> ChildReport {
    let tweak: fn(&mut SimConfig) = match pass {
        Pass::Measured => |_| {},
        Pass::Traced => |cfg| cfg.perf = Some(PerfConfig::default()),
        Pass::Mode(metric) => mode_tweak(metric).expect("the parent names known mode probes"),
    };
    let mut failures = Vec::new();

    let t0 = Instant::now();
    let root = rec.begin(w.name);
    let mut setup = w.set_up(seed, size, tweak, rec);
    let first_setup_s = t0.elapsed().as_secs_f64();
    let t_run = Instant::now();
    let result = rec.span("sim.run", || setup.engine.run());
    let run_s = t_run.elapsed().as_secs_f64();
    let stats = result.unwrap_or_else(|e| {
        failures.push(format!("simulation failed: {e}"));
        NetStats::default()
    });
    let mut totals = SimTotals::default();
    totals.add(
        setup.part.num_nodes(),
        &stats,
        setup.engine.take_perf().as_ref(),
    );
    let params = MachineParams::bgl();
    let peak_cycles = rec.span("model.peak", || {
        setup
            .aa
            .as_ref()
            .map_or(0.0, |(wl, _)| peak_cycles_for(&setup.part, wl, &params))
    });
    check_stats(
        &stats,
        &setup.payload_bytes,
        setup.floor_cycles.max(peak_cycles),
        &mut failures,
    );
    if let (Pass::Traced, Some((wl, strategy))) = (pass, &setup.aa) {
        let part = setup.part;
        let reference = rec.span("check.run_aa", || {
            run_aa(part, wl, strategy, &params, SimConfig::new(part))
        });
        if reference.map(|r| r.stats).ok().as_ref() != Some(&stats) {
            failures.push("decomposed path and run_aa disagree on NetStats".into());
        }
    }
    rec.end(root);
    let process = ProcessCost::read(t0);

    let metrics = match pass {
        Pass::Mode(metric) => vec![Metric::new(metric, run_s)],
        Pass::Traced => totals.per_layer_rows(run_s),
        Pass::Measured => {
            let mut quiet = Recorder::new(false);
            let setup_s = fastest_setup_s(first_setup_s, || {
                drop(w.set_up(seed, size, tweak, &mut quiet));
            });
            process.end_to_end_rows(setup_s, run_s, &totals)
        }
    };
    ChildReport {
        metrics,
        fingerprint: fingerprint(&serde_json::to_string(&stats).expect("NetStats serializes")),
        attempted: 1,
        failures,
        ..ChildReport::default()
    }
}

/// Output checks that pin no golden value: conservation, the expected
/// payload, and a physical lower bound on the completion time.
fn check_stats(
    stats: &NetStats,
    payload_bytes: &std::ops::RangeInclusive<u64>,
    floor_cycles: f64,
    failures: &mut Vec<String>,
) {
    if stats.packets_delivered != stats.packets_injected {
        failures.push(format!(
            "{} packets injected, {} delivered",
            stats.packets_injected, stats.packets_delivered
        ));
    }
    if !payload_bytes.contains(&stats.payload_bytes_delivered) {
        failures.push(format!(
            "{} payload bytes delivered, expected {payload_bytes:?}",
            stats.payload_bytes_delivered
        ));
    }
    if (stats.completion_cycle as f64) < floor_cycles {
        failures.push(format!(
            "completed in {} cycles, below the lower bound {floor_cycles:.0}",
            stats.completion_cycle
        ));
    }
}

// ---------------------------------------------------------------------
// The suite
// ---------------------------------------------------------------------

fn suite_ids(size: Size) -> Vec<&'static str> {
    match size {
        // `ablations` holds rows that stall on purpose; every other
        // experiment must complete.
        Size::Full => vec!["table2", "fig4", "fig5", "fig6", "fig7"],
        Size::Smoke => vec!["fig5", "fig6", "fig7"],
    }
}

fn new_runner(seed: u64, perf: bool) -> Runner {
    let mut runner = Runner::new(Scale::Quick)
        .with_jobs(suite_jobs())
        .with_perf(perf);
    runner.seed = seed;
    runner
}

fn gather_points(runner: &Runner, ids: &[&str]) -> Vec<RunPoint> {
    ids.iter()
        .filter_map(|id| experiments::points_by_id(runner, id))
        .flatten()
        .collect()
}

fn render(reports: &[ExperimentReport]) -> String {
    reports.iter().map(|r| r.to_text() + &r.to_csv()).collect()
}

fn run_suite_rep(
    w: &Workload,
    pass: Pass,
    seed: u64,
    size: Size,
    rec: &mut Recorder,
) -> ChildReport {
    let traced = pass == Pass::Traced;
    let ids = suite_ids(size);
    let mut failures = Vec::new();
    let mut metrics = Vec::new();

    let t0 = Instant::now();
    let root = rec.begin(w.name);
    let runner = new_runner(seed, traced);
    let points = rec.span("harness.gather_points", || gather_points(&runner, &ids));
    let first_setup_s = t0.elapsed().as_secs_f64();

    let t_run = Instant::now();
    let (reports, rendered) = if traced {
        rec.span("harness.run_points", || runner.run_points(&points));
        rec.span("harness.render", || {
            let reports: Vec<ExperimentReport> = ids
                .iter()
                .filter_map(|id| experiments::run_by_id(&runner, id))
                .collect();
            let rendered = render(&reports);
            (reports, rendered)
        })
    } else {
        let reports = run_suite(&runner, &ids);
        let rendered = render(&reports);
        (reports, rendered)
    };
    let suite_s = t_run.elapsed().as_secs_f64();
    for report in reports.iter().filter(|r| r.rows.is_empty()) {
        failures.push(format!("report {} has no rows", report.id));
    }
    for _ in reports.len()..ids.len() {
        failures.push("an experiment report is missing".into());
    }
    if traced {
        metrics = harness_rows(&runner, &ids, suite_s, &rendered, &mut failures, rec);
    }
    let (totals, distinct) = tally_points(&runner, &points, &mut failures);
    rec.end(root);
    let process = ProcessCost::read(t0);

    if traced {
        metrics.extend(totals.per_layer_rows(suite_s));
    } else {
        let setup_s = fastest_setup_s(first_setup_s, || {
            drop(gather_points(&new_runner(seed, false), &ids));
        });
        metrics = process.end_to_end_rows(setup_s, suite_s, &totals);
    }
    ChildReport {
        metrics,
        fingerprint: fingerprint(&format!(
            "{rendered}{} {} {}",
            totals.cycles, totals.hops, totals.delivered
        )),
        attempted: (distinct + ids.len()) as u64,
        failures,
        ..ChildReport::default()
    }
}

/// The runner's own accounting of the cold batch, then a second
/// `run_suite` on the same runner: the pure cache-hit path, whose reports
/// must equal the decomposed ones.
fn harness_rows(
    runner: &Runner,
    ids: &[&str],
    suite_s: f64,
    rendered: &str,
    failures: &mut Vec<String>,
    rec: &mut Recorder,
) -> Vec<Metric> {
    let cold = runner.timing();
    let t_warm = Instant::now();
    let again = rec.span("harness.warm_rerun", || run_suite(runner, ids));
    let warm_s = t_warm.elapsed().as_secs_f64();
    let warm = runner.timing();
    if render(&again) != rendered {
        failures.push("decomposed suite and run_suite disagree on the reports".into());
    }
    let hits = (warm.cache_hits - cold.cache_hits) as f64;
    let misses = (warm.points_executed - cold.points_executed) as f64;
    vec![
        Metric::new("harness.points_executed", cold.points_executed as f64),
        Metric::new("harness.cache_hits", cold.cache_hits as f64),
        Metric::new("harness.queue_wait_s", cold.queue_wait_secs),
        Metric::new("harness.execute_s", cold.execute_secs),
        Metric::new(
            "harness.parallel_efficiency",
            cold.execute_secs / (suite_jobs() as f64 * suite_s),
        ),
        Metric::new(
            "harness.points_per_s",
            cold.points_executed as f64 / suite_s,
        ),
        Metric::new("harness.warm_rerun_s", warm_s),
        Metric::new("harness.cache_hit_frac", hits / (hits + misses)),
    ]
}

/// Sums over the distinct declared points of a finished suite, and their
/// number. A point whose cached result is an error is a failed operation.
fn tally_points(
    runner: &Runner,
    points: &[RunPoint],
    failures: &mut Vec<String>,
) -> (SimTotals, usize) {
    let mut seen = HashSet::new();
    let mut totals = SimTotals::default();
    for point in points.iter().filter(|p| seen.insert(&p.key)) {
        match runner.report(point) {
            Ok(report) => {
                if report.stats.packets_delivered != report.stats.packets_injected {
                    failures.push(format!("{:?}: packets lost", point.key));
                }
                totals.add(
                    point.key.part.num_nodes(),
                    &report.stats,
                    report.perf.as_ref(),
                );
            }
            Err(e) => failures.push(format!("{:?}: {e}", point.key)),
        }
    }
    (totals, seen.len())
}

// ---------------------------------------------------------------------
// Rows shared by every workload
// ---------------------------------------------------------------------

/// `NetStats` counts and `PerfProfile` times of one run, or summed over
/// a suite's points.
#[derive(Default)]
struct SimTotals {
    cycles: u64,
    hops: u64,
    delivered: u64,
    node_cycles: f64,
    run_s: f64,
    stepped_cycles: u64,
    skipped_cycles: u64,
    phases: PhaseSecs,
}

impl SimTotals {
    fn add(&mut self, nodes: u32, stats: &NetStats, perf: Option<&PerfProfile>) {
        self.cycles += stats.completion_cycle;
        self.hops += stats.hops_taken.iter().sum::<u64>();
        self.delivered += stats.packets_delivered;
        self.node_cycles += nodes as f64 * stats.completion_cycle as f64;
        if let Some(perf) = perf {
            self.run_s += perf.total_secs;
            self.stepped_cycles += perf.stepped_cycles;
            self.skipped_cycles += perf.skipped_cycles();
            self.phases.add(&perf.phase_totals());
        }
    }

    /// `timed_s` is what `ns_per_hop` divides: the `Engine::run` wall of
    /// a single run, the suite wall of the suite.
    fn per_layer_rows(&self, timed_s: f64) -> Vec<Metric> {
        let mut rows = vec![
            Metric::new("timed_s", timed_s),
            Metric::new("sim.run_s", self.run_s),
            Metric::new("sim.cycles", self.cycles as f64),
            Metric::new("sim.packet_hops", self.hops as f64),
            Metric::new("sim.packets_delivered", self.delivered as f64),
            Metric::new("sim.stepped_cycles", self.stepped_cycles as f64),
            Metric::new("sim.skipped_cycles", self.skipped_cycles as f64),
        ];
        for (label, secs) in self.phases.named() {
            rows.push(Metric::new(&format!("sim.phase.{label}_s"), secs));
        }
        rows
    }
}

/// What the operating system charged this process for the repetition.
struct ProcessCost {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
}

impl ProcessCost {
    /// Read at the end of a repetition that started at `t0`.
    fn read(t0: Instant) -> ProcessCost {
        ProcessCost {
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds(),
            peak_rss_mb: peak_rss_mb(),
        }
    }

    fn end_to_end_rows(&self, setup_s: f64, timed_s: f64, totals: &SimTotals) -> Vec<Metric> {
        vec![
            Metric::new("wall_s", self.wall_s),
            Metric::new("cpu_s", self.cpu_s),
            Metric::new("setup_s", setup_s),
            Metric::new("ns_per_hop", 1e9 * timed_s / totals.hops as f64),
            Metric::new("ns_per_node_cycle", 1e9 * timed_s / totals.node_cycles),
            Metric::new("peak_rss_mb", self.peak_rss_mb),
            Metric::new("timed_s", timed_s),
        ]
    }
}

/// User + system CPU seconds of this process, all threads, ended ones
/// included. `/proc/self/stat` counts the same in 10 ms ticks, too coarse
/// for a repetition of half a second, and `std` has no other reading, so
/// this calls the C library `std` already links.
fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is a valid, exclusive `struct timespec` (two 64-bit
    // fields on every 64-bit Linux) for the length of the call.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "the process CPU clock is readable");
    time.sec as f64 + time.nsec as f64 * 1e-9
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has a VmHWM line");
    kb / 1024.0
}

/// Hash of the outputs every repetition must reproduce exactly
/// (`DefaultHasher::new()` is keyed with constants, so children agree).
fn fingerprint(text: &str) -> String {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    text.hash(&mut h);
    format!("{:016x}", h.finish())
}
