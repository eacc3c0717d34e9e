//! Helpers shared by the simulator's integration tests. The one
//! differential helper: every test that claims "the clock mode and the
//! observers cannot change a result" says so by calling [`run_modes`]:
//! `engine_equivalence.rs` and `event_engine.rs` beside this file, and —
//! through `#[path]` — the workspace fuzzer `tests/engine_equivalence.rs`.
//! And the one uniform all-to-all program set, [`uniform`].
#![allow(dead_code)] // each including test crate uses its own subset

use bgl_sim::{
    Engine, EngineMode, EventPerf, NetStats, NodeProgram, PerfConfig, PerfProfile, ScriptedProgram,
    SendSpec, SimConfig, SimError, Trace, TraceConfig,
};
use bgl_torus::Partition;

/// A uniform all-to-all: every node sends `k` packets of `chunks` chunks
/// (30 payload bytes per chunk) to every other node, deterministically or
/// adaptively routed, and expects as many from each.
pub fn uniform(
    part: &Partition,
    k: u64,
    chunks: u8,
    deterministic: bool,
) -> Vec<Box<dyn NodeProgram>> {
    let p = part.num_nodes();
    let send = if deterministic {
        SendSpec::deterministic
    } else {
        SendSpec::adaptive
    };
    (0..p)
        .map(|r| {
            let sends = (0..p)
                .filter(|&d| d != r)
                .flat_map(|d| (0..k).map(move |_| send(d, chunks, chunks as u32 * 30)));
            let expect = (p as u64 - 1) * k;
            Box::new(ScriptedProgram::new(sends.collect(), expect)) as Box<dyn NodeProgram>
        })
        .collect()
}

/// The values each axis takes, beside the two engine modes; the helper
/// runs their full cross product.
#[derive(Clone, Copy)]
pub struct Axes<'a> {
    /// `SimConfig::trace` sampling intervals; `None` is tracing off.
    pub trace: &'a [Option<u64>],
    /// `SimConfig::check_invariants`.
    pub oracle: &'a [bool],
    /// `SimConfig::perf`.
    pub perf: &'a [bool],
}

impl Axes<'static> {
    /// Both modes, every observer off.
    pub const MODES: Axes<'static> = Axes {
        trace: &[None],
        oracle: &[false],
        perf: &[false],
    };
}

/// What one run shows the comparison.
pub struct Cell {
    pub result: Result<NetStats, SimError>,
    pub trace: Option<Trace>,
    pub perf: Option<PerfProfile>,
}

/// Run `programs` on a bare engine.
pub fn engine_cell(cfg: SimConfig, programs: Vec<Box<dyn NodeProgram>>) -> Cell {
    let mut engine = Engine::new(cfg, programs);
    let result = engine.run();
    Cell {
        result,
        trace: engine.take_trace(),
        perf: engine.take_perf(),
    }
}

/// `(cpu_parked, arb_parked)` of `p`.
pub fn parked(p: &PerfProfile) -> (u64, u64) {
    let [_, (_, cpu), _, (_, arb), _] = p.visit_totals();
    (cpu, arb)
}

/// Run `base` under every engine mode × every combination of `axes`. Each
/// cell's whole `Result` — `NetStats` byte for byte, or the same
/// `SimError` — must equal the reference's: full-scan, every observer
/// off. Traced cells must also agree on the series, sample for sample,
/// failed runs included (a traced stall also carries the series' tail,
/// which the bare reference lacks: it is compared with the first traced
/// cell at the interval instead), and a completed run's busy deltas must
/// sum to its totals; profiled cells must carry a structurally consistent
/// profile, in which the full scan — the reference — visited every node
/// in every stepped cycle, parked nothing and skipped nothing. Returns
/// the reference.
pub fn run_modes(
    base: &SimConfig,
    axes: Axes<'_>,
    run: impl Fn(SimConfig) -> Cell,
) -> Result<NetStats, SimError> {
    let reference_cell = (EngineMode::FullScan, None, false, false);
    let configure = |(mode, trace, oracle, perf): (_, Option<u64>, bool, bool)| {
        let mut cfg = base.clone();
        cfg.engine = mode;
        cfg.trace = trace.map(TraceConfig::every);
        cfg.check_invariants = oracle;
        cfg.perf = perf.then(PerfConfig::default);
        cfg
    };
    let reference = run(configure(reference_cell)).result;
    // The first traced cell at an interval sets the result and the series
    // for the rest.
    let mut series: Vec<(u64, Result<NetStats, SimError>, Trace)> = Vec::new();
    let mut cells = Vec::new();
    for &trace in axes.trace {
        for &oracle in axes.oracle {
            for &perf in axes.perf {
                for mode in EngineMode::ALL {
                    cells.push((mode, trace, oracle, perf));
                }
            }
        }
    }
    for id in cells.into_iter().filter(|&id| id != reference_cell) {
        let (mode, trace, oracle, perf) = id;
        let ctx = format!(
            "{} {mode} trace={trace:?} oracle={oracle} perf={perf}",
            base.partition
        );
        let cell = run(configure(id));
        let mut bare = cell.result.clone();
        if let Err(SimError::Stalled { trace_tail, .. }) = &mut bare {
            trace_tail.clear();
        }
        assert_eq!(bare, reference, "{ctx} vs the bare full scan");
        assert_eq!(cell.trace.is_some(), trace.is_some(), "{ctx}: trace");
        if let (Some(got), Some(every)) = (cell.trace, trace) {
            if let Ok(stats) = &cell.result {
                assert_eq!(
                    got.link_busy_totals(),
                    stats.link_busy_chunks,
                    "{ctx}: busy deltas must sum to the totals"
                );
            }
            match series.iter().find(|(e, ..)| *e == every) {
                Some((_, result, want)) => {
                    assert_eq!(&cell.result, result, "{ctx}: traced result");
                    assert_eq!(&got, want, "{ctx}: trace series");
                }
                None => series.push((every, cell.result, got)),
            }
        }
        assert_eq!(cell.perf.is_some(), perf, "{ctx}: profile");
        if let Some(p) = &cell.perf {
            assert!(p.stepped_cycles > 0, "{ctx}: cycles were stepped");
            if mode == EngineMode::FullScan {
                let nodes = u64::from(base.partition.num_nodes());
                assert_eq!(
                    p.cpu_visits,
                    nodes * p.stepped_cycles,
                    "{ctx}: the full scan visits every node"
                );
                assert_eq!(parked(p), (0, 0), "{ctx}: the full scan never parks");
                assert_eq!(p.event, EventPerf::default(), "{ctx}: nor skips");
            }
        }
    }
    reference
}
