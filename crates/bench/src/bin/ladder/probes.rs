//! Micro-probes: one public call of a layer, timed from outside on fixed
//! inputs. They do not depend on the workload; they say what a layer
//! costs per call so that a moved end-to-end number can be attributed.

use crate::report::{ChildReport, Metric};
use bgl_core::{destination_schedule, packetize, peak_cycles_for, AaWorkload};
use bgl_harness::runner::RunKey;
use bgl_harness::{experiments, Runner, Scale};
use bgl_model::MachineParams;
use bgl_sim::{Engine, NodeProgram, ScriptedProgram, SendSpec, SimConfig};
use bgl_torus::{AaLoadAnalysis, HopPlan, Partition, TieBreak};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

/// The seconds one call of `f` takes in the fastest of `BATCHES` batches,
/// each batch timing `calls` calls.
fn secs_per_call(calls: u32, mut f: impl FnMut()) -> f64 {
    const BATCHES: usize = 9;
    (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_secs_f64() / calls as f64
        })
        .fold(f64::INFINITY, f64::min)
}

pub fn run(seed: u64) -> ChildReport {
    let params = MachineParams::bgl();
    let big: Partition = "40x32x16".parse().expect("valid shape");
    let asym: Partition = "8x32x16".parse().expect("valid shape");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut metrics = Vec::new();

    let shapes = ["8x8x8", "8x32x16", "16x8x8", "40x32x16"];
    let per_batch = secs_per_call(200, || {
        for s in shapes {
            black_box(black_box(s).parse::<Partition>().expect("valid shape"));
        }
    });
    metrics.push(Metric::new(
        "torus.shape_parse_ns",
        1e9 * per_batch / shapes.len() as f64,
    ));

    let pairs: Vec<_> = (0..4096)
        .map(|_| {
            let p = big.num_nodes();
            (
                big.coord_of(rng.gen_range(0..p)),
                big.coord_of(rng.gen_range(0..p)),
            )
        })
        .collect();
    let per_batch = secs_per_call(20, || {
        for &(src, dst) in &pairs {
            black_box(HopPlan::new(&big, src, dst, TieBreak::SrcParity));
        }
    });
    metrics.push(Metric::new(
        "torus.hop_plan_ns",
        1e9 * per_batch / pairs.len() as f64,
    ));

    let per_batch = secs_per_call(20, || {
        for r in 0..big.num_nodes() {
            black_box(big.rank_of(big.coord_of(black_box(r))));
        }
    });
    metrics.push(Metric::new(
        "torus.rank_coord_ns",
        1e9 * per_batch / big.num_nodes() as f64,
    ));

    let per_call = secs_per_call(200, || {
        black_box(AaLoadAnalysis::new(black_box(asym)));
    });
    metrics.push(Metric::new("torus.load_analysis_us", 1e6 * per_call));

    let workload = AaWorkload::full(912);
    let per_call = secs_per_call(200, || {
        black_box(peak_cycles_for(&asym, black_box(&workload), &params));
    });
    metrics.push(Metric::new("model.peak_eval_ns", 1e9 * per_call));

    let per_call = secs_per_call(50, || {
        black_box(destination_schedule(17, 4096, 4095, black_box(seed)));
    });
    metrics.push(Metric::new("core.dest_schedule_us", 1e6 * per_call));

    let per_call = secs_per_call(2000, || {
        black_box(packetize(black_box(4096), 48, 64, &params));
    });
    metrics.push(Metric::new("core.packetize_ns", 1e9 * per_call));

    // Every node of an 8-ring streams 250 full packets to its neighbour:
    // what moving a packet over a link and through a FIFO costs when
    // nothing contends. Only `Engine::run` is timed.
    let ring: Partition = "8x1x1".parse().expect("valid shape");
    let ns_per_hop = (0..9)
        .map(|_| {
            let programs: Vec<Box<dyn NodeProgram>> = (0..8u32)
                .map(|r| {
                    let sends = (0..250)
                        .map(|_| SendSpec::adaptive((r + 1) % 8, 8, 240))
                        .collect();
                    Box::new(ScriptedProgram::new(sends, 250)) as Box<dyn NodeProgram>
                })
                .collect();
            let mut engine = Engine::new(SimConfig::new(ring), programs);
            let t = Instant::now();
            let stats = engine.run().expect("the ring stream completes");
            1e9 * t.elapsed().as_secs_f64() / stats.hops_taken.iter().sum::<u64>() as f64
        })
        .fold(f64::INFINITY, f64::min);
    metrics.push(Metric::new("sim.ring_stream_ns_per_hop", ns_per_hop));

    let runner = Runner::new(Scale::Quick);
    let keys: Vec<RunKey> = experiments::ALL_IDS
        .iter()
        .filter_map(|id| experiments::points_by_id(&runner, id))
        .flatten()
        .map(|p| p.key)
        .take(63)
        .collect();
    let per_batch = secs_per_call(200, || {
        for key in &keys {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            key.hash(&mut h);
            black_box(h.finish());
        }
    });
    metrics.push(Metric::new(
        "harness.runkey_hash_ns",
        1e9 * per_batch / keys.len() as f64,
    ));

    ChildReport {
        metrics,
        attempted: 1,
        ..ChildReport::default()
    }
}
