//! Domain example: the all-to-all at the heart of a distributed 3-D FFT.
//!
//! A pencil-decomposed 3-D FFT of an `N³` grid on `P` nodes transposes the
//! grid between FFT stages; each transpose is an all-to-all personalized
//! exchange of `N³·16/P²` bytes per node pair (complex doubles). This
//! example sizes that exchange for a few grids, picks the paper's best
//! strategy for the machine shape, and reports what fraction of the FFT's
//! run time the communication would claim.
//!
//! ```text
//! cargo run --release --example fft_transpose [shape] [grid_n]
//! ```

use bgl_alltoall::prelude::*;

/// Bytes each node sends to each other node in one transpose of an
/// `n³` complex-double grid over `p` nodes.
fn transpose_bytes_per_pair(n: u64, p: u64) -> u64 {
    let total = n * n * n * 16; // complex f64
    (total / (p * p)).max(1)
}

/// Crude per-node FFT compute estimate: `5·N³·log2(N³)/P` flops at an
/// optimistic 2.8 GFLOP/s per node (700 MHz dual FPU).
fn fft_compute_secs(n: u64, p: u64) -> f64 {
    let n3 = (n * n * n) as f64;
    5.0 * n3 * n3.log2() / p as f64 / 2.8e9
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let shape = args.first().map(String::as_str).unwrap_or("8x8x8");
    let part: Partition = shape.parse().expect("valid shape");
    let p = part.num_nodes() as u64;
    let params = MachineParams::bgl();

    let grids: Vec<u64> = match args.get(1).and_then(|s| s.parse().ok()) {
        Some(n) => vec![n],
        None => vec![128, 256, 512],
    };

    println!("3-D FFT transpose on {part} ({p} nodes)\n");
    println!(
        "{:>6} {:>12} {:>10} {:>9} {:>12} {:>12} {:>8}",
        "grid", "m/pair (B)", "strategy", "% peak", "comm (ms)", "compute (ms)", "comm %"
    );
    for n in grids {
        let m = transpose_bytes_per_pair(n, p);
        let strategy = StrategyKind::auto();
        // Sample destinations on large machines to keep the demo quick.
        let coverage = (150_000.0 / p as f64).clamp(0.02, 1.0);
        let workload = if coverage >= 1.0 {
            AaWorkload::full(m)
        } else {
            AaWorkload::sampled(m, coverage)
        };
        let report = run_aa(part, &workload, &strategy, &params, SimConfig::new(part))
            .expect("simulation completes");
        // One FFT does two transposes; extrapolate sampled runs.
        let comm_ms = 2.0 * report.time_secs * 1e3 / report.workload.coverage;
        let comp_ms = fft_compute_secs(n, p) * 1e3;
        println!(
            "{:>6} {:>12} {:>10} {:>9.1} {:>12.2} {:>12.2} {:>7.1}%",
            format!("{n}^3"),
            m,
            report.strategy.name(),
            report.percent_of_peak,
            comm_ms,
            comp_ms,
            100.0 * comm_ms / (comm_ms + comp_ms)
        );
    }
    println!("\nSmall grids are latency/overhead bound (combining wins); large grids are");
    println!("bisection bound, where the direct/TPS schedules run near the Equation-2 peak.");
}
