//! Quickstart: run one all-to-all on a simulated BG/L midplane and print
//! how close it gets to the Equation-2 peak.
//!
//! ```text
//! cargo run --release --example quickstart [shape] [m_bytes] [strategy]
//! cargo run --release --example quickstart 8x32x16 1872 tps
//! ```

use bgl_alltoall::prelude::*;

fn parse_strategy(name: &str) -> StrategyKind {
    match name.to_ascii_lowercase().as_str() {
        "ar" => StrategyKind::ar(),
        "dr" => StrategyKind::dr(),
        "mpi" => StrategyKind::mpi(),
        "throttle" => StrategyKind::throttled(1.0),
        "tps" => StrategyKind::tps(),
        "vmesh" => StrategyKind::vmesh(),
        "xyz" => StrategyKind::xyz(),
        "auto" => StrategyKind::auto(),
        other => panic!("unknown strategy {other:?} (ar|dr|mpi|throttle|tps|vmesh|xyz|auto)"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let shape = args.first().map(String::as_str).unwrap_or("8x8x8");
    let m: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(912);
    let strategy = parse_strategy(args.get(2).map(String::as_str).unwrap_or("auto"));

    let part: Partition = shape.parse().expect("shape like 8x8x8 or 8x8x2M");
    let params = MachineParams::bgl();

    // Keep the demo snappy on big shapes by sampling destinations.
    let p = part.num_nodes();
    let coverage = (200_000.0 / p as f64).clamp(0.02, 1.0).min(1.0);
    let workload = if coverage >= 1.0 {
        AaWorkload::full(m)
    } else {
        AaWorkload::sampled(m, coverage)
    };

    println!(
        "partition {part} ({p} nodes, {}), {m} B per destination, strategy {}",
        if part.is_symmetric() {
            "symmetric"
        } else {
            "asymmetric"
        },
        strategy.name(),
    );
    let report = run_aa(part, &workload, &strategy, &params, SimConfig::new(part))
        .expect("simulation completes");
    println!("  resolved strategy : {}", report.strategy.name());
    println!(
        "  completion        : {} cycles = {:.3} ms",
        report.cycles,
        report.time_secs * 1e3
    );
    println!("  percent of peak   : {:.1} %", report.percent_of_peak);
    println!(
        "  per-node bandwidth: {:.1} MB/s (peak {:.1})",
        report.per_node_bandwidth / 1e6,
        bgl_alltoall::model::peak::peak_per_node_bandwidth(&part, &params) / 1e6
    );
    println!(
        "  delivered         : {} packets, {} payload bytes",
        report.stats.packets_delivered, report.stats.payload_bytes_delivered
    );
}
