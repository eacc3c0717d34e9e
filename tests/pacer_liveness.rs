//! Pacer liveness: flow control may slow a run down, but it must never
//! deadlock one.
//!
//! Random (shape, strategy, pacer) draws across every strategy class and
//! the whole valid pacer space — unpaced, rate windows down to a quarter
//! of the bisection peak, credit windows down to one packet in flight per
//! intermediate — run a full-coverage exchange on small tori and assert
//! the simulation completes (no `SimError::Stalled`, no cycle-limit
//! blowup) with all payload delivered. This is the machine-checked form
//! of the refactor's core promise: the engine-enforced `FlowSpec` paths
//! (rate gating in the injection pull, credit reserve/ack in the
//! forwarding strategies) cannot wedge the network for any parameter
//! choice that passes `FlowSpec::validate`.
//!
//! Failing draws persist to `proptest-regressions/pacer_liveness.txt`
//! for replay; commit new `cc` lines alongside the fix.

use bgl_alltoall::prelude::*;
use proptest::prelude::*;

/// Every strategy class once; the forwarding schemes (TPS, VMesh, XYZ)
/// exercise the credit reserve/ack path, the direct schemes the rate
/// window alone.
fn strategy_pool() -> [StrategyKind; 6] {
    [
        StrategyKind::mpi(),
        StrategyKind::ar(),
        StrategyKind::dr(),
        StrategyKind::tps(),
        StrategyKind::vmesh(),
        StrategyKind::xyz(),
    ]
}

/// Small 2D/3D tori and meshes: large enough for multi-hop forwarding
/// (VMesh rows/columns, TPS linear phases), small enough that a
/// full-coverage draw stays sub-second.
const SHAPES: [&str; 5] = ["4x4", "4x4x2", "4x4x4", "8x4x2", "4x2x2M"];

/// Decode a pacer from three raw draws. The space covers unpaced, rate
/// factors in [0.25, 2.0], and every valid credit (window, quantum) pair
/// with windows from 1 (full serialization per intermediate) to 16.
fn pacer(kind: u8, num: u8, den: u8) -> Pacer {
    match kind % 3 {
        0 => Pacer::Unpaced,
        1 => Pacer::rate(0.25 + (num % 8) as f64 * 0.25),
        _ => {
            let window = 1 + (num % 16) as u32;
            let every = 1 + (den as u32) % window;
            Pacer::credit(window, every)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any valid pacer on any strategy completes a full-coverage
    /// exchange and delivers every payload byte.
    #[test]
    fn paced_exchanges_never_stall(
        shape_i in 0usize..SHAPES.len(),
        strat_i in 0usize..6,
        kind in any::<u8>(),
        num in any::<u8>(),
        den in any::<u8>(),
        m_i in 0usize..3,
    ) {
        let part: Partition = SHAPES[shape_i].parse().unwrap();
        let strategy = strategy_pool()[strat_i].clone().with_pacer(pacer(kind, num, den));
        let m = [8u64, 64, 240][m_i];
        let workload = AaWorkload::full(m);
        let report = run_aa(part, &workload, &strategy, &MachineParams::bgl(), SimConfig::new(part));
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                return Err(proptest::test_runner::TestCaseError::fail(format!(
                    "{part:?} {} m={m}: {e}",
                    strategy.name()
                )))
            }
        };
        // Liveness plus delivery: the exchange finished and every node's
        // payload reached its destinations (credit acks ride alongside,
        // so delivered bytes are at least the application total).
        let p = part.num_nodes() as u64;
        prop_assert!(report.cycles > 0);
        prop_assert!(
            report.stats.payload_bytes_delivered >= p * (p - 1) * m,
            "short delivery: {} < {}",
            report.stats.payload_bytes_delivered,
            p * (p - 1) * m
        );
    }
}
