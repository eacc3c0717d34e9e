//! Router microarchitecture behavior tests: bubble rule, escape usage,
//! backpressure, shaping, and watchdog diagnostics.

use bgl_sim::{Engine, NodeProgram, ScriptedProgram, SendSpec, SimConfig, SimError};
use bgl_torus::{Coord, Partition};

fn boxed(p: ScriptedProgram) -> Box<dyn NodeProgram> {
    Box::new(p)
}

/// Build a uniform AA program set: every node sends `k` packets of
/// `chunks` to every other node.
fn uniform(part: &Partition, k: u64, chunks: u8) -> Vec<Box<dyn NodeProgram>> {
    let p = part.num_nodes();
    (0..p)
        .map(|r| {
            let sends: Vec<SendSpec> = (0..p)
                .filter(|&d| d != r)
                .flat_map(|d| {
                    (0..k).map(move |_| SendSpec::adaptive(d, chunks, chunks as u32 * 30))
                })
                .collect();
            boxed(ScriptedProgram::new(sends, (p as u64 - 1) * k))
        })
        .collect()
}

/// Tight reception FIFO throttles but never wedges: heavy fan-in to one
/// node drains with a tiny reception buffer and a slow CPU.
#[test]
fn reception_backpressure_throttles_not_deadlocks() {
    let part: Partition = "4x4".parse().unwrap();
    let mut cfg = SimConfig::new(part);
    cfg.reception_fifo_chunks = 8; // one max packet
    cfg.cpu.chunks_per_cycle = 0.5;
    let programs: Vec<Box<dyn NodeProgram>> = (0..16u32)
        .map(|r| {
            if r == 0 {
                boxed(ScriptedProgram::new(vec![], 15 * 10))
            } else {
                boxed(ScriptedProgram::new(
                    (0..10).map(|_| SendSpec::adaptive(0, 8, 240)).collect(),
                    0,
                ))
            }
        })
        .collect();
    let stats = Engine::new(cfg, programs)
        .run()
        .expect("drains under backpressure");
    assert_eq!(stats.packets_delivered, 150);
    assert!(
        stats.reception_stall_events > 0,
        "backpressure must be visible"
    );
}

/// The bubble escape carries traffic when the dynamic VCs are squeezed.
/// Note the FIFO must be at least `packet + slack` (16 chunks) deep or the
/// bubble rule can never admit a full packet and the escape stays closed.
#[test]
fn escape_vc_used_under_pressure() {
    // An asymmetric torus under a full exchange drives the long-dimension
    // dynamic VCs to sustained fullness — the regime the escape exists for.
    let part: Partition = "8x4x4".parse().unwrap();
    let cfg = SimConfig::new(part);
    let stats = Engine::new(cfg, uniform(&part, 4, 8))
        .run()
        .expect("drains");
    assert!(
        stats.bubble_hops > 0,
        "escape should engage when dynamics are full"
    );
    assert!(
        stats.dynamic_hops > stats.bubble_hops,
        "escape stays the minority path"
    );
}

/// With FIFOs shallower than packet+slack, the bubble rule can never admit
/// a packet: adaptive traffic must survive on dynamic credits alone (and
/// does, on a line).
#[test]
fn sub_slack_fifos_close_the_escape() {
    let part: Partition = "8x1x1".parse().unwrap();
    let mut cfg = SimConfig::new(part);
    cfg.router.vc_fifo_chunks = 8;
    let stats = Engine::new(cfg, uniform(&part, 8, 8))
        .run()
        .expect("drains");
    assert_eq!(stats.bubble_hops, 0);
    assert_eq!(stats.packets_delivered, 8 * 7 * 8);
}

/// Deterministic traffic on a congested ring survives on the bubble rule
/// alone.
#[test]
fn deterministic_ring_congestion_drains() {
    let part: Partition = "8x1x1".parse().unwrap();
    let mut cfg = SimConfig::new(part);
    cfg.router.vc_fifo_chunks = 16;
    let p = part.num_nodes();
    let programs: Vec<Box<dyn NodeProgram>> = (0..p)
        .map(|r| {
            let sends: Vec<SendSpec> = (0..p)
                .filter(|&d| d != r)
                .flat_map(|d| (0..6).map(move |_| SendSpec::deterministic(d, 8, 240)))
                .collect();
            boxed(ScriptedProgram::new(sends, (p as u64 - 1) * 6))
        })
        .collect();
    let stats = Engine::new(cfg, programs)
        .run()
        .expect("bubble rule keeps the ring live");
    assert_eq!(stats.dynamic_hops, 0);
    assert_eq!(stats.packets_delivered, (p as u64) * (p as u64 - 1) * 6);
}

/// Bubble-escape regression on a 2-ary dimension: with size 2 and
/// wraparound, a dimension's plus and minus links both reach the *same*
/// neighbor, the degenerate case for the bubble rule's cyclic-dependency
/// argument. Deterministic (bubble-VC-only) traffic on minimally deep
/// FIFOs (packet + slack) must still drain without deadlock, with the
/// invariant oracle confirming full conservation.
#[test]
fn two_ary_wraparound_deterministic_drains() {
    let part: Partition = "4x2".parse().unwrap();
    let mut cfg = SimConfig::new(part);
    cfg.router.vc_fifo_chunks = 16; // the minimum admitting packet + slack
    cfg.check_invariants = true;
    let p = part.num_nodes();
    let k = 8u64;
    let programs: Vec<Box<dyn NodeProgram>> = (0..p)
        .map(|r| {
            let sends: Vec<SendSpec> = (0..p)
                .filter(|&d| d != r)
                .flat_map(|d| (0..k).map(move |_| SendSpec::deterministic(d, 8, 240)))
                .collect();
            boxed(ScriptedProgram::new(sends, (p as u64 - 1) * k))
        })
        .collect();
    let stats = Engine::new(cfg, programs)
        .run()
        .expect("bubble rule keeps the 2-ary wraparound live");
    assert_eq!(
        stats.dynamic_hops, 0,
        "deterministic traffic is bubble-only"
    );
    assert_eq!(stats.packets_delivered, p as u64 * (p as u64 - 1) * k);
    // Every Y crossing is exactly one hop on the 2-ary dimension.
    assert!(
        stats.hops_taken[1] > 0,
        "wraparound dimension must carry traffic"
    );
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(16))]

    /// Generalization of `two_ary_wraparound_deterministic_drains` to
    /// random k-ary n-dimensional tori (n in 2..=5, mixed extents
    /// including the degenerate 2-ary wraparound where both links of a
    /// dimension reach the same neighbor). Deterministic bubble-VC-only
    /// traffic on minimally deep FIFOs (packet + slack) must drain
    /// without deadlock with the invariant oracle on, every packet
    /// reaching its destination.
    #[test]
    fn bubble_rule_drains_random_nd_tori(
        raw in proptest::collection::vec(2u16..=4, 2..6),
        k in 1u64..=3,
    ) {
        // Cap the node count so the cycle-level run stays fast; excess
        // dimensions collapse to extent 1 (the arity under test is kept).
        let mut dims = raw.clone();
        let mut nodes: u32 = 1;
        for d in dims.iter_mut() {
            if nodes * (*d as u32) > 32 {
                *d = 1;
            }
            nodes *= *d as u32;
        }
        let part = Partition::torus_nd(&dims);
        let mut cfg = SimConfig::new(part);
        cfg.router.vc_fifo_chunks = 16; // the minimum admitting packet + slack
        cfg.check_invariants = true;
        let p = part.num_nodes();
        let programs: Vec<Box<dyn NodeProgram>> = (0..p)
            .map(|r| {
                let sends: Vec<SendSpec> = (0..p)
                    .filter(|&d| d != r)
                    .flat_map(|d| {
                        (0..k).map(move |_| SendSpec::deterministic(d, 8, 240))
                    })
                    .collect();
                boxed(ScriptedProgram::new(sends, (p as u64 - 1) * k))
            })
            .collect();
        let stats = Engine::new(cfg, programs)
            .run()
            .expect("bubble rule keeps the random torus live");
        proptest::prop_assert_eq!(
            stats.dynamic_hops, 0,
            "deterministic traffic is bubble-only"
        );
        proptest::prop_assert_eq!(
            stats.packets_delivered,
            p as u64 * (p as u64 - 1) * k
        );
        proptest::prop_assert_eq!(
            stats.payload_bytes_delivered,
            p as u64 * (p as u64 - 1) * k * 240
        );
    }
}

/// Longest-first shaping override: forcing it on reduces short-dimension
/// hops taken early... observable as identical totals (hops are minimal
/// either way) but a different, valid completion. Both drain and deliver
/// identical payloads.
#[test]
fn shaping_override_preserves_delivery() {
    let part: Partition = "8x4x4".parse().unwrap();
    let run = |bias: bool| {
        let mut cfg = SimConfig::new(part);
        cfg.router.longest_first_bias = bias;
        Engine::new(cfg, uniform(&part, 2, 8))
            .run()
            .expect("drains")
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(off.packets_delivered, on.packets_delivered);
    assert_eq!(off.payload_bytes_delivered, on.payload_bytes_delivered);
    // Minimal routing: per-dimension hop totals match exactly.
    assert_eq!(off.hops_taken, on.hops_taken);
}

/// Watchdog diagnostics carry useful numbers.
#[test]
fn watchdog_reports_live_packets() {
    let part: Partition = "2x1x1".parse().unwrap();
    let mut cfg = SimConfig::new(part);
    cfg.watchdog_cycles = 200;
    // Node 1 expects a packet nobody sends.
    let programs = vec![
        boxed(ScriptedProgram::idle()),
        boxed(ScriptedProgram::new(vec![], 3)),
    ];
    match Engine::new(cfg, programs).run() {
        Err(SimError::Stalled {
            cycle,
            live_packets,
            incomplete_programs,
            ..
        }) => {
            assert!(cycle >= 200);
            assert_eq!(live_packets, 0);
            assert_eq!(incomplete_programs, 1);
        }
        other => panic!("expected stall, got {other:?}"),
    }
}

/// A full exchange with no bubble escape deadlocks: adaptive heads wait on
/// each other's dynamic VCs in a cycle, and the watchdog's report says so —
/// transit heads every output of which the arbiter refuses.
#[test]
fn escapeless_deadlock_reports_hol_blocked_heads() {
    let part: Partition = "8x4x4".parse().unwrap();
    let mut cfg = SimConfig::new(part);
    cfg.router.adaptive_bubble_escape = false;
    cfg.watchdog_cycles = 500;
    match Engine::new(cfg, uniform(&part, 8, 8)).run() {
        Err(SimError::Stalled {
            live_packets,
            breakdown,
            ..
        }) => {
            assert!(live_packets > 0);
            assert!(breakdown.hol_blocked_heads > 0, "{breakdown}");
            assert_eq!(breakdown.fault_blocked_heads, 0, "{breakdown}");
        }
        other => panic!("expected stall, got {other:?}"),
    }
}

/// Cycle limit aborts runaway configurations.
#[test]
fn cycle_limit_enforced() {
    let part: Partition = "4x1x1".parse().unwrap();
    let mut cfg = SimConfig::new(part);
    cfg.max_cycles = 50;
    cfg.watchdog_cycles = 1_000_000;
    // Ensure there is more traffic than 50 cycles can drain.
    match Engine::new(cfg, uniform(&part, 50, 8)).run() {
        Err(SimError::CycleLimit { limit }) => assert_eq!(limit, 50),
        other => panic!("expected cycle limit, got {other:?}"),
    }
}

/// Per-dimension hop statistics equal the analytic minimal hop sums for a
/// full AA (conservation of routing work).
#[test]
fn hop_statistics_match_minimal_routing() {
    let part: Partition = "4x3x2".parse().unwrap();
    let cfg = SimConfig::new(part);
    let stats = Engine::new(cfg, uniform(&part, 1, 2))
        .run()
        .expect("drains");
    let mut want = [0u64; 3];
    for a in part.coords() {
        for b in part.coords() {
            if a == b {
                continue;
            }
            for d in part.dims() {
                want[d.index()] += part.dim_hops(d, a.get(d), b.get(d)) as u64;
            }
        }
    }
    assert_eq!(stats.hops_taken, want);
}

/// Corner placement: traffic between opposite corners of a mesh crosses
/// the full diameter (no wrap shortcut exists).
#[test]
fn mesh_corner_latency_reflects_diameter() {
    let part: Partition = "4Mx4Mx1".parse().unwrap();
    let src = part.rank_of(Coord::new(0, 0, 0));
    let dst = part.rank_of(Coord::new(3, 3, 0));
    let cfg = SimConfig::new(part);
    let mut programs: Vec<Box<dyn NodeProgram>> =
        (0..16).map(|_| boxed(ScriptedProgram::idle())).collect();
    programs[src as usize] = boxed(ScriptedProgram::new(
        vec![SendSpec::adaptive(dst, 1, 30)],
        0,
    ));
    programs[dst as usize] = boxed(ScriptedProgram::new(vec![], 1));
    let stats = Engine::new(cfg, programs).run().expect("drains");
    assert_eq!(stats.hops_taken.iter().sum::<u64>(), 6);
    // Each hop costs at least the packet's wire time.
    assert!(stats.max_latency_cycles >= 6);
}
