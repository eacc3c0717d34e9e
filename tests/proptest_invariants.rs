//! Property-based tests over the core data structures and the simulator's
//! conservation/termination invariants.

use bgl_alltoall::core::{destination_schedule, packetize, total_chunks};
use bgl_alltoall::prelude::*;
use bgl_alltoall::sim::{Engine, NodeProgram, ScriptedProgram, SendSpec};
use bgl_alltoall::torus::{AaLoadAnalysis, HopPlan, TieBreak};
use proptest::prelude::*;

/// Arbitrary small partitions: sizes 1..=6 per dimension, random wrap
/// flags, at least 2 nodes.
fn small_partition() -> impl Strategy<Value = Partition> {
    (1u16..=6, 1u16..=6, 1u16..=6, any::<[bool; 3]>())
        .prop_filter("need two nodes", |(x, y, z, _)| {
            (*x as u32) * (*y as u32) * (*z as u32) >= 2
        })
        .prop_map(|(x, y, z, wrap)| Partition::new(&[x, y, z], &wrap))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// HopPlan always produces the minimal distance, and walking it in
    /// dimension order lands exactly on the destination.
    #[test]
    fn hop_plans_are_minimal_and_complete(part in small_partition(), a in 0u32..1000, b in 0u32..1000) {
        let p = part.num_nodes();
        let src = part.coord_of(a % p);
        let dst = part.coord_of(b % p);
        let mut plan = HopPlan::new(&part, src, dst, TieBreak::SrcParity);
        prop_assert_eq!(plan.total_hops(), part.hops(src, dst));
        let mut here = src;
        let mut steps = 0;
        while let Some(dir) = plan.dimension_order_next() {
            here = part.neighbor(here, dir).expect("minimal step stays on partition");
            plan.advance(dir.dim);
            steps += 1;
            prop_assert!(steps <= 64, "plan must terminate");
        }
        prop_assert_eq!(here, dst);
    }

    /// Rank/coordinate mapping is a bijection.
    #[test]
    fn rank_coord_bijection(part in small_partition()) {
        let mut seen = std::collections::HashSet::new();
        for r in 0..part.num_nodes() {
            let c = part.coord_of(r);
            prop_assert!(part.contains(c));
            prop_assert_eq!(part.rank_of(c), r);
            prop_assert!(seen.insert(c));
        }
    }

    /// The load analysis is positive on the bottleneck and symmetric
    /// partitions have equal per-dimension loads.
    #[test]
    fn load_analysis_sanity(part in small_partition()) {
        let a = AaLoadAnalysis::new(part);
        prop_assert!(a.bottleneck().load_factor > 0.0);
        for d in part.dims() {
            if part.size(d) <= 1 {
                prop_assert_eq!(a.dims[d.index()].load_factor, 0.0);
            }
        }
        if part.is_symmetric() {
            let active: Vec<f64> = part
                .dims()
                .filter(|&d| part.size(d) > 1)
                .map(|d| a.dims[d.index()].load_factor)
                .collect();
            for w in active.windows(2) {
                prop_assert!((w[0] - w[1]).abs() < 1e-9);
            }
        }
    }

    /// Packetization conserves payload exactly and never exceeds the wire
    /// format's limits.
    #[test]
    fn packetize_invariants(m in 0u64..100_000, header in prop::sample::select(vec![8u32, 48])) {
        let params = MachineParams::bgl();
        let shapes = packetize(m, header, 32, &params);
        prop_assert_eq!(shapes.iter().map(|s| s.payload as u64).sum::<u64>(), m);
        for s in &shapes {
            prop_assert!(s.chunks >= 1 && s.chunks <= 8);
        }
        // Wire bytes cover payload + header.
        prop_assert!(total_chunks(&shapes) * 32 >= m + header as u64);
    }

    /// A destination order visits `dests` (clamped to `1..P`) distinct
    /// peers, never itself, each in range, one per stratum of the offsets
    /// (stratum `j` is `[⌊j·(P−1)/dests⌋, ⌊(j+1)·(P−1)/dests⌋)`, offset
    /// `o` being peer `(rank + 1 + o) % P`), and at full coverage every
    /// peer once.
    #[test]
    fn schedule_invariants(p in 2u32..600, rank in 0u32..600, dests in 1u32..600, seed in any::<u64>()) {
        let rank = rank % p;
        let order = destination_schedule(rank, p, dests, seed);
        let dests = dests.min(p - 1);
        prop_assert_eq!(order.len(), dests);
        let s: Vec<u32> = order.iter().collect();
        prop_assert_eq!(s.len() as u32, dests);
        let set: std::collections::HashSet<u32> = s.iter().copied().collect();
        prop_assert_eq!(set.len(), s.len(), "duplicates");
        prop_assert!(!set.contains(&rank), "self-send");
        prop_assert!(s.iter().all(|&d| d < p));
        let start = |j: u32| (u64::from(j) * u64::from(p - 1) / u64::from(dests)) as u32;
        let mut strata = vec![0u32; dests as usize];
        for &d in &s {
            let offset = (d + p - rank - 1) % p;
            let j = (0..dests).rev().find(|&j| start(j) <= offset).unwrap();
            strata[j as usize] += 1;
        }
        prop_assert!(strata.iter().all(|&n| n == 1), "{:?}", strata);
        if dests == p - 1 {
            let mut all: Vec<u32> = s.clone();
            all.sort_unstable();
            let peers: Vec<u32> = (0..p).filter(|&d| d != rank).collect();
            prop_assert_eq!(all, peers);
        }
    }

    /// The virtual mesh factorization always tiles the machine exactly.
    #[test]
    fn vmesh_tiles_partition(part in small_partition()) {
        let vm = VirtualMesh::choose(part);
        prop_assert_eq!(vm.pvx() * vm.pvy(), part.num_nodes());
        let mut seen = std::collections::HashSet::new();
        for row in 0..vm.pvy() {
            for pos in 0..vm.pvx() {
                let c = vm.node_at(row, pos);
                prop_assert!(part.contains(c));
                prop_assert!(seen.insert(c));
                prop_assert_eq!(vm.row_of(c), row);
                prop_assert_eq!(vm.pos_in_row(c), pos);
            }
        }
    }

    /// Simulator conservation: random sparse traffic always drains, every
    /// packet is delivered exactly once, and the run is deterministic.
    #[test]
    fn random_traffic_conserves_and_terminates(
        part in small_partition(),
        pairs in prop::collection::vec((any::<u32>(), any::<u32>(), 1u8..=8), 1..40),
    ) {
        let p = part.num_nodes();
        let cfg = SimConfig::new(part);
        let mut sends: Vec<Vec<SendSpec>> = vec![Vec::new(); p as usize];
        let mut expected: Vec<u64> = vec![0; p as usize];
        let mut total = 0u64;
        for (a, b, chunks) in pairs {
            let src = a % p;
            let dst = b % p;
            if src == dst {
                continue;
            }
            sends[src as usize].push(SendSpec::adaptive(dst, chunks, chunks as u32 * 30));
            expected[dst as usize] += 1;
            total += 1;
        }
        let build = || -> Vec<Box<dyn NodeProgram>> {
            (0..p as usize)
                .map(|i| {
                    Box::new(ScriptedProgram::new(sends[i].clone(), expected[i]))
                        as Box<dyn NodeProgram>
                })
                .collect()
        };
        let s1 = Engine::new(cfg.clone(), build()).run().expect("drains");
        prop_assert_eq!(s1.packets_injected, total);
        prop_assert_eq!(s1.packets_delivered, total);
        let s2 = Engine::new(cfg, build()).run().expect("drains");
        prop_assert_eq!(s1, s2);
    }

    /// Percent-of-peak from a real run never exceeds the Equation-2 bound
    /// by more than numerical noise, for random small AAs.
    #[test]
    fn equation2_is_an_upper_bound(
        dims in (2u16..=4, 2u16..=4, 1u16..=4),
        m in prop::sample::select(vec![32u64, 240, 480]),
    ) {
        let part = Partition::torus(dims.0, dims.1, dims.2);
        if part.num_nodes() < 2 {
            return Ok(());
        }
        let r = run_aa(
            part,
            &AaWorkload::full(m),
            &StrategyKind::ar(),
            &MachineParams::bgl(),
            SimConfig::new(part),
        ).expect("completes");
        prop_assert!(r.percent_of_peak <= 103.0, "{}", r.percent_of_peak);
    }
}
