//! Many-to-many communication patterns beyond the uniform all-to-all.
//!
//! The paper closes its introduction hoping "the performance analysis and
//! the optimization techniques presented in this paper can be also applied
//! for more complex many-to-many communication patterns". This module
//! makes that checkable: it defines a family of patterns, generalizes the
//! Equation-2 bottleneck analysis to any of them (numerically, per directed
//! link class, from the engine's own minimal routes), and runs them
//! through the simulator with the direct runtime.

use crate::walk::SendWalk;
use crate::workload::{Framing, Shuffle};
use bgl_model::MachineParams;
use bgl_sim::{Engine, NodeProgram, RoutingMode, ScriptedProgram, SimConfig, SimError};
use bgl_torus::{HopPlan, Partition, Rank, TieBreak};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A many-to-many pattern: who sends `m` bytes to whom.
#[derive(Debug, Clone, PartialEq)]
pub enum Pattern {
    /// The uniform all-to-all (for cross-checking against `run_aa`).
    AllToAll,
    /// Rank `i` sends to `(i + offset) mod P` — a single permutation,
    /// the classic neighbour/shift exchange.
    Shift {
        /// Rank-space offset.
        offset: u32,
    },
    /// Matrix-transpose exchange: viewing ranks as an `r × c` matrix
    /// (`r·c = P`), rank `(i, j)` sends to rank `(j, i)` of the transposed
    /// shape. Degenerates to a permutation; the canonical FFT building
    /// block.
    Transpose {
        /// Matrix rows (must divide `P`).
        rows: u32,
    },
    /// Every node sends to `degree` random distinct destinations (random
    /// sparse many-to-many; seeded, so deterministic).
    RandomPairs {
        /// Destinations per node.
        degree: u32,
    },
    /// All-to-all restricted to each plane orthogonal to a dimension
    /// (sub-communicator collectives).
    PlaneAllToAll {
        /// The fixed dimension (planes are orthogonal to it).
        fixed: bgl_torus::Dim,
    },
}

impl Pattern {
    /// Destination list of `rank` under this pattern (no self-sends).
    pub fn destinations(&self, part: &Partition, rank: Rank, seed: u64) -> Vec<Rank> {
        let p = part.num_nodes();
        match self {
            Pattern::AllToAll => (0..p).filter(|&d| d != rank).collect(),
            Pattern::Shift { offset } => {
                // Widen before adding: a near-u32::MAX offset must reduce
                // mod P, not overflow. Offsets ≡ 0 (mod P) are self-sends
                // and yield the empty pattern.
                let d = ((rank as u64 + *offset as u64) % p as u64) as Rank;
                if d == rank {
                    vec![]
                } else {
                    vec![d]
                }
            }
            Pattern::Transpose { rows } => {
                // A rows value that does not factor P (or rows == 0)
                // admits no transpose pairing: the pattern is empty, not
                // a panic — degenerate inputs must stay runnable (they
                // come in from the CLI).
                if *rows == 0 || !p.is_multiple_of(*rows) {
                    return vec![];
                }
                let cols = p / rows;
                let (i, j) = (rank / cols, rank % cols);
                let d = j * rows + i;
                if d == rank {
                    vec![]
                } else {
                    vec![d]
                }
            }
            Pattern::RandomPairs { degree } => {
                let mut rng = SmallRng::seed_from_u64(
                    seed ^ (rank as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
                );
                let degree = (*degree).min(p - 1);
                let mut set = std::collections::HashSet::new();
                while (set.len() as u32) < degree {
                    let d = rng.gen_range(0..p);
                    if d != rank {
                        set.insert(d);
                    }
                }
                let mut v: Vec<Rank> = set.into_iter().collect();
                v.sort_unstable();
                v
            }
            Pattern::PlaneAllToAll { fixed } => {
                let me = part.coord_of(rank);
                part.coords()
                    .filter(|c| c.get(*fixed) == me.get(*fixed) && *c != me)
                    .map(|c| part.rank_of(c))
                    .collect()
            }
        }
    }

    /// Generalized Equation-2 peak: the busiest directed link class's time
    /// for this pattern, in cycles for `m` bytes per pair. A class is one
    /// dimension's links in one direction; each pair loads the classes its
    /// route takes, planned as the engine plans it ([`HopPlan::new`] under
    /// [`TieBreak::SrcParity`], which splits the half-way tie by source
    /// parity), and a class's links share its bytes evenly. A lower bound
    /// on any healthy run: adaptivity picks the order of a route's
    /// dimensions, never their directions.
    pub fn peak_cycles(&self, part: &Partition, m: u64, params: &MachineParams, seed: u64) -> f64 {
        let mut class_bytes = vec![0f64; part.ports()];
        for src in 0..part.num_nodes() {
            let a = part.coord_of(src);
            for dst in self.destinations(part, src, seed) {
                let plan = HopPlan::new(part, a, part.coord_of(dst), TieBreak::SrcParity);
                for d in part.dims() {
                    if let Some(dir) = plan.direction(d) {
                        class_bytes[dir.index()] += plan.hops(d) as f64 * m as f64;
                    }
                }
            }
        }
        let mut worst: f64 = 0.0;
        for dir in part.directions() {
            let links = part.directed_links(dir.dim) / 2;
            if links > 0 {
                worst = worst.max(class_bytes[dir.index()] / links as f64);
            }
        }
        worst / params.payload_bytes_per_cycle()
    }

    /// Total (src, dst) pairs in this pattern.
    pub fn pair_count(&self, part: &Partition, seed: u64) -> u64 {
        (0..part.num_nodes())
            .map(|r| self.destinations(part, r, seed).len() as u64)
            .sum()
    }
}

/// Result of running a pattern through the simulator.
#[derive(Debug, Clone)]
pub struct PatternReport {
    /// Completion cycles.
    pub cycles: u64,
    /// Generalized-Equation-2 peak cycles (0 when the pattern is empty).
    pub peak_cycles: f64,
    /// `100·peak/measured`, or 0 for empty patterns.
    pub percent_of_peak: f64,
    /// Pairs exchanged.
    pub pairs: u64,
    /// Raw stats.
    pub stats: bgl_sim::NetStats,
}

/// Run `pattern` with `m` bytes per pair using the direct (AR-style)
/// runtime: randomized destination order, adaptive routing, per-message α.
pub fn run_pattern(
    part: Partition,
    pattern: &Pattern,
    m: u64,
    params: &MachineParams,
    base: SimConfig,
    seed: u64,
) -> Result<PatternReport, SimError> {
    let framing = Framing::direct(m, params);
    let alpha = params.cpu_to_sim_cycles(params.alpha_direct_cycles);
    let programs: Vec<Box<dyn NodeProgram>> = (0..part.num_nodes())
        .map(|r| {
            let pairs = pattern.destinations(&part, r, seed);
            // Randomized order, through the AR runtime's shuffle.
            let order = Shuffle::new(pairs.len() as u32, seed ^ (r as u64) << 1);
            let dests = (0..order.len())
                .map(|i| pairs[order.at(i) as usize])
                .collect();
            // The AR walk, scripted up front: round-major, α on packet 0.
            let sends = SendWalk::new(dests, framing, 1, alpha)
                .map(|s| s.send(s.target, RoutingMode::Adaptive));
            Box::new(ScriptedProgram::new(sends.collect(), 0)) as Box<dyn NodeProgram>
        })
        .collect();
    let mut cfg = base;
    cfg.partition = part;
    // The bound holds on a healthy run (a detour leaves the planned
    // directions): checked with the oracle, as `run_aa` checks Equation 2.
    let check_peak = cfg.check_invariants && cfg.fault.is_empty();
    let stats = Engine::new(cfg, programs).run()?;
    let peak = pattern.peak_cycles(&part, m, params, seed);
    let cycles = stats.completion_cycle;
    assert!(
        !check_peak || cycles as f64 >= peak,
        "invariant violated: {pattern:?} on {part} finished in {cycles} cycles, under its \
         directed-link peak of {peak:.1}"
    );
    let pairs = pattern.pair_count(&part, seed);
    Ok(PatternReport {
        cycles,
        peak_cycles: peak,
        percent_of_peak: bgl_model::percent_of_peak(peak, cycles as f64),
        pairs,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgl_torus::Dim;

    fn part() -> Partition {
        "4x4x2".parse().unwrap()
    }

    #[test]
    fn all_to_all_matches_analytic_peak() {
        let p = part();
        let params = MachineParams::bgl();
        let numeric = Pattern::AllToAll.peak_cycles(&p, 480, &params, 0);
        let analytic = crate::peak_cycles_for(&p, &crate::AaWorkload::full(480), &params);
        assert!(
            (numeric - analytic).abs() / analytic < 1e-9,
            "{numeric} vs {analytic}"
        );
    }

    #[test]
    fn shift_is_a_permutation() {
        let p = part();
        for r in 0..p.num_nodes() {
            let d = Pattern::Shift { offset: 5 }.destinations(&p, r, 0);
            assert_eq!(d.len(), 1);
        }
        // Offset 0 sends nothing.
        assert!(Pattern::Shift { offset: 0 }
            .destinations(&p, 3, 0)
            .is_empty());
    }

    #[test]
    fn square_transpose_is_an_involution() {
        let p: Partition = "4x4".parse().unwrap();
        let t = Pattern::Transpose { rows: 4 };
        for r in 0..p.num_nodes() {
            for d in t.destinations(&p, r, 0) {
                let back = t.destinations(&p, d, 0);
                assert_eq!(back, vec![r]);
            }
        }
    }

    #[test]
    fn rectangular_transpose_is_a_bijection() {
        let p = part();
        let t = Pattern::Transpose { rows: 8 };
        let mut seen = std::collections::HashSet::new();
        for r in 0..p.num_nodes() {
            let d = t.destinations(&p, r, 0);
            // Either a single destination or a fixed point (skipped).
            let target = d.first().copied().unwrap_or(r);
            assert!(seen.insert(target), "rank {target} hit twice");
        }
        assert_eq!(seen.len() as u32, p.num_nodes());
    }

    #[test]
    fn random_pairs_are_distinct_and_seeded() {
        let p = part();
        let a = Pattern::RandomPairs { degree: 7 }.destinations(&p, 3, 42);
        let b = Pattern::RandomPairs { degree: 7 }.destinations(&p, 3, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 7);
        assert!(!a.contains(&3));
    }

    #[test]
    fn plane_all_to_all_stays_in_plane() {
        let p = part();
        let pat = Pattern::PlaneAllToAll { fixed: Dim::Z };
        for r in 0..p.num_nodes() {
            let me = p.coord_of(r);
            let dests = pat.destinations(&p, r, 0);
            assert_eq!(dests.len(), 15); // 4x4 plane minus self
            for d in dests {
                assert_eq!(p.coord_of(d).get(Dim::Z), me.get(Dim::Z));
            }
        }
    }

    #[test]
    fn degenerate_patterns_are_empty_not_panics() {
        let p: Partition = "4x4".parse().unwrap();
        let params = MachineParams::bgl();
        // rows values that do not divide P (including 0) give the empty
        // pattern everywhere, with a zero peak and zero pairs.
        for rows in [0u32, 3, 7, 17] {
            let t = Pattern::Transpose { rows };
            for r in 0..p.num_nodes() {
                assert!(t.destinations(&p, r, 0).is_empty(), "rows={rows}");
            }
            assert_eq!(t.pair_count(&p, 0), 0);
            assert_eq!(t.peak_cycles(&p, 240, &params, 0), 0.0);
        }
        // A shift whose offset is ≡ 0 (mod P) is self-send only: empty.
        for offset in [0u32, 16, 32] {
            assert!(Pattern::Shift { offset }.destinations(&p, 5, 0).is_empty());
        }
        // Huge offsets reduce mod P instead of overflowing the add.
        let d = Pattern::Shift { offset: u32::MAX }.destinations(&p, 0, 0);
        assert_eq!(d, vec![15]);
    }

    #[test]
    fn empty_pattern_runs_to_completion() {
        let p: Partition = "4x4".parse().unwrap();
        let rep = run_pattern(
            p,
            &Pattern::Transpose { rows: 7 },
            240,
            &MachineParams::bgl(),
            SimConfig::new(p),
            7,
        )
        .expect("empty pattern completes");
        assert_eq!(rep.pairs, 0);
        assert_eq!(rep.stats.packets_delivered, 0);
        assert_eq!(rep.percent_of_peak, 0.0);
    }

    #[test]
    fn patterns_run_and_respect_their_peaks() {
        let p = part();
        let params = MachineParams::bgl();
        for pattern in [
            Pattern::Shift { offset: 3 },
            Pattern::Transpose { rows: 8 },
            Pattern::RandomPairs { degree: 6 },
            Pattern::PlaneAllToAll { fixed: Dim::Z },
        ] {
            // With the oracle on, `run_pattern` asserts the bound itself.
            let mut cfg = SimConfig::new(p);
            cfg.check_invariants = true;
            let rep = run_pattern(p, &pattern, 480, &params, cfg, 7).expect("pattern completes");
            assert_eq!(
                rep.stats.packets_delivered,
                rep.pairs * Framing::direct(480, &params).packets() as u64,
                "{pattern:?}"
            );
            assert!(
                rep.percent_of_peak > 15.0 && rep.percent_of_peak <= 102.0,
                "{pattern:?}: {}",
                rep.percent_of_peak
            );
        }
    }

    /// A shift by one along a ring crosses only `+X` links: 912 bytes per
    /// node at 30 payload bytes a cycle bound it at 30.4 cycles, twice what
    /// a bound over both directions says, and the run comes within 10 %.
    #[test]
    fn a_shift_is_bound_by_its_one_direction() {
        let p: Partition = "8x1x1".parse().unwrap();
        let mut cfg = SimConfig::new(p);
        cfg.check_invariants = true;
        let shift = Pattern::Shift { offset: 1 };
        let rep = run_pattern(p, &shift, 912, &MachineParams::bgl(), cfg, 7).expect("completes");
        assert!((rep.peak_cycles - 30.4).abs() < 1e-9, "{}", rep.peak_cycles);
        assert!(rep.percent_of_peak >= 90.0, "{}", rep.percent_of_peak);
    }

    #[test]
    fn plane_aa_efficiency_is_high() {
        // A plane AA on a symmetric plane behaves like Table 1's 2-D rows.
        let p: Partition = "4x4x4".parse().unwrap();
        let params = MachineParams::bgl();
        let rep = run_pattern(
            p,
            &Pattern::PlaneAllToAll { fixed: Dim::Z },
            912,
            &params,
            SimConfig::new(p),
            7,
        )
        .expect("completes");
        assert!(rep.percent_of_peak > 60.0, "{}", rep.percent_of_peak);
    }
}
