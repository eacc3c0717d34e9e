//! `HopPlan`'s hint bits pinned against the plan they replaced: a sign per
//! dimension beside the hop counts, with the forward distance taken by
//! `rem_euclid`. Every route of a set of shapes that mixes torus, mesh,
//! size-2 and size-1 dimensions and arities 1 to 6 is walked in dimension
//! order and in a seeded random minimal order, and at every step each query
//! must agree with the reference, and the longest dimensions' hint bits
//! with the hop-count walk they replaced.

use bgl_torus::{Coord, Dim, Direction, HopPlan, Partition, Sign, TieBreak, MAX_DIMS};

/// The hop plan as it was before the hint bits, verbatim but for its name,
/// its visibility and its doc comments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SignedPlan {
    signs: [Sign; MAX_DIMS],
    hops: [u16; MAX_DIMS],
}

impl SignedPlan {
    fn new(part: &Partition, src: Coord, dst: Coord, tie: TieBreak) -> SignedPlan {
        let mut signs = [Sign::Plus; MAX_DIMS];
        let mut hops = [0u16; MAX_DIMS];
        for d in part.dims() {
            let (sign, h) = dim_route_by_remainder(part, d, src.get(d), dst.get(d), tie);
            signs[d.index()] = sign;
            hops[d.index()] = h;
        }
        SignedPlan { signs, hops }
    }

    fn hops(&self, dim: Dim) -> u16 {
        self.hops[dim.index()]
    }

    fn sign(&self, dim: Dim) -> Sign {
        self.signs[dim.index()]
    }

    fn direction(&self, dim: Dim) -> Option<Direction> {
        if self.hops(dim) > 0 {
            Some(Direction::new(dim, self.sign(dim)))
        } else {
            None
        }
    }

    fn total_hops(&self) -> u32 {
        self.hops.iter().map(|&h| h as u32).sum()
    }

    fn is_done(&self) -> bool {
        self.hops == [0; MAX_DIMS]
    }

    fn minimal_directions(&self) -> impl Iterator<Item = Direction> + '_ {
        Dim::all(MAX_DIMS).filter_map(|d| self.direction(d))
    }

    fn advance(&mut self, dim: Dim) {
        debug_assert!(self.hops(dim) > 0, "advancing exhausted dimension {dim}");
        self.hops[dim.index()] -= 1;
    }

    fn dimension_order_next(&self) -> Option<Direction> {
        self.minimal_directions().next()
    }
}

/// The single-dimension route as it was, verbatim but for its name.
fn dim_route_by_remainder(
    part: &Partition,
    dim: Dim,
    a: u16,
    b: u16,
    tie: TieBreak,
) -> (Sign, u16) {
    let s = part.size(dim);
    if a == b {
        return (Sign::Plus, 0);
    }
    if !part.is_torus_dim(dim) {
        let sign = if b > a { Sign::Plus } else { Sign::Minus };
        return (sign, (b as i32 - a as i32).unsigned_abs() as u16);
    }
    let fwd = (b as i32 - a as i32).rem_euclid(s as i32) as u16;
    let bwd = s - fwd;
    match fwd.cmp(&bwd) {
        std::cmp::Ordering::Less => (Sign::Plus, fwd),
        std::cmp::Ordering::Greater => (Sign::Minus, bwd),
        std::cmp::Ordering::Equal => {
            let sign = match tie {
                TieBreak::AlwaysPlus => Sign::Plus,
                TieBreak::AlwaysMinus => Sign::Minus,
                TieBreak::SrcParity => {
                    if a.is_multiple_of(2) {
                        Sign::Plus
                    } else {
                        Sign::Minus
                    }
                }
            };
            (sign, fwd)
        }
    }
}

/// The longest-first router's preferred directions as the engine's request
/// mask computed them before `HopPlan::longest_dirs`, verbatim but for its
/// receiver and the lowest hint bit it OR-ed in: a walk over the hop counts.
fn longest_by_hop_counts(part: &Partition, plan: &SignedPlan) -> u16 {
    let dims = || part.dims();
    let longest = dims().map(|o| plan.hops(o)).max().unwrap_or(0);
    let mut shaped = 0;
    for d in dims().filter_map(|o| plan.direction(o)) {
        if plan.hops(d.dim) >= longest {
            shaped |= 1 << d.index();
        }
    }
    shaped
}

const TIES: [TieBreak; 3] = [
    TieBreak::AlwaysPlus,
    TieBreak::AlwaysMinus,
    TieBreak::SrcParity,
];

/// Every query of `plan` agrees with `reference`, and the hint bits are the
/// OR of the per-dimension directions.
fn assert_same(plan: &HopPlan, reference: &SignedPlan, at: impl Fn() -> String) {
    assert_eq!(plan.is_done(), reference.is_done(), "{}", at());
    assert_eq!(plan.total_hops(), reference.total_hops(), "{}", at());
    assert_eq!(
        plan.dimension_order_next(),
        reference.dimension_order_next(),
        "{}",
        at()
    );
    let minimal: Vec<_> = plan.minimal_directions().collect();
    let expected: Vec<_> = reference.minimal_directions().collect();
    assert_eq!(minimal, expected, "{}", at());
    let mut dirs = 0u16;
    for dim in Dim::all(MAX_DIMS) {
        assert_eq!(plan.hops(dim), reference.hops(dim), "{} {dim}", at());
        assert_eq!(
            plan.direction(dim),
            reference.direction(dim),
            "{} {dim}",
            at()
        );
        if reference.hops(dim) > 0 {
            assert_eq!(plan.sign(dim), reference.sign(dim), "{} {dim}", at());
        }
        dirs |= plan.direction(dim).map_or(0, |d| 1 << d.index());
    }
    assert_eq!(plan.dirs(), dirs, "{}", at());
}

/// A SplitMix64 step: the walk's seeded choice among minimal directions.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn hint_bits_agree_with_the_signed_plan_along_every_route() {
    // A ring of odd size (the parser takes 2 to 6 sizes), then mesh and
    // torus mixed, asymmetric, size 2 and 1, four and six dimensions.
    let ring = std::iter::once(Partition::torus_nd(&[7]));
    let parsed = ["5Mx4", "6x3x4", "2x1x3", "3x4Mx2x3", "2x3x2x2x2x3"].map(|s| s.parse().unwrap());
    let mut rng = 20261025u64;
    let mut steps = 0u64;
    for part in ring.chain(parsed) {
        let shape = part.to_string();
        for tie in TIES {
            for src in part.coords() {
                for dst in part.coords() {
                    for random in [false, true] {
                        let mut plan = HopPlan::new(&part, src, dst, tie);
                        let mut reference = SignedPlan::new(&part, src, dst, tie);
                        let mut here = src;
                        loop {
                            let at = || format!("{shape} {tie:?} {src:?}->{dst:?} at {here:?}");
                            assert_same(&plan, &reference, at);
                            let longest = longest_by_hop_counts(&part, &reference);
                            assert_eq!(plan.longest_dirs(), longest, "{}", at());
                            steps += 1;
                            let options: Vec<_> = reference.minimal_directions().collect();
                            let Some(&dir) = (if random {
                                options.get(next(&mut rng) as usize % options.len().max(1))
                            } else {
                                options.first()
                            }) else {
                                break;
                            };
                            here = part.neighbor(here, dir).expect("minimal step stays on");
                            plan.advance(dir.dim);
                            reference.advance(dir.dim);
                        }
                        assert_eq!(here, dst, "{shape} {tie:?} {src:?}->{dst:?}");
                    }
                }
            }
        }
    }
    // Every step checked, none skipped by an early exit: 805,650 at writing.
    assert!(steps > 800_000, "{steps} steps");
}

#[test]
fn forward_distance_by_compare_matches_the_remainder() {
    for s in 1..=64u16 {
        for wrap in [true, false] {
            let part = Partition::new(&[s], &[wrap]);
            for tie in TIES {
                for a in 0..s {
                    for b in 0..s {
                        let (src, dst) = (Coord::from_slice(&[a]), Coord::from_slice(&[b]));
                        let plan = HopPlan::new(&part, src, dst, tie);
                        let reference = SignedPlan::new(&part, src, dst, tie);
                        assert_same(&plan, &reference, || format!("s={s} wrap={wrap} {a}->{b}"));
                    }
                }
            }
        }
    }
}
