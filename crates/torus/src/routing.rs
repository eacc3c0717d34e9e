//! Minimal-path routing math: per-dimension hop plans, tie-breaking on the
//! torus "equator", and dimension-ordered (dimension 0 first) next-hop
//! selection.
//!
//! The simulator's routers consume [`HopPlan`]s carried in packet headers.
//! A plan fixes, at injection time, the number of hops remaining per
//! dimension and, as BG/L's hint bits do, one bit per direction the packet
//! still has to travel: bit [`Direction::index`] is set while that
//! dimension has hops left and cleared by the hop that reaches the
//! destination's coordinate. A router reads the packet's candidate outputs
//! off those bits without walking the hop counts, and checks them against
//! the mask of its own live links: a minimal plan's bits never name a
//! missing link, since a mesh dimension travels straight towards the
//! destination and a size-1 dimension has no hops. Adaptive routing may
//! service the dimensions in any order; deterministic routing services them
//! in increasing dimension order (X, Y, Z on a 3D machine, continuing
//! through D3..D5 on higher-dimensional ones), the lowest set bit.

use crate::coord::{Coord, Dim, Direction, Sign, MAX_DIMS};
use crate::partition::Partition;

/// How to break the direction tie on an even-sized torus dimension when the
/// destination is exactly `S/2` hops away (both directions are minimal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TieBreak {
    /// Always travel in the plus direction. Simple but loads plus links
    /// ~`S/(S-2)`× more than minus links on even tori.
    AlwaysPlus,
    /// Always travel in the minus direction.
    AlwaysMinus,
    /// Travel plus from even source coordinates and minus from odd ones.
    /// Deterministic, and balances the two directions across sources — this
    /// is what production randomized all-to-alls achieve statistically.
    #[default]
    SrcParity,
}

/// A packet's routing state: remaining hops per dimension and the hint
/// bits, the directions it still travels.
///
/// `hops[d] == 0` means the packet needs no movement along `d`, and then
/// neither of `d`'s two direction bits is set; otherwise exactly one is,
/// the travel sign. [`dirs`](Self::dirs) is every such bit and
/// [`longest_dirs`](Self::longest_dirs) those of the dimensions with the
/// most hops left. The hop array is fixed at [`MAX_DIMS`] so the plan
/// stays a small `Copy` value (14 bytes) inside packet headers; dimensions
/// beyond the partition's arity simply carry zero hops and no bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HopPlan {
    hops: [u16; MAX_DIMS],
    /// Bit `Direction::index()` per direction with hops left.
    dirs: u16,
}

impl HopPlan {
    /// Build the minimal plan from `src` to `dst` on `part`.
    ///
    /// On torus dimensions the shorter way around is chosen, with `tie`
    /// deciding exact-half distances; mesh dimensions always travel directly
    /// towards the destination.
    pub fn new(part: &Partition, src: Coord, dst: Coord, tie: TieBreak) -> HopPlan {
        let mut plan = HopPlan {
            hops: [0; MAX_DIMS],
            dirs: 0,
        };
        for d in part.dims() {
            let (sign, h) = dim_route(part, d, src.get(d), dst.get(d), tie);
            plan.hops[d.index()] = h;
            plan.dirs |= u16::from(h > 0) << Direction::new(d, sign).index();
        }
        plan
    }

    /// Where this plan leads from `from`: the inverse of [`HopPlan::new`]
    /// under every tie-break, since the plan carries the sign it chose. A
    /// packet's plan is always the route from the node holding it, so that
    /// node and the plan name its destination.
    pub fn destination(&self, part: &Partition, from: Coord) -> Coord {
        let mut to = from;
        for d in part.dims() {
            let h = u32::from(self.hops(d));
            if h > 0 {
                let (a, s) = (u32::from(from.get(d)), u32::from(part.size(d)));
                // A mesh plan never wraps, so the same formula serves it.
                let b = match self.sign(d) {
                    Sign::Plus => (a + h) % s,
                    Sign::Minus => (a + s - h) % s,
                };
                to.set(d, b as u16);
            }
        }
        to
    }

    /// The plan to the same destination from the neighbour one hop along
    /// `dir` on a torus dimension this plan travels the other way: the rest
    /// of the ring, `size - 1 - hops` hops in `dir`'s sign. It is not
    /// minimal, and [`destination`](Self::destination) inverts it.
    pub fn long_way(&self, part: &Partition, dir: Direction) -> HopPlan {
        let i = dir.dim.index();
        let h = part.size(dir.dim) - 1 - self.hops[i];
        let mut plan = *self;
        plan.hops[i] = h;
        plan.dirs = plan.dirs & !(3 << (2 * i)) | u16::from(h > 0) << dir.index();
        plan
    }

    /// Remaining hops along `dim`.
    #[inline]
    pub fn hops(&self, dim: Dim) -> u16 {
        self.hops[dim.index()]
    }

    /// The hint bits: bit [`Direction::index`] is set for each direction
    /// the packet still travels, one per dimension with hops left.
    #[inline]
    pub fn dirs(&self) -> u16 {
        self.dirs
    }

    /// The hint bits of the dimensions with the most hops left: the
    /// directions a longest-first router prefers (0 on arrival).
    #[inline]
    pub fn longest_dirs(&self) -> u16 {
        let longest = self.hops.iter().max().copied().unwrap_or(0);
        let dims = (0..MAX_DIMS).filter(|&i| self.hops[i] == longest);
        self.dirs & dims.fold(0, |m, i| m | 3 << (2 * i))
    }

    /// Travel sign along `dim` (only meaningful while `hops(dim) > 0`).
    #[inline]
    pub fn sign(&self, dim: Dim) -> Sign {
        if self.dirs >> Direction::new(dim, Sign::Minus).index() & 1 != 0 {
            Sign::Minus
        } else {
            Sign::Plus
        }
    }

    /// The outgoing direction along `dim`, or `None` if that dimension is
    /// already satisfied.
    #[inline]
    pub fn direction(&self, dim: Dim) -> Option<Direction> {
        match self.dirs >> (2 * dim.index()) & 3 {
            0 => None,
            1 => Some(Direction::new(dim, Sign::Plus)),
            _ => Some(Direction::new(dim, Sign::Minus)),
        }
    }

    /// Total hops remaining across all dimensions.
    #[inline]
    pub fn total_hops(&self) -> u32 {
        self.hops.iter().map(|&h| h as u32).sum()
    }

    /// Whether the packet has arrived (no hops remaining anywhere).
    #[inline]
    pub fn is_done(&self) -> bool {
        self.dirs == 0
    }

    /// All directions the packet may minimally take from here (dimensions
    /// with hops remaining), in increasing dimension order: the set hint
    /// bits, ascending.
    pub fn minimal_directions(&self) -> impl Iterator<Item = Direction> {
        let mut dirs = self.dirs;
        std::iter::from_fn(move || {
            (dirs != 0).then(|| {
                let d = Direction::from_index(dirs.trailing_zeros() as usize);
                dirs &= dirs - 1;
                d
            })
        })
    }

    /// Consume one hop along `dim`; the hop that exhausts it clears the
    /// dimension's hint bit.
    ///
    /// # Panics
    /// Panics (in debug builds) if no hops remain along `dim`.
    #[inline]
    pub fn advance(&mut self, dim: Dim) {
        debug_assert!(self.hops(dim) > 0, "advancing exhausted dimension {dim}");
        let h = &mut self.hops[dim.index()];
        *h -= 1;
        if *h == 0 {
            self.dirs &= !(3 << (2 * dim.index()));
        }
    }

    /// The next direction under dimension-ordered (X, then Y, then Z)
    /// deterministic routing, or `None` on arrival: the lowest hint bit.
    #[inline]
    pub fn dimension_order_next(&self) -> Option<Direction> {
        (self.dirs != 0).then(|| Direction::from_index(self.dirs.trailing_zeros() as usize))
    }
}

/// Minimal route along a single dimension: `(sign, hops)`.
fn dim_route(part: &Partition, dim: Dim, a: u16, b: u16, tie: TieBreak) -> (Sign, u16) {
    let s = part.size(dim);
    if a == b {
        return (Sign::Plus, 0);
    }
    if !part.is_torus_dim(dim) {
        let sign = if b > a { Sign::Plus } else { Sign::Minus };
        return (sign, (b as i32 - a as i32).unsigned_abs() as u16);
    }
    // Both coordinates lie in `0..s`: the forward distance wraps at most
    // once, so a compare replaces the modulo.
    let fwd = if b > a { b - a } else { s - (a - b) };
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

/// Dimension-ordered route enumeration, mainly for tests and debugging: the
/// exact sequence of coordinates a deterministically routed packet visits.
#[derive(Debug, Clone)]
pub struct DimensionOrder;

impl DimensionOrder {
    /// Full node path (inclusive of both endpoints) from `src` to `dst`
    /// under X→Y→Z dimension order.
    pub fn path(part: &Partition, src: Coord, dst: Coord, tie: TieBreak) -> Vec<Coord> {
        let mut plan = HopPlan::new(part, src, dst, tie);
        let mut here = src;
        let mut out = vec![src];
        while let Some(dir) = plan.dimension_order_next() {
            here = part
                .neighbor(here, dir)
                .expect("minimal plan stepped off the partition");
            plan.advance(dir.dim);
            out.push(here);
        }
        out
    }

    /// Walk the X→Y→Z dimension-ordered route from `src` to `dst` and
    /// return the first hop refused by `is_dead(rank, direction)`, or
    /// `None` when the whole path is alive. Deterministic routing has no
    /// freedom to steer around a dead link, so one refused hop on this
    /// path means the pair is unreachable — this is the static
    /// reachability preflight used by fault-injection runs.
    pub fn first_blocked(
        part: &Partition,
        src: Coord,
        dst: Coord,
        tie: TieBreak,
        is_dead: impl Fn(u32, Direction) -> bool,
    ) -> Option<(u32, Direction)> {
        let mut plan = HopPlan::new(part, src, dst, tie);
        let mut here = src;
        while let Some(dir) = plan.dimension_order_next() {
            let rank = part.rank_of(here);
            if is_dead(rank, dir) {
                return Some((rank, dir));
            }
            here = part
                .neighbor(here, dir)
                .expect("minimal plan stepped off the partition");
            plan.advance(dir.dim);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t888() -> Partition {
        Partition::torus(8, 8, 8)
    }

    #[test]
    fn plan_hops_match_partition_hops() {
        let p = t888();
        let a = Coord::new(1, 2, 3);
        let b = Coord::new(6, 2, 0);
        let plan = HopPlan::new(&p, a, b, TieBreak::SrcParity);
        assert_eq!(plan.total_hops(), p.hops(a, b));
    }

    #[test]
    fn plan_to_self_is_done() {
        let p = t888();
        let c = Coord::new(3, 3, 3);
        let plan = HopPlan::new(&p, c, c, TieBreak::SrcParity);
        assert!(plan.is_done());
        assert_eq!(plan.dimension_order_next(), None);
        assert_eq!(plan.minimal_directions().count(), 0);
    }

    #[test]
    fn torus_takes_short_way_round() {
        let p = t888();
        let plan = HopPlan::new(
            &p,
            Coord::new(7, 0, 0),
            Coord::new(1, 0, 0),
            TieBreak::AlwaysPlus,
        );
        assert_eq!(plan.hops(Dim::X), 2);
        assert_eq!(plan.sign(Dim::X), Sign::Plus);
        let plan = HopPlan::new(
            &p,
            Coord::new(1, 0, 0),
            Coord::new(7, 0, 0),
            TieBreak::AlwaysPlus,
        );
        assert_eq!(plan.hops(Dim::X), 2);
        assert_eq!(plan.sign(Dim::X), Sign::Minus);
    }

    #[test]
    fn mesh_never_wraps() {
        let p: Partition = "8Mx8x8".parse().unwrap();
        let plan = HopPlan::new(
            &p,
            Coord::new(7, 0, 0),
            Coord::new(0, 0, 0),
            TieBreak::AlwaysPlus,
        );
        assert_eq!(plan.hops(Dim::X), 7);
        assert_eq!(plan.sign(Dim::X), Sign::Minus);
    }

    #[test]
    fn tie_break_variants() {
        let p = t888();
        let even = Coord::new(0, 0, 0);
        let odd = Coord::new(1, 0, 0);
        let half_even = Coord::new(4, 0, 0);
        let half_odd = Coord::new(5, 0, 0);
        assert_eq!(
            HopPlan::new(&p, even, half_even, TieBreak::AlwaysPlus).sign(Dim::X),
            Sign::Plus
        );
        assert_eq!(
            HopPlan::new(&p, even, half_even, TieBreak::AlwaysMinus).sign(Dim::X),
            Sign::Minus
        );
        assert_eq!(
            HopPlan::new(&p, even, half_even, TieBreak::SrcParity).sign(Dim::X),
            Sign::Plus
        );
        assert_eq!(
            HopPlan::new(&p, odd, half_odd, TieBreak::SrcParity).sign(Dim::X),
            Sign::Minus
        );
    }

    #[test]
    fn src_parity_balances_equator_traffic() {
        // On an even torus line, SrcParity sends exactly half the
        // equator-distance pairs each way.
        let p = Partition::torus_nd(&[8]);
        let mut plus = 0;
        let mut minus = 0;
        for a in 0..8u16 {
            let b = (a + 4) % 8;
            let plan = HopPlan::new(
                &p,
                Coord::new(a, 0, 0),
                Coord::new(b, 0, 0),
                TieBreak::SrcParity,
            );
            match plan.sign(Dim::X) {
                Sign::Plus => plus += 1,
                Sign::Minus => minus += 1,
            }
        }
        assert_eq!(plus, 4);
        assert_eq!(minus, 4);
    }

    #[test]
    fn advance_consumes_hops() {
        let p = t888();
        let mut plan = HopPlan::new(
            &p,
            Coord::new(0, 0, 0),
            Coord::new(2, 1, 0),
            TieBreak::SrcParity,
        );
        assert_eq!(plan.total_hops(), 3);
        plan.advance(Dim::X);
        plan.advance(Dim::Y);
        assert_eq!(plan.total_hops(), 1);
        assert_eq!(plan.direction(Dim::Y), None);
        plan.advance(Dim::X);
        assert!(plan.is_done());
    }

    #[test]
    fn dimension_order_path_visits_x_then_y_then_z() {
        let p = t888();
        let path = DimensionOrder::path(
            &p,
            Coord::new(0, 0, 0),
            Coord::new(2, 2, 1),
            TieBreak::SrcParity,
        );
        assert_eq!(
            path,
            vec![
                Coord::new(0, 0, 0),
                Coord::new(1, 0, 0),
                Coord::new(2, 0, 0),
                Coord::new(2, 1, 0),
                Coord::new(2, 2, 0),
                Coord::new(2, 2, 1),
            ]
        );
    }

    #[test]
    fn first_blocked_finds_dead_hop_on_path_only() {
        let p = t888();
        let src = Coord::new(0, 0, 0);
        let dst = Coord::new(2, 2, 0);
        // Dead link on the path: second X+ hop, taken from (1,0,0).
        let dead_rank = p.rank_of(Coord::new(1, 0, 0));
        let hit = DimensionOrder::first_blocked(&p, src, dst, TieBreak::SrcParity, |r, d| {
            r == dead_rank && d == Direction::new(Dim::X, Sign::Plus)
        });
        assert_eq!(hit, Some((dead_rank, Direction::new(Dim::X, Sign::Plus))));
        // Same dead link does not block a pair whose path avoids it.
        let clear = DimensionOrder::first_blocked(
            &p,
            Coord::new(4, 0, 0),
            dst,
            TieBreak::SrcParity,
            |r, d| r == dead_rank && d == Direction::new(Dim::X, Sign::Plus),
        );
        assert_eq!(clear, None);
        // No faults at all: never blocked.
        assert_eq!(
            DimensionOrder::first_blocked(&p, src, dst, TieBreak::SrcParity, |_, _| false),
            None
        );
    }

    #[test]
    fn plans_generalize_to_higher_dims() {
        for shape in ["5x4", "3x3x2x2", "2x3x2x3x2", "2x2x2x2x2x2"] {
            let p: Partition = shape.parse().unwrap();
            for src in p.coords() {
                for dst in p.coords() {
                    let plan = HopPlan::new(&p, src, dst, TieBreak::SrcParity);
                    assert_eq!(plan.total_hops(), p.hops(src, dst), "{shape}");
                    let path = DimensionOrder::path(&p, src, dst, TieBreak::SrcParity);
                    assert_eq!(path.len() as u32, p.hops(src, dst) + 1, "{shape}");
                    // Dimension order services dimensions in increasing
                    // index order: once dimension d+1 moves, d is done.
                    let mut max_started = 0usize;
                    for w in path.windows(2) {
                        let moved = p
                            .dims()
                            .find(|&d| w[0].get(d) != w[1].get(d))
                            .expect("consecutive path nodes differ");
                        assert!(moved.index() >= max_started, "{shape}");
                        max_started = moved.index();
                    }
                }
            }
        }
    }

    /// `destination` inverts `new`: every source/destination pair of a 3-D
    /// torus with even and odd sides (equator ties), a mixed mesh-and-torus
    /// shape, one with a size-1 dimension and a 6-D torus, under every
    /// tie-break, and again from every node along the plan's
    /// dimension-ordered walk, where the advanced plan must still name the
    /// same destination.
    #[test]
    fn destination_inverts_new_on_every_pair() {
        let ties = [
            TieBreak::SrcParity,
            TieBreak::AlwaysPlus,
            TieBreak::AlwaysMinus,
        ];
        for shape in ["4x3x2", "4Mx6x3M", "5x1x4", "2x2x3x2x2x2"] {
            let p: Partition = shape.parse().unwrap();
            for src in p.coords() {
                for dst in p.coords() {
                    for tie in ties {
                        let mut plan = HopPlan::new(&p, src, dst, tie);
                        let mut here = src;
                        assert_eq!(plan.destination(&p, here), dst, "{shape} {tie:?}");
                        while let Some(dir) = plan.dimension_order_next() {
                            here = p.neighbor(here, dir).expect("a minimal hop");
                            plan.advance(dir.dim);
                            assert_eq!(plan.destination(&p, here), dst, "{shape} {tie:?}");
                        }
                        assert_eq!(here, dst);
                    }
                }
            }
        }
    }

    /// `long_way` from the neighbour behind the travel direction reaches
    /// the same destination around the rest of the ring, on every pair of a
    /// torus with an odd and an even ring.
    #[test]
    fn long_way_reaches_the_same_destination() {
        let p: Partition = "5x4".parse().unwrap();
        for src in p.coords() {
            for dst in p.coords() {
                let plan = HopPlan::new(&p, src, dst, TieBreak::SrcParity);
                for dir in plan.minimal_directions() {
                    let back = dir.opposite();
                    let long = plan.long_way(&p, back);
                    let from = p.neighbor(src, back).unwrap();
                    assert_eq!(long.destination(&p, from), dst);
                    let rest = p.size(dir.dim) - 1 - plan.hops(dir.dim);
                    assert_eq!(long.hops(dir.dim), rest);
                    assert_eq!(long.direction(dir.dim), (rest > 0).then_some(back));
                }
            }
        }
    }

    #[test]
    fn dimension_order_path_length_is_minimal() {
        let p: Partition = "4x6Mx3".parse().unwrap();
        for src in p.coords() {
            for dst in p.coords() {
                let path = DimensionOrder::path(&p, src, dst, TieBreak::SrcParity);
                assert_eq!(path.len() as u32, p.hops(src, dst) + 1);
                assert_eq!(*path.first().unwrap(), src);
                assert_eq!(*path.last().unwrap(), dst);
                // Consecutive nodes are neighbours.
                for w in path.windows(2) {
                    assert_eq!(p.hops(w[0], w[1]), 1);
                }
            }
        }
    }
}
