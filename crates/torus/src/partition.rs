//! Partition shapes: k-ary n-dimensional blocks whose dimensions are
//! independently torus (wrapped) or mesh (unwrapped).

use crate::coord::{Coord, Dim, Direction, Sign, MAX_DIMS};
use serde::Serialize;
use std::fmt;
use std::str::FromStr;

/// A node's linear rank within a partition (dimension 0 varies fastest).
pub type Rank = u32;

/// A torus partition: an n-dimensional block of nodes with per-dimension
/// sizes and per-dimension wrap (torus) flags, `1 <= n <= MAX_DIMS`.
///
/// The arity is part of the value: `8x8` is a genuine 2D partition with
/// four links per node, distinct from the 3D `8x8x1` (which carries the
/// same nodes but six ports, the unused Z pair idle). The paper's
/// `"8x8x2M"` notation parses via [`FromStr`]: an `M` suffix marks that
/// dimension as a mesh, all other dimensions of size ≥ 2 are tori.
/// Dimensions of size 1 carry no links at all, so their wrap flag is
/// normalised to `false`.
///
/// ```
/// use bgl_torus::{Partition, Dim};
/// let p: Partition = "8x8x2M".parse().unwrap();
/// assert_eq!(p.num_nodes(), 128);
/// assert_eq!(p.ndims(), 3);
/// assert!(p.is_torus_dim(Dim::X));
/// assert!(!p.is_torus_dim(Dim::Z));
/// let q: Partition = "4x4x4x4x2".parse().unwrap();
/// assert_eq!(q.ndims(), 5);
/// assert_eq!(q.ports(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Partition {
    /// Number of dimensions (`1..=MAX_DIMS`). Extents beyond `n` are 1
    /// with wrap `false`, so derived quantities (node counts, ranks) can
    /// ignore the boundary.
    n: u8,
    dims: [u16; MAX_DIMS],
    wrap: [bool; MAX_DIMS],
}

impl Partition {
    /// A full 3D torus (the BG/L convenience; every dimension of size ≥ 2
    /// wraps).
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn torus(x: u16, y: u16, z: u16) -> Partition {
        Partition::new(&[x, y, z], &[true, true, true])
    }

    /// A full 3D mesh (no dimension wraps).
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn mesh(x: u16, y: u16, z: u16) -> Partition {
        Partition::new(&[x, y, z], &[false, false, false])
    }

    /// A full torus of arbitrary dimensionality.
    ///
    /// # Panics
    /// Panics if `dims` is empty, longer than `MAX_DIMS`, or contains a
    /// zero.
    pub fn torus_nd(dims: &[u16]) -> Partition {
        Partition::new(dims, &vec![true; dims.len()])
    }

    /// A partition with explicit per-dimension sizes and wrap flags.
    ///
    /// Wrap flags on dimensions of size 1 are normalised to `false` (a
    /// single-node dimension has no links).
    ///
    /// # Panics
    /// Panics if `dims` and `wrap` differ in length, if the arity is not
    /// `1..=MAX_DIMS`, if any dimension is zero, or if the node count
    /// exceeds `u32::MAX` (a [`Rank`] could not name every node).
    pub fn new(dims: &[u16], wrap: &[bool]) -> Partition {
        assert_eq!(
            dims.len(),
            wrap.len(),
            "dims and wrap must have the same arity"
        );
        assert!(
            !dims.is_empty() && dims.len() <= MAX_DIMS,
            "partition must have 1..={MAX_DIMS} dimensions, got {}",
            dims.len()
        );
        assert!(
            dims.iter().all(|&d| d > 0),
            "partition dimensions must be positive, got {dims:?}"
        );
        assert!(
            node_count(dims).is_some(),
            "partition {dims:?} has more than u32::MAX nodes"
        );
        let mut d = [1u16; MAX_DIMS];
        let mut w = [false; MAX_DIMS];
        d[..dims.len()].copy_from_slice(dims);
        for i in 0..dims.len() {
            w[i] = wrap[i] && dims[i] > 1;
        }
        Partition {
            n: dims.len() as u8,
            dims: d,
            wrap: w,
        }
    }

    /// Number of dimensions (the partition's arity, counting size-1
    /// dimensions that were explicitly written).
    #[inline]
    pub fn ndims(&self) -> usize {
        self.n as usize
    }

    /// Number of link ports per node: `2 · ndims()` directed links leave
    /// (and enter) every node, one pair per dimension.
    #[inline]
    pub fn ports(&self) -> usize {
        2 * self.n as usize
    }

    /// The partition's dimensions, in dimension order.
    #[inline]
    pub fn dims(&self) -> impl Iterator<Item = Dim> + Clone {
        Dim::all(self.n as usize)
    }

    /// The `2n` link directions of this partition, in dense-index order.
    #[inline]
    pub fn directions(&self) -> impl Iterator<Item = Direction> + Clone {
        Direction::all(self.n as usize)
    }

    /// Size along `dim` (1 for dimensions beyond the arity, so callers
    /// iterating a fixed upper bound see a degenerate dimension, not a
    /// panic).
    #[inline]
    pub fn size(&self, dim: Dim) -> u16 {
        self.dims[dim.index()]
    }

    /// The sizes, one per dimension.
    #[inline]
    pub fn sizes(&self) -> &[u16] {
        &self.dims[..self.n as usize]
    }

    /// Whether `dim` wraps (torus) — always `false` for size-1 dimensions.
    #[inline]
    pub fn is_torus_dim(&self, dim: Dim) -> bool {
        self.wrap[dim.index()]
    }

    /// Total number of nodes `P = ∏ Pᵢ`.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        self.dims.iter().map(|&d| d as u32).product()
    }

    /// Dimensions with more than one node, in dimension order: a walk of
    /// [`dims`](Self::dims), nothing collected.
    pub fn active_dims(&self) -> impl Iterator<Item = Dim> + Clone + '_ {
        self.dims().filter(|d| self.size(*d) > 1)
    }

    /// Number of active (size > 1) dimensions: 0 for a single node, 1 for a
    /// line, 2 for a plane, 3 for a block, and so on.
    pub fn dimensionality(&self) -> usize {
        self.active_dims().count()
    }

    /// The dimension with the most nodes, the paper's `M = max(Pᵢ)`
    /// bottleneck dimension. Ties go to the earlier dimension (X before Y
    /// before Z), matching the paper's convention of naming X first.
    pub fn longest_dim(&self) -> Dim {
        let mut best = Dim::X;
        for d in self.dims().skip(1) {
            if self.size(d) > self.size(best) {
                best = d;
            }
        }
        best
    }

    /// Whether this partition is *symmetric* in the paper's sense: every
    /// active dimension has the same size, and every active dimension is a
    /// torus. A line is symmetric; `8x8` and `16x16x16` are symmetric;
    /// `16x8x8` and `8x8x2M` are not.
    pub fn is_symmetric(&self) -> bool {
        let mut active = self.active_dims();
        let s0 = active.clone().next().map(|d| self.size(d));
        active.all(|d| Some(self.size(d)) == s0 && self.is_torus_dim(d))
    }

    /// Linear rank of a coordinate (dimension 0 varies fastest).
    ///
    /// # Panics
    /// Panics (in debug builds) if the coordinate is out of range.
    #[inline]
    pub fn rank_of(&self, c: Coord) -> Rank {
        debug_assert!(self.contains(c), "coordinate {c} outside partition {self}");
        let mut rank: Rank = 0;
        for i in (0..self.n as usize).rev() {
            rank = rank * self.dims[i] as Rank + c.get(Dim::new(i)) as Rank;
        }
        rank
    }

    /// Coordinate of a linear rank.
    ///
    /// # Panics
    /// Panics if `rank >= num_nodes()`.
    #[inline]
    pub fn coord_of(&self, rank: Rank) -> Coord {
        assert!(
            rank < self.num_nodes(),
            "rank {rank} outside partition {self}"
        );
        let mut c = Coord::zero();
        let mut rest = rank;
        for i in 0..self.n as usize {
            c.set(Dim::new(i), (rest % self.dims[i] as Rank) as u16);
            rest /= self.dims[i] as Rank;
        }
        c
    }

    /// Whether the coordinate lies inside the partition (components beyond
    /// the arity must be zero).
    #[inline]
    pub fn contains(&self, c: Coord) -> bool {
        c.components()
            .iter()
            .zip(self.dims.iter())
            .all(|(&v, &s)| v < s)
    }

    /// Iterate over every coordinate in rank order (the [`walk`](Self::walk)'s
    /// coordinates).
    pub fn coords(&self) -> impl Iterator<Item = Coord> + '_ {
        self.walk().map(|s| s.coord)
    }

    /// Every node in rank order, each a [`Site`]: its rank, its coordinate
    /// and its neighbours' ranks. The coordinate advances like an odometer
    /// and a neighbour is `rank ± stride`, so the walk divides nothing and
    /// converts no coordinate back to a rank — what building a per-node,
    /// per-link table over the whole machine wants.
    ///
    /// ```
    /// use bgl_torus::{Direction, Partition};
    /// let p: Partition = "4x3M".parse().unwrap();
    /// let s = p.walk().nth(5).unwrap(); // (1, 1)
    /// assert_eq!(s.coord, p.coord_of(5));
    /// assert_eq!(s.neighbor_rank(Direction::from_index(3)), Some(1)); // Y-
    /// let edge = p.walk().nth(9).unwrap(); // (1, 2): Y+ is a mesh edge
    /// assert_eq!(edge.neighbor_rank(Direction::from_index(2)), None);
    /// ```
    pub fn walk(&self) -> Walk<'_> {
        let (mut stride, mut s) = ([0; MAX_DIMS], 1);
        for (st, &size) in stride.iter_mut().zip(self.sizes()) {
            *st = s;
            s *= Rank::from(size);
        }
        Walk {
            part: self,
            stride,
            next: 0,
            end: self.num_nodes(),
            coord: Coord::zero(),
        }
    }

    /// The neighbour of `c` in direction `dir`, or `None` when the move
    /// falls off the edge of a mesh dimension (or the dimension has size 1).
    pub fn neighbor(&self, c: Coord, dir: Direction) -> Option<Coord> {
        let s = self.size(dir.dim);
        if s <= 1 {
            return None;
        }
        let v = c.get(dir.dim);
        let nv = match dir.sign {
            Sign::Plus => {
                if v + 1 < s {
                    v + 1
                } else if self.is_torus_dim(dir.dim) {
                    0
                } else {
                    return None;
                }
            }
            Sign::Minus => {
                if v > 0 {
                    v - 1
                } else if self.is_torus_dim(dir.dim) {
                    s - 1
                } else {
                    return None;
                }
            }
        };
        Some(c.with(dir.dim, nv))
    }

    /// Minimal hop count from `a` to `b` along `dim` (wrapping if torus).
    #[inline]
    pub fn dim_hops(&self, dim: Dim, a: u16, b: u16) -> u16 {
        let s = self.size(dim);
        let fwd = (b as i32 - a as i32).rem_euclid(s as i32) as u16;
        if self.is_torus_dim(dim) {
            fwd.min(s - fwd)
        } else {
            (b as i32 - a as i32).unsigned_abs() as u16
        }
    }

    /// Total minimal hop count between two coordinates.
    pub fn hops(&self, a: Coord, b: Coord) -> u32 {
        self.dims()
            .map(|d| self.dim_hops(d, a.get(d), b.get(d)) as u32)
            .sum()
    }

    /// Number of *directed* links along `dim`: `2·P` for a torus dimension,
    /// `2·P·(S-1)/S` for a mesh dimension, `0` for a size-1 dimension.
    pub fn directed_links(&self, dim: Dim) -> u64 {
        let s = self.size(dim) as u64;
        if s <= 1 {
            return 0;
        }
        let lines = self.num_nodes() as u64 / s;
        let per_line = if self.is_torus_dim(dim) { s } else { s - 1 };
        2 * lines * per_line
    }
}

/// The nodes of a partition in rank order ([`Partition::walk`]).
#[derive(Debug, Clone)]
pub struct Walk<'a> {
    part: &'a Partition,
    /// Rank distance between neighbours along each dimension: the product
    /// of the sizes of the dimensions before it.
    stride: [Rank; MAX_DIMS],
    /// Rank and coordinate of the next site; `end` is the node count.
    next: Rank,
    end: Rank,
    coord: Coord,
}

impl<'a> Iterator for Walk<'a> {
    type Item = Site<'a>;

    #[inline]
    fn next(&mut self) -> Option<Site<'a>> {
        if self.next == self.end {
            return None;
        }
        let site = Site {
            rank: self.next,
            coord: self.coord,
            part: self.part,
            stride: self.stride,
        };
        self.next += 1;
        // Carry like an odometer; past the last rank every digit wraps to
        // zero, and `next` ends the walk.
        for d in self.part.dims() {
            let v = self.coord.get(d) + 1;
            if v < self.part.size(d) {
                self.coord.set(d, v);
                break;
            }
            self.coord.set(d, 0);
        }
        Some(site)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.end - self.next) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Walk<'_> {}

/// One node of a [`Walk`].
#[derive(Debug, Clone, Copy)]
pub struct Site<'a> {
    /// The node's rank.
    pub rank: Rank,
    /// Its coordinate, `coord_of(rank)`.
    pub coord: Coord,
    part: &'a Partition,
    stride: [Rank; MAX_DIMS],
}

impl Site<'_> {
    /// Rank of the neighbour in direction `dir`: `rank_of(neighbor(coord,
    /// dir))`, found by stride — one step along the dimension, or the
    /// whole line back across a torus dimension's wrap. `None` exactly where
    /// [`Partition::neighbor`] is: off a mesh edge, or along a size-1
    /// dimension.
    #[inline]
    pub fn neighbor_rank(&self, dir: Direction) -> Option<Rank> {
        let (d, part) = (dir.dim, self.part);
        let (s, v, stride) = (part.size(d), self.coord.get(d), self.stride[d.index()]);
        let span = Rank::from(s - 1) * stride;
        match dir.sign {
            Sign::Plus if v + 1 < s => Some(self.rank + stride),
            Sign::Minus if v > 0 => Some(self.rank - stride),
            _ if !part.is_torus_dim(d) => None,
            Sign::Plus => Some(self.rank - span),
            Sign::Minus => Some(self.rank + span),
        }
    }
}

/// `∏ dims` if it fits a [`Rank`].
fn node_count(dims: &[u16]) -> Option<u32> {
    dims.iter()
        .try_fold(1u32, |p, &d| p.checked_mul(u32::from(d)))
}

/// Serializes as `{"dims": [..], "wrap": [..]}` with exactly `ndims()`
/// entries: the spelling the golden file's run keys are matched on.
impl Serialize for Partition {
    fn to_value(&self) -> serde::Value {
        let n = self.n as usize;
        serde::Value::Object(vec![
            (
                "dims".to_string(),
                serde::Value::Array(
                    self.dims[..n]
                        .iter()
                        .map(|&d| serde::Value::U64(d as u64))
                        .collect(),
                ),
            ),
            (
                "wrap".to_string(),
                serde::Value::Array(
                    self.wrap[..n]
                        .iter()
                        .map(|&w| serde::Value::Bool(w))
                        .collect(),
                ),
            ),
        ])
    }
}

impl fmt::Display for Partition {
    /// Prints every extent, including size-1 ones (`4x4x1`, not `4x4`):
    /// arity is part of the value, and the printed form must parse back to
    /// an equal partition.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.dims().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{}", self.size(d))?;
            if self.size(d) > 1 && !self.is_torus_dim(d) {
                write!(f, "M")?;
            }
        }
        Ok(())
    }
}

/// Error produced when parsing a partition string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionParseError(String);

impl fmt::Display for PartitionParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid partition string: {}", self.0)
    }
}

impl std::error::Error for PartitionParseError {}

impl FromStr for Partition {
    type Err = PartitionParseError;

    /// Parse the partition notation at any arity from 2 to [`MAX_DIMS`]:
    /// `"16x16"`, `"40x32x16"`, `"4x4x4x4x2"`, `"8x8x2M"` (the `M` suffix
    /// marks a mesh dimension). The arity is exactly the number of
    /// `x`-separated tokens — `"4x4"` is 2D, `"4x4x1"` is 3D. One-token
    /// (1D) shapes are rejected: a line has no routing choice to study,
    /// and the explicit `"8x1x1"` spelling is available when a
    /// line-shaped 3D partition is meant. Whitespace around tokens is
    /// ignored (`"8 x 2M"` works too).
    fn from_str(s: &str) -> Result<Partition, PartitionParseError> {
        let tokens: Vec<&str> = s.split('x').map(str::trim).collect();
        if tokens.len() < 2 || tokens.len() > MAX_DIMS {
            return Err(PartitionParseError(format!(
                "expected 2..={MAX_DIMS} 'x'-separated sizes, got {s:?}"
            )));
        }
        let mut dims = Vec::with_capacity(tokens.len());
        let mut wrap = Vec::with_capacity(tokens.len());
        for tok in &tokens {
            let (num, mesh) = match tok.strip_suffix(['M', 'm']) {
                Some(rest) => (rest.trim(), true),
                None => (*tok, false),
            };
            let size: u16 = num
                .parse()
                .map_err(|_| PartitionParseError(format!("bad size {tok:?} in {s:?}")))?;
            if size == 0 {
                return Err(PartitionParseError(format!("zero size in {s:?}")));
            }
            dims.push(size);
            wrap.push(!mesh);
        }
        if node_count(&dims).is_none() {
            let max = u32::MAX;
            return Err(PartitionParseError(format!(
                "{s:?} has more than {max} nodes"
            )));
        }
        Ok(Partition::new(&dims, &wrap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_notation() {
        let p: Partition = "40x32x16".parse().unwrap();
        assert_eq!(p.sizes(), &[40, 32, 16]);
        assert_eq!(p.num_nodes(), 20480);
        assert!(p.is_torus_dim(Dim::X));

        let p: Partition = "8x8x2M".parse().unwrap();
        assert_eq!(p.sizes(), &[8, 8, 2]);
        assert!(p.is_torus_dim(Dim::Y));
        assert!(!p.is_torus_dim(Dim::Z));

        let p: Partition = "8 x 4M".parse().unwrap();
        assert_eq!(p.sizes(), &[8, 4]);
        assert_eq!(p.ndims(), 2);
        assert!(!p.is_torus_dim(Dim::Y));
    }

    #[test]
    fn parse_preserves_arity() {
        let p2: Partition = "32x32".parse().unwrap();
        assert_eq!(p2.ndims(), 2);
        assert_eq!(p2.ports(), 4);
        let p5: Partition = "4x4x4x4x2".parse().unwrap();
        assert_eq!(p5.ndims(), 5);
        assert_eq!(p5.ports(), 10);
        assert_eq!(p5.num_nodes(), 512);
        // Explicit trailing 1s count toward the arity: `8x8` and `8x8x1`
        // are different partitions (four vs six ports per node).
        let padded: Partition = "8x8x1".parse().unwrap();
        assert_eq!(padded.ndims(), 3);
        assert_ne!(padded, "8x8".parse().unwrap());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Partition>().is_err());
        assert!("8".parse::<Partition>().is_err(), "1D shapes are rejected");
        assert!("8x".parse::<Partition>().is_err());
        assert!("4x0x4".parse::<Partition>().is_err());
        assert!("0x8".parse::<Partition>().is_err());
        assert!("8xqx8".parse::<Partition>().is_err());
        assert!("4x4x4x4x4x4x4".parse::<Partition>().is_err(), ">6 dims");
    }

    #[test]
    fn parse_rejects_a_node_count_beyond_u32() {
        // 65535² fits a `Rank`; one more factor does not, and a release
        // build would wrap `num_nodes` instead of failing.
        let p: Partition = "65535x65535".parse().unwrap();
        assert_eq!(p.num_nodes(), 65535 * 65535);
        for s in ["65535x65535x2", "65535x65535x65535x65535x65535x65535"] {
            let err = s.parse::<Partition>().unwrap_err().to_string();
            assert!(err.contains(s) && err.contains("nodes"), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "more than u32::MAX nodes")]
    fn new_rejects_a_node_count_beyond_u32() {
        let _ = Partition::torus(65535, 65535, 2);
    }

    #[test]
    fn display_roundtrip() {
        for s in [
            "16x16",
            "8x8x8",
            "40x32x16",
            "8x8x2M",
            "8x4M",
            "1x8x8",
            "8x1x1",
            "4x4x4x4x2",
            "2x2x2x2x2x2",
        ] {
            let p: Partition = s.parse().unwrap();
            let shown = p.to_string();
            let q: Partition = shown.parse().unwrap();
            assert_eq!(p, q, "roundtrip failed for {s} -> {shown}");
            assert_eq!(p.ndims(), q.ndims());
        }
    }

    #[test]
    fn display_prints_every_extent() {
        let p: Partition = "4x4x1".parse().unwrap();
        assert_eq!(p.to_string(), "4x4x1");
        assert_eq!("8x1x1".parse::<Partition>().unwrap().to_string(), "8x1x1");
        assert_eq!("8x8".parse::<Partition>().unwrap().to_string(), "8x8");
    }

    #[test]
    fn serializes_exactly_ndims_entries() {
        use serde::Value::{Array, Bool, Object, U64};
        let p: Partition = "4x2Mx1".parse().unwrap();
        let dims = Array(vec![U64(4), U64(2), U64(1)]);
        let wrap = Array(vec![Bool(true), Bool(false), Bool(false)]);
        let want = Object(vec![("dims".into(), dims), ("wrap".into(), wrap)]);
        assert_eq!(p.to_value(), want);
        let flat: Partition = "8x8".parse().unwrap();
        let two = Array(vec![U64(8), U64(8)]);
        assert_eq!(flat.to_value().get("dims"), Some(&two));
    }

    #[test]
    fn size_one_dim_never_wraps() {
        let p = Partition::torus(8, 1, 8);
        assert!(!p.is_torus_dim(Dim::Y));
        assert_eq!(p.directed_links(Dim::Y), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_panics() {
        let _ = Partition::torus(0, 8, 8);
    }

    #[test]
    #[should_panic(expected = "1..=6 dimensions")]
    fn too_many_dims_panics() {
        let _ = Partition::torus_nd(&[2; 7]);
    }

    #[test]
    fn rank_coord_roundtrip() {
        let p = Partition::torus(4, 3, 5);
        for r in 0..p.num_nodes() {
            assert_eq!(p.rank_of(p.coord_of(r)), r);
        }
        // Dimension 0 varies fastest.
        assert_eq!(p.coord_of(1), Coord::new(1, 0, 0));
        assert_eq!(p.coord_of(4), Coord::new(0, 1, 0));
        assert_eq!(p.coord_of(12), Coord::new(0, 0, 1));
    }

    #[test]
    fn rank_coord_roundtrip_higher_dims() {
        for shape in ["5x3", "3x2x2x3", "2x3x2x2x3", "2x2x2x2x2x2"] {
            let p: Partition = shape.parse().unwrap();
            for r in 0..p.num_nodes() {
                assert_eq!(p.rank_of(p.coord_of(r)), r, "{shape} rank {r}");
            }
        }
        // 4D: dimension 0 fastest, then 1, 2, 3.
        let p: Partition = "4x4x4x4".parse().unwrap();
        assert_eq!(p.coord_of(4), Coord::from_slice(&[0, 1, 0, 0]));
        assert_eq!(p.coord_of(64), Coord::from_slice(&[0, 0, 0, 1]));
    }

    #[test]
    fn coords_iterator_covers_all_nodes_once() {
        let p = Partition::torus(3, 4, 2);
        let all: Vec<Coord> = p.coords().collect();
        assert_eq!(all.len(), 24);
        let set: std::collections::HashSet<Coord> = all.iter().copied().collect();
        assert_eq!(set.len(), 24);
    }

    #[test]
    fn neighbor_wraps_on_torus_only() {
        let t = Partition::torus(8, 8, 8);
        let m = Partition::mesh(8, 8, 8);
        let edge = Coord::new(7, 0, 3);
        assert_eq!(
            t.neighbor(edge, Direction::new(Dim::X, Sign::Plus)),
            Some(Coord::new(0, 0, 3))
        );
        assert_eq!(m.neighbor(edge, Direction::new(Dim::X, Sign::Plus)), None);
        assert_eq!(
            t.neighbor(edge, Direction::new(Dim::Y, Sign::Minus)),
            Some(Coord::new(7, 7, 3))
        );
        assert_eq!(m.neighbor(edge, Direction::new(Dim::Y, Sign::Minus)), None);
    }

    #[test]
    fn neighbor_relation_is_mutual() {
        for shape in ["4x3Mx2", "3x2x2x3", "2x2x2x2x2"] {
            let p: Partition = shape.parse().unwrap();
            for c in p.coords() {
                for dir in p.directions() {
                    if let Some(n) = p.neighbor(c, dir) {
                        assert_eq!(p.neighbor(n, dir.opposite()), Some(c), "{shape}");
                    }
                }
            }
        }
    }

    #[test]
    fn hops_torus_vs_mesh() {
        let t = Partition::torus(8, 8, 8);
        let m = Partition::mesh(8, 8, 8);
        let a = Coord::new(0, 0, 0);
        let b = Coord::new(7, 7, 7);
        // Torus: one wrap hop per dimension. Mesh: seven hops per dimension.
        assert_eq!(t.hops(a, b), 3);
        assert_eq!(m.hops(a, b), 21);
        // Max torus distance is S/2 per dimension.
        assert_eq!(t.dim_hops(Dim::X, 0, 4), 4);
        assert_eq!(t.dim_hops(Dim::X, 0, 5), 3);
    }

    #[test]
    fn hops_symmetric() {
        let p: Partition = "6x5Mx4".parse().unwrap();
        for a in p.coords() {
            for b in p.coords() {
                assert_eq!(p.hops(a, b), p.hops(b, a));
            }
        }
    }

    #[test]
    fn longest_dim_and_ties() {
        assert_eq!(
            "40x32x16".parse::<Partition>().unwrap().longest_dim(),
            Dim::X
        );
        assert_eq!(
            "8x32x16".parse::<Partition>().unwrap().longest_dim(),
            Dim::Y
        );
        assert_eq!("8x8x16".parse::<Partition>().unwrap().longest_dim(), Dim::Z);
        // Ties go to the earlier dimension.
        assert_eq!(
            "16x16x16".parse::<Partition>().unwrap().longest_dim(),
            Dim::X
        );
        assert_eq!(
            "8x16x16".parse::<Partition>().unwrap().longest_dim(),
            Dim::Y
        );
        assert_eq!(
            "4x4x4x8x2".parse::<Partition>().unwrap().longest_dim(),
            Dim::new(3)
        );
    }

    #[test]
    fn symmetry_classification() {
        for s in ["8x8", "16x16", "8x8x8", "16x16x16", "4x4x4x4", "8x1x1"] {
            assert!(s.parse::<Partition>().unwrap().is_symmetric(), "{s}");
        }
        for s in [
            "16x8x8",
            "8x32x16",
            "8x8x2M",
            "8x4M",
            "40x32x16",
            "4x4x4x4x2",
        ] {
            assert!(!s.parse::<Partition>().unwrap().is_symmetric(), "{s}");
        }
    }

    #[test]
    fn directed_link_counts() {
        let p = Partition::torus(8, 8, 8);
        // 2 directed links per node per dimension on a torus.
        assert_eq!(p.directed_links(Dim::X), 1024);
        let m: Partition = "8Mx8x8".parse().unwrap();
        // Mesh: (S-1) links per line per direction, 64 lines.
        assert_eq!(m.directed_links(Dim::X), 2 * 64 * 7);
        // 4D torus: every dimension carries 2·P directed links.
        let q: Partition = "4x4x4x4".parse().unwrap();
        for d in q.dims() {
            assert_eq!(q.directed_links(d), 2 * 256);
        }
    }
}
