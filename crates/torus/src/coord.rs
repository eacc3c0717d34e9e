//! Coordinates, dimensions and link directions on a k-ary n-dimensional
//! partition.
//!
//! The machine dimension is *runtime data*, not a type-level constant: a
//! [`Dim`] is an index newtype in `0..MAX_DIMS`, a [`Coord`] carries one
//! component per dimension, and a node on an n-dimensional partition has
//! `2n` link [`Direction`]s. The first three dimensions keep their BG/L
//! names (`x`, `y`, `z`); higher ones are named `d3`, `d4`, `d5`.

use serde::Serialize;

/// Hard upper bound on the number of torus dimensions the workspace
/// models.
///
/// Six covers every machine in the lineage (BG/L's 3D torus, BG/Q's 5D,
/// 2D planes and meshes) while letting [`Coord`] and
/// [`HopPlan`](crate::HopPlan) stay fixed-size `Copy` values in packet
/// headers — no per-packet allocation on the simulator's hot path.
pub const MAX_DIMS: usize = 6;

/// Hard upper bound on directed links per node (`2 · MAX_DIMS`).
pub const MAX_PORTS: usize = 2 * MAX_DIMS;

/// One torus dimension, as a dense index in `0..MAX_DIMS`.
///
/// Dimension-ordered routing visits dimensions in increasing index order,
/// so `Dim::X < Dim::Y < Dim::Z` iterates dimension-ordered exactly as
/// the old 3D enum did; dimensions `3..6` extend the same order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Dim(u8);

impl Dim {
    /// The first dimension (BG/L's X, routed first under dimension order).
    pub const X: Dim = Dim(0);
    /// The second dimension (BG/L's Y).
    pub const Y: Dim = Dim(1);
    /// The third dimension (BG/L's Z).
    pub const Z: Dim = Dim(2);

    /// Dimension from an index in `0..MAX_DIMS`.
    ///
    /// # Panics
    /// Panics if `i >= MAX_DIMS`.
    #[inline]
    pub const fn new(i: usize) -> Dim {
        assert!(i < MAX_DIMS, "dimension index out of range");
        Dim(i as u8)
    }

    /// Index of the dimension, for indexing per-dimension state.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Dimension from a dense index (alias of [`Dim::new`], kept for the
    /// symmetry with [`Direction::from_index`]).
    ///
    /// # Panics
    /// Panics if `i >= MAX_DIMS`.
    #[inline]
    pub fn from_index(i: usize) -> Dim {
        assert!(
            i < MAX_DIMS,
            "dimension index {i} out of range 0..{MAX_DIMS}"
        );
        Dim(i as u8)
    }

    /// The first `n` dimensions in dimension order.
    ///
    /// # Panics
    /// Panics if `n > MAX_DIMS`.
    #[inline]
    pub fn all(n: usize) -> impl Iterator<Item = Dim> + Clone {
        assert!(
            n <= MAX_DIMS,
            "dimension count {n} out of range 0..={MAX_DIMS}"
        );
        (0..n as u8).map(Dim)
    }

    /// Short lowercase name: `x`, `y`, `z` for the BG/L dimensions, then
    /// `d3`, `d4`, `d5`.
    pub const fn name(self) -> &'static str {
        match self.0 {
            0 => "x",
            1 => "y",
            2 => "z",
            3 => "d3",
            4 => "d4",
            5 => "d5",
            _ => unreachable!(),
        }
    }

    /// Uppercase name (`X`, `Y`, `Z`, `D3`, `D4`, `D5`), the wire and
    /// display spelling.
    pub const fn name_upper(self) -> &'static str {
        match self.0 {
            0 => "X",
            1 => "Y",
            2 => "Z",
            3 => "D3",
            4 => "D4",
            5 => "D5",
            _ => unreachable!(),
        }
    }

    /// The dimensions of an `n`-dimensional machine other than `self`, in
    /// dimension order.
    #[inline]
    pub fn others(self, n: usize) -> impl Iterator<Item = Dim> + Clone {
        Dim::all(n).filter(move |&d| d != self)
    }
}

impl std::fmt::Display for Dim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name_upper())
    }
}

/// Serializes as the upper-case name (`"X"`, `"Y"`, `"Z"`, `"D3"`..`"D5"`):
/// the spelling the golden file's run keys are matched on.
impl Serialize for Dim {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.name_upper().to_string())
    }
}

/// Direction of travel along a dimension: towards higher (`Plus`) or lower
/// (`Minus`) coordinates. On a torus dimension travel wraps around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
#[repr(u8)]
pub enum Sign {
    /// Towards increasing coordinate (with wrap on a torus dimension).
    Plus = 0,
    /// Towards decreasing coordinate (with wrap on a torus dimension).
    Minus = 1,
}

impl Sign {
    /// The opposite sign.
    #[inline]
    pub const fn flip(self) -> Sign {
        match self {
            Sign::Plus => Sign::Minus,
            Sign::Minus => Sign::Plus,
        }
    }
}

/// One of the `2n` link directions leaving a node of an n-dimensional
/// partition (`X+`, `X-`, `Y+`, `Y-`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct Direction {
    /// Dimension the link runs along.
    pub dim: Dim,
    /// Orientation along that dimension.
    pub sign: Sign,
}

impl Direction {
    /// Construct a direction.
    #[inline]
    pub const fn new(dim: Dim, sign: Sign) -> Direction {
        Direction { dim, sign }
    }

    /// Dense index in `0..2n` (X+=0, X-=1, Y+=2, Y-=3, …), used to index
    /// per-port state in the simulator.
    #[inline]
    pub const fn index(self) -> usize {
        self.dim.index() * 2 + (self.sign as usize)
    }

    /// Direction from a dense index in `0..MAX_PORTS`.
    ///
    /// # Panics
    /// Panics if `i >= MAX_PORTS`.
    #[inline]
    pub fn from_index(i: usize) -> Direction {
        assert!(
            i < MAX_PORTS,
            "direction index {i} out of range 0..{MAX_PORTS}"
        );
        Direction {
            dim: Dim((i / 2) as u8),
            sign: if i.is_multiple_of(2) {
                Sign::Plus
            } else {
                Sign::Minus
            },
        }
    }

    /// The `2n` directions of an `n`-dimensional machine, in dense-index
    /// order (X+, X-, Y+, Y-, …).
    ///
    /// # Panics
    /// Panics if `n > MAX_DIMS`.
    #[inline]
    pub fn all(n: usize) -> impl Iterator<Item = Direction> + Clone {
        assert!(
            n <= MAX_DIMS,
            "dimension count {n} out of range 0..={MAX_DIMS}"
        );
        (0..2 * n).map(Direction::from_index)
    }

    /// The reverse direction (the direction a packet *arrives from* when it
    /// was sent in `self` from the neighbour).
    #[inline]
    pub const fn opposite(self) -> Direction {
        Direction {
            dim: self.dim,
            sign: self.sign.flip(),
        }
    }
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self.sign {
            Sign::Plus => "+",
            Sign::Minus => "-",
        };
        write!(f, "{}{}", self.dim, s)
    }
}

/// A node coordinate on an n-dimensional partition.
///
/// Components are `u16` per dimension and stored in a fixed
/// `[u16; MAX_DIMS]` so [`Coord`] stays a 12-byte `Copy` value in packet
/// headers; components beyond a partition's dimensionality are zero and
/// ignore-equal (a 2D coordinate and the same point embedded in 3D with
/// z = 0 compare equal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Coord {
    c: [u16; MAX_DIMS],
}

impl Coord {
    /// A 3D coordinate (the BG/L convenience; higher components zero).
    #[inline]
    pub const fn new(x: u16, y: u16, z: u16) -> Coord {
        Coord {
            c: [x, y, z, 0, 0, 0],
        }
    }

    /// The origin.
    #[inline]
    pub const fn zero() -> Coord {
        Coord { c: [0; MAX_DIMS] }
    }

    /// A coordinate from explicit components (missing components zero).
    ///
    /// # Panics
    /// Panics if more than `MAX_DIMS` components are given.
    pub fn from_slice(components: &[u16]) -> Coord {
        assert!(
            components.len() <= MAX_DIMS,
            "coordinate has {} components, max {MAX_DIMS}",
            components.len()
        );
        let mut c = [0u16; MAX_DIMS];
        c[..components.len()].copy_from_slice(components);
        Coord { c }
    }

    /// Component along `dim`.
    #[inline]
    pub const fn get(self, dim: Dim) -> u16 {
        self.c[dim.index()]
    }

    /// Return a copy with the component along `dim` replaced by `v`.
    #[inline]
    pub fn with(self, dim: Dim, v: u16) -> Coord {
        let mut c = self;
        c.set(dim, v);
        c
    }

    /// Set the component along `dim`.
    #[inline]
    pub fn set(&mut self, dim: Dim, v: u16) {
        self.c[dim.index()] = v;
    }

    /// All `MAX_DIMS` components (trailing ones zero for lower-dimensional
    /// coordinates).
    #[inline]
    pub fn components(&self) -> &[u16; MAX_DIMS] {
        &self.c
    }
}

impl std::fmt::Display for Coord {
    /// Prints the components up to the last nonzero one, minimum three —
    /// so 3D coordinates render exactly as they always did (`(4,0,15)`)
    /// and higher-dimensional ones extend the same form.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = (3..MAX_DIMS)
            .rev()
            .find(|&i| self.c[i] != 0)
            .map_or(3, |i| i + 1);
        write!(f, "(")?;
        for (i, v) in self.c[..n].iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_indices_roundtrip() {
        for (i, d) in Dim::all(MAX_DIMS).enumerate() {
            assert_eq!(d.index(), i);
            assert_eq!(Dim::from_index(i), d);
        }
        assert_eq!(Dim::X.index(), 0);
        assert_eq!(Dim::Y.index(), 1);
        assert_eq!(Dim::Z.index(), 2);
    }

    #[test]
    fn dim_order_is_dimension_order() {
        assert!(Dim::X < Dim::Y);
        assert!(Dim::Y < Dim::Z);
        assert!(Dim::Z < Dim::new(3));
    }

    #[test]
    fn dim_others_excludes_self() {
        for n in 2..=MAX_DIMS {
            for d in Dim::all(n) {
                let o: Vec<Dim> = d.others(n).collect();
                assert_eq!(o.len(), n - 1);
                assert!(!o.contains(&d));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dim_from_bad_index_panics() {
        let _ = Dim::from_index(MAX_DIMS);
    }

    #[test]
    fn dim_serializes_as_its_upper_case_name() {
        assert_eq!(Dim::X.to_value(), serde::Value::Str("X".into()));
        assert_eq!(Dim::new(4).to_value(), serde::Value::Str("D4".into()));
    }

    #[test]
    fn direction_indices_roundtrip() {
        for (i, d) in Direction::all(MAX_DIMS).enumerate() {
            assert_eq!(d.index(), i);
            assert_eq!(Direction::from_index(i), d);
        }
        assert_eq!(Direction::all(3).count(), 6);
        assert_eq!(Direction::all(5).count(), 10);
    }

    #[test]
    fn direction_opposite_is_involution() {
        for d in Direction::all(MAX_DIMS) {
            assert_eq!(d.opposite().opposite(), d);
            assert_eq!(d.opposite().dim, d.dim);
            assert_ne!(d.opposite().sign, d.sign);
        }
    }

    #[test]
    fn sign_flip() {
        assert_eq!(Sign::Plus.flip(), Sign::Minus);
        assert_eq!(Sign::Minus.flip(), Sign::Plus);
    }

    #[test]
    fn coord_get_set_with() {
        let mut c = Coord::new(1, 2, 3);
        assert_eq!(c.get(Dim::X), 1);
        assert_eq!(c.get(Dim::Y), 2);
        assert_eq!(c.get(Dim::Z), 3);
        c.set(Dim::Y, 9);
        assert_eq!(c, Coord::new(1, 9, 3));
        assert_eq!(c.with(Dim::Z, 7), Coord::new(1, 9, 7));
        // `with` does not mutate.
        assert_eq!(c.get(Dim::Z), 3);
    }

    #[test]
    fn coord_from_slice_pads_with_zeros() {
        assert_eq!(Coord::from_slice(&[4, 7]), Coord::new(4, 7, 0));
        assert_eq!(Coord::from_slice(&[]), Coord::zero());
        let five = Coord::from_slice(&[1, 2, 3, 4, 5]);
        assert_eq!(five.get(Dim::new(4)), 5);
        assert_eq!(five.get(Dim::new(5)), 0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Dim::X.to_string(), "X");
        assert_eq!(Dim::new(3).to_string(), "D3");
        assert_eq!(Direction::new(Dim::Y, Sign::Minus).to_string(), "Y-");
        assert_eq!(Coord::new(4, 0, 15).to_string(), "(4,0,15)");
        assert_eq!(Coord::zero().to_string(), "(0,0,0)");
        assert_eq!(
            Coord::from_slice(&[1, 2, 3, 4, 5]).to_string(),
            "(1,2,3,4,5)"
        );
    }

    #[test]
    fn coord_is_small_and_copy() {
        assert_eq!(std::mem::size_of::<Coord>(), 2 * MAX_DIMS);
        fn assert_copy<T: Copy>() {}
        assert_copy::<Coord>();
    }
}
