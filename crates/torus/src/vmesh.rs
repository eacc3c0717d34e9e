//! Factorisation of a partition into the 2-D *virtual mesh* used by the
//! short-message combining strategy (Section 4.2 of the paper).
//!
//! A virtual mesh `Pvx × Pvy` views the `P` nodes as `Pvy` rows of `Pvx`
//! nodes. Phase 1 of the combining all-to-all exchanges within rows, phase 2
//! within columns (a column is the set of nodes sharing a position within
//! their row). The mapping from physical coordinates to (row, position) is a
//! mixed-radix flattening under a chosen dimension permutation, so rows are
//! contiguous rectangular blocks of the physical machine:
//!
//! * on the 8×8×8 midplane the paper uses a 32×16 mesh whose rows are
//!   half-XY planes — permutation (X, Y, Z), `Pvx = 32`;
//! * on the 8×32×16 torus it uses a 128×32 mesh whose rows are XZ planes and
//!   whose columns are Y lines — permutation (X, Z, Y), `Pvx = 128`.
//!
//! [`VirtualMesh::choose`] reproduces both choices by rule; the layout is
//! not a setting.

use crate::coord::{Coord, Dim};
use crate::partition::{Partition, Rank};

/// The three BG/L dimensions, the only ones a virtual mesh factorises:
/// the combining strategy's row/column geometry is defined over at most a
/// 3D physical block (higher-dimensional machines are rejected by
/// `VirtualMesh::with_layout`, and the VMesh strategy declares a 3D-only
/// `supported_dims()` capability on top of this).
const XYZ: [Dim; 3] = [Dim::X, Dim::Y, Dim::Z];

/// A realised 2-D virtual mesh over a partition.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualMesh {
    part: Partition,
    /// Dimension order for the mixed-radix flattening, fastest first.
    perm: [Dim; 3],
    pvx: u32,
    pvy: u32,
}

impl VirtualMesh {
    /// Build a virtual mesh with an explicit permutation and row length.
    ///
    /// # Errors
    /// Returns `Err` if the partition has more than three dimensions, if
    /// `perm` is not a permutation of X, Y, Z, or if `pvx` does not divide
    /// the node count.
    fn with_layout(part: Partition, perm: [Dim; 3], pvx: u32) -> Result<VirtualMesh, String> {
        if part.ndims() > 3 {
            return Err(format!(
                "virtual mesh requires at most 3 dimensions, partition {part} has {}",
                part.ndims()
            ));
        }
        let mut seen = [false; 3];
        for d in perm {
            if d.index() >= 3 {
                return Err(format!("{perm:?} is not a permutation of X, Y, Z"));
            }
            seen[d.index()] = true;
        }
        if seen != [true; 3] {
            return Err(format!("{perm:?} is not a permutation of X, Y, Z"));
        }
        let p = part.num_nodes();
        if pvx == 0 || !p.is_multiple_of(pvx) {
            return Err(format!("row length {pvx} does not divide node count {p}"));
        }
        Ok(VirtualMesh {
            part,
            perm,
            pvx,
            pvy: p / pvx,
        })
    }

    /// The paper's layout for `part`: on an asymmetric 3-D partition rows
    /// are the planes orthogonal to the longest dimension (128×32 on
    /// 8×32×16); otherwise the most nearly square contiguous rectangular
    /// factorisation is used (32×16 on 8×8×8).
    pub fn choose(part: Partition) -> VirtualMesh {
        if part.dimensionality() == 3 && !part.is_symmetric() {
            Self::plane_aligned(part)
        } else {
            Self::balanced(part)
        }
    }

    fn plane_aligned(part: Partition) -> VirtualMesh {
        let long = part.longest_dim();
        let mut others = long.others(3);
        let mut next = || others.next().expect("a 3-D shape has two plane dims");
        // Fastest-varying dims first: the two plane dims, then the long dim.
        let perm = [next(), next(), long];
        let pvx = part.num_nodes() / part.size(long) as u32;
        VirtualMesh::with_layout(part, perm, pvx).expect("plane-aligned layout always divides")
    }

    fn balanced(part: Partition) -> VirtualMesh {
        // Enumerate contiguous rectangular row blocks under the identity
        // permutation: pvx = (product of a prefix of dims) × (divisor of the
        // next dim). Pick the factorisation with pvx ≥ pvy closest to square.
        let sizes = [
            part.size(Dim::X) as u32,
            part.size(Dim::Y) as u32,
            part.size(Dim::Z) as u32,
        ];
        let p = part.num_nodes();
        let mut best: Option<u32> = None;
        let mut prefix = 1u32;
        for (i, &next) in sizes.iter().chain(std::iter::once(&1)).enumerate() {
            for d in 1..=next {
                if !next.is_multiple_of(d) {
                    continue;
                }
                let pvx = prefix * d;
                if !p.is_multiple_of(pvx) {
                    continue;
                }
                let pvy = p / pvx;
                if pvx < pvy {
                    continue; // prefer the wider-row orientation, as the paper does
                }
                let better = match best {
                    None => true,
                    Some(b) => (pvx as f64 / (p / pvx) as f64) < (b as f64 / (p / b) as f64),
                };
                if better {
                    best = Some(pvx);
                }
            }
            if i < 3 {
                prefix *= next;
            }
        }
        let pvx = best.unwrap_or(p);
        VirtualMesh::with_layout(part, XYZ, pvx).expect("balanced layout divides")
    }

    /// Row length `Pvx` (number of positions per row = number of columns).
    #[inline]
    pub fn pvx(&self) -> u32 {
        self.pvx
    }

    /// Column length `Pvy` (number of rows).
    #[inline]
    pub fn pvy(&self) -> u32 {
        self.pvy
    }

    /// The underlying partition.
    #[inline]
    pub fn partition(&self) -> &Partition {
        &self.part
    }

    /// The dimension permutation (fastest-varying first).
    #[inline]
    pub fn perm(&self) -> [Dim; 3] {
        self.perm
    }

    /// Mixed-radix flat index of a coordinate under the permutation.
    #[inline]
    pub fn flat_index(&self, c: Coord) -> u32 {
        let [d0, d1, d2] = self.perm;
        c.get(d0) as u32
            + self.part.size(d0) as u32
                * (c.get(d1) as u32 + self.part.size(d1) as u32 * c.get(d2) as u32)
    }

    /// Inverse of [`flat_index`](Self::flat_index).
    pub fn coord_of_flat(&self, f: u32) -> Coord {
        let [d0, d1, d2] = self.perm;
        let s0 = self.part.size(d0) as u32;
        let s1 = self.part.size(d1) as u32;
        let mut c = Coord::default();
        c.set(d0, (f % s0) as u16);
        c.set(d1, ((f / s0) % s1) as u16);
        c.set(d2, (f / (s0 * s1)) as u16);
        c
    }

    /// Virtual row of a node (in `0..pvy`).
    #[inline]
    pub fn row_of(&self, c: Coord) -> u32 {
        self.flat_index(c) / self.pvx
    }

    /// Position of a node within its row (in `0..pvx`); nodes sharing a
    /// position form a column.
    #[inline]
    pub fn pos_in_row(&self, c: Coord) -> u32 {
        self.flat_index(c) % self.pvx
    }

    /// The node at `(row, pos)`.
    #[inline]
    pub fn node_at(&self, row: u32, pos: u32) -> Coord {
        debug_assert!(row < self.pvy && pos < self.pvx);
        self.coord_of_flat(row * self.pvx + pos)
    }

    /// Rank of the physical node at `(row, pos)` in the partition's
    /// canonical rank order.
    #[inline]
    pub fn rank_at(&self, row: u32, pos: u32) -> Rank {
        self.part.rank_of(self.node_at(row, pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_members(vm: &VirtualMesh, row: u32) -> Vec<Coord> {
        (0..vm.pvx()).map(|p| vm.node_at(row, p)).collect()
    }

    fn col_members(vm: &VirtualMesh, pos: u32) -> Vec<Coord> {
        (0..vm.pvy()).map(|r| vm.node_at(r, pos)).collect()
    }

    #[test]
    fn paper_512_choice_is_32x16() {
        let part: Partition = "8x8x8".parse().unwrap();
        let vm = VirtualMesh::choose(part);
        assert_eq!((vm.pvx(), vm.pvy()), (32, 16));
        // Rows are half-XY planes: 32 consecutive X-fastest ranks.
        let row0 = row_members(&vm, 0);
        assert!(row0.iter().all(|c| c.get(Dim::Z) == 0 && c.get(Dim::Y) < 4));
        assert_eq!(row0.len(), 32);
    }

    #[test]
    fn paper_4096_choice_is_128x32_plane_aligned() {
        let part: Partition = "8x32x16".parse().unwrap();
        let vm = VirtualMesh::choose(part);
        assert_eq!((vm.pvx(), vm.pvy()), (128, 32));
        // Rows are XZ planes (constant Y), columns are Y lines.
        let row0 = row_members(&vm, 0);
        assert!(row0.iter().all(|c| c.get(Dim::Y) == 0));
        let col0 = col_members(&vm, 0);
        assert_eq!(col0.len(), 32);
        let (x0, z0) = (col0[0].get(Dim::X), col0[0].get(Dim::Z));
        assert!(col0
            .iter()
            .all(|c| c.get(Dim::X) == x0 && c.get(Dim::Z) == z0));
    }

    #[test]
    fn balanced_prefers_square() {
        let vm = VirtualMesh::balanced("16x16x16".parse().unwrap());
        assert_eq!((vm.pvx(), vm.pvy()), (64, 64));
    }

    #[test]
    fn rows_and_columns_partition_the_machine() {
        for spec in ["8x8x8", "8x32x16", "4x6x2", "16x16"] {
            let part: Partition = spec.parse().unwrap();
            let vm = VirtualMesh::choose(part);
            assert_eq!(vm.pvx() * vm.pvy(), part.num_nodes(), "{spec}");
            let mut seen = std::collections::HashSet::new();
            for r in 0..vm.pvy() {
                for c in row_members(&vm, r) {
                    assert_eq!(vm.row_of(c), r);
                    assert!(seen.insert(c), "{spec}: {c} in two rows");
                }
            }
            assert_eq!(seen.len() as u32, part.num_nodes());
            // Columns partition too, and cross every row exactly once.
            for pos in 0..vm.pvx() {
                let col = col_members(&vm, pos);
                let rows: std::collections::HashSet<u32> =
                    col.iter().map(|&c| vm.row_of(c)).collect();
                assert_eq!(rows.len() as u32, vm.pvy(), "{spec}");
                assert!(col.iter().all(|&c| vm.pos_in_row(c) == pos));
            }
        }
    }

    #[test]
    fn flat_index_roundtrip() {
        let part: Partition = "4x3x5".parse().unwrap();
        let vm = VirtualMesh::with_layout(part, [Dim::Z, Dim::X, Dim::Y], 10).unwrap();
        for c in part.coords() {
            assert_eq!(vm.coord_of_flat(vm.flat_index(c)), c);
        }
    }

    #[test]
    fn node_at_inverts_row_pos() {
        let part: Partition = "8x8x8".parse().unwrap();
        let vm = VirtualMesh::choose(part);
        for c in part.coords() {
            assert_eq!(vm.node_at(vm.row_of(c), vm.pos_in_row(c)), c);
        }
    }

    #[test]
    fn with_layout_rejects_bad_args() {
        let part: Partition = "8x8x8".parse().unwrap();
        assert!(VirtualMesh::with_layout(part, [Dim::X, Dim::X, Dim::Z], 8).is_err());
        assert!(VirtualMesh::with_layout(part, XYZ, 7).is_err());
        assert!(VirtualMesh::with_layout(part, XYZ, 0).is_err());
    }

    #[test]
    fn with_layout_rejects_higher_dimensional_partitions() {
        let part: Partition = "4x4x4x4".parse().unwrap();
        let err = VirtualMesh::with_layout(part, XYZ, 16).unwrap_err();
        assert!(err.contains("at most 3 dimensions"), "{err}");
    }

    #[test]
    fn explicit_layout_is_honoured() {
        let part: Partition = "8x8x8".parse().unwrap();
        let vm = VirtualMesh::with_layout(part, [Dim::Y, Dim::Z, Dim::X], 64).unwrap();
        assert_eq!((vm.pvx(), vm.pvy()), (64, 8));
        // Rows are YZ planes (constant X).
        assert!(row_members(&vm, 0).iter().all(|c| c.get(Dim::X) == 0));
    }
}
