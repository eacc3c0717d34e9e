//! Uniform all-to-all load analysis: average hop counts, per-dimension
//! bottleneck-link loads, and the peak-time denominator of the paper's
//! Equation 2, generalised to mesh dimensions and odd sizes.
//!
//! # Derivation
//!
//! In an all-to-all with `m` bytes per ordered (src, dst) pair, consider
//! dimension `d` of size `S` on a partition of `P` nodes. Every ordered pair
//! of dim-`d` coordinates `(a, b)` is taken by `(P/S)²` node pairs, and its
//! dim-`d` hops ride links of exactly one of the `P/S` parallel lines.
//!
//! **Torus dimension.** With minimal routing and balanced equator
//! tie-breaking, each travel direction carries half the total hop count, and
//! by rotational symmetry every directed link in the dimension is loaded
//! equally. The sum of minimal distances over all `S²` ordered coordinate
//! pairs is `S³/4` for even `S` and `S(S²-1)/4` for odd `S`; dividing by the
//! `2P` directed links gives a per-link load of
//!
//! ```text
//!   L_torus(S) = P·S·m/8           (even S; the paper's  P·(M/8)·m·β)
//!   L_torus(S) = P·(S²-1)·m/(8S)   (odd S)
//! ```
//!
//! **Mesh dimension.** No wrap links, so the centre cut is the bottleneck:
//! the directed link between positions `k` and `k+1` carries
//! `(k+1)(S-1-k)·(P/S)·m` bytes, maximised at the centre:
//!
//! ```text
//!   L_mesh(S) = ⌈S/2⌉·⌊S/2⌋·(P/S)·m    (= P·S·m/4 for even S)
//! ```
//!
//! — exactly twice the torus load for even `S`, matching the halved
//! bisection of a mesh.
//!
//! The peak all-to-all time is the worst dimension's load divided by the
//! link bandwidth; the paper's Equation 2 is the even-torus special case
//! with `S = M` the longest dimension.

use crate::coord::Dim;
use crate::partition::Partition;

/// Uniform-AA load statistics for one dimension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DimLoad {
    /// Which dimension.
    pub dim: Dim,
    /// Its size `S`.
    pub size: u16,
    /// Whether it wraps.
    pub torus: bool,
    /// Mean minimal hops per (src, dst) pair along this dimension
    /// (`S/4` for an even torus, `(S²-1)/(3S)` for a mesh).
    pub avg_hops: f64,
    /// Bytes crossing the most-loaded directed link of this dimension, per
    /// byte of per-pair payload (multiply by `m` for actual bytes).
    pub load_factor: f64,
}

/// Uniform all-to-all load analysis of a partition.
///
/// ```
/// use bgl_torus::{AaLoadAnalysis, Partition};
/// let a = AaLoadAnalysis::new("8x8x8".parse::<Partition>().unwrap());
/// // Equation 2: bottleneck-link load factor P·M/8 = 512·8/8.
/// assert_eq!(a.bottleneck().load_factor, 512.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AaLoadAnalysis {
    /// The analysed partition.
    pub partition: Partition,
    /// Per-dimension loads, one per partition dimension in dimension
    /// order (size-1 dimensions carry a zero load entry).
    pub dims: Vec<DimLoad>,
}

impl AaLoadAnalysis {
    /// Analyse `partition`. The Equation-2 derivation is per-dimension, so
    /// it applies unchanged at any arity: each dimension's bottleneck link
    /// load depends only on its own size, wrap flag and the node count.
    pub fn new(partition: Partition) -> AaLoadAnalysis {
        let p = partition.num_nodes() as f64;
        let dims: Vec<DimLoad> = partition
            .dims()
            .map(|d| {
                let s = partition.size(d) as f64;
                if partition.size(d) <= 1 {
                    return DimLoad {
                        dim: d,
                        size: partition.size(d),
                        torus: false,
                        avg_hops: 0.0,
                        load_factor: 0.0,
                    };
                }
                let torus = partition.is_torus_dim(d);
                let (sum_hops, load_factor) = if torus {
                    // Sum of minimal distances over all S² ordered coordinate pairs.
                    let sum = if partition.size(d).is_multiple_of(2) {
                        s * s * s / 4.0
                    } else {
                        s * (s * s - 1.0) / 4.0
                    };
                    // Half the hops go each direction; each of the (P/S)² node
                    // pairs per coordinate pair contributes, spread by symmetry
                    // over the P directed links per direction:
                    //   load = (sum/2)·(P/S)²/P · m = sum·P/(2S²) · m.
                    (sum, sum * p / (2.0 * s * s))
                } else {
                    // Mesh: Σ|a-b| over ordered pairs = S(S²-1)/3; the bottleneck
                    // is the centre cut, ⌈S/2⌉·⌊S/2⌋ coordinate pairs per
                    // direction, (P/S)² node pairs each, across P/S lines.
                    let sum = s * (s * s - 1.0) / 3.0;
                    let s_half_lo = (partition.size(d) / 2) as f64;
                    let s_half_hi = partition.size(d).div_ceil(2) as f64;
                    (sum, s_half_lo * s_half_hi * (p / s))
                };
                DimLoad {
                    dim: d,
                    size: partition.size(d),
                    torus,
                    avg_hops: sum_hops / (s * s),
                    load_factor,
                }
            })
            .collect();
        AaLoadAnalysis { partition, dims }
    }

    /// The most-loaded dimension (the paper's bottleneck `M` dimension).
    /// Ties go to the earlier dimension.
    pub fn bottleneck(&self) -> &DimLoad {
        // Not `max_by`: that returns the *last* maximum, and the paper's
        // convention resolves ties towards X.
        self.dims
            .iter()
            .reduce(|best, d| {
                if d.load_factor > best.load_factor {
                    d
                } else {
                    best
                }
            })
            .expect("at least one dim")
    }

    /// The paper's contention parameter `C` (Equation 2's `M/8` for an even
    /// torus): per-byte time multiplier relative to an uncontended link.
    pub fn contention_factor(&self) -> f64 {
        self.bottleneck().load_factor / self.partition.num_nodes() as f64
    }

    /// Bytes crossing the globally most-loaded directed link when every node
    /// sends `m` bytes to every other node.
    pub fn bottleneck_link_bytes(&self, m: u64) -> f64 {
        self.bottleneck().load_factor * m as f64
    }

    /// Peak (network-bound) all-to-all time, in units of one link's
    /// byte-time: `T_peak/β = load_factor · m`. Multiply by β for seconds,
    /// or divide by the chunk size for simulator cycles.
    pub fn peak_time_byte_times(&self, m: u64) -> f64 {
        self.bottleneck_link_bytes(m)
    }

    /// Peak per-node injection bandwidth (bytes per link byte-time): the
    /// aggregate rate at which one node sends during a peak-rate all-to-all,
    /// `(P-1)·m / T_peak`. Multiplying by the physical link bandwidth gives
    /// the "peak bisection bandwidth per node" curve of Figure 3.
    pub fn peak_per_node_rate(&self) -> f64 {
        let p = self.partition.num_nodes() as f64;
        (p - 1.0) / self.bottleneck().load_factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyse(s: &str) -> AaLoadAnalysis {
        AaLoadAnalysis::new(s.parse::<Partition>().unwrap())
    }

    #[test]
    fn even_torus_matches_equation_2() {
        // P·M/8 per unit payload.
        for (s, want) in [
            ("8x8x8", 512.0 * 8.0 / 8.0),
            ("16x16x16", 4096.0 * 16.0 / 8.0),
            ("40x32x16", 20480.0 * 40.0 / 8.0),
            ("8x32x16", 4096.0 * 32.0 / 8.0),
        ] {
            let a = analyse(s);
            assert_eq!(a.bottleneck().load_factor, want, "{s}");
        }
    }

    #[test]
    fn bottleneck_is_longest_torus_dim() {
        assert_eq!(analyse("8x32x16").bottleneck().dim, Dim::Y);
        assert_eq!(analyse("40x32x16").bottleneck().dim, Dim::X);
        assert_eq!(analyse("8x8x16").bottleneck().dim, Dim::Z);
    }

    #[test]
    fn contention_factor_is_m_over_8() {
        assert_eq!(analyse("8x8x8").contention_factor(), 1.0);
        assert_eq!(analyse("16x16x16").contention_factor(), 2.0);
        assert_eq!(analyse("8x32x16").contention_factor(), 4.0);
    }

    #[test]
    fn mesh_dimension_doubles_load() {
        // 8x8x4M: Z mesh of 4 has load 2·2·(P/4) = P — equal to the X/Y
        // torus load P·8/8 = P.
        let a = analyse("8x8x4M");
        let p = 256.0;
        assert_eq!(a.dims[0].load_factor, p);
        assert_eq!(a.dims[2].load_factor, 2.0 * 2.0 * (p / 4.0));
        // A mesh dim of size 8 is twice the torus load.
        let a = analyse("8Mx8x8");
        assert_eq!(a.dims[0].load_factor, 2.0 * a.dims[1].load_factor);
    }

    #[test]
    fn mesh_size_2_is_half_torus_8_load() {
        // 8x8x2M (the paper's midplane half): Z mesh-2 centre cut carries
        // 1·1·(P/2)·m; X/Y tori carry P·m — X/Y are the bottleneck.
        let a = analyse("8x8x2M");
        assert_eq!(a.bottleneck().dim, Dim::X);
        assert_eq!(a.dims[2].load_factor, 128.0 / 2.0);
    }

    #[test]
    fn avg_hops() {
        let a = analyse("8x8x8");
        for d in &a.dims {
            assert!(
                (d.avg_hops - 2.0).abs() < 1e-12,
                "even torus avg hops = S/4"
            );
        }
        // Mesh avg hops = (S²-1)/(3S).
        let a = analyse("8Mx8x8");
        assert!((a.dims[0].avg_hops - 63.0 / 24.0).abs() < 1e-12);
        // Odd torus: (S²-1)/(4S).
        let a = analyse("5x1x1");
        assert!((a.dims[0].avg_hops - 24.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn odd_torus_load() {
        // S=5 line, P=5: per-link load = P(S²-1)/(8S) = 5·24/40 = 3.
        let a = AaLoadAnalysis::new(Partition::torus_nd(&[5]));
        assert!((a.dims[0].load_factor - 3.0).abs() < 1e-12);
    }

    #[test]
    fn line_and_plane_loads() {
        // 8-line: P·S/8 = 8.
        let line = AaLoadAnalysis::new(Partition::torus_nd(&[8]));
        assert_eq!(line.bottleneck().load_factor, 8.0);
        // 16x16 plane: P·16/8 = 512.
        assert_eq!(analyse("16x16").bottleneck().load_factor, 512.0);
    }

    #[test]
    fn higher_dim_loads_follow_equation_2() {
        // Equation 2 per dimension at any arity: even-torus load P·S/8.
        let a = analyse("4x4x4x4");
        assert_eq!(a.dims.len(), 4);
        for d in &a.dims {
            assert_eq!(d.load_factor, 256.0 * 4.0 / 8.0, "{}", d.dim);
        }
        // BG/Q-style 5D: the bottleneck is any of the size-4 dims (ties
        // to X), with load P·4/8.
        let a = analyse("4x4x4x4x2");
        assert_eq!(a.dims.len(), 5);
        assert_eq!(a.bottleneck().dim, Dim::X);
        assert_eq!(a.bottleneck().load_factor, 512.0 * 4.0 / 8.0);
        // The size-2 dimension is lighter: P·2/8.
        assert_eq!(a.dims[4].load_factor, 512.0 * 2.0 / 8.0);
    }

    #[test]
    fn peak_time_scales_linearly_in_m() {
        let a = analyse("8x8x8");
        assert_eq!(
            a.peak_time_byte_times(2048),
            2.0 * a.peak_time_byte_times(1024)
        );
    }

    #[test]
    fn per_node_rate_drops_with_longest_dim() {
        // Per-node peak rate ≈ 8/M, so 16³ halves 8³'s rate.
        let r512 = analyse("8x8x8").peak_per_node_rate();
        let r4k = analyse("16x16x16").peak_per_node_rate();
        assert!((r512 / r4k - 2.0).abs() < 0.01, "{r512} vs {r4k}");
    }

    #[test]
    fn size_one_dims_carry_no_load() {
        let a = analyse("16x1x1");
        assert_eq!(a.dims[1].load_factor, 0.0);
        assert_eq!(a.dims[2].load_factor, 0.0);
    }
}
