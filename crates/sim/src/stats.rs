//! Simulation statistics: completion time, per-dimension link utilization,
//! latency distribution and stall accounting.

use bgl_torus::{Dim, Direction, Partition};
use serde::Serialize;

/// Number of power-of-two latency histogram buckets (bucket `i` counts
/// deliveries with latency in `[2^i, 2^(i+1))` cycles).
pub const LATENCY_BUCKETS: usize = 24;

/// Statistics accumulated by a simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct NetStats {
    /// Cycle at which the last payload packet was delivered (== total
    /// all-to-all time in cycles).
    pub completion_cycle: u64,
    /// Packets injected into the network.
    pub packets_injected: u64,
    /// Packets delivered to their destination programs.
    pub packets_delivered: u64,
    /// Payload bytes delivered.
    pub payload_bytes_delivered: u64,
    /// Chunk-cycles each dimension's links spent transmitting, one entry
    /// per partition dimension (index = `Dim::index()`). Serializes as a
    /// plain JSON array, exactly as the old fixed `[u64; 3]` did on 3D
    /// partitions, so committed golden fingerprints are unchanged.
    pub link_busy_chunks: Vec<u64>,
    /// Packet-hops taken per dimension (same indexing).
    pub hops_taken: Vec<u64>,
    /// Hops taken on the bubble (escape/deterministic) VC.
    pub bubble_hops: u64,
    /// Hops taken on the dynamic VCs.
    pub dynamic_hops: u64,
    /// Sum over delivered packets of (delivery − injection) cycles.
    pub total_latency_cycles: u64,
    /// Worst single-packet latency.
    pub max_latency_cycles: u64,
    /// Cycles some delivery was blocked on a full reception FIFO.
    pub reception_stall_events: u64,
    /// Node-cycles the engine's rate window (`SimConfig::flow` =
    /// [`FlowSpec::Rate`](crate::FlowSpec::Rate)) kept a node from pulling
    /// new sends from its program.
    pub pacing_blocked_cycles: u64,
    /// Credit acquisitions denied because an intermediate's window was
    /// full (`SimConfig::flow` =
    /// [`FlowSpec::Credit`](crate::FlowSpec::Credit)); one event per
    /// declined `NodeApi::try_acquire_credit` call.
    pub credit_blocked_events: u64,
    /// Packets that were in flight on a link the moment a fault killed it
    /// (see [`crate::fault`]). Such packets leave the network accounted
    /// here — never silently lost: the invariant oracle checks
    /// `injected == delivered + dropped_by_fault` at quiesce. Always zero
    /// on a healthy run.
    pub dropped_by_fault: u64,
    /// CPU-cycles (in simulation-cycle units) the node CPUs were busy.
    pub cpu_busy_cycles: f64,
    /// Power-of-two latency histogram (see [`LATENCY_BUCKETS`]).
    pub latency_histogram: Vec<u64>,
    /// Per-directed-link busy chunk-cycles, indexed `node·2n + direction`
    /// where `2n` is the partition's port count; empty unless
    /// `SimConfig::detailed_link_stats` was set.
    pub link_busy_per_link: Vec<u64>,
}

impl NetStats {
    /// Mean utilization of the links of `dim` over the run: busy
    /// chunk-cycles divided by (directed links × completion cycles).
    pub fn dim_utilization(&self, part: &Partition, dim: Dim) -> f64 {
        let links = part.directed_links(dim);
        if links == 0 || self.completion_cycle == 0 {
            return 0.0;
        }
        let busy = self.link_busy_chunks.get(dim.index()).copied().unwrap_or(0);
        busy as f64 / (links as f64 * self.completion_cycle as f64)
    }

    /// The `n` busiest directed links as `(node, direction, utilization)`,
    /// sorted hottest first; ties break by ascending (node, direction) so
    /// the order is total and reproducible. Sorting happens on the integer
    /// busy counters, never on derived floats, so equal-busy links can
    /// never reorder between runs and nothing here can panic on a
    /// non-finite comparison. Empty unless detailed link stats were
    /// collected. `ports` is the partition's directed-port count (`2n`),
    /// the stride of `link_busy_per_link`.
    pub fn hottest_links(&self, ports: usize, n: usize) -> Vec<(u32, Direction, f64)> {
        if self.completion_cycle == 0 || ports == 0 {
            return Vec::new();
        }
        let mut v: Vec<(u64, u32, usize)> = self
            .link_busy_per_link
            .iter()
            .enumerate()
            .filter(|&(_, &busy)| busy > 0)
            .map(|(i, &busy)| (busy, (i / ports) as u32, i % ports))
            .collect();
        v.sort_by_key(|&(busy, node, dir)| (std::cmp::Reverse(busy), node, dir));
        v.truncate(n);
        v.into_iter()
            .map(|(busy, node, dir)| {
                (
                    node,
                    Direction::from_index(dir),
                    busy as f64 / self.completion_cycle as f64,
                )
            })
            .collect()
    }

    /// Fraction of delivered hops that used the bubble VC.
    pub fn bubble_fraction(&self) -> f64 {
        let total = self.bubble_hops + self.dynamic_hops;
        if total == 0 {
            0.0
        } else {
            self.bubble_hops as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_accounts_links_and_cycles() {
        let part: Partition = "8x8x8".parse().unwrap();
        let s = NetStats {
            completion_cycle: 100,
            link_busy_chunks: vec![51_200, 0, 0], // half of 1024 X-links × 100 cycles
            ..Default::default()
        };
        assert!((s.dim_utilization(&part, Dim::X) - 0.5).abs() < 1e-12);
        assert_eq!(s.dim_utilization(&part, Dim::Y), 0.0);
    }

    #[test]
    fn utilization_zero_for_degenerate_cases() {
        let part = Partition::torus_nd(&[8]);
        let s = NetStats::default();
        assert_eq!(s.dim_utilization(&part, Dim::Y), 0.0); // no links
        assert_eq!(s.dim_utilization(&part, Dim::X), 0.0); // no cycles
    }

    #[test]
    fn utilization_generalizes_beyond_three_dims() {
        let part = Partition::torus_nd(&[4, 4, 4, 4]);
        let s = NetStats {
            completion_cycle: 100,
            link_busy_chunks: vec![0, 0, 0, 25_600], // half of 512 directed D3-links × 100
            ..Default::default()
        };
        assert!((s.dim_utilization(&part, Dim::from_index(3)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hottest_links_sorted() {
        let mut per_link = vec![0u64; 12];
        per_link[3] = 90;
        per_link[7] = 100;
        let s = NetStats {
            completion_cycle: 100,
            link_busy_per_link: per_link,
            ..Default::default()
        };
        let hot = s.hottest_links(6, 2);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].0, 1); // link index 7 = node 1
        assert!((hot[0].2 - 1.0).abs() < 1e-12);
        assert_eq!(hot[1].0, 0);
    }

    #[test]
    fn hottest_links_ties_break_by_node_then_direction() {
        // Four links with identical busy counters: the order must be the
        // total (node, direction) order, not insertion or sort-internal
        // order.
        let mut per_link = vec![0u64; 24];
        per_link[14] = 50; // node 2, dir 2
        per_link[3] = 50; // node 0, dir 3
        per_link[13] = 50; // node 2, dir 1
        per_link[7] = 50; // node 1, dir 1
        let s = NetStats {
            completion_cycle: 100,
            link_busy_per_link: per_link,
            ..Default::default()
        };
        let hot = s.hottest_links(6, 10);
        let order: Vec<(u32, usize)> = hot.iter().map(|&(n, d, _)| (n, d.index())).collect();
        assert_eq!(order, vec![(0, 3), (1, 1), (2, 1), (2, 2)]);
        assert!(hot.iter().all(|&(_, _, u)| (u - 0.5).abs() < 1e-12));
    }

    #[test]
    fn bubble_fraction() {
        let s = NetStats {
            bubble_hops: 1,
            dynamic_hops: 3,
            ..Default::default()
        };
        assert_eq!(s.bubble_fraction(), 0.25);
        assert_eq!(NetStats::default().bubble_fraction(), 0.0);
    }
}
