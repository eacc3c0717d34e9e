//! Fault injection: dead or scheduled-to-die links and nodes.
//!
//! A [`FaultPlan`] on [`SimConfig`](crate::SimConfig) describes which
//! directed links (and, by expansion, whole nodes) are faulted and when.
//! Faults are either *static* (dead from cycle 0, forever) or *scheduled*
//! (`fail_at` a cycle, optionally `recover_at` a later cycle). The engine
//! applies the plan identically in every engine mode: fault transitions
//! happen at the top of the faulting cycle, before any phase runs, so
//! results stay byte-identical across modes.
//!
//! Semantics:
//! * A faulted directed link refuses arbitration: no packet may start
//!   crossing it while it is down.
//! * Packets already in flight on a link when it dies are *dropped by the
//!   fault*: they leave the network, release their reserved downstream
//!   credit, and are counted in `NetStats::dropped_by_fault` — never lost
//!   silently. The destination program is told via
//!   [`NodeProgram::on_packet_dropped`](crate::NodeProgram::on_packet_dropped).
//! * A node fault kills all directed links incident to the node, in both
//!   directions — `4n` directed links on a full k-ary n-dimensional torus
//!   (`2n` outgoing plus `2n` incoming; 12 in the classic 3D case), fewer
//!   when the node sits on a mesh edge. The node's CPU keeps running (the
//!   BG/L failure unit is the network interface / midplane wiring, not the
//!   compute state): its program can still inject, but nothing can leave
//!   or reach the node while it is down.

use bgl_torus::{Direction, Partition};
use serde::Serialize;

/// A fault on one directed link, identified by its source node and output
/// direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct LinkFault {
    /// Rank of the node the link leaves.
    pub node: u32,
    /// Output direction of the link.
    pub dir: Direction,
    /// Cycle the link dies (0 = dead from the start).
    pub fail_at: u64,
    /// Cycle the link comes back, if ever. Must be `> fail_at`.
    pub recover_at: Option<u64>,
}

impl LinkFault {
    /// A link dead from cycle 0, forever.
    pub fn dead(node: u32, dir: Direction) -> LinkFault {
        LinkFault {
            node,
            dir,
            fail_at: 0,
            recover_at: None,
        }
    }
}

/// A fault on a whole node: every directed link into or out of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct NodeFault {
    /// Rank of the faulted node.
    pub rank: u32,
    /// Cycle the node's links die (0 = dead from the start).
    pub fail_at: u64,
    /// Cycle the node's links come back, if ever. Must be `> fail_at`.
    pub recover_at: Option<u64>,
}

impl NodeFault {
    /// A node dead from cycle 0, forever.
    pub fn dead(rank: u32) -> NodeFault {
        NodeFault {
            rank,
            fail_at: 0,
            recover_at: None,
        }
    }
}

/// The full set of faults for one run.
///
/// Part of [`SimConfig`](crate::SimConfig) and of the harness `RunKey`, so
/// a faulty run can never share a result-cache slot with a healthy one.
/// The empty plan is the default.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize)]
pub struct FaultPlan {
    /// Individual directed-link faults.
    pub links: Vec<LinkFault>,
    /// Whole-node faults (expanded to all incident directed links).
    pub nodes: Vec<NodeFault>,
}

/// One directed link's fail/recover schedule, produced by
/// [`FaultPlan::link_schedules`]. `link` is the dense directed-link index
/// `node · ports + direction` where `ports = 2n` for the partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSchedule {
    /// Dense directed-link index (`node · ports + dir.index()`).
    pub link: usize,
    /// Cycle the link dies.
    pub fail_at: u64,
    /// Cycle the link recovers, if ever.
    pub recover_at: Option<u64>,
}

impl FaultPlan {
    /// `true` when no faults are planned (the healthy default).
    pub fn is_empty(&self) -> bool {
        self.links.is_empty() && self.nodes.is_empty()
    }

    /// Check the plan against `part`: every rank in range, every faulted
    /// link present in the topology (mesh edges have no wrap link), every
    /// recovery after its failure, and no directed link claimed by two
    /// fault entries (which would need a merged schedule this model does
    /// not define). Returns a one-line human-readable error.
    pub fn validate(&self, part: &Partition) -> Result<(), String> {
        let p = part.num_nodes();
        for f in &self.links {
            if f.node >= p {
                return Err(format!("fault link node {} out of range (0..{p})", f.node));
            }
            if part.neighbor(part.coord_of(f.node), f.dir).is_none() {
                return Err(format!("no {} link at node {} (mesh edge)", f.dir, f.node));
            }
            check_window(f.fail_at, f.recover_at)?;
        }
        for f in &self.nodes {
            if f.rank >= p {
                return Err(format!("fault node rank {} out of range (0..{p})", f.rank));
            }
            check_window(f.fail_at, f.recover_at)?;
        }
        let ports = part.ports();
        let mut seen = vec![false; part.num_nodes() as usize * ports];
        for s in self.link_schedules(part) {
            if seen[s.link] {
                let node = (s.link / ports) as u32;
                let dir = Direction::from_index(s.link % ports);
                return Err(format!("duplicate fault on link {node}:{dir}"));
            }
            seen[s.link] = true;
        }
        Ok(())
    }

    /// Expand the plan into per-directed-link schedules: link faults map
    /// one-to-one; node faults fan out to every incident directed link in
    /// both directions. Sorted by link index so downstream consumers
    /// iterate deterministically. Call only on a validated plan.
    pub fn link_schedules(&self, part: &Partition) -> Vec<LinkSchedule> {
        let ports = part.ports();
        let mut out = Vec::new();
        for f in &self.links {
            out.push(LinkSchedule {
                link: f.node as usize * ports + f.dir.index(),
                fail_at: f.fail_at,
                recover_at: f.recover_at,
            });
        }
        for f in &self.nodes {
            let c = part.coord_of(f.rank);
            for dir in part.directions() {
                let Some(nc) = part.neighbor(c, dir) else {
                    continue;
                };
                let nb = part.rank_of(nc);
                // Outgoing link from the dead node…
                out.push(LinkSchedule {
                    link: f.rank as usize * ports + dir.index(),
                    fail_at: f.fail_at,
                    recover_at: f.recover_at,
                });
                // …and the neighbour's link back toward it.
                out.push(LinkSchedule {
                    link: nb as usize * ports + dir.opposite().index(),
                    fail_at: f.fail_at,
                    recover_at: f.recover_at,
                });
            }
        }
        out.sort_by_key(|s| s.link);
        out
    }
}

fn check_window(fail_at: u64, recover_at: Option<u64>) -> Result<(), String> {
    match recover_at {
        Some(r) if r <= fail_at => Err(format!("recover cycle {r} not after fail cycle {fail_at}")),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgl_torus::{Dim, Sign};

    fn xplus() -> Direction {
        Direction {
            dim: Dim::X,
            sign: Sign::Plus,
        }
    }

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        let part: Partition = "4x4x4".parse().unwrap();
        plan.validate(&part).unwrap();
        assert!(plan.link_schedules(&part).is_empty());
    }

    #[test]
    fn fault_plan_serializes_as_the_run_key_spells_it() {
        let plan = FaultPlan {
            links: vec![LinkFault {
                node: 3,
                dir: xplus(),
                fail_at: 100,
                recover_at: Some(200),
            }],
            nodes: vec![NodeFault::dead(7)],
        };
        assert_eq!(
            serde_json::to_string(&plan).unwrap(),
            concat!(
                r#"{"links":[{"node":3,"dir":{"dim":"X","sign":"Plus"},"fail_at":100,"recover_at":200}],"#,
                r#""nodes":[{"rank":7,"fail_at":0,"recover_at":null}]}"#
            )
        );
    }

    #[test]
    fn validate_rejects_out_of_range_and_bad_windows() {
        let part: Partition = "4x4".parse().unwrap();
        let plan = FaultPlan {
            links: vec![LinkFault::dead(16, xplus())],
            nodes: vec![],
        };
        assert!(plan.validate(&part).unwrap_err().contains("out of range"));
        let plan = FaultPlan {
            links: vec![],
            nodes: vec![NodeFault {
                rank: 0,
                fail_at: 50,
                recover_at: Some(50),
            }],
        };
        assert!(plan.validate(&part).unwrap_err().contains("not after"));
    }

    #[test]
    fn validate_rejects_mesh_edge_links() {
        let part = Partition::new(&[4], &[false]);
        let plan = FaultPlan {
            links: vec![LinkFault::dead(3, xplus())],
            nodes: vec![],
        };
        assert!(plan.validate(&part).unwrap_err().contains("mesh edge"));
    }

    #[test]
    fn validate_rejects_duplicates_including_node_overlap() {
        let part: Partition = "4x4x4".parse().unwrap();
        let twice = FaultPlan {
            links: vec![LinkFault::dead(0, xplus()), LinkFault::dead(0, xplus())],
            nodes: vec![],
        };
        assert!(twice.validate(&part).unwrap_err().contains("duplicate"));
        // A node fault claims all incident links; a link fault on one of
        // them is the same double-claim.
        let overlap = FaultPlan {
            links: vec![LinkFault::dead(0, xplus())],
            nodes: vec![NodeFault::dead(0)],
        };
        assert!(overlap.validate(&part).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn node_fault_expands_to_all_incident_links_both_ways() {
        let part: Partition = "4x4x4".parse().unwrap();
        let plan = FaultPlan {
            links: vec![],
            nodes: vec![NodeFault::dead(0)],
        };
        plan.validate(&part).unwrap();
        let scheds = plan.link_schedules(&part);
        // 2n outgoing plus 2n incoming directed links on a full torus:
        // 4n = 12 for this 3D partition.
        assert_eq!(scheds.len(), 4 * part.ndims());
        for s in &scheds {
            assert_eq!(s.fail_at, 0);
            assert_eq!(s.recover_at, None);
        }
        // Sorted by link index.
        assert!(scheds.windows(2).all(|w| w[0].link < w[1].link));
        // All 2n outgoing links of node 0 are present.
        for d in part.directions() {
            assert!(scheds.iter().any(|s| s.link == d.index()));
        }
    }

    #[test]
    fn node_fault_link_count_scales_with_dimensionality() {
        for (part, expect) in [
            (Partition::torus_nd(&[4, 4]), 8),
            (Partition::torus_nd(&[4, 4, 4, 4]), 16),
            (Partition::torus_nd(&[2, 2, 2, 2, 2]), 20),
        ] {
            let plan = FaultPlan {
                links: vec![],
                nodes: vec![NodeFault::dead(0)],
            };
            plan.validate(&part).unwrap();
            assert_eq!(plan.link_schedules(&part).len(), expect);
        }
    }
}
