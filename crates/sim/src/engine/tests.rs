//! Engine internals pinned against the code they replaced: `Engine::stuck`,
//! the one stuck-head classifier, against the two walks it replaced (which
//! read liveness through [`alive`], over the link mask), and
//! `State::set_head`, which flips only the request bits a head change
//! changes, against the writer that rewrote the whole row, and the tables
//! `Engine::new` builds by walking the ranks, against the rank-to-coordinate
//! round trip they were built by.

use super::*;
use crate::packet::{RoutingMode, DETOUR_BUDGET};
use crate::{FaultPlan, LinkFault, Packet, ScriptedProgram, SendSpec};
use bgl_torus::{Coord, Dim, Partition, Sign};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Whether output `d` of node `n` is alive, as the old walks asked it after
/// their own `u32::MAX` test: its bit of the link mask `Shared::up`.
fn alive(sh: &Shared, n: usize, d: Direction) -> bool {
    sh.up[n] >> d.index() & 1 != 0
}

/// The engine's head-of-line walk as it was before `Engine::stuck`,
/// verbatim but for its name, its receiver, the packet record it reads
/// (`&Hop`), its liveness test ([`alive`]) and the neighbour table's index
/// (`n * ports + d`): a second walk over `wants`, liveness and
/// `feasible_vc`.
fn hol_blocked_by_the_old_walk(e: &Engine, n: usize, fifo: usize, pkt: &Hop) -> bool {
    let router = &e.shared;
    let Some(from_dim) = router.input_dim(fifo) else {
        return false;
    };
    let mut any_dir = false;
    for d in router.part.directions() {
        if !router.wants(pkt, d) {
            continue;
        }
        let nb = router.neighbors[n * router.ports + d.index()];
        if nb == u32::MAX {
            continue;
        }
        // A dead link is not congestion: faulted directions neither
        // count as available nor as HOL evidence (the fault-blocked
        // classifier owns them).
        if !alive(router, n, d) {
            continue;
        }
        any_dir = true;
        if e.state.link_busy_until[n * router.ports + d.index()] <= e.now
            && router
                .feasible_vc(pkt, n, Some(from_dim), d, nb as usize)
                .is_some()
        {
            return false;
        }
    }
    any_dir
}

/// The engine's fault-park walk as it was before `Engine::stuck`, verbatim
/// but for its name, its receiver, the packet record it reads (`&Hop`), its
/// liveness tests ([`alive`], and a healthy run's `fault_dirs == 0`) and the
/// neighbour table's index (`n * ports + d`).
fn fault_blocked_by_the_old_walk(e: &Engine, n: usize, pkt: &Hop) -> Option<Direction> {
    let router = &e.shared;
    if router.fault_dirs == 0 {
        return None;
    }
    let mut first_dead = None;
    for d in router.part.directions() {
        if !router.wants(pkt, d) {
            continue;
        }
        if router.neighbors[n * router.ports + d.index()] == u32::MAX {
            continue;
        }
        if alive(router, n, d) {
            // A live wanted direction exists: any park here is
            // congestion (HOL/credit), not the fault's fault.
            return None;
        }
        if first_dead.is_none() {
            first_dead = Some(d);
        }
    }
    let first_dead = first_dead?;
    if pkt.routing == RoutingMode::Adaptive && pkt.detour_count() < DETOUR_BUDGET {
        for d in router.part.directions() {
            if router.neighbors[n * router.ports + d.index()] != u32::MAX
                && alive(router, n, d)
                && pkt.detour_from() != Some(d.index())
            {
                // A detour move is still open; the packet is waiting
                // on credit or a busy wire, not unroutable.
                return None;
            }
        }
    }
    Some(first_dead)
}

/// What the old pair said of a head, as the stall report combined them:
/// a fault park first, else head-of-line blocking.
fn old_verdict(e: &Engine, i: usize, f: usize, pkt: &Hop) -> Option<Stuck> {
    if pkt.plan.is_done() {
        return None;
    }
    match fault_blocked_by_the_old_walk(e, i, pkt) {
        Some(d) => Some(Stuck::Fault(d)),
        None => hol_blocked_by_the_old_walk(e, i, f, pkt).then_some(Stuck::Hol),
    }
}

/// Whether the old walk let `pkt` leave only over the link it just
/// detoured through, which the arbiter refuses it (`suppress_return`): a
/// free, live output with room downstream that `exit_vc` turns down.
fn refused_return(e: &Engine, i: usize, f: usize, pkt: &Hop) -> bool {
    let sh = &e.shared;
    let accepted = |d: Direction| {
        let nb = sh.neighbors[i * sh.ports + d.index()];
        nb != u32::MAX
            && sh.wants(pkt, d)
            && alive(sh, i, d)
            && e.state.link_busy_until[i * sh.ports + d.index()] <= e.now
            && sh
                .feasible_vc(pkt, i, sh.input_dim(f), d, nb as usize)
                .is_some()
    };
    let mut open = sh.part.directions().filter(|&d| accepted(d));
    let only = open.next().filter(|_| open.next().is_none());
    only.is_some_and(|d| {
        let nb = sh.neighbors[i * sh.ports + d.index()] as usize;
        pkt.detour_from() == Some(d.index()) && sh.exit_vc(pkt, i, f, d, nb, true).is_none()
    })
}

/// What a driven run showed: verdicts of each kind, the heads the two
/// rules disagree on (each a refused return), and how the run ended.
#[derive(Debug, Default)]
struct Tally {
    hol: u64,
    fault: u64,
    refused_returns: u64,
    stalled: bool,
}

/// Step `engine` as [`Engine::run`] does, to completion or the watchdog,
/// and after every stepped cycle ask `stuck` and the old pair of every
/// head of every node.
fn drive(mut e: Engine) -> Tally {
    let mut tally = Tally::default();
    let watchdog = e.shared.cfg.watchdog_cycles;
    while !e.is_complete() && e.now.saturating_sub(e.last_progress) <= watchdog {
        e.step();
        for i in 0..e.num_nodes() {
            for (f, head) in e.state.heads(i) {
                let (new, old) = (e.stuck(i, f, head), old_verdict(&e, i, f, head));
                match new {
                    Some(Stuck::Hol) => tally.hol += 1,
                    Some(Stuck::Fault(_)) => tally.fault += 1,
                    None => {}
                }
                if new != old {
                    assert!(
                        (new, old) == (Some(Stuck::Hol), None) && refused_return(&e, i, f, head),
                        "node {i} fifo {f} at cycle {}: stuck says {new:?}, the old walks \
                         {old:?} ({head:?})",
                        e.now
                    );
                    tally.refused_returns += 1;
                }
            }
        }
        if !e.is_complete() && e.may_skip() {
            e.fast_forward();
        }
    }
    tally.stalled = !e.is_complete();
    tally
}

/// Seeded random traffic: every node sends `k` packets of 1 to 8 chunks to
/// random peers, one in four dimension-ordered.
fn seeded(part: &Partition, k: u32, seed: u64) -> Vec<Box<dyn NodeProgram>> {
    let (p, mut rng) = (part.num_nodes(), SmallRng::seed_from_u64(seed));
    let mut expect = vec![0u64; p as usize];
    let sends: Vec<Vec<SendSpec>> = (0..p)
        .map(|src| {
            let spec = |rng: &mut SmallRng| {
                let dst = (src + rng.gen_range(1..p)) % p;
                let chunks = rng.gen_range(1..=8u8);
                let routing = [RoutingMode::Deterministic, RoutingMode::Adaptive]
                    [usize::from(rng.gen_range(0..4u32) != 0)];
                SendSpec::new(dst, chunks, u32::from(chunks) * 30, routing)
            };
            (0..k).map(|_| spec(&mut rng)).collect()
        })
        .collect();
    for s in sends.iter().flatten() {
        expect[s.dst_rank as usize] += 1;
    }
    let programs = sends.into_iter().zip(expect);
    programs
        .map(|(s, n)| Box::new(ScriptedProgram::new(s, n)) as Box<dyn NodeProgram>)
        .collect()
}

fn link(node: u32, dim: Dim, sign: Sign, fail_at: u64, recover_at: Option<u64>) -> LinkFault {
    let dir = Direction { dim, sign };
    LinkFault {
        node,
        dir,
        fail_at,
        recover_at,
    }
}

/// Seeded loaded runs whose links fail mid-flight, some to recover and one
/// for good: every head at every stepped cycle gets the old pair's verdict,
/// bar a refused return, and the oracle re-derives the link mask at every
/// cycle boundary. On 4x4x4 three of four failed links recover; on 4Mx4x4,
/// where X is a mesh, the faults sit beside its edges — the one X link of an
/// edge node, the link into an edge node and, for good, an edge node's Y
/// link — so the old walks' `u32::MAX` tests meet the link mask's missing
/// outputs.
#[test]
fn stuck_matches_the_old_walks_under_faults() {
    let mesh: Partition = "4Mx4x4".parse().unwrap();
    let at = |x, y, z| mesh.rank_of(Coord::new(x, y, z));
    let torus_faults = vec![
        link(0, Dim::X, Sign::Plus, 200, Some(900)),
        link(21, Dim::Y, Sign::Minus, 300, Some(1200)),
        link(42, Dim::Z, Sign::Plus, 150, None),
        link(5, Dim::X, Sign::Minus, 400, Some(700)),
    ];
    let mesh_faults = vec![
        link(at(0, 1, 1), Dim::X, Sign::Plus, 150, Some(800)),
        link(at(1, 2, 3), Dim::X, Sign::Minus, 300, Some(1100)),
        link(at(3, 2, 0), Dim::Y, Sign::Plus, 200, None),
    ];
    for (part, links) in [
        (Partition::torus(4, 4, 4), torus_faults),
        (mesh, mesh_faults),
    ] {
        let mut cfg = SimConfig::new(part);
        (cfg.watchdog_cycles, cfg.check_invariants) = (2_000, true);
        cfg.fault = FaultPlan {
            links,
            nodes: vec![],
        };
        let tally = drive(Engine::new(cfg, seeded(&part, 400, 20261017)));
        // The permanent fault strands dimension-ordered packets: the run
        // ends at the watchdog, having shown every verdict and the one
        // difference.
        assert!(
            tally.stalled && tally.hol > 0 && tally.fault > 0,
            "{part} {tally:?}"
        );
        assert!(tally.refused_returns > 0, "{part} {tally:?}");
    }
}

/// Two healthy deadlocks of a full exchange on 8x4x4, held to the
/// watchdog: adaptive routing with no bubble escape, and VC FIFOs one
/// packet deep.
#[test]
fn stuck_matches_the_old_walks_in_healthy_deadlocks() {
    let part = Partition::torus(8, 4, 4);
    type Tweak = fn(&mut SimConfig);
    let tweaks: [Tweak; 2] = [
        |c| c.router.adaptive_bubble_escape = false,
        |c| c.router.vc_fifo_chunks = 8,
    ];
    for tweak in tweaks {
        let mut cfg = SimConfig::new(part);
        cfg.watchdog_cycles = 500;
        tweak(&mut cfg);
        let p = part.num_nodes();
        let programs = (0..p).map(|r| {
            let sends = (0..p)
                .filter(|&d| d != r)
                .flat_map(|d| (0..8).map(move |_| SendSpec::adaptive(d, 8, 240)));
            Box::new(ScriptedProgram::new(sends.collect(), (p as u64 - 1) * 8)) as _
        });
        let tally = drive(Engine::new(cfg, programs.collect()));
        assert!(tally.stalled && tally.hol > 0, "{tally:?}");
        assert_eq!((tally.fault, tally.refused_returns), (0, 0), "{tally:?}");
    }
}

/// The difference built by hand: a head detoured into node 5 of a 4x4 torus
/// (it came up from below) requests X+ and its way back, Y-. X+ is alive
/// but busy, and the return is free and has room: the old walk let the head
/// leave, the arbiter does not, so the stall report counts it as HOL-blocked.
#[test]
fn a_refused_return_is_head_of_line_blocking() {
    let part = Partition::torus(4, 4, 1);
    let mut cfg = SimConfig::new(part);
    cfg.fault
        .links
        .push(link(0, Dim::X, Sign::Plus, 1_000, None));
    let idle = (0..part.num_nodes()).map(|_| Box::new(ScriptedProgram::idle()) as _);
    let mut e = Engine::new(cfg, idle.collect());
    let (x_plus, y_minus) = (Direction::from_index(0), Direction::from_index(3));
    let h = e.state.slab.alloc(Packet::new(&part, 5, 2));
    e.state.slab[h].note_detour(y_minus.index());
    let (f, dirs) = (
        y_minus.index() * NUM_VCS,
        e.shared.request_dirs(&e.state.slab[h]),
    );
    assert_eq!(dirs, 1 << x_plus.index() | 1 << y_minus.index());
    e.state.fifos.fifo_mut(5, f).push(&mut e.state.slab, h, 8);
    e.state.set_head(5, e.shared.ports, f, 0, Some(dirs));
    e.state.link_busy_until[5 * e.shared.ports + x_plus.index()] = 100;
    let head = &e.state.slab[h];
    assert!(!hol_blocked_by_the_old_walk(&e, 5, f, head));
    assert!(refused_return(&e, 5, f, head));
    let (breakdown, faults) = e.stall_breakdown();
    assert_eq!((breakdown.hol_blocked_heads, faults.len()), (1, 0));
}

/// `State::set_head` as it was before it flipped only the bits that change,
/// verbatim but for its name, its receiver and the mask array it writes
/// (`State::masks`, once `NodeState`'s): every request word of the row
/// rewritten, the requested outputs re-derived from all of them.
fn set_head_rewriting_every_word(
    st: &mut State,
    i: usize,
    ports: usize,
    f: usize,
    head: Option<u16>,
) {
    let node = &mut st.masks[i];
    node.occupied = node.occupied & !(1 << f) | u64::from(head.is_some()) << f;
    let (dirs, mut requested) = (head.unwrap_or(0), 0);
    for (d, w) in st.want[i * ports..][..ports].iter_mut().enumerate() {
        *w = *w & !(1 << f) | u64::from(dirs >> d & 1) << f;
        requested |= u16::from(*w != 0) << d;
    }
    node.requested = requested;
}

/// A head's hint bits: per dimension, none, plus or minus.
fn hint_bits(rng: &mut SmallRng, ports: usize) -> u16 {
    (0..ports / 2).fold(0, |m, d| m | rng.gen_range(0..3u16) << (2 * d))
}

/// Seeded random sequences of the five head events on one node each of a
/// 2-D, a 3-D and a 6-D partition (4, 6 and 12 ports; 44, 50 and 64 FIFOs),
/// at a sparse and a dense FIFO occupancy: an arrival into an empty transit
/// FIFO and a push into an empty injection FIFO (`old` 0), a delivery's pop
/// of an arrived head (`old` 0), and an arbitration win's transit or
/// injection pop (`old` the winner's requests). After every step the delta
/// writer and the full-row writer leave the same request row, occupancy
/// mask and requested outputs.
#[test]
fn set_head_flips_what_the_full_row_writer_rewrites() {
    let mut rng = SmallRng::seed_from_u64(20261025);
    let (mut events, mut cleared) = ([0u32; 5], 0u32);
    for (shape, inj) in [("4x4", 32), ("4x2x3", 32), ("2x2x2x2x2x2", 28)] {
        let part: Partition = shape.parse().unwrap();
        let mut cfg = SimConfig::new(part);
        cfg.inj_fifo_count = inj;
        let engine = || {
            let idle = (0..part.num_nodes()).map(|_| Box::new(ScriptedProgram::idle()) as _);
            Engine::new(cfg.clone(), idle.collect())
        };
        let (mut delta, mut full) = (engine(), engine());
        let (ports, vc_cells) = (delta.shared.ports, delta.shared.vc_cells);
        let fifos = vc_cells + inj as usize;
        // Per node, the chance an empty FIFO gets a head and a pop empties
        // its FIFO: a node with a few heads, whose outputs drop out of the
        // requested set, and a crowded one.
        for (i, fill, empty) in [(0, 0.05, 0.9), (part.num_nodes() as usize - 1, 0.6, 0.3)] {
            let mut heads: Vec<Option<u16>> = vec![None; fifos];
            for _ in 0..20_000 {
                let f = rng.gen_range(0..fifos);
                let transit = f < vc_cells;
                // A quarter of the transit heads have arrived; every other
                // head, injected ones always, still travels.
                let head = |rng: &mut SmallRng| {
                    let arrived = transit && rng.gen::<f64>() < 0.25;
                    let mut dirs = 0;
                    while dirs == 0 && !arrived {
                        dirs = hint_bits(rng, ports);
                    }
                    dirs
                };
                let (event, old) = match heads[f] {
                    None if rng.gen::<f64>() >= fill => continue,
                    None => (usize::from(!transit), 0),
                    Some(0) => (2, 0),
                    Some(dirs) => (3 + usize::from(!transit), dirs),
                };
                // A pop exposes the next head unless it empties the FIFO.
                let pushed = heads[f].is_none() || rng.gen::<f64>() >= empty;
                let new = pushed.then(|| head(&mut rng));
                events[event] += 1;
                heads[f] = new;
                let before = delta.state.masks[i].requested;
                delta.state.set_head(i, ports, f, old, new);
                set_head_rewriting_every_word(&mut full.state, i, ports, f, new);
                cleared += u32::from(before & !delta.state.masks[i].requested != 0);
                let row = |e: &Engine| {
                    let n = &e.state.masks[i];
                    (
                        e.state.want[i * ports..][..ports].to_vec(),
                        n.occupied,
                        n.requested,
                    )
                };
                assert_eq!(row(&delta), row(&full), "{shape} node {i} FIFO {f}");
            }
        }
    }
    // Every event is driven, and outputs do leave the requested set.
    assert!(events.iter().all(|&n| n > 1000), "{events:?}");
    assert!(cleared > 1000, "{cleared} steps cleared a requested output");
}

/// `Engine::new` builds the machine in one rank-order walk
/// ([`Partition::walk`]); here every table it builds is re-derived the
/// other way round, rank to coordinate to neighbour to rank: each node's
/// coordinate, each output's neighbour (`u32::MAX` where there is none),
/// and the link mask, by the oracle's own derivation. Shapes of 1 to 6
/// dimensions with torus, mesh, size-2 and size-1 dimensions.
#[test]
fn the_walk_builds_what_the_round_trip_derives() {
    let mut shapes: Vec<Partition> = [
        "4x3",
        "2x5x3",
        "4Mx3x2M",
        "8x1x4",
        "2x3x2x4",
        "3x2Mx1x2x3",
        "2x2x3x2x2x2",
    ]
    .map(|s| s.parse().unwrap())
    .into();
    shapes.push(Partition::new(&[5], &[false]));
    for part in shapes {
        let idle = (0..part.num_nodes()).map(|_| Box::new(ScriptedProgram::idle()) as _);
        let engine = Engine::new(SimConfig::new(part), idle.collect());
        let sh = &engine.shared;
        assert_eq!(sh.neighbors.len(), part.num_nodes() as usize * part.ports());
        for (r, node) in engine.state.nodes.iter().enumerate() {
            let c = part.coord_of(r as u32);
            assert_eq!(node.coord, c, "{part} node {r}");
            for d in part.directions() {
                let nb = part.neighbor(c, d).map_or(u32::MAX, |n| part.rank_of(n));
                assert_eq!(sh.neighbors[r * sh.ports + d.index()], nb, "{part} {r}:{d}");
            }
        }
        engine.oracle_link_check(0);
    }
}
