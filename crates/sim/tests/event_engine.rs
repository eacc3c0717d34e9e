//! Regression tests for the skipping clock's hard corners: the per-node
//! settle of per-cycle blocked counters under rate pacing and credit
//! sleeps, credit stop-and-wait wake-ups (the ack is itself a packet), tracer
//! sample boundaries that do not divide the skip intervals, progress that
//! moves no packet, and the watchdog firing at the same cycle whether or
//! not cycles were stepped.
//!
//! Each test pins the skipping clock (`EngineMode::EventDriven`, the
//! default) byte-for-byte against the full-scan reference
//! (`common::run_modes`) on a workload that specifically
//! exercises the skip-ahead machinery.

mod common;

use std::cell::RefCell;
use std::collections::VecDeque;

use bgl_sim::{
    Engine, EngineMode, FlowSpec, LinkFault, NetStats, NodeApi, NodeProgram, Packet, PacketMeta,
    PerfConfig, PerfProfile, PollHint, ScriptedProgram, SendSpec, SimConfig, SimError,
};
use bgl_torus::{Coord, Dim, Direction, Partition, Sign};
use common::{engine_cell, run_modes, Axes};

/// Sparse streams on an idle partition: the event engine's best case.
fn stream_programs(part: &Partition, packets: u64) -> Vec<Box<dyn NodeProgram>> {
    let p = part.num_nodes();
    let mut programs: Vec<Box<dyn NodeProgram>> = (0..p)
        .map(|_| Box::new(ScriptedProgram::idle()) as Box<dyn NodeProgram>)
        .collect();
    for (src, dst) in [(0u32, p - 1), (1, p / 2)] {
        programs[src as usize] = Box::new(ScriptedProgram::new(
            (0..packets)
                .map(|_| SendSpec::adaptive(dst, 8, 240))
                .collect(),
            0,
        ));
        programs[dst as usize] = Box::new(ScriptedProgram::new(vec![], packets));
    }
    programs
}

/// Run `programs` on `cfg` under the default clock, profiled: the
/// statistics and the profile.
fn profiled(mut cfg: SimConfig, programs: Vec<Box<dyn NodeProgram>>) -> (NetStats, PerfProfile) {
    cfg.perf = Some(PerfConfig::default());
    let mut engine = Engine::new(cfg, programs);
    let stats = engine.run().expect("the run completes");
    (stats, engine.take_perf().expect("profiling on"))
}

/// Rate pacing makes `pacing_blocked_cycles` a per-cycle counter. Under
/// the skipping clock a paced source is parked until its window opens,
/// and the cycles it is passed over for — stepped or skipped — are
/// settled on the node when it is next visited or the statistics are
/// read, so any off-by-one in the settle shows up as a counter mismatch.
/// A parked poller is not visited: beyond each node's first visit, the
/// run makes fewer than two CPU visits per stepped cycle, where visiting
/// every paced source and sleeping sink each cycle would make four.
#[test]
fn rate_paced_streams_replay_blocked_cycles_exactly() {
    let part: Partition = "8x4x4".parse().unwrap();
    let mut cfg = SimConfig::new(part);
    cfg.flow = FlowSpec::Rate {
        chunks_per_cycle: 1.0 / 64.0,
    };
    let reference = run_modes(&cfg, Axes::MODES, |c| {
        engine_cell(c, stream_programs(&part, 24))
    })
    .expect("streams complete");
    assert!(
        reference.pacing_blocked_cycles > 0,
        "rate window must actually block: {reference:?}"
    );
    assert_eq!(reference.packets_delivered, 48);
    let (stats, perf) = profiled(cfg, stream_programs(&part, 24));
    assert_eq!(stats, reference);
    let bound = u64::from(part.num_nodes()) + 2 * perf.stepped_cycles;
    assert!(
        perf.cpu_visits <= bound,
        "{} CPU visits > {bound}",
        perf.cpu_visits
    );
}

/// A fault that drops the one packet a rate-parked node still waits for
/// completes that node's program with no visit of its own: the drop must
/// wake it, or the cycles after its program finished would still be
/// counted as blocked polls when the statistics are read.
#[test]
fn a_drop_that_completes_a_parked_poller_wakes_it() {
    let part: Partition = "8x1x1".parse().unwrap();
    let mut cfg = SimConfig::new(part);
    cfg.flow = FlowSpec::Rate {
        chunks_per_cycle: 1.0 / 64.0,
    };
    // Node 0's packet to node 3 is crossing the 1→2 link at cycle 12.
    cfg.fault.links.push(LinkFault {
        node: 1,
        dir: Direction {
            dim: Dim::X,
            sign: Sign::Plus,
        },
        fail_at: 12,
        recover_at: None,
    });
    let programs = || {
        let mut programs: Vec<Box<dyn NodeProgram>> = (0..8)
            .map(|_| Box::new(ScriptedProgram::idle()) as Box<dyn NodeProgram>)
            .collect();
        programs[0] = Box::new(ScriptedProgram::new(vec![SendSpec::adaptive(3, 8, 240)], 0));
        // One send at cycle 0 closes node 3's rate window for 512 cycles;
        // it waits for node 0's packet, parked, until the drop.
        programs[3] = Box::new(ScriptedProgram::new(vec![SendSpec::adaptive(2, 8, 240)], 1));
        programs[2] = Box::new(ScriptedProgram::new(vec![], 1));
        programs
    };
    let both = Axes {
        oracle: &[false, true],
        ..Axes::MODES
    };
    let stats = run_modes(&cfg, both, |c| engine_cell(c, programs())).expect("the drop completes");
    assert_eq!(stats.dropped_by_fault, 1, "{stats:?}");
    assert!(stats.completion_cycle < 512, "{stats:?}");
}

/// Stop-and-wait source: one outstanding packet toward `dst`, each
/// acknowledged by a credit packet the sink sends back. Declines only
/// while the window is closed, which a delivery (the ack) reopens.
struct StopAndWaitSource {
    dst: u32,
    total: u32,
    sent: u32,
    acks: u32,
}

const KIND_ACK: u8 = 9;

impl NodeProgram for StopAndWaitSource {
    fn poll_hint(&self) -> PollHint {
        PollHint::SleepUntilDelivery
    }

    fn next_send(&mut self, api: &mut NodeApi<'_>) -> Option<SendSpec> {
        if self.sent >= self.total || !api.try_acquire_credit(self.dst) {
            return None;
        }
        self.sent += 1;
        Some(SendSpec::adaptive(self.dst, 8, 240))
    }

    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: &Packet) {
        if pkt.meta.kind == KIND_ACK {
            api.apply_credit(pkt.src_rank, pkt.meta.a);
            self.acks += 1;
        }
    }

    fn is_complete(&self) -> bool {
        self.sent >= self.total && self.acks >= self.total
    }
}

/// The sink half: counts data packets and queues one credit packet back
/// per receipt (window 1, ack every 1).
struct AckingSink {
    expect: u64,
    received: u64,
    pending: VecDeque<SendSpec>,
}

impl NodeProgram for AckingSink {
    fn poll_hint(&self) -> PollHint {
        PollHint::SleepUntilDelivery
    }

    fn next_send(&mut self, _api: &mut NodeApi<'_>) -> Option<SendSpec> {
        self.pending.pop_front()
    }

    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: &Packet) {
        if pkt.meta.kind != KIND_ACK {
            self.received += 1;
            if let Some(n) = api.credit_receipt(pkt.src_rank) {
                let mut ack = SendSpec::adaptive(pkt.src_rank, 1, 1);
                ack.meta = PacketMeta {
                    kind: KIND_ACK,
                    a: n,
                    b: api.rank,
                };
                self.pending.push_back(ack);
            }
        }
    }

    fn is_complete(&self) -> bool {
        self.received >= self.expect && self.pending.is_empty()
    }
}

/// Credit stop-and-wait is the hardest wake-up case: the source sleeps
/// with a closed window and *must* be woken by the ack delivery, while
/// `credit_blocked_events` accrues per denial per cycle. The sleeper is
/// parked, denials and all, and the cycles it is passed over for are
/// settled on the node.
#[test]
fn credit_stop_and_wait_matches_across_modes() {
    let part: Partition = "8x4x4".parse().unwrap();
    let p = part.num_nodes();
    let mut cfg = SimConfig::new(part);
    cfg.flow = FlowSpec::Credit {
        window_packets: 1,
        credit_every: 1,
    };
    let programs = || {
        let mut programs: Vec<Box<dyn NodeProgram>> = (0..p)
            .map(|_| Box::new(ScriptedProgram::idle()) as Box<dyn NodeProgram>)
            .collect();
        programs[0] = Box::new(StopAndWaitSource {
            dst: p - 1,
            total: 12,
            sent: 0,
            acks: 0,
        });
        programs[(p - 1) as usize] = Box::new(AckingSink {
            expect: 12,
            received: 0,
            pending: VecDeque::new(),
        });
        programs
    };
    let reference = run_modes(&cfg, Axes::MODES, |c| engine_cell(c, programs()))
        .expect("every packet is acknowledged");
    assert!(
        reference.credit_blocked_events > 0,
        "window of 1 must block between ack round-trips: {reference:?}"
    );
    // 12 data packets one way, 12 acks back.
    assert_eq!(reference.packets_delivered, 24);
    let (stats, perf) = profiled(cfg, programs());
    assert_eq!(stats, reference);
    assert!(perf.cpu_parked > 0, "the sleeper parks: {perf:?}");
}

/// A sampling interval that divides nothing forces the event engine to
/// segment every skip at tracer boundaries; the recorded series must be
/// identical to the cycle-stepped full scan's, sample for sample.
#[test]
fn traced_odd_interval_produces_identical_series() {
    let part: Partition = "8x4x4".parse().unwrap();
    let mut cfg = SimConfig::new(part);
    cfg.flow = FlowSpec::Rate {
        chunks_per_cycle: 1.0 / 32.0,
    };
    let traced = Axes {
        trace: &[Some(7)],
        ..Axes::MODES
    };
    run_modes(&cfg, traced, |c| engine_cell(c, stream_programs(&part, 16)))
        .expect("streams complete");
}

/// Progress that moves no packet: the sink books its CPU far ahead with
/// one expensive send, so the stream lands in its reception FIFO (and,
/// once that is full, stalls in the VC FIFOs) long before the drains run.
/// Each drain is progress without a FIFO pop or an arbitration win, and
/// re-queues the stalled deliveries for the next cycle: the skip gate must
/// see that queue, and the drain's CPU must wake when it is free.
/// Byte-identical in every mode, traced and not.
#[test]
fn late_reception_drains_match_across_modes() {
    let part: Partition = "4x4".parse().unwrap();
    let cfg = SimConfig::new(part);
    let programs = || {
        let mut programs: Vec<Box<dyn NodeProgram>> = (0..16)
            .map(|_| Box::new(ScriptedProgram::idle()) as Box<dyn NodeProgram>)
            .collect();
        programs[0] = Box::new(ScriptedProgram::new(
            (0..12).map(|_| SendSpec::adaptive(5, 8, 240)).collect(),
            0,
        ));
        let booking = SendSpec::adaptive(6, 1, 1).with_cpu_cost(400.0);
        programs[5] = Box::new(ScriptedProgram::new(vec![booking], 12));
        programs[6] = Box::new(ScriptedProgram::new(vec![], 1));
        programs
    };
    let both = Axes {
        trace: &[None, Some(7)],
        ..Axes::MODES
    };
    let stats = run_modes(&cfg, both, |c| engine_cell(c, programs())).expect("the drains run");
    assert_eq!(stats.packets_delivered, 13);
    assert!(
        stats.reception_stall_events > 0 && stats.completion_cycle > 400,
        "the stream must wait on the booked CPU: {stats:?}"
    );
}

/// The default config is the skipping clock: a paced stream on an
/// otherwise idle torus skips cycles without anyone asking for it.
#[test]
fn the_default_config_skips_idle_cycles() {
    let part: Partition = "8x4x4".parse().unwrap();
    let mut cfg = SimConfig::new(part);
    cfg.flow = FlowSpec::Rate {
        chunks_per_cycle: 1.0 / 64.0,
    };
    cfg.perf = Some(PerfConfig::default());
    let mut engine = Engine::new(cfg, stream_programs(&part, 8));
    let stats = engine.run().expect("streams complete");
    let perf = engine.take_perf().expect("profiling on");
    assert!(perf.skipped_cycles() > 0, "{perf:?}");
    assert_eq!(
        perf.stepped_cycles + perf.skipped_cycles(),
        stats.completion_cycle + 1,
        "stepped and skipped cycles partition the run"
    );
}

/// Pin the link-release wake edge: `link_busy_until == now` means the
/// link was busy *through the previous cycle* and is usable this cycle,
/// so the wake a visit leaves (`arb_at`) must be exactly `busy_until`, not
/// one later. A
/// back-to-back stream over a single link is paced purely by that edge —
/// one win every `chunks` cycles — so an off-by-one would delay every
/// subsequent win and shift the completion cycle visibly.
#[test]
fn link_release_edge_wakes_exactly_on_busy_until() {
    let part: Partition = "8x1x1".parse().unwrap();
    let cfg = SimConfig::new(part);
    let programs = || {
        let mut programs: Vec<Box<dyn NodeProgram>> = (0..8)
            .map(|_| Box::new(ScriptedProgram::idle()) as Box<dyn NodeProgram>)
            .collect();
        programs[0] = Box::new(ScriptedProgram::new(
            (0..16).map(|_| SendSpec::adaptive(1, 8, 240)).collect(),
            0,
        ));
        programs[1] = Box::new(ScriptedProgram::new(vec![], 16));
        programs
    };
    let reference =
        run_modes(&cfg, Axes::MODES, |c| engine_cell(c, programs())).expect("the stream completes");
    assert_eq!(reference.packets_delivered, 16);
    // 16 packets × 8 chunks back-to-back over one link: the stream must
    // sustain one win per 8 cycles, so completion stays close to the
    // 128-cycle serialization floor. A wake-edge off-by-one adds a cycle
    // per packet and pushes this past the bound.
    assert!(
        reference.completion_cycle < 128 + 24,
        "link must go back-to-back at the busy_until edge: completed at {}",
        reference.completion_cycle
    );
}

/// Pin the watchdog clamp in `fast_forward`: with a *timed* wake far
/// beyond the watchdog horizon (a rate window that re-opens after tens
/// of thousands of cycles), the event engine must not jump past
/// `last_progress + watchdog_cycles + 1` — unclamped it would sail to
/// the rate wake, send the second packet, and *complete* instead of
/// reporting the same stall the cycle-stepped full scan sees. Traced, the
/// stall's series must count every cycle the parked source was blocked:
/// the error exit settles what the node owes, as a completed run does.
#[test]
fn watchdog_clamps_skips_with_a_distant_timed_wake() {
    let part: Partition = "4x4".parse().unwrap();
    let mut cfg = SimConfig::new(part);
    cfg.watchdog_cycles = 300;
    cfg.flow = FlowSpec::Rate {
        chunks_per_cycle: 1.0 / 4096.0, // next_allowed jumps ~32k cycles per 8-chunk send
    };
    let programs = || {
        let mut programs: Vec<Box<dyn NodeProgram>> = (0..16)
            .map(|_| Box::new(ScriptedProgram::idle()) as Box<dyn NodeProgram>)
            .collect();
        programs[0] = Box::new(ScriptedProgram::new(
            (0..2).map(|_| SendSpec::adaptive(15, 8, 240)).collect(),
            0,
        ));
        programs[15] = Box::new(ScriptedProgram::new(vec![], 2));
        programs
    };
    // The full scan fires at the first cycle with
    // now − last_progress > watchdog_cycles; the clamp must hold the
    // skipping clock to the same horizon.
    let traced = Axes {
        trace: &[None, Some(7), Some(64)],
        ..Axes::MODES
    };
    let blocked = RefCell::new(Vec::new());
    let outcome = run_modes(&cfg, traced, |c| {
        let cell = engine_cell(c, programs());
        if let Some(trace) = &cell.trace {
            let deltas = trace.samples.iter().map(|s| s.pacing_blocked_delta);
            blocked.borrow_mut().push(deltas.sum::<u64>());
        }
        cell
    });
    match outcome {
        Err(SimError::Stalled { cycle, .. }) => assert!(
            cycle < 1000,
            "stall must fire near the watchdog horizon, not the rate wake (cycle {cycle})"
        ),
        other => panic!("rate window far exceeds the watchdog: run must stall, got {other:?}"),
    }
    // Both clocks at both intervals.
    let blocked = blocked.into_inner();
    assert_eq!(blocked.len(), 4);
    assert!(
        blocked[0] > 0 && blocked.iter().all(|&b| b == blocked[0]),
        "{blocked:?}"
    );
}

/// A deadlocked workload must stall at the same watchdog cycle in every
/// mode: the event engine may never skip past `last_progress +
/// watchdog_cycles`, or the error (and its cycle stamp) would drift.
#[test]
fn watchdog_fires_at_the_same_cycle_in_event_mode() {
    let part: Partition = "4x4".parse().unwrap();
    let mut cfg = SimConfig::new(part);
    cfg.watchdog_cycles = 500;
    let programs = || {
        let mut programs: Vec<Box<dyn NodeProgram>> = (0..16)
            .map(|_| Box::new(ScriptedProgram::idle()) as Box<dyn NodeProgram>)
            .collect();
        // Node 5 waits for packets nobody sends, forever.
        programs[5] = Box::new(ScriptedProgram::new(vec![], 3));
        programs
    };
    let outcome = run_modes(&cfg, Axes::MODES, |c| engine_cell(c, programs()));
    assert!(
        matches!(outcome, Err(SimError::Stalled { .. })),
        "{outcome:?}"
    );
}

/// A head refused on downstream credit is parked until the release that
/// gives it room, not visited at every stepped cycle. Node 2's CPU is
/// booked for 2,000 cycles, so stream A (64 packets, node 0 to node 2)
/// backs up into nodes 1 and 0, whose links stay free while the cells
/// ahead of them are full; stream B (node 16 to node 17) keeps the clock
/// stepping meanwhile. The oracle cells check that no parked node could
/// have won a link; the profiled skipping-clock cells must show the two
/// refused nodes passed over, where visiting them at every stepped cycle
/// would cost two visits per stepped cycle on their own.
#[test]
fn credit_blocked_heads_park_until_the_release() {
    let part: Partition = "8x4".parse().unwrap();
    let stream = |dst: u32, n: u64| -> Box<dyn NodeProgram> {
        let sends = (0..n).map(|_| SendSpec::adaptive(dst, 8, 240)).collect();
        Box::new(ScriptedProgram::new(sends, 0))
    };
    let sink = |n: u64, sends: Vec<SendSpec>| -> Box<dyn NodeProgram> {
        Box::new(ScriptedProgram::new(sends, n))
    };
    let programs = || {
        let mut programs: Vec<Box<dyn NodeProgram>> = (0..32)
            .map(|_| Box::new(ScriptedProgram::idle()) as Box<dyn NodeProgram>)
            .collect();
        programs[0] = stream(2, 64);
        programs[2] = sink(64, vec![SendSpec::adaptive(3, 1, 1).with_cpu_cost(2000.0)]);
        programs[3] = sink(1, vec![]);
        programs[16] = stream(17, 300);
        programs[17] = sink(300, vec![]);
        programs
    };
    let axes = Axes {
        oracle: &[false, true],
        perf: &[true],
        ..Axes::MODES
    };
    let profiles = RefCell::new(Vec::new());
    let stats = run_modes(&SimConfig::new(part), axes, |c| {
        let event = c.engine == EngineMode::EventDriven;
        let cell = engine_cell(c, programs());
        if let (Some(p), true) = (&cell.perf, event) {
            profiles.borrow_mut().push((p.arb_visits, p.stepped_cycles));
        }
        cell
    })
    .expect("both streams complete");
    assert!(stats.completion_cycle > 2000, "{stats:?}");
    for (visits, stepped) in profiles.into_inner() {
        assert!(
            visits < stepped,
            "{visits} arbitration visits in {stepped} stepped cycles"
        );
    }
}

/// One rate-paced stream of `k` packets over `h` hops on an idle torus,
/// each packet sent after the one before has landed: the skipping clock
/// steps only the cycles in which some node acts. Per packet those are
/// `h + 2`: the injection (whose head wins its first link at once), the
/// `h` arrivals (each winning the next link in its own cycle, the last
/// one drained at once), and one more for a CPU — the sink's poll once its
/// drain is paid for, or, after the last packet, the source's poll that
/// finds its script done. Past cycle 0, when every node is visited, the
/// CPU phase makes three visits per packet: the source's injection and
/// the sink's drain and poll (for the first packet, injected at cycle 0,
/// two; for the last, the source's closing poll stands in for the sink's).
/// A wake written as "now" instead of the cycle the event enables, an
/// arrival re-arming arbitration, or a rate-blocked poll visited when its
/// CPU frees shows here as a count. The oracle cells check that no node
/// was parked past a cycle it could have acted in.
#[test]
fn a_paced_stream_steps_h_plus_two_cycles_per_packet() {
    let part: Partition = "8x4x4".parse().unwrap();
    let (k, src) = (6u64, 0u32);
    let dst = part.rank_of(Coord::from_slice(&[3, 1, 0]));
    let h = u64::from(part.hops(part.coord_of(src), part.coord_of(dst)));
    assert_eq!(h, 4);
    let mut cfg = SimConfig::new(part);
    cfg.flow = FlowSpec::Rate {
        chunks_per_cycle: 1.0 / 64.0,
    };
    let programs = || {
        let mut programs: Vec<Box<dyn NodeProgram>> = (0..part.num_nodes())
            .map(|_| Box::new(ScriptedProgram::idle()) as Box<dyn NodeProgram>)
            .collect();
        let sends = (0..k).map(|_| SendSpec::adaptive(dst, 8, 240)).collect();
        programs[src as usize] = Box::new(ScriptedProgram::new(sends, 0));
        programs[dst as usize] = Box::new(ScriptedProgram::new(vec![], k));
        programs
    };
    let axes = Axes {
        oracle: &[false, true],
        perf: &[true],
        ..Axes::MODES
    };
    let profiles = RefCell::new(Vec::new());
    let stats = run_modes(&cfg, axes, |c| {
        let event = c.engine == EngineMode::EventDriven;
        let cell = engine_cell(c, programs());
        if let (Some(p), true) = (&cell.perf, event) {
            profiles.borrow_mut().push(p.clone());
        }
        cell
    })
    .expect("the stream completes");
    assert_eq!(stats.packets_delivered, k);
    assert!(stats.pacing_blocked_cycles > 0, "{stats:?}");
    let profiles = profiles.into_inner();
    assert_eq!(profiles.len(), 2);
    for p in profiles {
        assert_eq!(p.stepped_cycles, k * (h + 2), "{p:?}");
        let nodes = u64::from(part.num_nodes());
        assert_eq!(p.cpu_visits - nodes, 3 * k - 1, "{p:?}");
    }
}

/// Packets that arrive behind a queued head wake nothing. Node 1's CPU is
/// booked for 2,000 cycles, so node 0's back-to-back stream fills its
/// reception FIFO and then queues in its transit FIFOs behind heads that
/// have arrived and request no link. Past its own booking send, node 1's
/// arbitration never has a head to move: the run makes one arbitration
/// visit per win and one more, node 0's visit that finds the FIFOs ahead
/// out of credit, the run's one refused output attempt. Re-arming node 1
/// at every arrival added a visit per queued packet (136 visits for these
/// 41 wins).
#[test]
fn arrivals_behind_a_queued_head_make_no_arbitration_visit() {
    let part: Partition = "8x1x1".parse().unwrap();
    let n = 40u64;
    let programs = || {
        let mut programs: Vec<Box<dyn NodeProgram>> = (0..8)
            .map(|_| Box::new(ScriptedProgram::idle()) as Box<dyn NodeProgram>)
            .collect();
        let stream = (0..n).map(|_| SendSpec::adaptive(1, 8, 240)).collect();
        programs[0] = Box::new(ScriptedProgram::new(stream, 0));
        let booking = SendSpec::adaptive(2, 1, 1).with_cpu_cost(2000.0);
        programs[1] = Box::new(ScriptedProgram::new(vec![booking], n));
        programs[2] = Box::new(ScriptedProgram::new(vec![], 1));
        programs
    };
    let axes = Axes {
        oracle: &[false, true],
        perf: &[true],
        ..Axes::MODES
    };
    let profiles = RefCell::new(Vec::new());
    let stats = run_modes(&SimConfig::new(part), axes, |c| {
        let event = c.engine == EngineMode::EventDriven;
        let cell = engine_cell(c, programs());
        if let (Some(p), true) = (&cell.perf, event) {
            profiles.borrow_mut().push(p.clone());
        }
        cell
    })
    .expect("the stream completes");
    assert!(stats.reception_stall_events > 0, "{stats:?}");
    let wins: u64 = stats.hops_taken.iter().sum();
    assert_eq!(wins, n + 1);
    let profiles = profiles.into_inner();
    assert_eq!(profiles.len(), 2);
    for p in profiles {
        assert_eq!((p.arb_visits, p.arb_refused), (wins + 1, 1), "{p:?}");
    }
}
