//! A node program builds its own `SendSpec`s, and every field of one is
//! public: a send the engine cannot inject must end the run with
//! `SimError::InvalidSend`, never panic the engine, stall it, or go through
//! as a packet BG/L cannot carry. One case per field, through both ways a
//! send enters a node's queues: the pull (`next_send`) and the reactive
//! send of a delivery hook (`NodeApi::send` in `on_packet`).

use bgl_sim::{
    Engine, NodeApi, NodeProgram, Packet, ScriptedProgram, SendSpec, SimConfig, SimError,
};
use bgl_torus::Partition;

/// Node 0 of a 4x4x2 torus pulls one send, `spec`; node 1 sends nothing.
struct PullsOnce(Option<SendSpec>);

impl NodeProgram for PullsOnce {
    fn next_send(&mut self, _api: &mut NodeApi<'_>) -> Option<SendSpec> {
        self.0.take()
    }

    fn is_complete(&self) -> bool {
        self.0.is_none()
    }
}

/// Answers the first delivery with `spec`, sent from its hook.
struct Replies(Option<SendSpec>);

impl NodeProgram for Replies {
    fn on_packet(&mut self, api: &mut NodeApi<'_>, _pkt: &Packet) {
        if let Some(spec) = self.0.take() {
            api.send(SendSpec::adaptive(0, 1, 32)); // valid, and dropped with it
            api.send(spec);
        }
    }

    fn is_complete(&self) -> bool {
        self.0.is_none()
    }
}

fn part() -> Partition {
    "4x4x2".parse().unwrap()
}

/// Run with node 0 pulling `spec` (or, if `reactive`, node 1 sending it
/// from `on_packet` when node 0's valid packet arrives), the oracle on.
fn run(spec: SendSpec, reactive: bool) -> Result<bgl_sim::NetStats, SimError> {
    let part = part();
    let mut cfg = SimConfig::new(part);
    cfg.check_invariants = true;
    let n = part.num_nodes();
    let mut programs: Vec<Box<dyn NodeProgram>> = (0..n)
        .map(|_| Box::new(ScriptedProgram::idle()) as Box<dyn NodeProgram>)
        .collect();
    if reactive {
        programs[0] = Box::new(PullsOnce(Some(SendSpec::adaptive(1, 1, 32))));
        programs[1] = Box::new(Replies(Some(spec)));
    } else {
        programs[0] = Box::new(PullsOnce(Some(spec)));
    }
    Engine::new(cfg, programs).run()
}

/// `spec`, sent either way, stops the run with an `InvalidSend` naming
/// the sending node and carrying `needle` in its reason.
fn refused(spec: SendSpec, needle: &str) {
    for reactive in [false, true] {
        let err = run(spec.clone(), reactive).expect_err("an invalid send must fail the run");
        let sender = u32::from(reactive);
        match &err {
            SimError::InvalidSend {
                cycle,
                node,
                reason,
            } => {
                assert_eq!(*node, sender, "{err}");
                // A pull happens at cycle 0; a reply after its packet's trip.
                assert_eq!(*cycle == 0, !reactive, "{err}");
                assert!(reason.contains(needle), "{err}");
            }
            other => panic!("expected InvalidSend, got {other:?}"),
        }
        let text = err.to_string();
        assert!(
            text.starts_with(&format!("node {sender} made an invalid send at cycle ")),
            "{text}"
        );
    }
}

fn valid() -> SendSpec {
    SendSpec::adaptive(5, 8, 240)
}

#[test]
fn a_class_beyond_the_eight_class_masks_is_refused() {
    let mut s = valid();
    s.class = 9;
    refused(s, "injection class 9");
}

#[test]
fn packets_outside_one_to_eight_chunks_are_refused() {
    for chunks in [0, 9, 12, 20] {
        let mut s = valid();
        s.chunks = chunks;
        refused(s, &format!("a packet of {chunks} chunks"));
    }
}

#[test]
fn a_destination_outside_the_partition_is_refused() {
    let mut s = valid();
    s.dst_rank = 99;
    refused(s, "destination rank 99 outside the 32-node partition");
}

#[test]
fn a_send_to_itself_is_refused() {
    for reactive in [false, true] {
        let mut s = valid();
        s.dst_rank = u32::from(reactive);
        let err = run(s, reactive).unwrap_err();
        assert!(
            matches!(&err, SimError::InvalidSend { reason, .. } if reason.contains("to itself")),
            "{err:?}"
        );
    }
}

#[test]
fn a_payload_beyond_sixteen_bits_is_refused() {
    for bytes in [65_536, u32::MAX] {
        let mut s = valid();
        s.payload_bytes = bytes;
        refused(s, &format!("a payload of {bytes} bytes (at most 65535)"));
    }
}

#[test]
fn a_cpu_cost_that_is_negative_or_not_finite_is_refused() {
    for cost in [-1.0, f64::NAN, f64::INFINITY] {
        refused(valid().with_cpu_cost(cost), "a CPU cost of");
    }
}

#[test]
fn the_edges_of_every_range_are_accepted() {
    let part = part();
    let last = part.num_nodes() - 1;
    let mut s = SendSpec::deterministic(last, 1, 0)
        .with_class(7)
        .with_cpu_cost(0.0);
    for (chunks, bytes) in [(1, 0), (8, 65_535)] {
        (s.chunks, s.payload_bytes) = (chunks, bytes);
        // Class 7 has an injection FIFO under the default masks.
        let stats = run(s.clone(), false).expect("a valid send completes");
        assert_eq!(stats.payload_bytes_delivered, u64::from(bytes));
    }
}
