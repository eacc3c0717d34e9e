//! All-to-all workload description: message sizes, packetization and
//! randomized destination orders, each a formula evaluated per packet or
//! per visit rather than a list a node stores.

use bgl_model::{
    MachineParams, CHUNK_BYTES, MAX_PACKET_BYTES, MAX_PACKET_PAYLOAD, PACKET_OVERHEAD_BYTES,
};
use bgl_sim::packet::MAX_PACKET_CHUNKS;
use serde::Serialize;

/// An all-to-all personalized exchange workload: every node sends
/// `m_bytes` to each destination in its (possibly sampled) destination set.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AaWorkload {
    /// Application bytes per (source, destination) pair.
    pub m_bytes: u64,
    /// Fraction of the `P-1` possible destinations each node actually
    /// sends to, in `(0, 1]`. `1.0` is the full all-to-all. Values below 1
    /// sample a spatially uniform destination subset — the instantaneous
    /// link load distribution is that of the full exchange, the run is just
    /// shorter. Used to keep simulations of the very large partitions
    /// tractable (documented per-experiment in EXPERIMENTS.md).
    pub coverage: f64,
    /// Workload RNG seed (destination-order randomization).
    pub seed: u64,
}

impl AaWorkload {
    /// Full all-to-all of `m_bytes` per pair.
    pub fn full(m_bytes: u64) -> AaWorkload {
        AaWorkload {
            m_bytes,
            coverage: 1.0,
            seed: 0xaa11,
        }
    }

    /// Sampled all-to-all (see [`coverage`](Self::coverage)).
    pub fn sampled(m_bytes: u64, coverage: f64) -> AaWorkload {
        assert!(
            coverage > 0.0 && coverage <= 1.0,
            "coverage must be in (0,1]"
        );
        AaWorkload {
            coverage,
            ..AaWorkload::full(m_bytes)
        }
    }

    /// Number of destinations per node on a partition of `p` nodes.
    pub fn dests_per_node(&self, p: u32) -> u32 {
        let others = p.saturating_sub(1);
        // A single-node partition has nobody to send to at any coverage;
        // guarding here also keeps `clamp(1, 0)` (min > max) from
        // panicking on the sampled path.
        if self.coverage >= 1.0 || others == 0 {
            others
        } else {
            ((others as f64 * self.coverage).round() as u32).clamp(1, others)
        }
    }

    /// Effective per-pair bytes for peak-time computation: the sampled
    /// exchange moves `dests/(P-1)` of the full traffic.
    pub fn effective_fraction(&self, p: u32) -> f64 {
        let others = p.saturating_sub(1).max(1);
        self.dests_per_node(p) as f64 / others as f64
    }
}

/// One packet of a packetized message: wire chunks and application payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketShape {
    /// Wire size in [`CHUNK_BYTES`] chunks, `1..=MAX_PACKET_CHUNKS`.
    pub chunks: u8,
    /// Application payload bytes carried.
    pub payload: u32,
}

// The model's packet geometry and the simulator's packet limit are the
// same machine.
const _: () = assert!(MAX_PACKET_BYTES / CHUNK_BYTES == MAX_PACKET_CHUNKS as u32);

/// Split a message of `m` application bytes plus `header` protocol bytes
/// into BG/L packets: up to 240 payload-capacity bytes per 256-byte packet,
/// rounded up to 32-byte chunks, with a floor of `min_packet` bytes. A
/// packet is never more than [`MAX_PACKET_CHUNKS`] chunks: the payload cap
/// plus the overhead is exactly [`MAX_PACKET_BYTES`].
///
/// The direct strategies use `header = 48` (the software header `h`,
/// carried in the first packet); the combining runtime uses `header = 8`
/// (`proto`). The geometry is the hardware's, so `params` is not read.
///
/// # Panics
/// Panics if `m + header` overflows `u64` (a wrapped sum would packetize
/// a huge message as a tiny one), or if `min_packet` exceeds
/// [`MAX_PACKET_BYTES`].
pub fn packetize(
    m: u64,
    header: u32,
    min_packet: u32,
    _params: &MachineParams,
) -> Vec<PacketShape> {
    assert!(
        min_packet <= MAX_PACKET_BYTES,
        "a {min_packet}-byte packet floor exceeds the {MAX_PACKET_BYTES}-byte packet"
    );
    let payload_cap = MAX_PACKET_PAYLOAD as u64;
    let total = m.checked_add(header.into()).unwrap_or_else(|| {
        panic!("a {m}-byte message plus its {header}-byte header overflows u64")
    });
    let n = total.div_ceil(payload_cap).max(1);
    let mut out = Vec::with_capacity(n as usize);
    let mut app_left = m;
    let mut header_left = header as u64;
    for _ in 0..n {
        let head_part = header_left.min(payload_cap);
        header_left -= head_part;
        let app_part = app_left.min(payload_cap - head_part);
        app_left -= app_part;
        let wire = (head_part + app_part + PACKET_OVERHEAD_BYTES as u64).max(min_packet as u64);
        let chunks = wire.div_ceil(CHUNK_BYTES as u64);
        out.push(PacketShape {
            chunks: chunks as u8,
            payload: app_part as u32,
        });
    }
    debug_assert_eq!(app_left, 0);
    out
}

/// How the direct runtime (MPI, AR, DR, TPS, XYZ, patterns) frames an
/// `m`-byte message: the software header `h` rides in the first packet and
/// no packet is shorter than the AA runtime's 64-byte floor.
pub fn direct_shapes(m: u64, params: &MachineParams) -> Vec<PacketShape> {
    Framing::direct(m, params).shapes().collect()
}

/// The packets of one message as a formula: what [`packetize`] lists, in
/// 24 bytes. A message is a stream of `header` protocol bytes, then `m`
/// application bytes, cut into packets of [`MAX_PACKET_PAYLOAD`] stream
/// bytes, the last one short, so packet `i`'s share of the header and of
/// the payload follow from `i` alone ([`shape`](Self::shape)). A node's
/// send walk holds this instead of its own copy of the shape list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Framing {
    /// Stream bytes: `m` plus the header.
    total: u64,
    header: u32,
    /// Smallest packet on the wire, bytes.
    floor: u32,
    /// Packets per message, at least one.
    packets: usize,
}

impl Framing {
    /// The framing of `m` application bytes behind a `header`-byte
    /// protocol header, no packet under `floor` bytes: the arguments of
    /// [`packetize`], with its panics.
    pub fn new(m: u64, header: u32, floor: u32) -> Framing {
        assert!(
            floor <= MAX_PACKET_BYTES,
            "a {floor}-byte packet floor exceeds the {MAX_PACKET_BYTES}-byte packet"
        );
        let total = m.checked_add(header.into()).unwrap_or_else(|| {
            panic!("a {m}-byte message plus its {header}-byte header overflows u64")
        });
        let packets = total.div_ceil(MAX_PACKET_PAYLOAD as u64).max(1) as usize;
        Framing {
            total,
            header,
            floor,
            packets,
        }
    }

    /// The direct runtime's framing ([`direct_shapes`]).
    pub fn direct(m: u64, params: &MachineParams) -> Framing {
        Framing::new(m, params.software_header_bytes, params.min_packet_bytes)
    }

    /// Packets per message.
    pub fn packets(&self) -> usize {
        self.packets
    }

    /// Packet `i`'s shape, `None` past the last: the header bytes it
    /// carries ride in no payload, and its wire size is its stream bytes
    /// plus the packet overhead, at least the floor, in whole chunks.
    pub fn shape(&self, i: usize) -> Option<PacketShape> {
        if i >= self.packets {
            return None;
        }
        let cap = MAX_PACKET_PAYLOAD as u64;
        let start = i as u64 * cap;
        let bytes = (self.total - start).min(cap);
        let header = u64::from(self.header).saturating_sub(start).min(cap);
        let wire = (bytes + PACKET_OVERHEAD_BYTES as u64).max(self.floor.into());
        Some(PacketShape {
            chunks: wire.div_ceil(CHUNK_BYTES as u64) as u8,
            payload: (bytes - header) as u32,
        })
    }

    /// Every packet's shape, in order.
    pub fn shapes(self) -> impl Iterator<Item = PacketShape> {
        (0..self.packets).map_while(move |i| self.shape(i))
    }
}

/// Total wire chunks of a packetized message.
pub fn total_chunks(shapes: &[PacketShape]) -> u64 {
    shapes.iter().map(|s| s.chunks as u64).sum()
}

/// The visiting order of a node's destinations as a formula: visit `i` of
/// [`len`](Self::len) goes to [`at(i)`](Self::at), computed when the walk
/// reaches it, so a node holds 56 bytes instead of a list of its peers.
///
/// The offsets `0..P−1` (offset `o` is peer `(rank + 1 + o) % P`) are cut
/// into `len` integer strata, stratum `j` being `[⌊j·(P−1)/len⌋,
/// ⌊(j+1)·(P−1)/len⌋)`, and the node sends to one keyed point of each: a
/// sample is spatially uniform at any coverage, and the full exchange,
/// every stratum one offset wide, is every peer once. Visit `i` takes
/// stratum `shuffle.at(i)`, a keyed bijection: the randomized injection
/// order that smooths link contention in the paper's AR scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DestinationOrder {
    rank: u32,
    p: u32,
    /// Visit index to stratum, on `0..len`.
    shuffle: Shuffle,
    /// Key of each stratum's point.
    point_key: u64,
}

impl DestinationOrder {
    /// Destinations visited.
    pub fn len(&self) -> u32 {
        self.shuffle.len()
    }

    /// Whether there are no destinations (never: a schedule has at least
    /// one).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The destination of visit `i`, `i < len`.
    pub fn at(&self, i: u32) -> u32 {
        let (others, strata) = (u64::from(self.p - 1), u64::from(self.len()));
        let j = u64::from(self.shuffle.at(i));
        let lo = j * others / strata;
        let width = (j + 1) * others / strata - lo;
        let offset = lo + mix(self.point_key ^ j) % width;
        ((u64::from(self.rank) + 1 + offset) % u64::from(self.p)) as u32
    }

    /// Every destination, in visiting order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = u32> {
        (0..self.len()).map(move |i| self.at(i))
    }
}

/// Build this node's randomized destination schedule: `dests` destinations
/// (clamped to `1..P`), spatially uniform, visited in a per-node random
/// order keyed by `seed` and `rank` ([`DestinationOrder`]).
pub fn destination_schedule(rank: u32, p: u32, dests: u32, seed: u64) -> DestinationOrder {
    assert!(p >= 2, "need at least two nodes");
    let mut key = seed ^ u64::from(rank).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    DestinationOrder {
        rank,
        p,
        shuffle: Shuffle::new(dests.clamp(1, p - 1), splitmix(&mut key)),
        point_key: splitmix(&mut key),
    }
}

/// Rounds of a [`Shuffle`].
const ROUNDS: usize = 3;

/// A keyed bijection on `0..n`: [`at`](Self::at) maps every index to a
/// distinct position. Each round adds a key, multiplies by an odd key and
/// xor-shifts right by half the width, all modulo `2^b`, the next power of
/// two of `n` — each step a bijection there — and a result `≥ n` goes
/// through the rounds again (cycle-walking) until it lands below `n`, which
/// takes under two passes on average. The one shuffle of `bgl-core`: the
/// direct schemes' visiting order and [`run_pattern`](crate::run_pattern)'s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Shuffle {
    n: u32,
    /// `⌈b / 2⌉`.
    shift: u32,
    /// `2^b − 1`.
    mask: u64,
    /// Per round: the added key and the odd multiplier.
    keys: [(u32, u32); ROUNDS],
}

impl Shuffle {
    /// The bijection on `0..n` keyed by `key`.
    pub(crate) fn new(n: u32, key: u64) -> Shuffle {
        let bits = u32::BITS - n.saturating_sub(1).leading_zeros();
        let mut state = key;
        Shuffle {
            n,
            shift: bits.div_ceil(2),
            mask: (1u64 << bits) - 1,
            keys: [(); ROUNDS].map(|()| {
                let k = splitmix(&mut state);
                (k as u32, (k >> 32) as u32 | 1)
            }),
        }
    }

    /// Indices permuted.
    pub(crate) fn len(&self) -> u32 {
        self.n
    }

    /// The position of index `i`, `i < len`.
    pub(crate) fn at(&self, i: u32) -> u32 {
        debug_assert!(i < self.n, "index {i} of a {}-shuffle", self.n);
        let mut x = u64::from(i);
        loop {
            for &(add, mul) in &self.keys {
                x = (x + u64::from(add)) & self.mask;
                x = (x * u64::from(mul)) & self.mask;
                x ^= x >> self.shift;
            }
            if x < u64::from(self.n) {
                return x as u32;
            }
        }
    }
}

/// Advance a SplitMix64 stream and return its next output: the round keys
/// of a [`Shuffle`] and a [`DestinationOrder`]'s point key.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    mix(*state)
}

/// SplitMix64's finalizer: a well-mixed 64-bit hash of `z`.
fn mix(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> MachineParams {
        MachineParams::bgl()
    }

    #[test]
    fn full_workload_covers_everyone() {
        let w = AaWorkload::full(1024);
        assert_eq!(w.dests_per_node(512), 511);
        assert_eq!(w.effective_fraction(512), 1.0);
    }

    #[test]
    fn sampled_workload_scales() {
        let w = AaWorkload::sampled(1024, 0.25);
        assert_eq!(w.dests_per_node(4097), 1024);
        assert!((w.effective_fraction(4097) - 0.25).abs() < 0.001);
    }

    #[test]
    fn single_node_partition_has_no_destinations() {
        // P=1 must yield an empty destination set at every coverage —
        // the sampled path used to hit clamp(1, 0) and panic.
        assert_eq!(AaWorkload::full(240).dests_per_node(1), 0);
        assert_eq!(AaWorkload::sampled(240, 0.5).dests_per_node(1), 0);
        assert_eq!(AaWorkload::sampled(240, 0.5).effective_fraction(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "coverage")]
    fn zero_coverage_rejected() {
        let _ = AaWorkload::sampled(8, 0.0);
    }

    #[test]
    fn packetize_one_byte_direct() {
        // 1 B + 48 B header + 16 B overhead = 65 B → 96 B wire, min 64.
        let p = packetize(1, 48, 64, &params());
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].payload, 1);
        assert!(p[0].chunks >= 2 && p[0].chunks <= 3);
    }

    #[test]
    fn packetize_conserves_payload() {
        for m in [0u64, 1, 31, 32, 192, 193, 240, 1000, 4096, 65535] {
            for header in [8u32, 48] {
                let shapes = packetize(m, header, 32, &params());
                let total: u64 = shapes.iter().map(|s| s.payload as u64).sum();
                assert_eq!(total, m, "m={m} header={header}");
                for s in &shapes {
                    assert!(s.chunks >= 1 && s.chunks <= 8);
                    // Wire size must cover its share of payload.
                    assert!(s.chunks as u32 * 32 >= s.payload);
                }
            }
        }
        // Every size either runtime frames fits the simulator's packet: the
        // direct runtime (48-byte `h`, 64-byte floor) and the combining one
        // (8-byte proto, one-chunk floor), with nothing capping the chunks.
        for (header, floor) in [(48, 64), (8, CHUNK_BYTES)] {
            for m in 1..=20_000u64 {
                let shapes = packetize(m, header, floor, &params());
                for s in &shapes {
                    assert!(
                        (1..=MAX_PACKET_CHUNKS).contains(&s.chunks),
                        "m={m} h={header}"
                    );
                }
                let total: u64 = shapes.iter().map(|s| s.payload as u64).sum();
                assert_eq!(total, m, "m={m} h={header}");
            }
        }
    }

    /// `u64::MAX` plus the header used to wrap to a 47-byte total in a
    /// release build: one packet, reported as a percent of peak in the
    /// quintillions.
    #[test]
    #[should_panic(expected = "18446744073709551615-byte message")]
    fn packetize_rejects_a_size_that_overflows_with_its_header() {
        let _ = packetize(u64::MAX, 48, 64, &params());
    }

    #[test]
    fn packetize_large_message_uses_full_packets() {
        let shapes = packetize(4096, 48, 64, &params());
        // All but the last packet are full 256-byte (8-chunk) packets.
        for s in &shapes[..shapes.len() - 1] {
            assert_eq!(s.chunks, 8);
        }
        let n = (4096u64 + 48).div_ceil(240);
        assert_eq!(shapes.len() as u64, n);
    }

    /// The formula is the list: for every message size up to 4 KiB, both
    /// runtimes' headers (the direct `h`, the combining `proto`) and both
    /// floors, packet `i` of the framing is packet `i` of `packetize`, and
    /// there is no packet past the last.
    #[test]
    fn framing_shape_is_packetize() {
        for m in 0..=4096u64 {
            for (header, floor) in [(8, CHUNK_BYTES), (8, 64), (48, CHUNK_BYTES), (48, 64)] {
                let (framing, list) = (
                    Framing::new(m, header, floor),
                    packetize(m, header, floor, &params()),
                );
                assert_eq!(
                    framing.packets(),
                    list.len(),
                    "m={m} h={header} floor={floor}"
                );
                for (i, want) in list.iter().enumerate() {
                    assert_eq!(
                        framing.shape(i),
                        Some(*want),
                        "m={m} h={header} floor={floor} i={i}"
                    );
                }
                assert_eq!(framing.shape(list.len()), None);
            }
        }
        let p = params();
        assert!((0..=4096).all(|m| direct_shapes(m, &p) == packetize(m, 48, 64, &p)));
    }

    #[test]
    fn packetize_proto_header_is_cheaper() {
        // Equation 4's point: an 8-byte proto beats a 48-byte h for tiny m.
        let d = packetize(8, 48, 64, &params());
        let v = packetize(8, 8, 32, &params());
        assert!(total_chunks(&v) < total_chunks(&d));
    }

    /// A schedule's destinations, in visiting order.
    fn list(rank: u32, p: u32, dests: u32, seed: u64) -> Vec<u32> {
        destination_schedule(rank, p, dests, seed).iter().collect()
    }

    #[test]
    fn schedule_covers_all_destinations_once() {
        let p = 64;
        for rank in [0u32, 17, 63] {
            let s = list(rank, p, p - 1, 42);
            assert_eq!(s.len() as u32, p - 1);
            let set: std::collections::HashSet<u32> = s.iter().copied().collect();
            assert_eq!(set.len() as u32, p - 1);
            assert!(!set.contains(&rank), "schedule must skip self");
        }
    }

    #[test]
    fn schedule_is_deterministic_per_seed_and_varies_per_rank() {
        let (a, b) = (list(3, 64, 63, 7), list(3, 64, 63, 7));
        assert_eq!(a, b);
        // Another rank or seed visits its peers in another order.
        let offsets = |rank: u32, s: Vec<u32>| s.iter().map(|d| (d + 64 - rank) % 64).collect();
        let here: Vec<u32> = offsets(3, a);
        assert_ne!(here, offsets(4, list(4, 64, 63, 7)));
        assert_ne!(here, offsets(3, list(3, 64, 63, 8)));
    }

    #[test]
    fn sampled_schedule_has_distinct_spread_destinations() {
        let p = 4096;
        let s = list(100, p, 256, 1);
        let set: std::collections::HashSet<u32> = s.iter().copied().collect();
        assert_eq!(set.len(), s.len());
        assert!(!set.contains(&100));
        assert_eq!(s.len(), 256);
        // Spread: destinations should span most of the rank space.
        let max = *s.iter().max().unwrap();
        let min = *s.iter().min().unwrap();
        assert!(max > 3500 && min < 500, "min={min} max={max}");
    }

    #[test]
    fn schedules_differ_between_rounds_of_ranks_but_balance_load() {
        // Aggregated over all sources, each destination appears ~equally
        // often even in sampled mode (load uniformity).
        let p = 128u32;
        let mut counts = vec![0u32; p as usize];
        for r in 0..p {
            for d in destination_schedule(r, p, 32, 9).iter() {
                counts[d as usize] += 1;
            }
        }
        let avg = 32.0;
        for (d, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > avg * 0.5 && (c as f64) < avg * 1.6,
                "destination {d} got {c} senders (avg {avg})"
            );
        }
    }

    #[test]
    fn shuffle_is_a_bijection() {
        let sizes = (0..=130).chain([255, 256, 257, 1000, 4095, 20_479]);
        for n in sizes {
            for key in [0, 1, 0xaa11, u64::MAX] {
                let shuffle = Shuffle::new(n, key);
                let mut seen = vec![false; n as usize];
                for i in 0..n {
                    let j = shuffle.at(i) as usize;
                    assert!(!seen[j], "n={n} key={key}: {j} twice");
                    seen[j] = true;
                }
            }
        }
        // A shuffle moves things, and its key decides how.
        let order = |key| {
            (0..64)
                .map(|i| Shuffle::new(64, key).at(i))
                .collect::<Vec<_>>()
        };
        assert_ne!(order(1), (0..64).collect::<Vec<_>>());
        assert_ne!(order(1), order(2));
    }

    /// The 32-bit extremes: a width of 32 bits, and the top index.
    #[test]
    fn shuffle_spans_every_u32() {
        let shuffle = Shuffle::new(u32::MAX, 5);
        assert_eq!(shuffle.mask, u64::from(u32::MAX));
        assert!(shuffle.at(u32::MAX - 1) < u32::MAX);
        assert_eq!(Shuffle::new(1, 5).at(0), 0);
    }

    /// Each stratum of the offsets holds exactly one destination, wherever
    /// the strata are wider than one offset.
    #[test]
    fn one_destination_per_stratum() {
        for (p, dests) in [(2, 1), (7, 3), (64, 20), (1000, 333), (4096, 256)] {
            for rank in [0, p / 2, p - 1] {
                let mut hits = vec![0u32; dests as usize];
                let start = |j: u32| u64::from(j) * u64::from(p - 1) / u64::from(dests);
                for d in destination_schedule(rank, p, dests, 3).iter() {
                    let offset = u64::from((d + p - rank - 1) % p);
                    let j = (0..dests).rev().find(|&j| start(j) <= offset).unwrap();
                    hits[j as usize] += 1;
                }
                assert!(hits.iter().all(|&h| h == 1), "p={p} rank={rank}: {hits:?}");
            }
        }
    }

    /// What a direct node holds for its whole schedule, at any coverage.
    #[test]
    fn a_schedule_is_56_bytes() {
        assert_eq!(std::mem::size_of::<DestinationOrder>(), 56);
    }
}
