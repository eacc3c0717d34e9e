//! Measured BG/L machine parameters and unit conversions.

/// Torus packet granularity, bytes: a packet is a whole number of chunks,
/// and a link moves one chunk per simulator cycle.
pub const CHUNK_BYTES: u32 = 32;
/// Largest torus packet, bytes.
pub const MAX_PACKET_BYTES: u32 = 256;
/// Link-level header and trailer of every packet, bytes.
pub const PACKET_OVERHEAD_BYTES: u32 = 16;
/// Payload bytes of the largest packet (240).
pub const MAX_PACKET_PAYLOAD: u32 = MAX_PACKET_BYTES - PACKET_OVERHEAD_BYTES;

/// The measured constants of the paper's communication model and the BG/L
/// clock, with unit-conversion helpers. The packet geometry is fixed by the
/// hardware and lives in the constants above.
///
/// All defaults come straight from the paper (Sections 2–4):
///
/// | constant | paper value | field or constant |
/// |---|---|---|
/// | α (AR, per destination)     | 450 CPU cycles ≈ 0.64 µs | [`alpha_direct_cycles`](Self::alpha_direct_cycles) |
/// | α (VMesh, per message)      | 1170 CPU cycles ≈ 1.7 µs | [`alpha_message_cycles`](Self::alpha_message_cycles) |
/// | β (per byte)                | 6.48 ns/B | [`beta_ns_per_byte`](Self::beta_ns_per_byte) |
/// | γ (copy, per byte)          | 1.6 ns/B (≈1.1 B/cycle) | [`gamma_ns_per_byte`](Self::gamma_ns_per_byte) |
/// | h (software header)         | 48 B, first packet only | [`software_header_bytes`](Self::software_header_bytes) |
/// | proto (combining header)    | 8 B | [`proto_header_bytes`](Self::proto_header_bytes) |
/// | torus packet                | 32-B multiples up to 256 B, 240 B max payload | [`CHUNK_BYTES`], [`MAX_PACKET_BYTES`], [`PACKET_OVERHEAD_BYTES`] |
/// | minimum AA packet           | 64 B | [`min_packet_bytes`](Self::min_packet_bytes) |
/// | CPU clock                   | 700 MHz | [`cpu_mhz`](Self::cpu_mhz) |
/// | per-core link throughput    | ~4 links (data not in L1) | the simulator's `CpuConfig::chunks_per_cycle` |
#[derive(Debug, Clone, PartialEq)]
pub struct MachineParams {
    /// Per-destination startup overhead of the packetized direct (AR)
    /// runtime, in CPU cycles.
    pub alpha_direct_cycles: f64,
    /// Per-message startup overhead of the message-passing (VMesh) runtime,
    /// in CPU cycles.
    pub alpha_message_cycles: f64,
    /// Per-byte network transfer time β, in nanoseconds (byte sourced from
    /// main memory).
    pub beta_ns_per_byte: f64,
    /// Per-byte memory-copy cost γ on intermediate nodes, in nanoseconds.
    pub gamma_ns_per_byte: f64,
    /// Software header `h` carried in the first packet of a message, bytes.
    pub software_header_bytes: u32,
    /// Combining-protocol header `proto` per combined message, bytes.
    pub proto_header_bytes: u32,
    /// Smallest packet the AA runtime emits, bytes.
    pub min_packet_bytes: u32,
    /// CPU clock, MHz.
    pub cpu_mhz: f64,
    /// Network latency per hop, CPU cycles (used by the L term of Equation
    /// 1; insignificant for throughput, visible in Table 4 latencies).
    pub hop_latency_cycles: f64,
}

impl MachineParams {
    /// The paper's measured BG/L parameter set.
    pub fn bgl() -> MachineParams {
        MachineParams {
            alpha_direct_cycles: 450.0,
            alpha_message_cycles: 1170.0,
            beta_ns_per_byte: 6.48,
            gamma_ns_per_byte: 1.6,
            software_header_bytes: 48,
            proto_header_bytes: 8,
            min_packet_bytes: 64,
            cpu_mhz: 700.0,
            hop_latency_cycles: 70.0,
        }
    }

    /// β in seconds per byte.
    #[inline]
    pub fn beta_secs_per_byte(&self) -> f64 {
        self.beta_ns_per_byte * 1e-9
    }

    /// γ in seconds per byte.
    #[inline]
    pub fn gamma_secs_per_byte(&self) -> f64 {
        self.gamma_ns_per_byte * 1e-9
    }

    /// Seconds per CPU cycle.
    #[inline]
    pub fn secs_per_cpu_cycle(&self) -> f64 {
        1e-6 / self.cpu_mhz
    }

    /// AR per-destination α in seconds (the paper's ≈0.64 µs).
    #[inline]
    pub fn alpha_direct_secs(&self) -> f64 {
        self.alpha_direct_cycles * self.secs_per_cpu_cycle()
    }

    /// VMesh per-message α in seconds (the paper's ≈1.7 µs).
    #[inline]
    pub fn alpha_message_secs(&self) -> f64 {
        self.alpha_message_cycles * self.secs_per_cpu_cycle()
    }

    /// Payload bytes a link moves per simulator cycle when carrying full
    /// packets: 240 payload bytes per 8 chunk-cycles = 30 B/cycle. The
    /// measured β is a *payload* byte-time (it already amortizes the
    /// 16-byte per-packet link overhead), so this is the conversion between
    /// β-based times and simulator cycles.
    #[inline]
    pub fn payload_bytes_per_cycle(&self) -> f64 {
        MAX_PACKET_PAYLOAD as f64 / (MAX_PACKET_BYTES / CHUNK_BYTES) as f64
    }

    /// Duration of one simulator cycle (one chunk crossing one link) in
    /// seconds: the time β charges for the chunk's payload share,
    /// `payload_bytes_per_cycle · β`.
    #[inline]
    pub fn secs_per_sim_cycle(&self) -> f64 {
        self.payload_bytes_per_cycle() * self.beta_secs_per_byte()
    }

    /// CPU cycles that elapse during one simulator cycle.
    #[inline]
    pub fn cpu_cycles_per_sim_cycle(&self) -> f64 {
        self.secs_per_sim_cycle() / self.secs_per_cpu_cycle()
    }

    /// `cpu_cycles` of software time (a startup α) in simulator cycles.
    #[inline]
    pub fn cpu_to_sim_cycles(&self, cpu_cycles: f64) -> f64 {
        cpu_cycles / self.cpu_cycles_per_sim_cycle()
    }

    /// The memory-copy cost γ of one chunk, in simulator cycles.
    #[inline]
    pub fn gamma_sim_cycles_per_chunk(&self) -> f64 {
        self.gamma_ns_per_byte * CHUNK_BYTES as f64 * 1e-9 / self.secs_per_sim_cycle()
    }
}

impl Default for MachineParams {
    fn default() -> Self {
        MachineParams::bgl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_conversions_match_paper() {
        let p = MachineParams::bgl();
        // 450 cycles at 700 MHz ≈ 0.64 µs; 1170 ≈ 1.7 µs.
        assert!((p.alpha_direct_secs() * 1e6 - 0.643).abs() < 0.01);
        assert!((p.alpha_message_secs() * 1e6 - 1.671).abs() < 0.01);
    }

    #[test]
    fn sim_cycle_duration() {
        let p = MachineParams::bgl();
        // One cycle carries 30 payload bytes at 6.48 ns/B ≈ 194 ns ≈ 136
        // CPU cycles.
        assert_eq!(p.payload_bytes_per_cycle(), 30.0);
        assert!((p.secs_per_sim_cycle() * 1e9 - 194.4).abs() < 0.1);
        assert!((p.cpu_cycles_per_sim_cycle() - 136.08).abs() < 0.1);
    }

    #[test]
    fn default_is_bgl() {
        assert_eq!(MachineParams::default(), MachineParams::bgl());
    }
}
