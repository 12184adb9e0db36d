//! The seeded frame table every traffic source cycles through, and the
//! fixed-rate schedule the open-loop sources follow.

use crate::plan::{FLOWS, TABLE_FRAMES};
use netproto::{FlowKey, Packet, PacketBuilder};
use std::net::Ipv4Addr;

/// SplitMix64: the benchmark's only randomness, a pure function of
/// `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Offset of the UDP checksum in an untagged Ethernet/IPv4/UDP frame,
/// and of the first payload byte after it.
const UDP_CSUM: usize = 40;
const UDP_PAYLOAD: usize = 42;

/// [`TABLE_FRAMES`] frames of one length, built from the seed: UDP over
/// [`FLOWS`] random flows, random payload bytes. Frame `i` of a source is
/// `table.frame(i & (TABLE_FRAMES - 1))`, so a delivered packet can be
/// byte-compared knowing only its sequence number.
#[derive(Debug)]
pub struct FrameTable {
    frame_len: usize,
    flat: Vec<u8>,
}

impl FrameTable {
    /// Builds the table for `seed` with frames of `frame_len` bytes.
    pub fn new(seed: u64, frame_len: usize) -> Self {
        assert!(frame_len >= UDP_PAYLOAD, "frame too short for UDP");
        let mut rng = Rng::new(seed);
        let flows: Vec<FlowKey> = (0..FLOWS)
            .map(|_| {
                let r = rng.next_u64();
                FlowKey::udp(
                    Ipv4Addr::new(10, (r >> 8) as u8, (r >> 16) as u8, (r >> 24) as u8),
                    1024 + (r >> 32) as u16 % 60_000,
                    Ipv4Addr::new(131, 225, 2, (r >> 48) as u8),
                    443,
                )
            })
            .collect();
        let mut builder = PacketBuilder::new();
        let mut flat = Vec::with_capacity(TABLE_FRAMES * frame_len);
        for _ in 0..TABLE_FRAMES {
            let flow = &flows[(rng.next_u64() % FLOWS as u64) as usize];
            let mut frame = builder
                .build(flow, frame_len)
                .expect("a UDP frame of at least 42 bytes always builds");
            // Random payload so a byte-compare means something; checksum
            // 0 is UDP-over-IPv4 for "not computed".
            frame[UDP_CSUM..UDP_PAYLOAD].fill(0);
            for chunk in frame[UDP_PAYLOAD..].chunks_mut(8) {
                let bytes = rng.next_u64().to_le_bytes();
                chunk.copy_from_slice(&bytes[..chunk.len()]);
            }
            flat.extend_from_slice(&frame);
        }
        FrameTable { frame_len, flat }
    }

    /// Length of every frame in the table.
    pub fn frame_len(&self) -> usize {
        self.frame_len
    }

    /// Frame `i` (taken modulo the table size).
    #[inline]
    pub fn frame(&self, i: u64) -> &[u8] {
        let at = (i as usize & (TABLE_FRAMES - 1)) * self.frame_len;
        &self.flat[at..at + self.frame_len]
    }

    /// The table as owned packets, for the backends that are fed through
    /// `inject` (cloning one is a reference-count bump).
    pub fn packets(&self) -> Vec<Packet> {
        (0..TABLE_FRAMES as u64)
            .map(|i| Packet::new(0, self.frame(i).to_vec()))
            .collect()
    }
}

/// A fixed-rate schedule: packet `i` is due at `start + floor(i·1e9/pps)`.
/// The due time travels in `ts_ns`, and [`Schedule::index`] inverts it
/// exactly, so an open-loop packet carries both its deadline and its
/// sequence number in one field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Due time of packet 0, in `telemetry::clock::mono_ns` time.
    pub start_ns: u64,
    /// Packets per second.
    pub pps: u64,
}

const NS_PER_S: u64 = 1_000_000_000;

impl Schedule {
    /// Due time of packet `i`.
    #[inline]
    pub fn due(&self, i: u64) -> u64 {
        self.start_ns + i * NS_PER_S / self.pps
    }

    /// The packet whose due time is `ts_ns`; `None` if no packet of the
    /// schedule is due exactly then.
    #[inline]
    pub fn index(&self, ts_ns: u64) -> Option<u64> {
        let d = ts_ns.checked_sub(self.start_ns)?;
        // i·1e9 = pps·d + r with 0 ≤ r < pps, so rounding up recovers i.
        let i = (d * self.pps + self.pps - 1) / NS_PER_S;
        (self.due(i) == ts_ns).then_some(i)
    }

    /// How many packets are due at or before `now_ns`.
    #[inline]
    pub fn due_by(&self, now_ns: u64) -> u64 {
        match now_ns.checked_sub(self.start_ns) {
            // Packet i is due iff floor(i·1e9/pps) ≤ d iff i·1e9 < (d+1)·pps.
            Some(d) => ((d + 1) * self.pps - 1) / NS_PER_S + 1,
            None => 0,
        }
    }
}
