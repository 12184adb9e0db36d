//! The pluggable capture-backend boundary (DESIGN.md §4.13).
//!
//! WireCAP's contribution — ring-buffer-pool capture with chunk recycle
//! and buddy-group offload — is backend-agnostic: the engine needs only
//! three operations from whatever feeds it packets. This module names
//! that boundary so `nicsim::LiveNic` becomes *one* implementation (the
//! [`NicSimBackend`] adapter here) rather than a hard dependency, and a
//! descriptor-ring backend (`shmring`) or a real NIC driver can slot in
//! behind the same engine:
//!
//! 1. **Poll** ([`BackendQueue::poll_batch`]): lend up to `max` received
//!    frames to a sink callback, borrowed straight from backend-owned
//!    memory — the engine copies each frame into its arena cell inside
//!    the callback, so the backend never allocates per packet and the
//!    frame's backing store is released on the very next step;
//! 2. **Recycle** ([`BackendQueue::recycle`]): return the polled frames'
//!    backing slots to the backend. For a descriptor ring this is the
//!    RDT advance that lets the producer/DMA reuse the slots — a backend
//!    may stall (never lose) frames if the engine forgets it;
//! 3. **Introspect** ([`CaptureBackend::queue_count`] /
//!    [`CaptureBackend::stop`] / [`BackendQueue::accounting`]): topology,
//!    teardown, and the NIC-side drop accounting that the telemetry
//!    snapshot folds into every [`QueueTelemetry`].
//!
//! Dispatch is `Arc<dyn CaptureBackend>`: the engine makes two virtual
//! calls per poll batch (≤ 256 packets) plus one indirect call per
//! frame through the sink. `wcbench` times that `dyn` poll as it runs in
//! the engine: the `wire.poll_ns_per_pkt` and `nicsim.poll_ns_per_pkt`
//! rows of `BENCHMARK.json`.
//!
//! Error handling replaces the old mix of `Option`, panics, and silent
//! drops: poll/recycle/stop return [`BackendError`]s, and the engine
//! maps them into the drop-accounting vocabulary of DESIGN.md §4.8 —
//! frames a backend loses internally surface as `nic_drop_packets`
//! through [`BackendQueue::accounting`]; a fatal poll/recycle error
//! terminates that queue's capture thread through the normal
//! close-and-flush path, so the conservation laws still hold over
//! everything that was captured.

use crate::buddy::BuddyGroups;
use crate::config::WireCapConfig;
use crate::live::LiveWireCap;
use netproto::Packet;
use nicsim::livenic::{LiveNic, LiveQueue};
use std::fmt;
use std::sync::Arc;
use telemetry::QueueTelemetry;

/// Why a backend operation failed. Returned by the poll/recycle/stop
/// paths instead of panicking or silently dropping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The backend was torn down while the operation was in flight.
    Stopped,
    /// A protocol invariant of the backend's ring was violated — a
    /// corrupt descriptor, or a recycle of more frames than were
    /// delivered (the recycle ownership rule of DESIGN.md §4.13).
    Corrupt(&'static str),
    /// An I/O error from the backend's transport (device file, socket,
    /// shared-memory segment).
    Io(String),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Stopped => write!(f, "backend stopped"),
            BackendError::Corrupt(what) => write!(f, "backend ring corrupt: {what}"),
            BackendError::Io(e) => write!(f, "backend I/O error: {e}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// One received frame, lent to the poll sink for the duration of the
/// callback. The payload borrows backend-owned memory (a descriptor
/// ring's buffer slot, a popped packet's bytes); it is only valid until
/// the sink returns, which is why the engine copies it into an arena
/// cell there and then.
#[derive(Debug, Clone, Copy)]
pub struct RxFrame<'a> {
    /// Capture timestamp in nanoseconds.
    pub ts_ns: u64,
    /// Original length on the wire (the payload may be snapped shorter).
    pub wire_len: u32,
    /// The captured bytes, borrowed from the backend.
    pub data: &'a [u8],
}

/// The NIC-side accounting every backend must report identically, so no
/// implementation can skew the offered/dropped bookkeeping. Raw counts
/// go here; the one place they are folded into a [`QueueTelemetry`] is
/// the provided [`BackendQueue::fill_telemetry`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueAccounting {
    /// Frames the backend accepted into this queue's ring.
    pub received: u64,
    /// Frames the backend lost before the engine could poll them (ring
    /// full — "no receive descriptor in the ready state").
    pub dropped: u64,
    /// Frames currently waiting in the ring.
    pub ring_used: u64,
    /// The ring's capacity in frames.
    pub ring_capacity: u64,
}

/// One receive queue of a capture backend.
///
/// # Contract
///
/// * The engine attaches exactly **one** poller (the queue's capture
///   thread); `poll_batch`/`recycle` are never called concurrently on
///   the same queue. Producer-side concurrency is the backend's
///   business.
/// * Frames are delivered in ring order; a frame lent to the sink must
///   stay valid until the sink returns.
/// * Every successfully polled frame must eventually be [`Self::recycle`]d,
///   and never more than were polled: for descriptor-ring backends the
///   recycle is the RDT/tail advance that returns buffer slots to the
///   producer, so forgetting it stalls the ring and over-recycling
///   corrupts it (an over-recycle returns [`BackendError::Corrupt`]).
pub trait BackendQueue: Send + Sync {
    /// Lends up to `max` received frames to `sink`, in order. Returns
    /// how many frames were delivered; `0` means the ring is currently
    /// empty (poll again, or check [`CaptureBackend::is_stopped`]).
    fn poll_batch(
        &self,
        max: usize,
        sink: &mut dyn FnMut(RxFrame<'_>),
    ) -> Result<usize, BackendError>;

    /// Returns the backing slots of the oldest `frames` polled-but-not-
    /// yet-recycled frames to the backend (the RDT advance). The engine
    /// calls this after each poll batch has been copied into the arena.
    fn recycle(&self, frames: usize) -> Result<(), BackendError>;

    /// Frames waiting in the ring right now (approximate while
    /// producers run). The engine treats `is_stopped() && depth() == 0`
    /// as end-of-stream.
    fn depth(&self) -> usize;

    /// The queue's raw NIC-side accounting. `received + dropped` is the
    /// offered-packet count the conservation laws are checked against.
    fn accounting(&self) -> QueueAccounting;

    /// Folds [`Self::accounting`] into a telemetry snapshot. Provided —
    /// and deliberately *not* overridable per backend field-by-field:
    /// this is the single place NIC-side counts map onto
    /// [`QueueTelemetry`], so every backend reports `offered ==
    /// received + dropped` the same way and none can skew the counters
    /// the conservation proptests rely on.
    fn fill_telemetry(&self, t: &mut QueueTelemetry) {
        let a = self.accounting();
        t.offered_packets = a.received + a.dropped;
        t.nic_drop_packets = a.dropped;
        t.ring_used = a.ring_used;
        t.ring_ready = a.ring_capacity.saturating_sub(a.ring_used);
    }
}

/// A packet source the live engine can capture from: a set of receive
/// queues plus stop/teardown introspection. Implementations:
/// [`NicSimBackend`] (the in-memory NIC adapter) and `shmring` (the
/// shared-memory descriptor-ring backend).
pub trait CaptureBackend: Send + Sync {
    /// Short stable name for telemetry and test labels (`"nicsim"`,
    /// `"shmring"`).
    fn name(&self) -> &'static str;

    /// Number of receive queues.
    fn queue_count(&self) -> usize;

    /// Handle to receive queue `q`.
    ///
    /// # Panics
    ///
    /// If `q >= queue_count()`.
    fn queue(&self, q: usize) -> Arc<dyn BackendQueue>;

    /// Stops the packet source; pollers treat this as end-of-stream
    /// once the rings drain. Idempotent.
    fn stop(&self) -> Result<(), BackendError>;

    /// Whether [`Self::stop`] has been called.
    fn is_stopped(&self) -> bool;
}

/// A backend with a software loopback producer: packets can be injected
/// "from the wire" with RSS flow steering. This is what lets the
/// conformance and conservation suites run the *same* test body against
/// every backend — and what hardware backends simply don't implement.
pub trait LoopbackBackend: CaptureBackend {
    /// Steers and enqueues one packet. Returns the queue it landed on,
    /// or `None` if it was dropped (target ring full) — the drop is
    /// counted in that queue's [`QueueAccounting::dropped`].
    fn inject(&self, pkt: Packet) -> Option<usize>;

    /// Injects a slice of packets, steering each. Returns how many
    /// landed.
    fn inject_batch(&self, pkts: &[Packet]) -> u64 {
        pkts.iter()
            .filter(|pkt| self.inject((*pkt).clone()).is_some())
            .count() as u64
    }
}

/// Builds a [`LiveWireCap`] from any backend — the only way to
/// construct a live engine.
///
/// ```
/// use nicsim::livenic::LiveNic;
/// use wirecap::backend::NicSimBackend;
/// use wirecap::buddy::BuddyGroups;
/// use wirecap::live::LiveWireCap;
/// use wirecap::WireCapConfig;
///
/// let nic = LiveNic::new(2, 1024);
/// let engine = LiveWireCap::builder()
///     .backend(NicSimBackend::new(std::sync::Arc::clone(&nic)))
///     .config(WireCapConfig::basic(64, 32, 0))
///     .groups(BuddyGroups::isolated(2))
///     .start();
/// nic.stop();
/// engine.shutdown();
/// ```
#[derive(Default)]
pub struct LiveWireCapBuilder {
    backend: Option<Arc<dyn CaptureBackend>>,
    cfg: Option<WireCapConfig>,
    groups: Option<BuddyGroups>,
}

impl LiveWireCapBuilder {
    /// The packet source to capture from. Required. Concrete backend
    /// handles (`Arc<NicSimBackend>`, `Arc<shmring::ShmRingNic>`, any
    /// `Arc<dyn LoopbackBackend>`) coerce here.
    pub fn backend(mut self, backend: Arc<dyn CaptureBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Engine configuration. Defaults to the paper's standard
    /// environment ([`WireCapConfig::basic`] with M = 256, R = 100).
    pub fn config(mut self, cfg: WireCapConfig) -> Self {
        self.cfg = Some(cfg);
        self
    }

    /// Buddy-group partition. Defaults to
    /// [`BuddyGroups::isolated`] over the backend's queue count (basic
    /// mode, no offloading).
    pub fn groups(mut self, groups: BuddyGroups) -> Self {
        self.groups = Some(groups);
        self
    }

    /// Starts capture threads for every queue of the backend.
    ///
    /// # Panics
    ///
    /// If no backend was supplied, or the configuration is invalid.
    pub fn start(self) -> LiveWireCap {
        let backend = self
            .backend
            .expect("LiveWireCap::builder() requires .backend(..)");
        let cfg = self
            .cfg
            .unwrap_or_else(|| WireCapConfig::basic(256, 100, 0));
        let groups = self
            .groups
            .unwrap_or_else(|| BuddyGroups::isolated(backend.queue_count()));
        LiveWireCap::start_with(backend, cfg, groups)
    }
}

impl fmt::Debug for LiveWireCapBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LiveWireCapBuilder")
            .field("backend", &self.backend.as_ref().map(|b| b.name()))
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

/// The [`CaptureBackend`] adapter over [`nicsim::livenic::LiveNic`]:
/// the in-memory NIC becomes one backend among several. Frames are
/// lent to the poll sink borrowed from the popped packet's bytes;
/// `recycle` is a no-op because popping an `ArrayQueue` slot already
/// frees it.
#[derive(Debug)]
pub struct NicSimBackend {
    nic: Arc<LiveNic>,
    queues: Vec<Arc<NicSimQueue>>,
}

impl NicSimBackend {
    /// Wraps a live NIC. Keep the `Arc<LiveNic>` for injection; the
    /// returned handle coerces to `Arc<dyn CaptureBackend>` at the
    /// builder.
    pub fn new(nic: Arc<LiveNic>) -> Arc<Self> {
        let queues = (0..nic.queue_count())
            .map(|q| {
                Arc::new(NicSimQueue {
                    queue: nic.queue(q),
                })
            })
            .collect();
        Arc::new(NicSimBackend { nic, queues })
    }

    /// The wrapped NIC.
    pub fn nic(&self) -> &Arc<LiveNic> {
        &self.nic
    }
}

impl CaptureBackend for NicSimBackend {
    fn name(&self) -> &'static str {
        "nicsim"
    }

    fn queue_count(&self) -> usize {
        self.queues.len()
    }

    fn queue(&self, q: usize) -> Arc<dyn BackendQueue> {
        Arc::clone(&self.queues[q]) as Arc<dyn BackendQueue>
    }

    fn stop(&self) -> Result<(), BackendError> {
        self.nic.stop();
        Ok(())
    }

    fn is_stopped(&self) -> bool {
        self.nic.is_stopped()
    }
}

impl LoopbackBackend for NicSimBackend {
    fn inject(&self, pkt: Packet) -> Option<usize> {
        self.nic.inject(pkt)
    }

    fn inject_batch(&self, pkts: &[Packet]) -> u64 {
        self.nic.inject_batch(pkts)
    }
}

/// One [`LiveNic`] receive queue behind the [`BackendQueue`] trait.
#[derive(Debug)]
pub struct NicSimQueue {
    queue: Arc<LiveQueue>,
}

impl BackendQueue for NicSimQueue {
    fn poll_batch(
        &self,
        max: usize,
        sink: &mut dyn FnMut(RxFrame<'_>),
    ) -> Result<usize, BackendError> {
        let mut n = 0;
        while n < max {
            match self.queue.pop() {
                Some(pkt) => {
                    sink(RxFrame {
                        ts_ns: pkt.ts_ns,
                        wire_len: pkt.wire_len,
                        data: &pkt.data,
                    });
                    n += 1;
                }
                None => break,
            }
        }
        Ok(n)
    }

    fn recycle(&self, _frames: usize) -> Result<(), BackendError> {
        // Popping the ArrayQueue slot already released it; there is no
        // tail pointer to advance.
        Ok(())
    }

    fn depth(&self) -> usize {
        self.queue.depth()
    }

    fn accounting(&self) -> QueueAccounting {
        QueueAccounting {
            received: self.queue.received(),
            dropped: self.queue.dropped(),
            ring_used: self.queue.depth() as u64,
            ring_capacity: self.queue.capacity() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netproto::{FlowKey, PacketBuilder};
    use std::net::Ipv4Addr;

    fn packet(i: u16) -> Packet {
        let flow = FlowKey::udp(
            Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8),
            1000 + i,
            Ipv4Addr::new(131, 225, 2, 1),
            443,
        );
        PacketBuilder::new()
            .build_packet(u64::from(i), &flow, 100)
            .unwrap()
    }

    #[test]
    fn adapter_polls_lend_frames_and_account() {
        let nic = LiveNic::new(1, 8);
        let backend = NicSimBackend::new(Arc::clone(&nic));
        assert_eq!(backend.name(), "nicsim");
        assert_eq!(backend.queue_count(), 1);
        for i in 0..10 {
            backend.inject(packet(i));
        }
        let q = backend.queue(0);
        let mut seen = 0u64;
        let polled = q
            .poll_batch(64, &mut |f| {
                assert!(!f.data.is_empty());
                assert!(f.wire_len > 0);
                seen += 1;
            })
            .unwrap();
        assert_eq!(polled, 8, "ring depth caps the poll");
        assert_eq!(seen, 8);
        q.recycle(polled).unwrap();
        let a = q.accounting();
        assert_eq!(a.received, 8);
        assert_eq!(a.dropped, 2);
        assert_eq!(a.ring_used, 0);
        assert_eq!(a.ring_capacity, 8);
        let mut t = QueueTelemetry::default();
        q.fill_telemetry(&mut t);
        assert_eq!(t.offered_packets, 10);
        assert_eq!(t.nic_drop_packets, 2);
        assert_eq!(t.ring_ready, 8);
        backend.stop().unwrap();
        assert!(backend.is_stopped());
        assert!(nic.is_stopped(), "stop reaches the wrapped NIC");
    }
}
