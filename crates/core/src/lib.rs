//! # wirecap — the WireCAP packet capture engine
//!
//! A from-scratch Rust reproduction of *WireCAP: a Novel Packet Capture
//! Engine for Commodity NICs in High-speed Networks* (Wu & DeMar, ACM IMC
//! 2014). WireCAP provides lossless zero-copy packet capture and delivery
//! by combining two mechanisms:
//!
//! * the **ring-buffer-pool** ([`pool`]): each NIC receive queue gets a
//!   large kernel pool of R packet-buffer chunks of M cells; the receive
//!   ring is divided into descriptor segments of M descriptors, each
//!   attached to a chunk. Chunks cycle `free → attached → captured →
//!   free`, giving buffering far beyond the ring itself and absorbing
//!   short-term bursts (§3.2.1);
//! * **buddy-group-based offloading** ([`buddy`]): receive queues owned
//!   by one application form a buddy group; when a queue's user-space
//!   capture queue exceeds a threshold T, freshly captured chunks are
//!   placed on an idle or less-busy buddy's capture queue, resolving
//!   long-term load imbalance while preserving application logic (§3.2.1).
//!
//! The crate offers the engine twice:
//!
//! * [`engine::WireCapEngine`] — the simulation model used by every
//!   figure reproduction; it implements the same
//!   [`engines::CaptureEngine`] trait as the baseline engines;
//! * [`live`] — the same objects on real OS threads (crossbeam queues,
//!   real packets) against [`nicsim::livenic::LiveNic`], with a
//!   Libpcap-compatible delivery surface ([`pcap::PacketSource`]).
//!
//! Zero-copy is load-bearing, not aspirational: chunk hand-off moves only
//! `{nic_id, ring_id, chunk_id}` metadata, and the only packet-byte copy
//! in the engine — the capture-timeout partial-chunk copy of §3.2.1 — is
//! metered and asserted in tests.
//!
//! ```
//! use engines::CaptureEngine;
//! use sim::SimTime;
//! use wirecap::{WireCapConfig, WireCapEngine};
//!
//! // WireCAP-B-(256, 100) against the paper's heavy consumer (x = 300):
//! // a 10 000-packet wire-rate burst sits inside the R·M pool and is
//! // absorbed losslessly, where a bare ring would have dropped most of it.
//! let mut engine = WireCapEngine::new(1, WireCapConfig::basic(256, 100, 300));
//! for i in 0..10_000u64 {
//!     engine.on_arrival(SimTime(i * 67), 0, 64); // ≈ 14.9 Mp/s
//! }
//! engine.finish(SimTime(10_000_000_000));
//! let stats = engine.queue_stats(0);
//! assert_eq!(stats.capture_drops, 0);
//! assert_eq!(stats.delivered, 10_000);
//! ```

#![deny(missing_docs)]
// Unsafe code is denied everywhere except the audited hot-path modules
// ([`arena`], [`spsc`], [`claim`], and [`steal`]'s deque/affinity
// internals), which opt back in with module-level
// `#[allow(unsafe_code)]` around a safe public API.
#![deny(unsafe_code)]

pub mod arena;
pub mod backend;
pub mod buddy;
pub mod chunk;
pub mod claim;
pub mod config;
pub mod engine;
pub mod live;
pub mod pool;
pub mod spsc;
pub mod steal;
pub mod steering;
pub mod tx;
pub mod workqueue;

pub use arena::{ChunkArena, ChunkView, PacketRef};
pub use backend::{
    BackendError, BackendQueue, CaptureBackend, LiveWireCapBuilder, LoopbackBackend, NicSimBackend,
    NicSimQueue, QueueAccounting, RxFrame,
};
pub use buddy::BuddyGroup;
pub use chunk::{ChunkId, ChunkMeta, ChunkState};
pub use claim::{Claim, ClaimQueue};
pub use config::{ConfigError, WireCapConfig, WireCapConfigBuilder};
pub use engine::WireCapEngine;
pub use live::{ChunkLens, LiveChunk, LiveConsumer, LiveWireCap, RegistryHandle};
pub use pool::RingBufferPool;
pub use spsc::{BatchRing, MAX_BATCH};
pub use steal::{
    pin_to_core, steal_deque, AdaptivePoller, ConsumerPool, DequeOwner, DequeStealer, IdleStep,
    PoolDelivery, PoolHandler, PoolWorkerReport, Steal, WakeupGate,
};
