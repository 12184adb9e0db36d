//! Lock-free per-queue counter groups, sharded by writer role.
//!
//! A queue's counters are split into three cache-padded groups so the
//! threads that write them never share a cache line: the capture
//! thread owns [`CaptureSide`], the application/consumer side owns
//! [`DeliverySide`], and buddy capture threads placing offloaded
//! chunks own [`PeerSide`]. All updates are relaxed atomics — there is
//! no lock anywhere, and nothing is paid until a snapshot is taken.

use crate::hist::Log2Histogram;
use crate::snapshot::QueueTelemetry;
use std::sync::atomic::{AtomicU64, Ordering};

/// A single relaxed-atomic monotonic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` (relaxed). Safe with any number of concurrent writers.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one (relaxed). Safe with any number of concurrent writers.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` with single-writer semantics: a relaxed load + store
    /// instead of an atomic read-modify-write. On x86 this compiles to
    /// two plain `mov`s where [`add`](Self::add) needs a `lock xadd`,
    /// which is what keeps [`CaptureSide`] free on the hot path. Only
    /// the shard's one designated writer thread may call this; readers
    /// (snapshots) stay safe because the store is still atomic.
    #[inline]
    pub fn add_local(&self, n: u64) {
        self.0
            .store(self.0.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }

    /// Adds one with single-writer semantics (see
    /// [`add_local`](Self::add_local)).
    #[inline]
    pub fn inc_local(&self) {
        self.add_local(1);
    }

    /// Current value (relaxed).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Pads its contents to its own cache line (128 bytes covers adjacent-
/// line prefetching on modern x86).
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CacheAligned<T>(pub T);

impl<T> std::ops::Deref for CacheAligned<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CacheAligned<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Counters of the queue's capture side, keyed by the queue that
/// captured the packets.
///
/// Every field but one is written only by the queue's capture thread,
/// so those updates use the load+store [`Counter::add_local`] path and
/// the histograms' single-writer [`Log2Histogram::record`] — no
/// lock-prefixed instructions anywhere on the capture hot path. The
/// exception is `delivery_drop_packets`: any consumer or pool worker
/// holding one of this queue's chunks may charge it, so it is
/// multi-writer and takes [`Counter::add`], never `add_local`.
#[derive(Debug, Default)]
pub struct CaptureSide {
    /// Packets the engine attempted to capture (seen on the ring).
    pub offered_packets: Counter,
    /// Packets landed in pool chunks.
    pub captured_packets: Counter,
    /// Packets lost on the capture side (pool or capture queue full).
    pub capture_drop_packets: Counter,
    /// Captured packets that never reached an application (a consumer
    /// departing with chunks in hand, a forced pool stop, a chunk the
    /// simulation engine's bounded capture queue rejected). Multi-writer:
    /// charged to the chunk's home queue by whichever thread holds it.
    pub delivery_drop_packets: Counter,
    /// Chunks sealed and handed toward user space (full or partial).
    pub sealed_chunks: Counter,
    /// Sealed chunks that were partial (capture-timeout flushes).
    pub partial_chunks: Counter,
    /// Chunks this queue's capture thread placed on a buddy instead.
    pub offloaded_out_chunks: Counter,
    /// Depth of the destination capture queue observed at each
    /// placement decision.
    pub capture_queue_depth: Log2Histogram,
    /// Packets per sealed chunk (fill level; partials show up short).
    pub chunk_fill: Log2Histogram,
    /// Chunks (or packets, for batch-copy baselines) moved per handoff
    /// batch.
    pub batch_size: Log2Histogram,
}

/// Counters written only by the application / consumer side.
#[derive(Debug, Default)]
pub struct DeliverySide {
    /// Packets handed to the application.
    pub delivered_packets: Counter,
    /// Chunks recycled back to the pool after consumption.
    pub recycled_chunks: Counter,
    /// Capture-to-delivery latency per chunk, ns: sealed-timestamp to
    /// recycle, recorded once per chunk by the consumer (single
    /// writer, so [`Log2Histogram::record`]'s load+store path is safe).
    pub latency_ns: Log2Histogram,
    /// Span decomposition of `latency_ns`, recorded only for *sampled*
    /// chunks (`span_sample_n`, see [`crate::spans`]): seal → ring
    /// publish (capture-side residency).
    pub stage_backend_ns: Log2Histogram,
    /// Sampled-span stage: ring publish → acquisition start (time
    /// waiting in the delivery ring or claim queue).
    pub stage_queue_wait_ns: Log2Histogram,
    /// Sampled-span stage: acquisition start → ownership (the deque
    /// intake's ring drain → pop, i.e. worker-deque dwell; 0 on the
    /// claim intake and the per-queue consumer).
    pub stage_claim_ns: Log2Histogram,
    /// Sampled-span stage: ownership → delivery start. It measured
    /// reorder-buffer dwell; since in-order delivery was removed every
    /// path starts the handler the moment it owns a chunk, so each
    /// sampled chunk records 0 here. Kept: the schema is frozen.
    pub stage_reorder_ns: Log2Histogram,
    /// Sampled-span stage: delivery start → end (handler time).
    pub stage_deliver_ns: Log2Histogram,
}

/// A running maximum updated with `fetch_max` — safe with any number
/// of concurrent writers (the queue's own capture thread and buddies
/// both push onto a capture queue).
#[derive(Debug, Default)]
pub struct Watermark(AtomicU64);

impl Watermark {
    /// Creates a zeroed watermark.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the watermark to at least `v` (relaxed `fetch_max`). A
    /// value at or below the mark costs one relaxed load, no RMW.
    #[inline]
    pub fn observe(&self, v: u64) {
        if v > self.0.load(Ordering::Relaxed) {
            self.0.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Highest value observed so far.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value gauge updated with relaxed stores — safe with any
/// number of writers (last write wins; gauges are instantaneous
/// readings, not accumulations).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes the current reading (relaxed store).
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Last published reading (relaxed).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Counters written by consumer-pool workers (`wirecap::steal`). Any
/// worker may touch any group queue's shard — a thief charges the
/// victim chunk's home queue — so everything here is multi-writer:
/// plain fetch-add [`Counter`]s (fired per chunk, never per packet)
/// and a last-value [`Gauge`].
#[derive(Debug, Default)]
pub struct PoolSide {
    /// Chunks a pool worker primarily responsible for this queue took
    /// from other workers' deques.
    pub steal_in_chunks: Counter,
    /// Chunks homed on this queue that a non-owning worker stole.
    pub steal_out_chunks: Counter,
    /// Packets inside those stolen chunks.
    pub stolen_packets: Counter,
    /// Times a pool worker servicing this queue parked on the delivery
    /// gate (adaptive polling reached the park stage). Every worker
    /// that *owns* the queue attributes its parks here — a worker
    /// owning several queues charges each of them, and dedicated
    /// stealer workers (no owned queues) charge none — so the counter
    /// is multi-writer like the rest of the shard.
    pub worker_parks: Counter,
    /// Claim CAS races lost on this queue's claim queue (concurrent
    /// single-queue mode): a worker targeted a published chunk but
    /// another worker claimed it first. High rates mean workers are
    /// piling onto one queue faster than chunks seal.
    pub claim_contention: Counter,
    /// Occupancy of the primary worker's local steal deque, published
    /// after each ring drain.
    pub steal_queue_len: Gauge,
}

/// Counters written by the flow-analytics stage (`flowstat` sinks
/// running inside pool workers). Any worker may process any queue's
/// chunks — a thief charges the chunk's home queue — so everything here
/// is multi-writer: fetch-add [`Counter`]s flushed once per chunk (the
/// sink batches per-packet movement into deltas), never per packet.
#[derive(Debug, Default)]
pub struct FlowSide {
    /// Packets recorded into a flow table (parsed to an IPv4 5-tuple).
    pub flow_tracked_packets: Counter,
    /// Flows displaced by per-set LRU eviction.
    pub flow_evicted_flows: Counter,
    /// Packets folded into the eviction aggregate when their flow was
    /// displaced (live per-flow sums + this == `flow_tracked_packets`).
    pub flow_evicted_packets: Counter,
    /// Occupied non-matching slots scanned during table lookups.
    pub flow_hash_collisions: Counter,
    /// Live flows resident across this queue's processing workers,
    /// published after each chunk.
    pub flow_table_occupancy: Gauge,
}

/// Counters written by *other* queues' capture threads (buddy
/// placements land here).
#[derive(Debug, Default)]
pub struct PeerSide {
    /// Chunks buddies placed on this queue's capture queue.
    pub offloaded_in_chunks: Counter,
}

/// Counters written by the capture-to-disk subsystem (`capdisk`): the
/// per-queue drainer and writer threads. These threads fire once per
/// chunk or per write batch — never per packet — so plain multi-writer
/// [`Counter::add`] is cheap enough and keeps the shard safe no matter
/// how the sink splits work across its threads.
#[derive(Debug, Default)]
pub struct DiskSide {
    /// Packets encoded into a capture file and handed to the OS.
    pub disk_written_packets: Counter,
    /// Packets discarded because the disk writer fell behind (the
    /// bounded handoff ring was full) — the explicit graceful-
    /// degradation drop, never a silent stall of the capture path.
    pub disk_drop_packets: Counter,
    /// File-format bytes written (headers + records), post-encoding.
    pub disk_written_bytes: Counter,
    /// Capture files opened (rotations create new ones).
    pub disk_files: Counter,
    /// Sampled-span stage (see [`crate::spans`]): drainer handoff →
    /// write-batch commit, recorded once per sampled chunk by the
    /// writer thread (single writer per queue, so the load+store
    /// histogram path is safe).
    pub stage_disk_ns: Log2Histogram,
}

/// All counters for one queue, one cache line per writer role.
#[derive(Debug, Default)]
pub struct QueueCounters {
    /// Capture-thread shard.
    pub cap: CacheAligned<CaptureSide>,
    /// Application/consumer shard.
    pub app: CacheAligned<DeliverySide>,
    /// Buddy-peer shard.
    pub peer: CacheAligned<PeerSide>,
    /// Capture-to-disk shard (zero unless a disk sink is attached).
    pub disk: CacheAligned<DiskSide>,
    /// Consumer-pool shard (zero unless a `ConsumerPool` is attached).
    pub pool: CacheAligned<PoolSide>,
    /// Flow-analytics shard (zero unless a flow sink is attached).
    pub flow: CacheAligned<FlowSide>,
    /// High-watermark of this queue's capture-queue depth. Multi-writer
    /// (`fetch_max` from whoever pushes onto the queue), so it gets its
    /// own cache line rather than riding in a single-writer shard.
    pub capture_queue_watermark: CacheAligned<Watermark>,
}

impl QueueCounters {
    /// Creates a zeroed counter group.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies every counter and histogram into a [`QueueTelemetry`]
    /// for queue `queue`. Gauges (`capture_queue_len`, `free_chunks`,
    /// ring occupancy) and NIC-owned counters are left at zero for the
    /// engine to fill in.
    pub fn snapshot(&self, queue: usize) -> QueueTelemetry {
        let cap = &self.cap.0;
        let latency = self.app.0.latency_ns.snapshot();
        let p999 = latency.quantile(0.999);
        QueueTelemetry {
            queue,
            offered_packets: cap.offered_packets.get(),
            captured_packets: cap.captured_packets.get(),
            delivered_packets: self.app.0.delivered_packets.get(),
            capture_drop_packets: cap.capture_drop_packets.get(),
            delivery_drop_packets: cap.delivery_drop_packets.get(),
            nic_drop_packets: 0,
            forwarded_packets: 0,
            transmitted_packets: 0,
            sealed_chunks: cap.sealed_chunks.get(),
            partial_chunks: cap.partial_chunks.get(),
            recycled_chunks: self.app.0.recycled_chunks.get(),
            offloaded_in_chunks: self.peer.0.offloaded_in_chunks.get(),
            offloaded_out_chunks: cap.offloaded_out_chunks.get(),
            disk_written_packets: self.disk.0.disk_written_packets.get(),
            disk_drop_packets: self.disk.0.disk_drop_packets.get(),
            steal_in_chunks: self.pool.0.steal_in_chunks.get(),
            steal_out_chunks: self.pool.0.steal_out_chunks.get(),
            stolen_packets: self.pool.0.stolen_packets.get(),
            worker_parks: self.pool.0.worker_parks.get(),
            claim_contention: self.pool.0.claim_contention.get(),
            flow_tracked_packets: self.flow.0.flow_tracked_packets.get(),
            flow_evicted_flows: self.flow.0.flow_evicted_flows.get(),
            flow_evicted_packets: self.flow.0.flow_evicted_packets.get(),
            flow_hash_collisions: self.flow.0.flow_hash_collisions.get(),
            steal_queue_len: self.pool.0.steal_queue_len.get(),
            reorder_occupancy: 0,
            flow_table_occupancy: self.flow.0.flow_table_occupancy.get(),
            capture_queue_len: 0,
            capture_queue_watermark: self.capture_queue_watermark.get(),
            free_chunks: 0,
            ring_ready: 0,
            ring_used: 0,
            capture_queue_depth: cap.capture_queue_depth.snapshot(),
            chunk_fill: cap.chunk_fill.snapshot(),
            batch_size: cap.batch_size.snapshot(),
            latency_ns: latency,
            latency_p999_ns: p999,
            stage_backend_ns: self.app.0.stage_backend_ns.snapshot(),
            stage_queue_wait_ns: self.app.0.stage_queue_wait_ns.snapshot(),
            stage_claim_ns: self.app.0.stage_claim_ns.snapshot(),
            stage_reorder_ns: self.app.0.stage_reorder_ns.snapshot(),
            stage_deliver_ns: self.app.0.stage_deliver_ns.snapshot(),
            stage_disk_ns: self.disk.0.stage_disk_ns.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_are_cache_line_separated() {
        assert_eq!(std::mem::align_of::<CacheAligned<CaptureSide>>(), 128);
        let qc = QueueCounters::new();
        let cap = &qc.cap as *const _ as usize;
        let app = &qc.app as *const _ as usize;
        let peer = &qc.peer as *const _ as usize;
        assert!(app.abs_diff(cap) >= 128);
        assert!(peer.abs_diff(app) >= 128);
    }

    #[test]
    fn snapshot_copies_counters() {
        let qc = QueueCounters::new();
        qc.cap.0.offered_packets.add(10);
        qc.cap.0.captured_packets.add(8);
        qc.cap.0.capture_drop_packets.add(2);
        qc.app.0.delivered_packets.add(8);
        qc.peer.0.offloaded_in_chunks.inc();
        qc.cap.0.chunk_fill.record(8);
        qc.app.0.latency_ns.record(1500);
        qc.capture_queue_watermark.observe(9);
        qc.capture_queue_watermark.observe(4);
        let t = qc.snapshot(3);
        assert_eq!(t.queue, 3);
        assert_eq!(t.offered_packets, 10);
        assert_eq!(t.captured_packets, 8);
        assert_eq!(t.capture_drop_packets, 2);
        assert_eq!(t.delivered_packets, 8);
        assert_eq!(t.offloaded_in_chunks, 1);
        assert_eq!(t.chunk_fill.count, 1);
        assert_eq!(t.latency_ns.count, 1);
        assert_eq!(t.latency_ns.max, 1500);
        assert_eq!(t.capture_queue_watermark, 9, "watermark keeps the max");
    }

    #[test]
    fn snapshot_copies_stage_histograms_and_derives_p999() {
        let qc = QueueCounters::new();
        for ns in [100u64, 200, 400, 1 << 20] {
            qc.app.0.latency_ns.record(ns);
        }
        qc.app.0.stage_backend_ns.record(50);
        qc.app.0.stage_queue_wait_ns.record(60);
        qc.app.0.stage_claim_ns.record(5);
        qc.app.0.stage_reorder_ns.record(7);
        qc.app.0.stage_deliver_ns.record(80);
        qc.disk.0.stage_disk_ns.record(3000);
        let t = qc.snapshot(0);
        assert_eq!(t.stage_backend_ns.count, 1);
        assert_eq!(t.stage_queue_wait_ns.count, 1);
        assert_eq!(t.stage_claim_ns.count, 1);
        assert_eq!(t.stage_reorder_ns.count, 1);
        assert_eq!(t.stage_deliver_ns.count, 1);
        assert_eq!(t.stage_disk_ns.count, 1);
        assert_eq!(
            t.latency_p999_ns,
            t.latency_ns.quantile(0.999),
            "p99.9 scalar mirrors the histogram"
        );
        assert!(t.latency_p999_ns >= 1 << 20, "tail sample dominates p99.9");
    }
}
