//! The live (real-thread) WireCAP engine.
//!
//! Runs the ring-buffer-pool and buddy-group mechanisms on OS threads
//! against any [`CaptureBackend`] (DESIGN.md §4.13) — the in-memory
//! [`nicsim::livenic::LiveNic`] behind the
//! [`crate::backend::NicSimBackend`] adapter, or the `shmring`
//! descriptor-ring backend — with real packets. One capture thread per
//! receive queue performs the capture/recycle/offload work;
//! application threads consume chunks through [`LiveConsumer`], which
//! also implements [`pcap::PacketSource`] so ordinary pcap-style programs
//! run on top unchanged — the paper's Libpcap-compatibility claim,
//! demonstrated end-to-end in the examples.
//!
//! Construction goes through [`LiveWireCap::builder`].
//!
//! # Hot path
//!
//! The capture path is allocation-free and batched:
//!
//! * packet payloads live in a per-queue [`ChunkArena`] allocated once at
//!   start; the capture thread writes each packet straight into a cell of
//!   the chunk it is filling, and consumers read borrowed `&[u8]` slices
//!   through [`ChunkView`] ([`LiveConsumer::view`]). A [`LiveChunk`] is
//!   a ~112-byte handle (seal token, sequence number, inline span
//!   stamps), not a packet vector — and at light load one crosses a
//!   ring per packet, so its size is pinned by a `const` assertion;
//! * chunk hand-off uses one [`BatchRing`] per (target queue, producer)
//!   pair — strictly single-producer, so a whole batch of chunks is
//!   published with a single release store. Buddy-group offloading picks
//!   the target ring; because each producer owns its row of rings, the
//!   offload path needs no fallback and can never lose a chunk to a full
//!   queue;
//! * recycling returns the sealed slot through a small MPMC queue sized
//!   R — it can never be full because only R slots exist per queue;
//! * a chunk is sealed when it is full, when it has waited
//!   `capture_timeout_ns`, or — *idle hand-off* (DESIGN.md §4.7) — when
//!   a poll comes back empty while every other chunk of the queue's
//!   pool is home: batch size follows the consumer's pace, one packet
//!   per chunk when it is idle, M per chunk the moment it falls behind.
//!
//! [`LiveConsumer::recycle`] consumes the [`LiveChunk`] by value, which
//! statically invalidates every [`ChunkView`] borrowed from it — the
//! compile-time form of the paper's rule that a recycled chunk's cells
//! may be overwritten by DMA at any time.
//!
//! Simulation-mode experiments (the figures) use
//! [`crate::engine::WireCapEngine`]; this module exists to prove the
//! design works as a concurrent artifact.

use crate::arena::{ChunkArena, ChunkView, FreeSlot, SealedSlot};
use crate::backend::{CaptureBackend, LiveWireCapBuilder};
use crate::buddy::{BuddyGroup, BuddyGroups};
use crate::claim::ClaimQueue;
use crate::config::{WireCapConfig, CELL_BYTES};
use crate::spsc::{BatchRing, MAX_BATCH};
use crate::steal::{available_cores, pin_to_core, AdaptivePoller, ConsumerPool, WakeupGate};
use crossbeam::queue::ArrayQueue;
use netproto::Packet;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use telemetry::{
    clock, kind, EngineSnapshot, Observable, QueueTelemetry, Registry, ScrapeServer, SpanRecord,
    SpanStamps,
};

/// Packets pulled from the NIC queue per batch.
const NIC_POP_BATCH: usize = 256;

/// A captured chunk in the live engine: a sealed arena slot plus the
/// metadata a consumer needs to view and recycle it. The payload stays
/// in the home queue's [`ChunkArena`]; borrow it with
/// [`LiveConsumer::view`].
#[derive(Debug)]
pub struct LiveChunk {
    pub(crate) seal: SealedSlot,
    pub(crate) home: u32,
    pub(crate) offloaded: bool,
    /// Seal-order sequence number within the home queue, stamped by the
    /// home capture thread (monotonic from 0 per queue). Drives span
    /// sampling; consumers read it to check per-queue delivery order.
    pub(crate) seq: u64,
    /// Lifecycle span stamps (DESIGN.md §4.14), `Some` on the 1-in-N
    /// chunks the span sampler picked. The stamps travel inside the
    /// chunk because the chunk is owned by exactly one thread at every
    /// stage — plain `u64`s, no atomics, no allocation.
    pub(crate) span: Option<SpanStamps>,
}

// Idle hand-off moves one handle through a delivery ring per packet at
// light load: growing it past two cache lines is a decision, not drift.
const _: () = assert!(std::mem::size_of::<LiveChunk>() <= 128);

impl LiveChunk {
    /// Packets the chunk holds.
    pub fn len(&self) -> usize {
        self.seal.len()
    }

    /// True if the chunk holds no packets.
    pub fn is_empty(&self) -> bool {
        self.seal.is_empty()
    }

    /// The queue whose pool owns this chunk.
    pub fn home(&self) -> usize {
        self.home as usize
    }

    /// Whether the offloading policy moved it off its home queue.
    pub fn offloaded(&self) -> bool {
        self.offloaded
    }

    /// Seal-order sequence number within the home queue (monotonic from
    /// 0 per queue). A per-queue [`LiveConsumer`] delivers in this
    /// order; a pool's claim intake does not.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// True when the span sampler picked this chunk (1-in-N per queue,
    /// DESIGN.md §4.14).
    pub fn is_sampled(&self) -> bool {
        self.span.is_some()
    }

    /// Stamps the disk-handoff instant — the drainer → writer ownership
    /// transfer in the capture-to-disk subsystem — on a sampled chunk.
    /// No-op when the chunk is unsampled.
    pub fn stamp_disk_handoff(&mut self, now_ns: u64) {
        if let Some(span) = self.span.as_mut() {
            span.disk_handoff_ns = now_ns;
        }
    }

    /// Stamps the disk write-commit instant on a sampled chunk and
    /// returns the handoff → commit duration for the caller to record
    /// into its disk shard's `stage_disk_ns` histogram. `None` when the
    /// chunk is unsampled.
    pub fn stamp_disk_write(&mut self, now_ns: u64) -> Option<u64> {
        self.span.as_mut().map(|span| {
            span.disk_write_ns = now_ns;
            now_ns.saturating_sub(span.disk_handoff_ns)
        })
    }
}

pub(crate) struct Shared {
    /// `rings[target][producer]`: the SPSC batch ring carrying chunks
    /// captured by `producer` to `target`'s consumers.
    pub(crate) rings: Vec<Vec<BatchRing<LiveChunk>>>,
    /// Per-home-queue recycle queues carrying sealed slots back to the
    /// capture thread. Capacity R; can never be full.
    pub(crate) recycle: Vec<ArrayQueue<SealedSlot>>,
    /// Per-queue cell arenas; all payload bytes live here.
    pub(crate) arenas: Vec<Arc<ChunkArena>>,
    /// All counters, histograms and the event tracer — sharded by
    /// writer role per queue (see `telemetry::QueueCounters`), so the
    /// capture thread, the consumers, and offloading buddies each write
    /// their own cache line and never false-share on the hot path.
    pub(crate) tel: Registry,
    /// Woken whenever a capture thread publishes chunks or closes its
    /// rings; pool workers park here when their queues go quiet.
    pub(crate) delivery_gate: WakeupGate,
    /// Woken at shutdown and whenever a slot is recycled; capture
    /// threads park here when the NIC is idle or their pool is
    /// exhausted (NIC arrivals are invisible to the gate, so capture
    /// parks are bounded by the adaptive poller's park timeout).
    pub(crate) capture_gate: WakeupGate,
    /// Concurrent single-queue consumption (DESIGN.md §4.12): one
    /// lock-free claim queue per *target* queue, replacing the SPSC
    /// rings as the delivery path when `cfg.concurrent_queue` is set.
    /// Every capture thread is a producer on every target's queue
    /// (buddy offload crosses queues), so each is sized to hold every
    /// chunk in existence (`queues × R`) and closed by producer
    /// countdown.
    pub(crate) claims: Option<Vec<ClaimQueue<LiveChunk>>>,
}

/// The delivery side's shared steps, one copy each for [`LiveConsumer`]
/// and every pool intake (`crate::steal`).
impl Shared {
    /// Pops a batch from each of queue `q`'s inbound rings into
    /// `scratch`, starting at producer `first`. True if any gave a chunk.
    #[inline]
    pub(crate) fn pop_inbound(&self, q: usize, first: usize, scratch: &mut Vec<LiveChunk>) -> bool {
        let (before, from) = self.rings[q].split_at(first);
        let mut got = false;
        for ring in from.iter().chain(before) {
            got |= ring.pop_batch(scratch, MAX_BATCH) > 0;
        }
        got
    }

    /// The one way home for a chunk outside the capture thread: pushes
    /// its slot onto the home queue's recycle queue (sized R, and only R
    /// slots exist, so it cannot stay full; spin defensively anyway) and
    /// wakes a capture thread parked on pool exhaustion.
    #[inline]
    pub(crate) fn recycle_home(&self, chunk: LiveChunk) {
        let home = chunk.home();
        let mut seal = chunk.seal;
        while let Err(back) = self.recycle[home].push(seal) {
            seal = back;
            std::thread::yield_now();
        }
        self.capture_gate.notify();
    }

    /// Sends home a chunk that will never reach an application, counting
    /// its slot as recycled and its packets as delivery drops on its
    /// *home* queue — so `captured == delivered + delivery_drop` holds
    /// per queue, not only in sum.
    #[inline]
    pub(crate) fn drop_undelivered(&self, chunk: LiveChunk) {
        let tel = self.tel.queue(chunk.home());
        tel.app.recycled_chunks.add(1);
        tel.cap.delivery_drop_packets.add(chunk.len() as u64);
        self.recycle_home(chunk);
    }

    /// Retires a sampled chunk's span: its stage durations go to the
    /// caller's single-writer delivery `shard` (`None` skips them), the
    /// record to the lock-protected span ring.
    #[inline]
    pub(crate) fn retire_span(&self, shard: Option<usize>, rec: SpanRecord) {
        if let Some(q) = shard {
            let app = &self.tel.queue(q).app;
            app.stage_backend_ns.record(rec.stage_backend_ns);
            app.stage_queue_wait_ns.record(rec.stage_queue_wait_ns);
            app.stage_claim_ns.record(rec.stage_claim_ns);
            app.stage_reorder_ns.record(rec.stage_reorder_ns);
            app.stage_deliver_ns.record(rec.stage_deliver_ns);
        }
        self.tel.spans().push(rec);
    }
}

/// The live WireCAP engine: per-queue capture threads over any
/// [`CaptureBackend`].
pub struct LiveWireCap {
    backend: Arc<dyn CaptureBackend>,
    cfg: WireCapConfig,

    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    /// Scrape endpoint, attached from the environment
    /// (`WIRECAP_TELEMETRY_LISTEN`).
    scrape: Option<ScrapeServer>,
}

/// A cheap, thread-safe observer handle over a running [`LiveWireCap`]:
/// what the scrape endpoint holds. Keeps only the shared state alive —
/// not the capture threads — so observation never extends the engine's
/// lifetime.
struct LiveObserver {
    shared: Arc<Shared>,
    backend: Arc<dyn CaptureBackend>,
    cfg: WireCapConfig,
}

impl Observable for LiveObserver {
    fn snapshot(&self) -> EngineSnapshot {
        engine_snapshot(&self.shared, self.backend.as_ref(), &self.cfg)
    }

    fn spans(&self) -> Vec<SpanRecord> {
        self.shared.tel.spans().records()
    }
}

impl LiveWireCap {
    /// A [`LiveWireCapBuilder`]: the way to construct a live engine
    /// over any backend.
    ///
    /// ```ignore
    /// let engine = LiveWireCap::builder()
    ///     .backend(NicSimBackend::new(Arc::clone(&nic)))
    ///     .config(cfg)
    ///     .groups(groups)
    ///     .start();
    /// ```
    pub fn builder() -> LiveWireCapBuilder {
        LiveWireCapBuilder::default()
    }

    /// Starts capture threads for every queue of `backend`. Called by
    /// [`LiveWireCapBuilder::start`].
    pub(crate) fn start_with(
        backend: Arc<dyn CaptureBackend>,
        cfg: WireCapConfig,
        groups: BuddyGroups,
    ) -> Self {
        cfg.validate().expect("invalid WireCAP configuration");
        let queues = backend.queue_count();
        let mut arenas = Vec::with_capacity(queues);
        let mut freelists = Vec::with_capacity(queues);
        for _ in 0..queues {
            let (arena, slots) = ChunkArena::with_slots(cfg.r, cfg.m, CELL_BYTES);
            arenas.push(arena);
            freelists.push(slots);
        }
        let shared = Arc::new(Shared {
            rings: (0..queues)
                .map(|_| {
                    (0..queues)
                        .map(|_| BatchRing::with_capacity(cfg.r))
                        .collect()
                })
                .collect(),
            recycle: (0..queues).map(|_| ArrayQueue::new(cfg.r)).collect(),
            arenas,
            tel: Registry::new(queues),
            delivery_gate: WakeupGate::new(),
            capture_gate: WakeupGate::new(),
            claims: cfg.concurrent_queue.then(|| {
                (0..queues)
                    .map(|_| ClaimQueue::new(queues * cfg.r, queues))
                    .collect()
            }),
        });
        // Live observability (DESIGN.md §4.9): a scrape endpoint,
        // attached only when the telemetry env asks for one.
        let scrape = ScrapeServer::from_env(
            &cfg.name(),
            Arc::new(LiveObserver {
                shared: Arc::clone(&shared),
                backend: Arc::clone(&backend),
                cfg,
            }),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let threads = freelists
            .into_iter()
            .enumerate()
            .map(|(q, free)| {
                let backend = Arc::clone(&backend);
                let shared = Arc::clone(&shared);
                let stop = Arc::clone(&stop);
                let group = groups.group_of(q).cloned();
                std::thread::Builder::new()
                    .name(format!("wirecap-capture-{q}"))
                    .spawn(move || capture_thread(q, backend, shared, cfg, group, stop, free))
                    .expect("spawning capture thread")
            })
            .collect();
        LiveWireCap {
            backend,
            cfg,
            shared,
            threads,
            stop,
            scrape,
        }
    }

    /// A [`ChunkLens`]: a thread-safe handle that can view any
    /// [`LiveChunk`]'s packets and account disk-sink telemetry from
    /// threads that are not the queue's consumer. The capture-to-disk
    /// subsystem's writer threads hold one of these; the corresponding
    /// [`LiveConsumer`] stays with the drainer thread that owns
    /// recycling.
    pub fn chunk_lens(&self) -> ChunkLens {
        ChunkLens {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Starts a [`ConsumerPool`]: `workers` threads consuming the
    /// queues of `group` with chunk-granularity work stealing between
    /// them and adaptive polling when idle (DESIGN.md §4.11). The pool
    /// must be the group's *only* consumer — do not also attach
    /// [`LiveConsumer`]s to its queues. `handler` runs once per
    /// delivered chunk, on whichever worker drained or stole it; the
    /// pool recycles the chunk home when the handler returns.
    ///
    /// Join order at end-of-run: stop the NIC, [`ConsumerPool::join`]
    /// *after* [`Self::shutdown`] has closed the rings — or simply join
    /// the pool once `shutdown` returns.
    pub fn consumer_pool<F>(&self, group: &BuddyGroup, workers: usize, handler: F) -> ConsumerPool
    where
        F: Fn(crate::steal::PoolDelivery<'_>) + Send + Sync + 'static,
    {
        ConsumerPool::spawn(
            Arc::clone(&self.shared),
            self.cfg,
            group,
            workers,
            Arc::new(handler),
        )
    }

    /// A consumer handle for queue `q` (the application side).
    ///
    /// # Panics
    ///
    /// In concurrent single-queue mode (`cfg.concurrent_queue`) the
    /// claim queues are the only delivery path — attach a
    /// [`Self::consumer_pool`] instead.
    pub fn consumer(&self, q: usize) -> LiveConsumer {
        assert!(
            !self.cfg.concurrent_queue,
            "concurrent_queue mode delivers through consumer_pool(), not per-queue consumers"
        );
        assert!(q < self.shared.rings.len());
        let queues = self.shared.rings.len();
        LiveConsumer {
            q,
            shared: Arc::clone(&self.shared),
            inbox: VecDeque::new(),
            scratch: Vec::new(),
            rr: 0,
            pending: None,
            cursor: 0,
            tally: vec![std::cell::Cell::new((0, 0)); queues],
            delivered_ns: std::cell::Cell::new(clock::mono_ns()),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &WireCapConfig {
        &self.cfg
    }

    /// The backend this engine captures from.
    pub fn backend(&self) -> &Arc<dyn CaptureBackend> {
        &self.backend
    }

    /// Full telemetry snapshot for queue `q` — the same
    /// [`QueueTelemetry`] type (and semantics) the simulation engine
    /// returns from `CaptureEngine::telemetry(q)`. Counters and gauges
    /// may disagree by a few in-flight packets while capture threads
    /// run.
    pub fn telemetry(&self, q: usize) -> QueueTelemetry {
        queue_telemetry(&self.shared, self.backend.as_ref(), &self.cfg, q)
    }

    /// Full engine snapshot in the unified schema (JSON / Prometheus).
    pub fn snapshot(&self) -> EngineSnapshot {
        engine_snapshot(&self.shared, self.backend.as_ref(), &self.cfg)
    }

    /// The telemetry registry (counters + event tracer). Enable the
    /// tracer with `engine.registry().tracer().enable()`.
    pub fn registry(&self) -> &Registry {
        &self.shared.tel
    }

    /// A cloneable, owning handle to the same registry. Worker
    /// closures (which outlive any borrow of the engine) move clones
    /// across threads and flush per-chunk counter deltas through it.
    pub fn registry_handle(&self) -> RegistryHandle {
        RegistryHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// An [`Observable`] handle for external scrape servers.
    /// Holds only the shared telemetry state, never the threads.
    pub fn observer(&self) -> Arc<dyn Observable> {
        Arc::new(LiveObserver {
            shared: Arc::clone(&self.shared),
            backend: Arc::clone(&self.backend),
            cfg: self.cfg,
        })
    }

    /// The scrape endpoint's bound address, when one is serving —
    /// resolves `WIRECAP_TELEMETRY_LISTEN=127.0.0.1:0` ephemeral ports.
    pub fn telemetry_addr(&self) -> Option<std::net::SocketAddr> {
        self.scrape.as_ref().map(ScrapeServer::addr)
    }

    /// Stops the capture threads (consumers should be joined first) and
    /// waits for them.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Parked capture threads notice the flag immediately instead of
        // waiting out their bounded park timeout.
        self.shared.capture_gate.notify();
        for t in self.threads.drain(..) {
            t.join().expect("capture thread panicked");
        }
        // Stop the endpoint after the capture threads, so a scrape
        // racing shutdown still sees the end-of-run counters.
        if let Some(mut s) = self.scrape.take() {
            s.stop();
        }
    }
}

/// Builds queue `q`'s [`QueueTelemetry`]: registry counters plus the
/// NIC-side accounting and the engine-owned gauges.
fn queue_telemetry(
    shared: &Shared,
    backend: &dyn CaptureBackend,
    cfg: &WireCapConfig,
    q: usize,
) -> QueueTelemetry {
    let mut t = shared.tel.snapshot_queue(q);
    // NIC-side accounting flows through the one fold in
    // `BackendQueue::fill_telemetry`, the same for every backend.
    backend.queue(q).fill_telemetry(&mut t);
    t.capture_queue_len = shared.rings[q].iter().map(|r| r.len() as u64).sum();
    if let Some(claims) = shared.claims.as_ref() {
        t.capture_queue_len += claims[q].len() as u64;
    }
    // Chunks not currently sealed-and-outstanding are free (the one
    // being filled counts as free here; the gauge is approximate while
    // threads run).
    t.free_chunks = (cfg.r as u64).saturating_sub(t.sealed_chunks - t.recycled_chunks);
    t
}

/// Builds the engine-wide snapshot in the unified schema.
fn engine_snapshot(
    shared: &Shared,
    backend: &dyn CaptureBackend,
    cfg: &WireCapConfig,
) -> EngineSnapshot {
    EngineSnapshot {
        engine: cfg.name(),
        tuning: Some(crate::engine::tuning_telemetry(cfg, shared.rings.len())),
        queues: (0..shared.rings.len())
            .map(|q| queue_telemetry(shared, backend, cfg, q))
            .collect(),
        workers: shared.tel.worker_telemetry(),
        copies: sim::stats::CopyMeter::default(),
        latency: sim::stats::LatencyStats::new(),
    }
}

struct CaptureState {
    q: usize,
    free: Vec<FreeSlot>,
    current: Option<FreeSlot>,
    /// When the current chunk was claimed: the [`Self::now_ns`] stamp of
    /// the poll batch that claimed it, so claiming reads no clock.
    chunk_started_ns: u64,
    /// Chunks sealed this iteration, staged per target queue.
    outbox: Vec<Vec<LiveChunk>>,
    /// Scratch for buddy placement decisions.
    lens: Vec<usize>,
    /// Next seal-order sequence number (per home queue, monotonic
    /// from 0) stamped onto every sealed chunk.
    next_seq: u64,
    /// Seal stamp for the current NIC poll batch: read once per poll,
    /// shared by every chunk sealed within it. The ceiling is one clock
    /// read per chunk; amortizing over the poll batch keeps the stamp
    /// within one poll duration (microseconds) of the true seal time at
    /// a fraction of the cost.
    now_ns: u64,
}

fn capture_thread(
    q: usize,
    backend: Arc<dyn CaptureBackend>,
    shared: Arc<Shared>,
    cfg: WireCapConfig,
    group: Option<crate::buddy::BuddyGroup>,
    stop: Arc<AtomicBool>,
    free: Vec<FreeSlot>,
) {
    if cfg.pin_threads {
        // Capture thread q on core q; pool workers map onto the cores
        // after the capture threads (see `ConsumerPool::spawn`).
        pin_to_core(q % available_cores());
    }
    let queues = shared.rings.len();
    let queue = backend.queue(q);
    let arena = Arc::clone(&shared.arenas[q]);
    let mut poller = AdaptivePoller::from_config(&cfg);
    let mut st = CaptureState {
        q,
        free,
        current: None,
        chunk_started_ns: 0,
        outbox: (0..queues).map(|_| Vec::new()).collect(),
        lens: Vec::with_capacity(queues),
        next_seq: 0,
        now_ns: clock::mono_ns(),
    };
    let cap = &shared.tel.queue(q).cap;
    // Set when the backend returns a fatal poll/recycle error: the
    // queue then closes through the normal flush path (DESIGN.md
    // §4.13), so conservation holds over everything captured.
    let mut backend_dead = false;
    loop {
        // Recycle first: returned slots replenish the local freelist.
        while let Some(seal) = shared.recycle[q].pop() {
            st.free.push(arena.release(seal));
        }

        let mut progressed = false;
        while !backend_dead {
            // Backpressure: never poll more packets than the chunks on
            // hand can absorb. When the pool is exhausted the excess
            // stays in the backend's ring — where the NIC-side drop
            // accounting (wire/nic drops) owns the loss — instead of
            // being polled and immediately discarded as capture drops.
            // Consumers notify the capture gate on recycle, so a parked
            // capture thread resumes draining as soon as slots return.
            if st.current.is_none() && st.free.is_empty() {
                while let Some(seal) = shared.recycle[q].pop() {
                    st.free.push(arena.release(seal));
                }
                if st.free.is_empty() {
                    break;
                }
            }
            let room =
                st.current.as_ref().map_or(0, |s| cfg.m - s.filled()) + st.free.len() * cfg.m;
            // Counter writes are batched: one relaxed add per poll batch
            // (≤ NIC_POP_BATCH packets), not one per packet.
            let mut captured_batch = 0u64;
            let mut dropped_batch = 0u64;
            let mut stamped = false;
            // The backend lends each frame to this sink for the duration
            // of the call; the sink copies it into an arena cell, so the
            // frame's backing slot is free to recycle right after.
            let polled = queue.poll_batch(NIC_POP_BATCH.min(room), &mut |frame| {
                if !stamped {
                    // One clock read per non-empty poll batch stamps
                    // every chunk sealed in it (`CaptureState::now_ns`).
                    st.now_ns = clock::mono_ns();
                    stamped = true;
                }
                if st.current.is_none() {
                    // Claim a chunk; drain the recycle queue before
                    // declaring the pool exhausted.
                    if st.free.is_empty() {
                        while let Some(seal) = shared.recycle[q].pop() {
                            st.free.push(arena.release(seal));
                        }
                    }
                    match st.free.pop() {
                        Some(slot) => {
                            st.chunk_started_ns = st.now_ns;
                            st.current = Some(slot);
                        }
                        None => {
                            dropped_batch += 1;
                            return;
                        }
                    }
                }
                let slot = st.current.as_mut().expect("claimed above");
                arena.write_packet(slot, frame.ts_ns, frame.wire_len, frame.data);
                captured_batch += 1;
                if slot.filled() == cfg.m {
                    let full = st.current.take().expect("slot just filled");
                    stage(&shared, &cfg, group.as_ref(), &arena, full, &mut st);
                }
            });
            let polled = match polled {
                Ok(n) => n,
                Err(e) => {
                    // Contract: a backend errors *before* lending any
                    // frame in the failing call, so there is nothing to
                    // count or recycle here.
                    eprintln!("wirecap: queue {q} backend poll failed, closing queue: {e}");
                    backend_dead = true;
                    break;
                }
            };
            if polled == 0 {
                break;
            }
            progressed = true;
            if captured_batch > 0 {
                cap.captured_packets.add_local(captured_batch);
            }
            if dropped_batch > 0 {
                cap.capture_drop_packets.add_local(dropped_batch);
            }
            // Return the batch's backing slots (the RDT advance). The
            // frames are in the arena — or counted as capture drops —
            // either way their ring slots are done.
            if let Err(e) = queue.recycle(polled) {
                eprintln!("wirecap: queue {q} backend recycle failed, closing queue: {e}");
                backend_dead = true;
            }
            flush(&shared, &mut st);
            if backend_dead {
                break;
            }
        }

        // Partial delivery. A non-empty partial reaches this point only
        // after a poll came back empty (or the backend died, and the
        // closing path below seals it regardless), and is sealed early
        // by one of two rules:
        //
        // * idle hand-off (DESIGN.md §4.7) — every other chunk of this
        //   pool is home, so nothing of ours is queued at or held by a
        //   consumer and waiting for M only adds latency. The rule
        //   declines until that chunk is recycled, so at most one
        //   early-sealed chunk is ever outstanding and every chunk
        //   claimed meanwhile fills to M: batch size follows the
        //   consumer's pace. The seal reuses the last poll stamp;
        // * capture timeout — the bound when the rule declines. One
        //   clock read per idle iteration serves the deadline check, the
        //   seal stamp and the park cap below.
        let mut max_park = Duration::MAX;
        if st.current.as_ref().is_some_and(|s| !s.is_empty()) {
            let mut seal_now = st.free.len() + 1 == cfg.r;
            if !seal_now {
                let now = clock::mono_ns();
                let held_ns = now.saturating_sub(st.chunk_started_ns);
                if held_ns >= cfg.capture_timeout_ns {
                    st.now_ns = now;
                    seal_now = true;
                } else {
                    max_park = Duration::from_nanos(cfg.capture_timeout_ns - held_ns);
                }
            }
            if seal_now {
                cap.partial_chunks.inc_local();
                let partial = st.current.take().expect("checked non-empty");
                stage(&shared, &cfg, group.as_ref(), &arena, partial, &mut st);
                flush(&shared, &mut st);
            }
        }

        if progressed {
            poller.reset();
        } else {
            // Ticket before the final work checks (the stop flag, the
            // recycle queue): a shutdown() or a slot coming home after
            // this point notifies the gate, which turns the park below
            // into an immediate return.
            let ticket = shared.capture_gate.ticket();
            let ending = stop.load(Ordering::SeqCst)
                || backend_dead
                || (backend.is_stopped() && queue.depth() == 0);
            if ending {
                // Close semantics: flush the in-progress chunk without
                // waiting for the timeout, then close our rings.
                if let Some(last) = st.current.take() {
                    if last.is_empty() {
                        st.free.push(last);
                    } else {
                        cap.partial_chunks.inc_local();
                        st.now_ns = clock::mono_ns();
                        stage(&shared, &cfg, group.as_ref(), &arena, last, &mut st);
                    }
                }
                // A forced stop can strand frames the backend already
                // received (they raced in after this thread's last
                // empty poll): nobody will ever poll them again, so
                // drain and count them as capture drops — `offered ==
                // captured + capture_drops + nic_drops` must survive a
                // non-graceful shutdown. Bounded by ring capacity so a
                // still-live producer cannot wedge teardown.
                if !backend_dead {
                    let mut budget = queue.accounting().ring_capacity as usize + NIC_POP_BATCH;
                    let mut stranded = 0u64;
                    while budget > 0 {
                        match queue.poll_batch(NIC_POP_BATCH.min(budget), &mut |_| {}) {
                            Ok(0) | Err(_) => break,
                            Ok(n) => {
                                stranded += n as u64;
                                budget -= n;
                                if queue.recycle(n).is_err() {
                                    break;
                                }
                            }
                        }
                    }
                    if stranded > 0 {
                        cap.capture_drop_packets.add_local(stranded);
                    }
                }
                flush(&shared, &mut st);
                for target in 0..queues {
                    shared.rings[target][q].close();
                }
                // Concurrent mode: this thread is a producer on every
                // target's claim queue; count it out of each so pool
                // workers can observe end-of-stream.
                if let Some(claims) = shared.claims.as_ref() {
                    for claim in claims {
                        claim.producer_done();
                    }
                }
                // Parked consumers must observe the closes promptly.
                shared.delivery_gate.notify();
                return;
            }
            // A slot that came home since this iteration's drain may be
            // the one the idle hand-off rule, or an exhausted pool, is
            // waiting for: go round again rather than park on it.
            if !shared.recycle[q].is_empty() {
                continue;
            }
            // Adaptive idling: yield → bounded park. The first empty
            // round already hands the core over: a pool worker or
            // consumer may be pinned beside this thread. NIC
            // arrivals cannot notify the gate, so parks are bounded by
            // the park timeout — and, while a non-empty partial chunk
            // is held, by its remaining capture-timeout budget
            // (`max_park`), so the partial-delivery deadline is never
            // overslept.
            poller.idle_capped(&shared.capture_gate, ticket, max_park);
        }
    }
}

/// Seals a filled chunk, runs the buddy placement policy, and stages the
/// chunk on the target's outbox (batched; [`flush`] publishes).
fn stage(
    shared: &Shared,
    cfg: &WireCapConfig,
    group: Option<&crate::buddy::BuddyGroup>,
    arena: &ChunkArena,
    slot: FreeSlot,
    st: &mut CaptureState,
) {
    let q = st.q;
    // Latency stamp: the poll-batch clock read from `CaptureState`
    // (at most one read per chunk, never one per packet); the consumer
    // closes the interval against its own batch delivery stamp.
    let seal = arena.seal_at(slot, st.now_ns);
    let cap = &shared.tel.queue(q).cap;
    cap.sealed_chunks.inc_local();
    cap.chunk_fill.record(seal.len() as u64);
    let target = match (cfg.threshold, group) {
        (Some(t), Some(g)) => {
            st.lens.clear();
            st.lens.extend(
                shared.rings.iter().enumerate().map(|(tq, row)| {
                    row.iter().map(|r| r.len()).sum::<usize>() + st.outbox[tq].len()
                }),
            );
            let target = g.place(q, &st.lens, cfg.capture_queue_capacity(), t);
            cap.capture_queue_depth.record(st.lens[target] as u64);
            shared
                .tel
                .queue(target)
                .capture_queue_watermark
                .observe(st.lens[target] as u64 + 1);
            target
        }
        _ => q,
    };
    if target != q {
        cap.offloaded_out_chunks.inc_local();
        shared.tel.queue(target).peer.offloaded_in_chunks.inc();
        let tracer = shared.tel.tracer();
        if tracer.is_enabled() {
            tracer.record(
                wall_ns(),
                q as u32,
                kind::OFFLOAD,
                seal.len() as u32,
                target as u32,
                st.lens.get(target).copied().unwrap_or(0) as u64,
            );
        }
    }
    let seq = st.next_seq;
    st.next_seq += 1;
    // Span sampling (DESIGN.md §4.14): the seal-order sequence number
    // picks 1-in-N chunks per queue — one branch and no extra state on
    // the unsampled path. The seal stamp reuses the poll-batch clock
    // read; later stages stamp at their own ownership transfers.
    let span =
        (cfg.span_sample_n > 0 && seq.is_multiple_of(u64::from(cfg.span_sample_n))).then(|| {
            SpanStamps {
                sealed_ns: st.now_ns,
                ..Default::default()
            }
        });
    st.outbox[target].push(LiveChunk {
        seal,
        home: q as u32,
        offloaded: target != q,
        seq,
        span,
    });
}

/// Wall-clock nanoseconds for tracer timestamps (only computed when the
/// tracer is enabled).
fn wall_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// Publishes every staged chunk. Each ring is per-producer with capacity
/// ≥ R, and at most R chunks homed here exist, so the loop always drains.
/// In concurrent single-queue mode the claim queues replace the rings;
/// each is sized `queues × R` (every chunk in existence fits), so the
/// defensive full-queue spin can never engage.
///
/// The writer charges the target's `capture_queue_watermark` with the
/// depth it just published into — once per flush, never per packet —
/// so a snapshot only reads it. In advanced mode the placement in
/// [`stage`] also charges it with the depth summed over every producer.
fn flush(shared: &Shared, st: &mut CaptureState) {
    let q = st.q;
    let cap = &shared.tel.queue(q).cap;
    let mut published = false;
    // Publish stamp for sampled chunks: one lazy clock read per flush,
    // shared by every sampled chunk in it (mirrors the poll-batch seal
    // stamp). Zero clock reads when nothing in the flush is sampled.
    let mut publish_ns = 0u64;
    for staged in st.outbox.iter_mut() {
        for chunk in staged.iter_mut() {
            if let Some(span) = chunk.span.as_mut() {
                if publish_ns == 0 {
                    publish_ns = clock::mono_ns();
                }
                span.published_ns = publish_ns;
            }
        }
    }
    if let Some(claims) = shared.claims.as_ref() {
        for (target, staged) in st.outbox.iter_mut().enumerate() {
            if staged.is_empty() {
                continue;
            }
            cap.batch_size.record(staged.len() as u64);
            published = true;
            for chunk in staged.drain(..) {
                let mut item = chunk;
                while let Err(back) = claims[target].push(item) {
                    item = back;
                    std::thread::yield_now();
                }
            }
            shared
                .tel
                .queue(target)
                .capture_queue_watermark
                .observe(claims[target].len() as u64);
        }
        if published {
            shared.delivery_gate.notify();
        }
        return;
    }
    for (target, staged) in st.outbox.iter_mut().enumerate() {
        if staged.is_empty() {
            continue;
        }
        let ring = &shared.rings[target][q];
        while !staged.is_empty() {
            let pushed = ring.push_batch(staged);
            if pushed == 0 {
                std::thread::yield_now();
            } else {
                cap.batch_size.record(pushed as u64);
                published = true;
            }
        }
        shared
            .tel
            .queue(target)
            .capture_queue_watermark
            .observe(ring.len() as u64);
    }
    if published {
        // One cheap notify per flush (a relaxed load when nobody is
        // parked) wakes pool workers parked on the delivery gate.
        shared.delivery_gate.notify();
    }
}

/// A thread-safe read lens over a running engine's arenas and disk-side
/// telemetry, independent of any per-queue consumer.
///
/// [`LiveConsumer`] is deliberately single-threaded (it owns the SPSC
/// consumer end and the recycle path), but the capture-to-disk
/// subsystem splits work across a drainer thread (owns the consumer)
/// and a writer thread (encodes packets to the file). The writer only
/// needs to *read* chunk payloads and bump the `disk` counter shard —
/// exactly what this handle exposes. Borrow rules still hold: a
/// [`ChunkView`] borrows the [`LiveChunk`], so the chunk cannot be
/// recycled (moved back to the drainer) while a view is alive.
#[derive(Clone)]
pub struct ChunkLens {
    shared: Arc<Shared>,
}

impl ChunkLens {
    /// Borrows the packets of `chunk` from its home arena — same
    /// semantics as [`LiveConsumer::view`], usable from any thread.
    pub fn view<'a>(&'a self, chunk: &'a LiveChunk) -> ChunkView<'a> {
        self.shared.arenas[chunk.home()].view(&chunk.seal)
    }

    /// The engine's queue count.
    pub fn queues(&self) -> usize {
        self.shared.rings.len()
    }

    /// Queue `q`'s disk-sink counter shard (multi-writer counters; the
    /// disk subsystem fires them per chunk or batch, never per packet).
    pub fn disk(&self, q: usize) -> &telemetry::DiskSide {
        &self.shared.tel.queue(q).disk
    }
}

impl std::fmt::Debug for ChunkLens {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkLens")
            .field("queues", &self.queues())
            .finish()
    }
}

/// A cloneable, owning handle to a running engine's telemetry
/// [`Registry`] — the counters-only analogue of [`ChunkLens`].
///
/// [`LiveWireCap::registry`] returns a borrow tied to the engine, which
/// `'static` worker closures cannot hold. This handle keeps the shared
/// state alive on its own, so pool handlers move a clone into their
/// closure and flush per-chunk counter deltas from any thread.
#[derive(Clone)]
pub struct RegistryHandle {
    pub(crate) shared: Arc<Shared>,
}

impl RegistryHandle {
    /// The counter group for queue `q`.
    #[inline]
    pub fn queue(&self, q: usize) -> &telemetry::QueueCounters {
        self.shared.tel.queue(q)
    }

    /// The full registry (tracer, spans, worker profiles).
    pub fn registry(&self) -> &Registry {
        &self.shared.tel
    }
}

impl std::fmt::Debug for RegistryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegistryHandle")
            .field("queues", &self.shared.tel.queue_count())
            .finish()
    }
}

/// The application-side handle for one queue: takes chunk handles,
/// borrows their packets through [`ChunkView`], and recycles the slots.
pub struct LiveConsumer {
    q: usize,
    shared: Arc<Shared>,
    /// Chunks popped in a batch but not yet handed to the application.
    inbox: VecDeque<LiveChunk>,
    scratch: Vec<LiveChunk>,
    /// Round-robin cursor over inbound per-producer rings.
    rr: usize,
    /// pcap-source iteration state.
    pending: Option<LiveChunk>,
    cursor: usize,
    /// Per-home-queue (delivered packets, recycled chunks) tallies,
    /// flushed to the shared telemetry counters at every inbox refill —
    /// one atomic add per batch of chunks, not one per chunk.
    tally: Vec<std::cell::Cell<(u64, u64)>>,
    /// Delivery timestamp for the current inbox batch: read once per
    /// refill, shared by every chunk popped in that batch. The refill is
    /// the delivery moment — when chunks crossed from the engine to the
    /// application — so the latency interval closes here rather than at
    /// recycle, and the clock cost is one read per batch, not per chunk.
    delivered_ns: std::cell::Cell<u64>,
}

impl LiveConsumer {
    /// Flushes the local delivery tallies to the shared counters.
    fn flush_tally(&self) {
        for (home, cell) in self.tally.iter().enumerate() {
            let (delivered, recycled) = cell.take();
            if recycled > 0 {
                let app = &self.shared.tel.queue(home).app;
                app.delivered_packets.add(delivered);
                app.recycled_chunks.add(recycled);
            }
        }
    }

    /// Pops a batch from each inbound ring into the local inbox.
    fn refill(&mut self) -> bool {
        self.flush_tally();
        let got = self.shared.pop_inbound(self.q, self.rr, &mut self.scratch);
        self.rr = (self.rr + 1) % self.shared.rings[self.q].len();
        if got {
            // One clock read per batch stamps the delivery moment for
            // every chunk just popped (see `delivered_ns`).
            let now = clock::mono_ns();
            self.delivered_ns.set(now);
            // Span convention for the per-queue consumer: the pop *is*
            // acquisition *and* delivery (there is no claim contention
            // and the handler runs inline), so the claim, reorder and
            // deliver stages collapse to zero and the stage sum equals
            // the end-to-end latency exactly.
            // The capture-to-delivery interval closes at the refill
            // stamp, so it is recorded here too — not per chunk at
            // recycle time (this consumer is the single writer of its
            // queue's delivery shard). Chunks sealed in one capture
            // poll batch share a seal stamp, so the intervals arrive
            // in runs and recording is a compare per chunk plus one
            // histogram flush per run.
            let mut lat =
                telemetry::RunRecorder::new(&self.shared.tel.queue(self.q).app.latency_ns);
            for chunk in self.scratch.iter_mut() {
                let sealed_ns = chunk.seal.sealed_ns();
                if sealed_ns > 0 {
                    lat.push(now.saturating_sub(sealed_ns));
                }
                if let Some(span) = chunk.span.as_mut() {
                    span.acquire_started_ns = now;
                    span.acquired_ns = now;
                    span.deliver_start_ns = now;
                    span.deliver_end_ns = now;
                }
            }
            lat.finish();
        }
        self.inbox.extend(self.scratch.drain(..));
        got
    }

    /// Takes the next whole chunk without blocking. `None` means nothing
    /// is available right now — the stream may still be live; use
    /// [`Self::next_chunk`] to wait for end-of-stream.
    pub fn try_chunk(&mut self) -> Option<LiveChunk> {
        if let Some(chunk) = self.inbox.pop_front() {
            return Some(chunk);
        }
        self.refill();
        self.inbox.pop_front()
    }

    /// Takes the next whole chunk, blocking (with yields) until one is
    /// available or the stream ends.
    pub fn next_chunk(&mut self) -> Option<LiveChunk> {
        loop {
            if let Some(chunk) = self.inbox.pop_front() {
                return Some(chunk);
            }
            if self.refill() {
                continue;
            }
            if self.shared.rings[self.q].iter().all(|r| r.is_closed()) {
                // Every producer has closed; one final drain closes the
                // push-then-close race window.
                if self.refill() {
                    continue;
                }
                return None;
            }
            std::thread::yield_now();
        }
    }

    /// Borrows the packets of a chunk from its home arena. The view (and
    /// every [`crate::arena::PacketRef`] from it) lives only as long as
    /// the chunk handle: [`Self::recycle`] consumes the chunk, so no view
    /// can outlive recycling.
    pub fn view<'a>(&'a self, chunk: &'a LiveChunk) -> ChunkView<'a> {
        self.shared.arenas[chunk.home()].view(&chunk.seal)
    }

    /// Returns a consumed chunk to its home pool. Consuming the handle
    /// invalidates all outstanding views of the chunk.
    ///
    /// Delivery accounting (`delivered_packets`, `recycled_chunks`) is
    /// tallied locally and flushed to the shared telemetry at the next
    /// inbox refill or when the consumer drops, so snapshots taken
    /// mid-batch may trail the true delivery count by a few chunks.
    pub fn recycle(&self, chunk: LiveChunk) {
        let home = chunk.home();
        let (delivered, recycled) = self.tally[home].get();
        self.tally[home].set((delivered + chunk.len() as u64, recycled + 1));
        // The capture-to-delivery latency interval was already recorded
        // at refill time (the delivery moment), batched for the whole
        // inbox — nothing to record per chunk here.
        // Sampled chunk: decompose the same interval into stages and
        // retire the span (this consumer is the single writer of its
        // queue's delivery shard, same discipline as `latency_ns`).
        // Chunks that took the disk leg are recycled after the write
        // commit, so the span end extends to the write stamp — keeping
        // the stage sum ≤ end-to-end even when the delivery stamp is
        // stale by then.
        if let Some(span) = chunk.span {
            let rec = SpanRecord::from_stamps(
                chunk.home,
                chunk.seq,
                chunk.len() as u32,
                None,
                false,
                &span,
                self.delivered_ns.get().max(span.disk_write_ns),
            );
            self.shared.retire_span(Some(self.q), rec);
        }
        let tracer = self.shared.tel.tracer();
        if tracer.is_enabled() {
            tracer.record(
                wall_ns(),
                self.q as u32,
                kind::RECYCLE,
                home as u32,
                home as u32,
                chunk.len() as u64,
            );
        }
        self.shared.recycle_home(chunk);
    }
}

impl Drop for LiveConsumer {
    fn drop(&mut self) {
        // A consumer departing mid-run (early shutdown, panic unwind)
        // must not strand chunks it already popped off the rings: the
        // slots would never return to their home pools and the capture
        // side would bleed capacity. Every pending or inboxed chunk
        // goes home here, its packets accounted as delivery drops —
        // captured, popped, but never handed to an application. (Chunks
        // still *on* the rings are not ours to recycle; a successor
        // consumer on this queue finds them there.)
        for chunk in self.pending.take().into_iter().chain(self.inbox.drain(..)) {
            self.shared.drop_undelivered(chunk);
        }
        self.flush_tally();
    }
}

impl pcap::PacketSource for LiveConsumer {
    /// Compatibility shim: pcap-style callers receive owned [`Packet`]s,
    /// so this path **copies** each payload out of the arena (metered
    /// nowhere — it is the price of the owning interface; zero-copy
    /// consumers use [`LiveConsumer::view`] instead).
    fn next_packet(&mut self) -> Option<Packet> {
        loop {
            if let Some(chunk) = &self.pending {
                if self.cursor < chunk.len() {
                    let arena = &self.shared.arenas[chunk.home()];
                    let p = arena.view(&chunk.seal).packet(self.cursor);
                    let pkt = Packet {
                        ts_ns: p.ts_ns,
                        wire_len: p.wire_len,
                        data: bytes::Bytes::copy_from_slice(p.data),
                    };
                    self.cursor += 1;
                    return Some(pkt);
                }
                let done = self.pending.take().expect("just matched Some");
                self.cursor = 0;
                self.recycle(done);
            }
            match self.next_chunk() {
                Some(chunk) => {
                    self.pending = Some(chunk);
                    self.cursor = 0;
                }
                None => return None,
            }
        }
    }

    fn is_done(&self) -> bool {
        self.pending.is_none()
            && self.inbox.is_empty()
            && self.shared.rings[self.q]
                .iter()
                .all(|r| r.is_closed() && r.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::NicSimBackend;
    use netproto::{FlowKey, PacketBuilder};
    use nicsim::livenic::LiveNic;
    use std::net::Ipv4Addr;

    fn packets(n: u16) -> Vec<Packet> {
        let mut b = PacketBuilder::new();
        (0..n)
            .map(|i| {
                let flow = FlowKey::udp(
                    Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 1),
                    1000 + i,
                    Ipv4Addr::new(131, 225, 2, 1),
                    443,
                );
                b.build_packet(u64::from(i), &flow, 100).unwrap()
            })
            .collect()
    }

    fn test_cfg() -> WireCapConfig {
        let mut cfg = WireCapConfig::basic(64, 32, 0);
        cfg.capture_timeout_ns = 2_000_000; // 2 ms wall-clock
        cfg
    }

    fn start(nic: &Arc<LiveNic>, cfg: WireCapConfig, groups: BuddyGroups) -> LiveWireCap {
        LiveWireCap::builder()
            .backend(NicSimBackend::new(Arc::clone(nic)))
            .config(cfg)
            .groups(groups)
            .start()
    }

    #[test]
    fn live_capture_delivers_everything() {
        let nic = LiveNic::new(2, 4096);
        let cap = start(&nic, test_cfg(), BuddyGroups::isolated(2));
        let consumers: Vec<_> = (0..2)
            .map(|q| {
                let mut c = cap.consumer(q);
                std::thread::spawn(move || {
                    let mut n = 0u64;
                    while let Some(chunk) = c.next_chunk() {
                        n += chunk.len() as u64;
                        c.recycle(chunk);
                    }
                    n
                })
            })
            .collect();
        let total = 3000u16;
        for p in packets(total) {
            while nic.inject(p.clone()).is_none() {
                std::thread::yield_now();
            }
        }
        nic.stop();
        let consumed: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        cap.shutdown();
        assert_eq!(consumed, u64::from(total));
    }

    #[test]
    fn views_expose_the_captured_bytes_without_copying() {
        let nic = LiveNic::new(1, 4096);
        let cap = start(&nic, test_cfg(), BuddyGroups::isolated(1));
        let injected = packets(64);
        for p in &injected {
            nic.inject(p.clone()).unwrap();
        }
        nic.stop();
        let mut c = cap.consumer(0);
        // An idle hand-off may have sealed the first arrivals early, so
        // the 64 packets span one chunk or a few; order is preserved.
        let mut seen = 0;
        while let Some(chunk) = c.next_chunk() {
            let allocs_before = crate::arena::arena_allocations();
            for p in c.view(&chunk).iter() {
                assert_eq!(p.data, &injected[seen].data[..], "packet {seen} payload");
                assert_eq!(p.ts_ns, injected[seen].ts_ns);
                assert_eq!(p.wire_len, injected[seen].wire_len);
                seen += 1;
            }
            assert_eq!(
                crate::arena::arena_allocations(),
                allocs_before,
                "view consumption must not allocate"
            );
            c.recycle(chunk);
        }
        assert_eq!(seen, injected.len());
        cap.shutdown();
    }

    #[test]
    fn live_consumer_as_pcap_source() {
        use pcap::capture::Capture;
        use pcap::PacketSource as _;
        let nic = LiveNic::new(1, 4096);
        let cap = start(&nic, test_cfg(), BuddyGroups::isolated(1));
        let consumer = cap.consumer(0);
        let handle = std::thread::spawn(move || {
            let mut pcap_cap = Capture::new(consumer);
            pcap_cap.set_filter_expr("131.225.2 and udp").unwrap();
            let mut seen = 0u64;
            loop {
                let n = pcap_cap.dispatch(64, |_| seen += 1);
                if n == 0 && pcap_cap.source_mut().is_done() {
                    return seen;
                }
            }
        });
        for p in packets(500) {
            while nic.inject(p.clone()).is_none() {
                std::thread::yield_now();
            }
        }
        nic.stop();
        let matched = handle.join().unwrap();
        cap.shutdown();
        // Every generated packet is UDP to 131.225.2.1.
        assert_eq!(matched, 500);
    }

    #[test]
    fn partial_timeout_fires_on_stragglers() {
        let nic = LiveNic::new(1, 128);
        let cfg = test_cfg();
        let cap = start(&nic, cfg, BuddyGroups::isolated(1));
        let mut c = cap.consumer(0);
        let mut pkts = packets(11).into_iter();
        // Keep one chunk outstanding so the idle hand-off rule declines:
        // a lone packet is handed off at once, and held.
        nic.inject(pkts.next().unwrap()).unwrap();
        let held = c.next_chunk().expect("idle hand-off should deliver");
        assert_eq!(held.len(), 1);
        // 10 stragglers: far less than M = 64, and the pool is not all
        // home, so only the timeout path can deliver them.
        let injected_at = std::time::Instant::now();
        for p in pkts {
            nic.inject(p).unwrap();
        }
        let chunk = c.next_chunk().expect("timeout should deliver");
        assert!(
            injected_at.elapsed() >= Duration::from_nanos(cfg.capture_timeout_ns),
            "stragglers were sealed before the capture timeout"
        );
        assert_eq!(chunk.len(), 10);
        assert_eq!(c.view(&chunk).len(), 10);
        c.recycle(chunk);
        c.recycle(held);
        // Delivery tallies flush at batch boundaries (or consumer
        // drop), not per chunk.
        drop(c);
        let t = cap.telemetry(0);
        assert_eq!(t.partial_chunks, 2);
        assert_eq!(t.delivered_packets, 11);
        assert_eq!(t.sealed_chunks, 2);
        assert_eq!(t.chunk_fill.count, 2);
        assert_eq!(t.chunk_fill.max, 10);
        // One capture-to-delivery latency sample per recycled chunk.
        assert_eq!(t.latency_ns.count, 2);
        assert!(t.latency_ns.sum > 0, "seal stamp preceded recycle");
        nic.stop();
        cap.shutdown();
    }

    #[test]
    fn latency_samples_cover_every_recycled_chunk() {
        let nic = LiveNic::new(1, 4096);
        let cap = start(&nic, test_cfg(), BuddyGroups::isolated(1));
        for p in packets(640) {
            while nic.inject(p.clone()).is_none() {
                std::thread::yield_now();
            }
        }
        nic.stop();
        let mut c = cap.consumer(0);
        let mut chunks = 0u64;
        while let Some(chunk) = c.next_chunk() {
            chunks += 1;
            c.recycle(chunk);
        }
        drop(c);
        let t = cap.telemetry(0);
        assert_eq!(t.latency_ns.count, chunks, "one sample per chunk");
        assert_eq!(t.recycled_chunks, chunks);
        cap.shutdown();
    }
}
