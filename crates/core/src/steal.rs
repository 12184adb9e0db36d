//! Multi-core delivery: work-stealing consumer pools, adaptive polling,
//! and core pinning (DESIGN.md §4.11).
//!
//! The live engine's baseline delivery model binds exactly one consumer
//! to each queue's SPSC rings, so aggregate throughput is capped by the
//! slowest consumer and the buddy-group mechanism only rebalances
//! *after* a capture queue is already over the offload threshold T.
//! This module adds a second, earlier rebalancing layer on the
//! *delivery* side:
//!
//! * a bounded, chunk-granularity **work-stealing deque** — the owner
//!   pushes at the bottom without atomic read-modify-write
//!   instructions, and every chunk leaves from the top with one CAS,
//!   the owner's own included, so each worker serves its backlog
//!   oldest-first;
//! * a [`ConsumerPool`] running N worker threads over the queues of one
//!   [`BuddyGroup`]: each worker drains the SPSC rings of the queues it
//!   owns into its local deque, and steals sealed chunks from busy
//!   workers when its own queues go quiet — rebalancing at the
//!   sealed-chunk handoff, **before** the capture queue ever climbs
//!   toward T;
//! * an [`AdaptivePoller`] (`yield_now` → parked-with-wakeup on a
//!   [`WakeupGate`], no busy-spin stage) so idle capture and worker
//!   threads hand their core to the threads that have work — on
//!   oversubscribed hosts this, not parallelism, is where the scaling
//!   headroom lives;
//! * optional core pinning ([`pin_to_core`]) behind a shim, so builds
//!   without `sched_setaffinity` still compile and run.
//!
//! Recycling stays home-pool-only exactly as the offload path does:
//! stealing moves the *handle*, never the payload, and the slot always
//! returns home through the one path every consumer shares
//! (`Shared::recycle_home`, or `Shared::drop_undelivered` for a chunk
//! that never reaches the handler). `ChunkLens`/capdisk drainers are
//! unaffected because stealing happens after chunks leave the rings,
//! never inside another consumer's inbox.
//!
//! With `cfg.concurrent_queue` the pool's one worker loop switches
//! intake: instead of per-worker deques fed by per-queue rings, every
//! worker claims sealed chunks straight off the group's shared
//! [`ClaimQueue`]s (COREC-style concurrent single-queue consumption,
//! DESIGN.md §4.12), so even one scorching queue is drained by all N
//! workers at once. A lost claim CAS feeds the `claim_contention`
//! counter and the poller's [`AdaptivePoller::lost_race`], which makes
//! the next idle round a yield so contention alone never parks.

use crate::arena::ChunkView;
use crate::buddy::BuddyGroup;
use crate::claim::{Claim, ClaimQueue};
use crate::config::WireCapConfig;
use crate::live::{LiveChunk, Shared};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use telemetry::{clock, SpanRecord, WorkerState, WorkerTimeState};

/// Chunks a pool worker takes from its own deque per drain/process
/// round, bounding the latency between ring drains.
const PROCESS_BURST: usize = 8;

// ---------------------------------------------------------------------
// Bounded Chase-Lev work-stealing deque
// ---------------------------------------------------------------------

/// The owner's endpoint of a bounded work-stealing deque: push and pop
/// at the bottom, no CAS except when racing a thief for the final item.
/// Created by [`steal_deque`]; there is exactly one owner.
#[derive(Debug)]
pub struct DequeOwner<T> {
    inner: Arc<imp::Inner<T>>,
}

/// A thief's endpoint of a bounded work-stealing deque: [`steal`]
/// takes the *oldest* item with a single CAS at the top. Cheap to
/// clone; any number of thieves may race.
///
/// [`steal`]: DequeStealer::steal
#[derive(Debug)]
pub struct DequeStealer<T> {
    inner: Arc<imp::Inner<T>>,
}

impl<T> Clone for DequeStealer<T> {
    fn clone(&self) -> Self {
        DequeStealer {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Outcome of a [`DequeStealer::steal`] attempt.
#[derive(Debug)]
pub enum Steal<T> {
    /// The deque was empty at the time of the attempt.
    Empty,
    /// Lost a race with the owner or another thief; worth retrying.
    Retry,
    /// Took the oldest item.
    Success(T),
}

/// Creates a bounded work-stealing deque holding at most `capacity`
/// items (rounded up to a power of two). The owner endpoint pushes and
/// pops LIFO at the bottom; stealers take FIFO at the top.
pub fn steal_deque<T>(capacity: usize) -> (DequeOwner<T>, DequeStealer<T>) {
    let inner = Arc::new(imp::Inner::new(capacity));
    (
        DequeOwner {
            inner: Arc::clone(&inner),
        },
        DequeStealer { inner },
    )
}

impl<T> DequeOwner<T> {
    /// Pushes at the bottom. Returns the value back when the deque is
    /// full (callers size the deque so this cannot happen in steady
    /// state — e.g. the pool sizes it to every chunk in existence).
    pub fn push(&mut self, value: T) -> Result<(), T> {
        self.inner.push(value)
    }

    /// Pops the most recently pushed item. Order-sensitive owners take
    /// the oldest through their own [`DequeStealer::steal`] instead;
    /// the pool worker pops only to empty its deque on forced stop.
    pub fn pop(&mut self) -> Option<T> {
        self.inner.pop()
    }

    /// Items currently queued (racy under concurrent steals).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when nothing is queued (racy under concurrent steals).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> DequeStealer<T> {
    /// Attempts to take the oldest item with one CAS at the top.
    pub fn steal(&self) -> Steal<T> {
        self.inner.steal()
    }

    /// Items currently queued (racy; a load-only estimate for "is this
    /// victim worth visiting").
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when nothing appears queued (racy estimate).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The unsafe core of the deque: a fixed ring of `MaybeUninit` cells
/// indexed by two monotonic counters, after Chase & Lev ("Dynamic
/// Circular Work-Stealing Deque") with the memory orderings of Lê,
/// Pop, Cohen & Zappa Nardelli ("Correct and Efficient Work-Stealing
/// for Weak Memory Models"), minus the growth path — capacity is fixed
/// and `push` reports a full deque instead of resizing.
#[allow(unsafe_code)]
mod imp {
    use std::cell::UnsafeCell;
    use std::mem::MaybeUninit;
    use std::sync::atomic::{fence, AtomicIsize, Ordering};

    #[derive(Debug)]
    pub(super) struct Inner<T> {
        /// Next slot thieves take from; only ever advanced by CAS.
        top: AtomicIsize,
        /// Next slot the owner pushes to; only the owner stores it.
        bottom: AtomicIsize,
        buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
        mask: usize,
    }

    // SAFETY: the cells are plain memory coordinated entirely through
    // `top`/`bottom`: a slot is readable only inside `[top, bottom)`,
    // and ownership of the value transfers with the CAS on `top` (or
    // the owner's exclusive access to `bottom`). `T: Send` is all the
    // cells themselves require.
    unsafe impl<T: Send> Send for Inner<T> {}
    // SAFETY: as for Send: thieves reach a value only by winning the CAS
    // on `top`, so shared access never yields a `&T`.
    unsafe impl<T: Send> Sync for Inner<T> {}

    impl<T> Inner<T> {
        pub(super) fn new(capacity: usize) -> Self {
            let cap = capacity.max(2).next_power_of_two();
            Inner {
                top: AtomicIsize::new(0),
                bottom: AtomicIsize::new(0),
                buf: (0..cap)
                    .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                    .collect(),
                mask: cap - 1,
            }
        }

        pub(super) fn len(&self) -> usize {
            let b = self.bottom.load(Ordering::Relaxed);
            let t = self.top.load(Ordering::Relaxed);
            b.saturating_sub(t).max(0) as usize
        }

        /// Owner-only: push at the bottom. One release store publishes
        /// the item; no read-modify-write.
        pub(super) fn push(&self, value: T) -> Result<(), T> {
            let b = self.bottom.load(Ordering::Relaxed);
            let t = self.top.load(Ordering::Acquire);
            if b.wrapping_sub(t) >= self.buf.len() as isize {
                return Err(value);
            }
            // SAFETY: slot `b & mask` is outside `[t, b)` (checked just
            // above: the ring is not full), so no thief can be reading
            // it; we are the only writer of `bottom`.
            unsafe {
                (*self.buf[b as usize & self.mask].get()).write(value);
            }
            self.bottom.store(b.wrapping_add(1), Ordering::Release);
            Ok(())
        }

        /// Owner-only: pop at the bottom. CAS only when racing a thief
        /// for the final item.
        pub(super) fn pop(&self) -> Option<T> {
            let b = self.bottom.load(Ordering::Relaxed).wrapping_sub(1);
            self.bottom.store(b, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            let t = self.top.load(Ordering::Relaxed);
            if t > b {
                // Empty (bottom transiently sat below top; restore).
                self.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
                return None;
            }
            // SAFETY: `t <= b` so slot `b & mask` holds an initialized
            // value. The copy is bitwise; exactly one of owner/thief
            // keeps it (the loser forgets its copy below).
            let value = unsafe { (*self.buf[b as usize & self.mask].get()).assume_init_read() };
            if t == b {
                // Final item: race thieves for it.
                let won = self
                    .top
                    .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                self.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
                if !won {
                    // A thief took it; our bitwise copy must not drop.
                    std::mem::forget(value);
                    return None;
                }
            }
            Some(value)
        }

        /// Thief: take the oldest item with one CAS on `top`.
        pub(super) fn steal(&self) -> super::Steal<T> {
            let t = self.top.load(Ordering::Acquire);
            fence(Ordering::SeqCst);
            let b = self.bottom.load(Ordering::Acquire);
            if t >= b {
                return super::Steal::Empty;
            }
            // SAFETY: `t < b` so the slot held an initialized value
            // when read; the CAS below decides whether our bitwise
            // copy is the surviving one (on failure it is forgotten,
            // never dropped).
            let value = unsafe { (*self.buf[t as usize & self.mask].get()).assume_init_read() };
            if self
                .top
                .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                super::Steal::Success(value)
            } else {
                std::mem::forget(value);
                super::Steal::Retry
            }
        }
    }

    impl<T> Drop for Inner<T> {
        fn drop(&mut self) {
            let t = *self.top.get_mut();
            let b = *self.bottom.get_mut();
            for i in t..b {
                // SAFETY: exclusive access (`&mut self`); every slot in
                // `[top, bottom)` holds an initialized value.
                unsafe {
                    (*self.buf[i as usize & self.mask].get()).assume_init_drop();
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Wakeup gate + adaptive polling
// ---------------------------------------------------------------------

/// An eventcount-style wakeup gate: waiters take a [`ticket`], re-check
/// their work source, then [`park`]; notifiers bump a sequence number
/// and only touch the mutex when somebody is actually parked — so the
/// hot-path cost of `notify` with no sleepers is one relaxed load.
///
/// Parks are always timeout-bounded, so the one tolerated race (a
/// notify landing between the caller's last work check and its ticket
/// read) costs at most one park timeout, never a hang.
///
/// [`ticket`]: WakeupGate::ticket
/// [`park`]: WakeupGate::park
#[derive(Debug, Default)]
pub struct WakeupGate {
    seq: AtomicU64,
    parked: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
}

impl WakeupGate {
    /// Creates a gate with no waiters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wakes every parked waiter. Cheap when nobody is parked: one
    /// sequence bump and one load, no mutex.
    pub fn notify(&self) {
        self.seq.fetch_add(1, Ordering::Release);
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            self.cv.notify_all();
        }
    }

    /// The current sequence number. Take it *before* the final
    /// is-there-work check, then pass it to [`park`](Self::park): any
    /// notify after the ticket was taken returns the park immediately.
    pub fn ticket(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Parks the calling thread until a notify arrives after `ticket`
    /// was taken, or `timeout` elapses. Returns `true` when woken by a
    /// notify (sequence advanced), `false` on timeout.
    pub fn park(&self, ticket: u64, timeout: Duration) -> bool {
        self.parked.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        let deadline = std::time::Instant::now() + timeout;
        let mut woken = self.seq.load(Ordering::Acquire) != ticket;
        while !woken {
            let now = std::time::Instant::now();
            if now >= deadline {
                break;
            }
            let (g, _timed_out) = self
                .cv
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            guard = g;
            woken = self.seq.load(Ordering::Acquire) != ticket;
        }
        drop(guard);
        self.parked.fetch_sub(1, Ordering::SeqCst);
        woken
    }

    /// Waiters currently parked (diagnostic).
    pub fn parked(&self) -> u64 {
        self.parked.load(Ordering::SeqCst)
    }
}

/// What one [`AdaptivePoller::idle`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleStep {
    /// Yielded the timeslice to other runnable threads.
    Yielded,
    /// Parked on the gate until notify or timeout.
    Parked,
}

/// The two-stage idle strategy for capture and pool-worker threads:
/// yield for the first `yield_iters` idle rounds (lets co-scheduled
/// threads run), then park on a [`WakeupGate`] with a bounded timeout
/// (stops burning the CPU other threads need). Any sign of work resets
/// to the yield stage.
///
/// There is deliberately no busy-spin stage. A poller cannot tell who
/// shares its core: a yield on an otherwise idle core costs one
/// syscall, while a spin on a shared core costs the co-runner — a
/// co-pinned pool worker, an application consumer — a scheduler slice.
///
/// Thresholds come from [`WireCapConfig`]: `yield_iters`,
/// `park_timeout_ns`.
#[derive(Debug)]
pub struct AdaptivePoller {
    yield_iters: u32,
    park_timeout: Duration,
    idle_rounds: u32,
    /// Set by [`lost_race`](Self::lost_race): the next idle round
    /// yields whatever the budget.
    contended: bool,
}

impl AdaptivePoller {
    /// A poller with explicit stage thresholds.
    pub fn new(yield_iters: u32, park_timeout_ns: u64) -> Self {
        AdaptivePoller {
            yield_iters,
            park_timeout: Duration::from_nanos(park_timeout_ns.max(1)),
            idle_rounds: 0,
            contended: false,
        }
    }

    /// A poller using the thresholds in `cfg`.
    pub fn from_config(cfg: &WireCapConfig) -> Self {
        Self::new(cfg.yield_iters, cfg.park_timeout_ns)
    }

    /// Work happened: fall back to the yield stage.
    pub fn reset(&mut self) {
        self.idle_rounds = 0;
    }

    /// A claim (or steal) CAS race was lost: work exists, a peer just
    /// took it. The next idle round yields — even past the yield
    /// budget, even with a zero budget — because contention alone never
    /// escalates to a park; only a truly empty stream may.
    pub fn lost_race(&mut self) {
        self.contended = true;
    }

    /// One idle round with the park timeout capped at `max_park`
    /// (capture threads holding a non-empty partial chunk cap the park
    /// at the remaining capture timeout so the partial-delivery
    /// deadline cannot be overslept). Take `ticket` from the gate
    /// *before* the final work check.
    pub fn idle_capped(&mut self, gate: &WakeupGate, ticket: u64, max_park: Duration) -> IdleStep {
        let step = if self.contended || self.idle_rounds < self.yield_iters {
            std::thread::yield_now();
            IdleStep::Yielded
        } else {
            gate.park(ticket, self.park_timeout.min(max_park));
            IdleStep::Parked
        };
        self.contended = false;
        self.idle_rounds = self.idle_rounds.saturating_add(1);
        step
    }

    /// One idle round: yield or park according to how many idle
    /// rounds have passed since the last [`reset`](Self::reset).
    pub fn idle(&mut self, gate: &WakeupGate, ticket: u64) -> IdleStep {
        self.idle_capped(gate, ticket, Duration::MAX)
    }
}

// ---------------------------------------------------------------------
// Core affinity
// ---------------------------------------------------------------------

/// Pins the calling thread to `core`, returning whether the kernel
/// accepted the mask. Always `false` (a no-op) on platforms without
/// `sched_setaffinity`, so `pin_threads` configurations degrade to
/// unpinned threads instead of failing to build or run.
pub fn pin_to_core(core: usize) -> bool {
    affinity::pin(core)
}

/// The number of cores available to this process (≥ 1).
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod affinity {
    /// 1024-bit CPU mask, matching the kernel's default `cpu_set_t`.
    const MASK_WORDS: usize = 16;

    // Declared directly so the workspace needs no `libc` crate: std
    // already links the platform C library, which exports this symbol.
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub(super) fn pin(core: usize) -> bool {
        if core >= MASK_WORDS * 64 {
            return false;
        }
        let mut mask = [0u64; MASK_WORDS];
        mask[core / 64] |= 1u64 << (core % 64);
        // SAFETY: the mask buffer outlives the call and the size passed
        // matches it; pid 0 targets the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub(super) fn pin(_core: usize) -> bool {
        false
    }
}

// ---------------------------------------------------------------------
// Consumer pool
// ---------------------------------------------------------------------

/// One delivered chunk as a pool handler sees it: the borrowed packet
/// view plus delivery metadata. The pool recycles the chunk to its home
/// pool when the handler returns; the borrow rules make it impossible
/// for packet slices to escape that window.
pub struct PoolDelivery<'a> {
    chunk: &'a LiveChunk,
    view: ChunkView<'a>,
    worker: usize,
    stolen: bool,
}

impl<'a> PoolDelivery<'a> {
    /// The packets of the chunk, borrowed zero-copy from its home arena.
    pub fn view(&self) -> &ChunkView<'a> {
        &self.view
    }

    /// The chunk handle (home queue, offload flag, length).
    pub fn chunk(&self) -> &LiveChunk {
        self.chunk
    }

    /// Packets in the chunk.
    pub fn len(&self) -> usize {
        self.chunk.len()
    }

    /// True if the chunk holds no packets.
    pub fn is_empty(&self) -> bool {
        self.chunk.is_empty()
    }

    /// The queue whose pool owns the chunk's cells.
    pub fn home(&self) -> usize {
        self.chunk.home()
    }

    /// The pool worker index processing this chunk.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Whether this chunk was stolen from another worker's deque
    /// (as opposed to drained from one of this worker's own queues).
    pub fn stolen(&self) -> bool {
        self.stolen
    }

    /// Seal-order sequence number within the chunk's home queue. Pool
    /// workers deliver concurrently, so across workers deliveries need
    /// not follow it.
    pub fn seq(&self) -> u64 {
        self.chunk.seq()
    }
}

impl std::fmt::Debug for PoolDelivery<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolDelivery")
            .field("home", &self.home())
            .field("len", &self.len())
            .field("worker", &self.worker)
            .field("stolen", &self.stolen)
            .finish()
    }
}

/// What one pool worker did over its lifetime, returned by
/// [`ConsumerPool::join`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolWorkerReport {
    /// The worker's index in the pool.
    pub worker: usize,
    /// Chunks processed (drained from owned queues plus stolen).
    pub chunks: u64,
    /// Packets delivered to the handler.
    pub packets: u64,
    /// Of the processed chunks, how many were stolen from other
    /// workers' deques.
    pub stolen_chunks: u64,
    /// Times the worker parked on the delivery gate.
    pub parks: u64,
}

/// The handler a [`ConsumerPool`] runs for every delivered chunk.
pub type PoolHandler = dyn Fn(PoolDelivery<'_>) + Send + Sync;

/// N worker threads consuming the queues of one buddy group, with
/// chunk-granularity work stealing between workers (see the module
/// docs). Create one with `LiveWireCap::consumer_pool`; the pool
/// assumes it is the group's only consumer — do not also attach
/// `LiveConsumer`s to the same queues.
pub struct ConsumerPool {
    handles: Vec<JoinHandle<PoolWorkerReport>>,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
}

impl std::fmt::Debug for ConsumerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConsumerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

struct WorkerCtx {
    worker: usize,
    /// Queues this worker drains (a disjoint shard of the group).
    owned: Vec<usize>,
    /// Every queue of the group (exit condition scans all of them).
    members: Vec<usize>,
    shared: Arc<Shared>,
    cfg: WireCapConfig,
    stop: Arc<AtomicBool>,
    /// Every worker's deque stealer (empty with the claim intake).
    stealers: Vec<DequeStealer<LiveChunk>>,
    handler: Arc<PoolHandler>,
    pin_core: Option<usize>,
}

impl ConsumerPool {
    pub(crate) fn spawn(
        shared: Arc<Shared>,
        cfg: WireCapConfig,
        group: &BuddyGroup,
        workers: usize,
        handler: Arc<PoolHandler>,
    ) -> Self {
        assert!(workers > 0, "a consumer pool needs at least one worker");
        let queues = shared.rings.len();
        for &q in group.members() {
            assert!(q < queues, "group queue {q} out of range");
        }
        // Deque intake: size each deque to every chunk that exists
        // across the group, so an owner push can never find it full. The
        // claim intake reads the shared claim queues and needs none.
        let deque_cap = group.members().len().max(1) * cfg.r;
        let mut stealers = Vec::new();
        let intakes: Vec<Intake> = (0..workers)
            .map(|_| {
                if shared.claims.is_some() {
                    return Intake::Claim;
                }
                let (deque, stealer) = steal_deque(deque_cap);
                stealers.push(stealer);
                Intake::Deque {
                    deque,
                    scratch: Vec::new(),
                }
            })
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let cores = available_cores();
        let handles = intakes
            .into_iter()
            .enumerate()
            .map(|(w, intake)| {
                let ctx = WorkerCtx {
                    worker: w,
                    owned: group.worker_shard(w, workers),
                    members: group.members().to_vec(),
                    shared: Arc::clone(&shared),
                    cfg,
                    stop: Arc::clone(&stop),
                    stealers: stealers.clone(),
                    handler: Arc::clone(&handler),
                    // Workers sit after the capture threads in the core
                    // map so, with enough cores, capture and delivery
                    // never compete for the same one.
                    pin_core: cfg.pin_threads.then_some((queues + w) % cores),
                };
                std::thread::Builder::new()
                    .name(format!("wirecap-pool-{w}"))
                    .spawn(move || worker_loop(ctx, intake))
                    .expect("spawning pool worker")
            })
            .collect();
        ConsumerPool {
            handles,
            shared,
            stop,
        }
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Waits for every worker to finish naturally — they exit when all
    /// of the group's rings are closed and drained (i.e. after the
    /// engine's capture threads have shut down).
    pub fn join(mut self) -> Vec<PoolWorkerReport> {
        self.handles
            .drain(..)
            .map(|h| h.join().expect("pool worker panicked"))
            .collect()
    }

    /// Forces the workers down without waiting for end-of-stream.
    /// Chunks still queued are recycled home and counted as delivery
    /// drops, preserving slot and packet conservation.
    pub fn stop(self) -> Vec<PoolWorkerReport> {
        self.stop.store(true, Ordering::SeqCst);
        self.shared.delivery_gate.notify();
        self.join()
    }
}

impl Drop for ConsumerPool {
    fn drop(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        self.shared.delivery_gate.notify();
        for h in self.handles.drain(..) {
            if h.join().is_err() {
                eprintln!("wirecap: pool worker panicked during drop");
            }
        }
    }
}

/// Charges wall time to one pool worker's time-state buckets
/// (`telemetry::WorkerState`, DESIGN.md §4.14). Constructed only when
/// span tracing is on, so the unprofiled hot path pays nothing — not
/// even the clock reads.
struct WorkerProfiler {
    state: Arc<WorkerState>,
    last_ns: u64,
}

impl WorkerProfiler {
    fn new(state: Arc<WorkerState>) -> Self {
        WorkerProfiler {
            state,
            last_ns: clock::mono_ns(),
        }
    }

    /// Charges the wall time since the previous charge to state `s`.
    fn charge(&mut self, s: WorkerTimeState) {
        let now = clock::mono_ns();
        self.state.account(s, now.saturating_sub(self.last_ns));
        self.last_ns = now;
    }
}

/// Processes one chunk: hands it to the handler, closes the latency
/// interval, recycles the slot home, and tallies delivery telemetry.
///
/// `delivered_ns` is the caller's batch delivery stamp — read once per
/// burst (the moment the batch crossed from the engine to this worker)
/// and shared by every chunk in it, mirroring [`LiveConsumer`]'s
/// per-refill stamp. `0` means the caller had no batch stamp (single
/// chunk off the steal path); the interval then closes against a fresh
/// clock read. Either way the ceiling is one read per chunk, and on
/// the burst paths it is one read per *burst* — the fix for the small-M
/// latency-overhead regression, where chunks seal every few packets
/// and a per-chunk clock read dominates the delivery cost.
fn process_chunk(
    ctx: &WorkerCtx,
    report: &mut PoolWorkerReport,
    mut chunk: LiveChunk,
    stolen: bool,
    delivered_ns: u64,
) {
    let home = chunk.home();
    let len = chunk.len() as u64;
    // Sampled chunk: ownership and the deliver stage begin here. The
    // deque intake's ring drain may already have stamped the start of
    // acquisition; otherwise it collapses to this instant too.
    if let Some(span) = chunk.span.as_mut() {
        let now = clock::mono_ns();
        if span.acquire_started_ns == 0 {
            span.acquire_started_ns = now;
        }
        span.acquired_ns = now;
        span.deliver_start_ns = now;
    }
    {
        let view = ctx.shared.arenas[home].view(&chunk.seal);
        (ctx.handler)(PoolDelivery {
            chunk: &chunk,
            view,
            worker: ctx.worker,
            stolen,
        });
    }
    if let Some(span) = chunk.span.as_mut() {
        span.deliver_end_ns = clock::mono_ns();
    }
    report.chunks += 1;
    report.packets += len;
    // Multi-writer delivery accounting: any worker may recycle any
    // group queue's chunks, so this uses the fetch-add counters, same
    // as offloaded-chunk recycling does from foreign consumers.
    let app = &ctx.shared.tel.queue(home).app;
    app.delivered_packets.add(len);
    app.recycled_chunks.add(1);
    // Latency histograms are single-writer: each worker records into
    // its *first owned* queue's shard (shards are disjoint across
    // workers; queue-less workers skip the sample).
    if let Some(&pq) = ctx.owned.first() {
        let sealed_ns = chunk.seal.sealed_ns();
        if sealed_ns > 0 {
            let now = if delivered_ns > 0 {
                delivered_ns
            } else {
                clock::mono_ns()
            };
            ctx.shared
                .tel
                .queue(pq)
                .app
                .latency_ns
                .record(now.saturating_sub(sealed_ns));
        }
    }
    // Sampled chunk: decompose the interval into stages (same shard
    // discipline as `latency_ns`) and retire the span.
    if let Some(span) = chunk.span {
        let rec = SpanRecord::from_stamps(
            chunk.home,
            chunk.seq,
            len as u32,
            Some(ctx.worker as u32),
            stolen,
            &span,
            span.deliver_end_ns,
        );
        ctx.shared.retire_span(ctx.owned.first().copied(), rec);
    }
    ctx.shared.recycle_home(chunk);
}

/// Where a pool worker's chunks come from. [`worker_loop`] matches it
/// once per round, never per chunk.
enum Intake {
    /// A per-worker deque fed from the worker's owned queues' rings,
    /// with stealing from peers' deques when those go quiet.
    Deque {
        deque: DequeOwner<LiveChunk>,
        scratch: Vec<LiveChunk>,
    },
    /// Claims straight off the group's shared [`ClaimQueue`]s, so N
    /// workers drain even a single hot queue concurrently. No deques
    /// and no stealing — the claim CAS *is* the load balancer — so
    /// `Σ steal_in == Σ steal_out == 0` holds trivially here.
    Claim,
}

/// What one [`Intake::round`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Round {
    /// Work moved: chunks drained or delivered, or a steal race lost
    /// (contention on a deque means work exists; stay hot).
    Delivered,
    /// Only lost claim races: work exists and a peer has it.
    Contended,
    /// Nothing to do.
    Idle,
}

impl Intake {
    /// One pass over the intake's sources, delivering what it finds.
    fn round(
        &mut self,
        ctx: &WorkerCtx,
        report: &mut PoolWorkerReport,
        prof: &mut Option<WorkerProfiler>,
    ) -> Round {
        match self {
            Intake::Deque { deque, scratch } => deque_round(ctx, deque, scratch, report, prof),
            Intake::Claim => claim_round(ctx, report, prof),
        }
    }

    /// End-of-stream: every source is closed and empty. Residual chunks
    /// in *other* workers' hands are theirs: every worker drains its
    /// own deque before exiting, and a chunk a peer has claimed is that
    /// peer's to deliver.
    fn drained(&self, ctx: &WorkerCtx) -> bool {
        match self {
            Intake::Deque { deque, .. } => {
                ctx.members.iter().all(|&q| {
                    ctx.shared.rings[q]
                        .iter()
                        .all(|r| r.is_closed() && r.is_empty())
                }) && deque.is_empty()
            }
            Intake::Claim => {
                let claims = claims(ctx);
                ctx.members
                    .iter()
                    .all(|&q| claims[q].is_closed() && claims[q].is_empty())
            }
        }
    }

    /// Forced stop: everything still queued for this worker goes home
    /// as delivery drops, so slot and packet conservation survive a
    /// teardown mid-stream.
    fn stop_drain(&mut self, ctx: &WorkerCtx) {
        let shared = &ctx.shared;
        match self {
            // Its owned queues' rings and its own deque. (Chunks in
            // other workers' deques are theirs to drain the same way.)
            Intake::Deque { deque, scratch } => {
                for &q in &ctx.owned {
                    while shared.pop_inbound(q, 0, scratch) {}
                }
                for chunk in scratch.drain(..) {
                    shared.drop_undelivered(chunk);
                }
                while let Some(chunk) = deque.pop() {
                    shared.drop_undelivered(chunk);
                }
            }
            // Claim-drain every member queue. (A chunk a peer already
            // claimed is that peer's to deliver.)
            Intake::Claim => {
                let claims = claims(ctx);
                for &q in &ctx.members {
                    loop {
                        match claims[q].try_claim() {
                            Claim::Claimed(chunk) => shared.drop_undelivered(chunk),
                            Claim::Contended => std::hint::spin_loop(),
                            Claim::Empty => break,
                        }
                    }
                }
            }
        }
    }
}

/// The group's claim queues; present whenever a worker has the claim
/// intake.
fn claims(ctx: &WorkerCtx) -> &[ClaimQueue<LiveChunk>] {
    ctx.shared
        .claims
        .as_deref()
        .expect("claim intake without claim queues")
}

/// The one pool worker loop: rounds over its [`Intake`] until a forced
/// stop or end-of-stream, idling on the delivery gate between empty
/// rounds.
fn worker_loop(ctx: WorkerCtx, mut intake: Intake) -> PoolWorkerReport {
    if let Some(core) = ctx.pin_core {
        pin_to_core(core);
    }
    let mut report = PoolWorkerReport {
        worker: ctx.worker,
        ..Default::default()
    };
    let mut poller = AdaptivePoller::from_config(&ctx.cfg);
    let mut prof = (ctx.cfg.span_sample_n > 0)
        .then(|| WorkerProfiler::new(ctx.shared.tel.register_worker(ctx.worker as u32)));
    loop {
        // Forced stop preempts further processing.
        if ctx.stop.load(Ordering::SeqCst) {
            intake.stop_drain(&ctx);
            break;
        }
        let round = intake.round(&ctx, &mut report, &mut prof);
        match round {
            Round::Delivered => {
                poller.reset();
                continue;
            }
            // Yield rather than re-contend the same cursor line, but
            // never park from contention alone.
            Round::Contended => poller.lost_race(),
            Round::Idle => {}
        }
        // Take the gate ticket *before* the final end-of-stream check:
        // any chunk published (or ring closed) after this point turns
        // the park into an immediate return.
        let ticket = ctx.shared.delivery_gate.ticket();
        if round == Round::Idle && intake.drained(&ctx) {
            break;
        }
        let step = poller.idle(&ctx.shared.delivery_gate, ticket);
        if let Some(p) = prof.as_mut() {
            p.charge(match step {
                IdleStep::Yielded => WorkerTimeState::Yield,
                IdleStep::Parked => WorkerTimeState::Park,
            });
        }
        if step == IdleStep::Parked {
            report.parks += 1;
            // Every queue this worker services loses its consumer for
            // the park's duration, so each owned queue's shard counts
            // it (see `PoolSide::worker_parks`).
            for &q in &ctx.owned {
                ctx.shared.tel.queue(q).pool.worker_parks.inc();
            }
        }
    }
    if let Some(&pq) = ctx.owned.first() {
        ctx.shared.tel.queue(pq).pool.steal_queue_len.set(0);
    }
    report
}

/// One deque round: drain the owned queues' rings into the deque,
/// serve a burst from it, and steal from a peer when that found
/// nothing.
fn deque_round(
    ctx: &WorkerCtx,
    deque: &mut DequeOwner<LiveChunk>,
    scratch: &mut Vec<LiveChunk>,
    report: &mut PoolWorkerReport,
    prof: &mut Option<WorkerProfiler>,
) -> Round {
    // The shard this worker publishes its deque occupancy and steals to.
    let primary = ctx.owned.first().map(|&pq| &ctx.shared.tel.queue(pq).pool);
    let mut progressed = false;

    // 1. Drain owned queues' rings into the local deque.
    for &q in &ctx.owned {
        progressed |= ctx.shared.pop_inbound(q, 0, scratch);
    }
    // The drain is the acquisition start for sampled chunks: from
    // here until a worker pops them for processing they wait in the
    // deque (or a thief's hands) — the claim stage. One lazy clock read
    // covers the whole drained batch.
    let mut drain_ns = 0u64;
    for chunk in scratch.iter_mut() {
        if let Some(span) = chunk.span.as_mut() {
            if drain_ns == 0 {
                drain_ns = clock::mono_ns();
            }
            span.acquire_started_ns = drain_ns;
        }
    }
    for chunk in scratch.drain(..) {
        if let Err(back) = deque.push(chunk) {
            // Sized to every chunk in existence, so this is
            // unreachable; process inline rather than lose a chunk.
            process_chunk(ctx, report, back, false, 0);
        }
    }
    if let Some(p) = prof.as_mut() {
        p.charge(WorkerTimeState::Claim);
    }
    if let Some(pool_tel) = primary {
        pool_tel.steal_queue_len.set(deque.len() as u64);
    }

    // 2. Process a bounded burst from the local deque, oldest first:
    // the owner takes through its own stealer, exactly as a thief
    // would, so no chunk waits behind later arrivals (an owner popping
    // newest-first starves the oldest chunks for as long as the backlog
    // lasts). One lazy clock read stamps the delivery moment for the
    // whole burst.
    let own = &ctx.stealers[ctx.worker];
    let mut burst_ns = 0u64;
    for _ in 0..PROCESS_BURST {
        let chunk = loop {
            match own.steal() {
                Steal::Success(chunk) => break Some(chunk),
                Steal::Retry => continue,
                Steal::Empty => break None,
            }
        };
        let Some(chunk) = chunk else { break };
        if burst_ns == 0 {
            burst_ns = clock::mono_ns();
        }
        process_chunk(ctx, report, chunk, false, burst_ns);
        progressed = true;
    }
    if let Some(p) = prof.as_mut() {
        p.charge(WorkerTimeState::Deliver);
    }

    // 3. Own queues quiet: steal the oldest chunk from a busy worker —
    // delivery-side rebalancing before the capture queue ever climbs
    // toward the offload threshold.
    if !progressed {
        for i in 1..ctx.stealers.len() {
            let victim = (ctx.worker + i) % ctx.stealers.len();
            match ctx.stealers[victim].steal() {
                Steal::Success(chunk) => {
                    let pool_tel = &ctx.shared.tel.queue(chunk.home()).pool;
                    pool_tel.steal_out_chunks.inc();
                    pool_tel.stolen_packets.add(chunk.len() as u64);
                    // Queue-less workers attribute steal_in to the
                    // victim chunk's home so Σin == Σout still holds
                    // engine-wide.
                    primary.unwrap_or(pool_tel).steal_in_chunks.inc();
                    report.stolen_chunks += 1;
                    process_chunk(ctx, report, chunk, true, 0);
                    progressed = true;
                    break;
                }
                Steal::Retry => {
                    // Contention means work exists; stay hot.
                    progressed = true;
                    break;
                }
                Steal::Empty => continue,
            }
        }
        if let Some(p) = prof.as_mut() {
            p.charge(WorkerTimeState::Steal);
        }
    }

    if progressed {
        Round::Delivered
    } else {
        Round::Idle
    }
}

/// One claim round: a claim scan over every member queue, delivering
/// each claimed chunk inline.
fn claim_round(
    ctx: &WorkerCtx,
    report: &mut PoolWorkerReport,
    prof: &mut Option<WorkerProfiler>,
) -> Round {
    let claims = claims(ctx);
    let members = ctx.members.len();
    let mut claimed = false;
    let mut contended = false;
    for i in 0..members {
        // Rotate the scan start per worker so N workers don't all
        // hammer the same queue's claim cursor first.
        let q = ctx.members[(ctx.worker + i) % members];
        // Delivery stamp shared by the whole burst (lazy: no clock read
        // on an empty scan), as in the deque round's burst.
        let mut burst_ns = 0u64;
        for _ in 0..PROCESS_BURST {
            match claims[q].try_claim() {
                Claim::Claimed(chunk) => {
                    claimed = true;
                    if burst_ns == 0 {
                        burst_ns = clock::mono_ns();
                    }
                    // A sampled chunk's acquisition is stamped inside
                    // `process_chunk`, not from `burst_ns`: a chunk
                    // claimed late in the burst may have been published
                    // after `burst_ns` was read.
                    process_chunk(ctx, report, chunk, false, burst_ns);
                }
                Claim::Contended => {
                    ctx.shared.tel.queue(q).pool.claim_contention.inc();
                    contended = true;
                    break;
                }
                Claim::Empty => break,
            }
        }
    }
    if let Some(p) = prof.as_mut() {
        // The claim scan delivers inline, so a round that claimed
        // anything is deliver time; an empty round is claim time.
        p.charge(if claimed {
            WorkerTimeState::Deliver
        } else {
            WorkerTimeState::Claim
        });
    }
    if claimed {
        Round::Delivered
    } else if contended {
        Round::Contended
    } else {
        Round::Idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deque_owner_is_lifo_stealer_is_fifo() {
        let (mut owner, stealer) = steal_deque::<u32>(8);
        for v in 0..4 {
            owner.push(v).unwrap();
        }
        assert_eq!(owner.len(), 4);
        assert_eq!(owner.pop(), Some(3), "owner pops newest");
        match stealer.steal() {
            Steal::Success(v) => assert_eq!(v, 0, "thief takes oldest"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(owner.pop(), Some(2));
        assert_eq!(owner.pop(), Some(1));
        assert_eq!(owner.pop(), None);
        assert!(matches!(stealer.steal(), Steal::Empty));
    }

    #[test]
    fn deque_reports_full() {
        let (mut owner, _stealer) = steal_deque::<u32>(2);
        owner.push(1).unwrap();
        owner.push(2).unwrap();
        assert_eq!(owner.push(3), Err(3));
        assert_eq!(owner.pop(), Some(2));
        owner.push(3).unwrap();
    }

    #[test]
    fn deque_drops_leftover_items() {
        // Drop coverage for the `[top, bottom)` cleanup.
        let (mut owner, stealer) = steal_deque::<Arc<u32>>(8);
        let item = Arc::new(7u32);
        owner.push(Arc::clone(&item)).unwrap();
        owner.push(Arc::clone(&item)).unwrap();
        assert_eq!(Arc::strong_count(&item), 3);
        drop(owner);
        drop(stealer);
        assert_eq!(Arc::strong_count(&item), 1, "deque dropped its copies");
    }

    #[test]
    fn concurrent_steals_conserve_items() {
        let (mut owner, stealer) = steal_deque::<u64>(1024);
        let total = 10_000u64;
        let thieves: Vec<_> = (0..3)
            .map(|_| {
                let s = stealer.clone();
                std::thread::spawn(move || {
                    let mut sum = 0u64;
                    let mut empties = 0;
                    while empties < 10_000 {
                        match s.steal() {
                            Steal::Success(v) => {
                                sum += v;
                                empties = 0;
                            }
                            Steal::Retry => empties = 0,
                            Steal::Empty => empties += 1,
                        }
                        if empties > 0 {
                            std::thread::yield_now();
                        }
                    }
                    sum
                })
            })
            .collect();
        let mut own_sum = 0u64;
        let mut next = 1u64;
        while next <= total {
            if owner.push(next).is_ok() {
                next += 1;
            }
            if next.is_multiple_of(7) {
                if let Some(v) = owner.pop() {
                    own_sum += v;
                }
            }
        }
        while let Some(v) = owner.pop() {
            own_sum += v;
        }
        let stolen: u64 = thieves.into_iter().map(|t| t.join().unwrap()).sum();
        // Remaining items (if any) are still in the deque; drain them.
        while let Some(v) = owner.pop() {
            own_sum += v;
        }
        assert_eq!(
            own_sum + stolen,
            total * (total + 1) / 2,
            "every pushed item popped or stolen exactly once"
        );
    }

    #[test]
    fn gate_notify_after_ticket_returns_immediately() {
        let gate = WakeupGate::new();
        let ticket = gate.ticket();
        gate.notify();
        let start = std::time::Instant::now();
        assert!(gate.park(ticket, Duration::from_secs(5)));
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn gate_park_times_out_without_notify() {
        let gate = WakeupGate::new();
        let ticket = gate.ticket();
        assert!(!gate.park(ticket, Duration::from_millis(10)));
    }

    #[test]
    fn gate_wakes_parked_thread() {
        let gate = Arc::new(WakeupGate::new());
        let g = Arc::clone(&gate);
        let h = std::thread::spawn(move || {
            let ticket = g.ticket();
            g.park(ticket, Duration::from_secs(10))
        });
        while gate.parked() == 0 {
            std::thread::yield_now();
        }
        gate.notify();
        assert!(h.join().unwrap(), "woken by notify, not timeout");
    }

    #[test]
    fn poller_escalates_yield_park() {
        let gate = WakeupGate::new();
        let mut p = AdaptivePoller::new(2, 1_000_000);
        let steps: Vec<_> = (0..3).map(|_| p.idle(&gate, gate.ticket())).collect();
        assert_eq!(
            steps,
            vec![IdleStep::Yielded, IdleStep::Yielded, IdleStep::Parked]
        );
        p.reset();
        assert_eq!(p.idle(&gate, gate.ticket()), IdleStep::Yielded);
    }

    #[test]
    fn lost_race_yields_but_never_parks() {
        let gate = WakeupGate::new();
        let mut p = AdaptivePoller::new(2, 1_000_000);
        // Repeated lost races hold the poller at the yield stage, well
        // past the yield budget: contention alone must never escalate
        // to a park.
        for _ in 0..10 {
            p.lost_race();
            assert_eq!(p.idle(&gate, gate.ticket()), IdleStep::Yielded);
        }
        // From deep in the park stage a lost race drops *back* to
        // yield — work clearly exists, parking would add latency.
        p.reset();
        for _ in 0..20 {
            p.idle(&gate, gate.ticket());
        }
        p.lost_race();
        assert_eq!(p.idle(&gate, gate.ticket()), IdleStep::Yielded);
        // Only that one round: an empty stream parks again.
        assert_eq!(p.idle(&gate, gate.ticket()), IdleStep::Parked);
        // Real progress resets to the yield stage.
        p.reset();
        assert_eq!(p.idle(&gate, gate.ticket()), IdleStep::Yielded);
    }

    #[test]
    fn lost_race_with_zero_yield_budget_never_parks() {
        let gate = WakeupGate::new();
        let mut p = AdaptivePoller::new(0, 1_000_000);
        // No yield stage at all: an empty round parks straight away...
        assert_eq!(p.idle(&gate, gate.ticket()), IdleStep::Parked);
        // ...but a lost race still yields, from a fresh reset or from
        // the park stage, so a contended worker never sleeps while a
        // peer holds the work.
        p.reset();
        for _ in 0..3 {
            p.lost_race();
            assert_eq!(p.idle(&gate, gate.ticket()), IdleStep::Yielded);
        }
    }

    #[test]
    fn pinning_is_safe_to_call() {
        // Accepts or cleanly refuses; must never crash, even for cores
        // beyond the machine (or on non-Linux builds, where it is a
        // no-op returning false).
        let _ = pin_to_core(0);
        assert!(!pin_to_core(usize::MAX));
        assert!(available_cores() >= 1);
    }
}
