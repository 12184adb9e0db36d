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
//! returns to `recycle[chunk.home()]`. `ChunkLens`/capdisk drainers are
//! unaffected because stealing happens after chunks leave the rings,
//! never inside another consumer's inbox.
//!
//! With `cfg.concurrent_queue` the pool switches delivery models
//! entirely: instead of per-worker deques fed by per-queue rings,
//! every worker claims sealed chunks straight off the group's shared
//! [`ClaimQueue`]s (COREC-style concurrent single-queue consumption,
//! DESIGN.md §4.12), so even one scorching queue is drained by all N
//! workers at once. A lost claim CAS feeds the `claim_contention`
//! counter and the poller's [`AdaptivePoller::lost_race`], which makes
//! the next idle round a yield so contention alone never parks.

use crate::arena::ChunkView;
use crate::buddy::BuddyGroup;
use crate::claim::{Claim, ClaimQueue, ReorderBuffer};
use crate::config::WireCapConfig;
use crate::live::{LiveChunk, Shared};
use crate::spsc::MAX_BATCH;
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

    // The cells are plain memory coordinated entirely through
    // `top`/`bottom`: a slot is readable only inside `[top, bottom)`,
    // and ownership of the value transfers with the CAS on `top` (or
    // the owner's exclusive access to `bottom`). `T: Send` is all the
    // cells themselves require.
    unsafe impl<T: Send> Send for Inner<T> {}
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

    /// Seal-order sequence number within the chunk's home queue. In
    /// in-order concurrent mode, deliveries for one home queue carry
    /// strictly increasing values.
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
        let concurrent = shared.claims.is_some();
        // Size each deque to every chunk that exists across the group:
        // an owner push can then never find the deque full. Concurrent
        // mode claims straight off the shared queues and never touches
        // the deques, so keep them token-sized.
        let deque_cap = if concurrent {
            2
        } else {
            (group.members().len().max(1)) * cfg.r
        };
        let mut owners = Vec::with_capacity(workers);
        let mut stealers = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (o, s) = steal_deque::<LiveChunk>(deque_cap);
            owners.push(o);
            stealers.push(s);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let cores = available_cores();
        let handles = owners
            .into_iter()
            .enumerate()
            .map(|(w, deque)| {
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
                    .spawn(move || {
                        if ctx.shared.claims.is_some() {
                            drop(deque);
                            concurrent_worker_loop(ctx)
                        } else {
                            worker_loop(ctx, deque)
                        }
                    })
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

    /// Charges an idle step to its matching bucket.
    fn charge_idle(&mut self, step: IdleStep) {
        self.charge(match step {
            IdleStep::Yielded => WorkerTimeState::Yield,
            IdleStep::Parked => WorkerTimeState::Park,
        });
    }
}

/// Builds a worker's profiler when span tracing is enabled.
fn profiler_for(ctx: &WorkerCtx) -> Option<WorkerProfiler> {
    (ctx.cfg.span_sample_n > 0)
        .then(|| WorkerProfiler::new(ctx.shared.tel.register_worker(ctx.worker as u32)))
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
    // Sampled chunk: the handler call is the deliver stage. The
    // acquisition stamps may already be set (claim CAS or ring drain);
    // anything unset collapses to this instant.
    if let Some(span) = chunk.span.as_mut() {
        let now = clock::mono_ns();
        if span.acquire_started_ns == 0 {
            span.acquire_started_ns = now;
        }
        if span.acquired_ns == 0 {
            span.acquired_ns = now;
        }
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
    // discipline as `latency_ns`) and retire the span to the shared
    // ring, which is lock-protected and safe from any worker.
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
        if let Some(&pq) = ctx.owned.first() {
            let app = &ctx.shared.tel.queue(pq).app;
            app.stage_backend_ns.record(rec.stage_backend_ns);
            app.stage_queue_wait_ns.record(rec.stage_queue_wait_ns);
            app.stage_claim_ns.record(rec.stage_claim_ns);
            app.stage_reorder_ns.record(rec.stage_reorder_ns);
            app.stage_deliver_ns.record(rec.stage_deliver_ns);
        }
        ctx.shared.tel.spans().push(rec);
    }
    recycle_home(&ctx.shared, chunk);
}

/// Returns a chunk's sealed slot to its home pool (never full: only R
/// slots exist per queue; spin defensively anyway).
fn recycle_home(shared: &Shared, chunk: LiveChunk) {
    let home = chunk.home();
    let mut seal = chunk.seal;
    while let Err(back) = shared.recycle[home].push(seal) {
        seal = back;
        std::thread::yield_now();
    }
    // Wake a capture thread parked on pool exhaustion (backpressure
    // leaves packets in the NIC ring until a slot comes home).
    shared.capture_gate.notify();
}

/// Recycles a chunk that will never reach the handler (forced stop),
/// accounting its packets as delivery drops.
fn drop_chunk(shared: &Shared, chunk: LiveChunk) {
    let home = chunk.home();
    let tel = shared.tel.queue(home);
    tel.app.recycled_chunks.add(1);
    tel.cap.delivery_drop_packets.add(chunk.len() as u64);
    recycle_home(shared, chunk);
}

fn worker_loop(ctx: WorkerCtx, mut deque: DequeOwner<LiveChunk>) -> PoolWorkerReport {
    if let Some(core) = ctx.pin_core {
        pin_to_core(core);
    }
    let mut report = PoolWorkerReport {
        worker: ctx.worker,
        ..Default::default()
    };
    let mut poller = AdaptivePoller::from_config(&ctx.cfg);
    let mut scratch: Vec<LiveChunk> = Vec::new();
    let producers = ctx.shared.rings.len();
    // The gauge shard this worker publishes its deque occupancy to.
    let primary = ctx.owned.first().copied();
    let mut prof = profiler_for(&ctx);
    loop {
        // Forced stop preempts further processing: everything still
        // queued for this worker — its owned queues' rings and its own
        // deque — goes home as delivery drops, so slot and packet
        // conservation survive a teardown mid-stream. (Chunks in other
        // workers' deques are theirs to drain the same way.)
        if ctx.stop.load(Ordering::SeqCst) {
            for &q in &ctx.owned {
                for p in 0..producers {
                    while ctx.shared.rings[q][p].pop_batch(&mut scratch, MAX_BATCH) > 0 {}
                }
            }
            for chunk in scratch.drain(..) {
                drop_chunk(&ctx.shared, chunk);
            }
            while let Some(chunk) = deque.pop() {
                drop_chunk(&ctx.shared, chunk);
            }
            break;
        }

        let mut progressed = false;

        // 1. Drain owned queues' rings into the local deque.
        for &q in &ctx.owned {
            for p in 0..producers {
                if ctx.shared.rings[q][p].pop_batch(&mut scratch, MAX_BATCH) > 0 {
                    progressed = true;
                }
            }
        }
        // The drain is the acquisition start for sampled chunks: from
        // here until a worker pops them for processing they wait in
        // the deque (or a thief's hands) — the claim stage. One lazy
        // clock read covers the whole drained batch.
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
                process_chunk(&ctx, &mut report, back, false, 0);
            }
        }
        if let Some(p) = prof.as_mut() {
            p.charge(WorkerTimeState::Claim);
        }
        if let Some(pq) = primary {
            ctx.shared
                .tel
                .queue(pq)
                .pool
                .steal_queue_len
                .set(deque.len() as u64);
        }

        // 2. Process a bounded burst from the local deque, oldest
        // first: the owner takes through its own stealer, exactly as a
        // thief would, so no chunk waits behind later arrivals (an
        // owner popping newest-first starves the oldest chunks for as
        // long as the backlog lasts). One lazy clock read stamps the
        // delivery moment for the whole burst.
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
            process_chunk(&ctx, &mut report, chunk, false, burst_ns);
            progressed = true;
        }
        if let Some(p) = prof.as_mut() {
            p.charge(WorkerTimeState::Deliver);
        }

        // 3. Own queues quiet: steal the oldest chunk from a busy
        // worker — delivery-side rebalancing before the capture queue
        // ever climbs toward the offload threshold.
        if !progressed {
            for i in 1..ctx.stealers.len() {
                let victim = (ctx.worker + i) % ctx.stealers.len();
                match ctx.stealers[victim].steal() {
                    Steal::Success(chunk) => {
                        let pool_tel = &ctx.shared.tel.queue(chunk.home()).pool;
                        pool_tel.steal_out_chunks.inc();
                        pool_tel.stolen_packets.add(chunk.len() as u64);
                        if let Some(pq) = primary {
                            ctx.shared.tel.queue(pq).pool.steal_in_chunks.inc();
                        } else {
                            // Queue-less workers attribute steal_in to
                            // the victim chunk's home so Σin == Σout
                            // still holds engine-wide.
                            ctx.shared
                                .tel
                                .queue(chunk.home())
                                .pool
                                .steal_in_chunks
                                .inc();
                        }
                        report.stolen_chunks += 1;
                        process_chunk(&ctx, &mut report, chunk, true, 0);
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
            poller.reset();
            continue;
        }

        // Take the gate ticket *before* the final end-of-stream check:
        // any chunk published (or ring closed) after this point turns
        // the park into an immediate return.
        let ticket = ctx.shared.delivery_gate.ticket();
        let drained = ctx.members.iter().all(|&q| {
            (0..producers).all(|p| {
                let r = &ctx.shared.rings[q][p];
                r.is_closed() && r.is_empty()
            })
        });
        if drained && deque.is_empty() {
            // Residual chunks in *other* workers' deques are theirs:
            // every worker drains its own deque before exiting.
            break;
        }
        let step = poller.idle(&ctx.shared.delivery_gate, ticket);
        if let Some(p) = prof.as_mut() {
            p.charge_idle(step);
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
    if let Some(pq) = primary {
        ctx.shared.tel.queue(pq).pool.steal_queue_len.set(0);
    }
    report
}

/// COREC-style worker loop: every worker claims sealed chunks straight
/// off the group's shared [`ClaimQueue`]s, so N workers drain even a
/// single hot queue concurrently. No deques and no stealing — the
/// claim CAS *is* the load balancer — so `Σ steal_in == Σ steal_out ==
/// 0` holds trivially in this mode.
fn concurrent_worker_loop(ctx: WorkerCtx) -> PoolWorkerReport {
    if let Some(core) = ctx.pin_core {
        pin_to_core(core);
    }
    let mut report = PoolWorkerReport {
        worker: ctx.worker,
        ..Default::default()
    };
    let mut poller = AdaptivePoller::from_config(&ctx.cfg);
    let claims = ctx
        .shared
        .claims
        .as_deref()
        .expect("concurrent worker loop without claim queues");
    let reorder = ctx.shared.reorder.as_deref();
    let members = ctx.members.len();
    let mut prof = profiler_for(&ctx);
    loop {
        // Forced stop: drain every member claim queue home as delivery
        // drops, then sweep the reorder buffers for stranded chunks.
        // Each worker runs this sweep *after* its own last insert, so a
        // chunk it parked behind a gap is reclaimed by its own sweep
        // even if the other workers swept earlier.
        if ctx.stop.load(Ordering::SeqCst) {
            stop_drain_concurrent(&ctx, claims, reorder);
            break;
        }

        let mut claimed = false;
        let mut contended = false;
        for i in 0..members {
            // Rotate the scan start per worker so N workers don't all
            // hammer the same queue's claim cursor first.
            let q = ctx.members[(ctx.worker + i) % members];
            // Delivery stamp shared by the whole burst (lazy: no clock
            // read on an empty scan), as in `worker_loop`'s burst.
            let mut burst_ns = 0u64;
            for _ in 0..PROCESS_BURST {
                match claims[q].try_claim() {
                    Claim::Claimed(mut chunk) => {
                        claimed = true;
                        if burst_ns == 0 {
                            burst_ns = clock::mono_ns();
                        }
                        // The winning CAS is the whole acquisition in
                        // concurrent mode (the claim stage is the CAS
                        // itself); reorder-buffer dwell then lands in
                        // the reorder stage.
                        if let Some(span) = chunk.span.as_mut() {
                            span.acquire_started_ns = burst_ns;
                            span.acquired_ns = burst_ns;
                        }
                        deliver_claimed(&ctx, &mut report, reorder, chunk, burst_ns);
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
            poller.reset();
            continue;
        }
        if contended {
            // Lost the claim race only: work exists and a peer has it.
            // Yield rather than re-contend the same cursor line, but
            // never park from contention alone.
            poller.lost_race();
            let ticket = ctx.shared.delivery_gate.ticket();
            let step = poller.idle(&ctx.shared.delivery_gate, ticket);
            if let Some(p) = prof.as_mut() {
                p.charge_idle(step);
            }
            continue;
        }

        // Ticket before the end-of-stream check, as in worker_loop: a
        // publish after this point turns the park into a no-op.
        let ticket = ctx.shared.delivery_gate.ticket();
        let drained = ctx
            .members
            .iter()
            .all(|&q| claims[q].is_closed() && claims[q].is_empty())
            && reorder.is_none_or(|ro| ctx.members.iter().all(|&q| ro[q].is_empty()));
        if drained {
            // Any chunk a peer has claimed but not yet delivered is
            // that peer's to deliver (or, in in-order mode, to insert
            // and pump — the inserting worker always pumps, so no gap
            // survives a natural end-of-stream).
            break;
        }
        let step = poller.idle(&ctx.shared.delivery_gate, ticket);
        if let Some(p) = prof.as_mut() {
            p.charge_idle(step);
        }
        if step == IdleStep::Parked {
            report.parks += 1;
            // As in `worker_loop`: every owned queue's shard counts
            // the park, not just the first one.
            for &q in &ctx.owned {
                ctx.shared.tel.queue(q).pool.worker_parks.inc();
            }
        }
    }
    report
}

/// Delivers one claimed chunk: straight to the handler in unordered
/// mode, or through the home queue's reorder buffer in in-order mode.
fn deliver_claimed(
    ctx: &WorkerCtx,
    report: &mut PoolWorkerReport,
    reorder: Option<&[ReorderBuffer<LiveChunk>]>,
    chunk: LiveChunk,
    delivered_ns: u64,
) {
    let Some(ro) = reorder else {
        process_chunk(ctx, report, chunk, false, delivered_ns);
        return;
    };
    // Claimed after stop was raised: drop instead of parking it in the
    // reorder buffer — ordering is void during teardown, and the stop
    // sweep may already have passed this buffer.
    if ctx.stop.load(Ordering::SeqCst) {
        drop_chunk(&ctx.shared, chunk);
        return;
    }
    let buf = &ro[chunk.home()];
    let home = chunk.home();
    buf.insert(chunk.seq(), chunk);
    let delivered = buf.pump(|_seq, c| process_chunk(ctx, report, c, false, delivered_ns));
    ctx.shared
        .tel
        .queue(home)
        .pool
        .reorder_occupancy
        .set(buf.len());
    if delivered > 0 {
        // Wake peers whose end-of-stream check waits on the reorder
        // buffers draining.
        ctx.shared.delivery_gate.notify();
    }
}

/// Forced-stop sweep for concurrent mode: claim-drain every member
/// queue, then reclaim anything stranded behind a gap in the reorder
/// buffers. Everything goes home as a delivery drop.
fn stop_drain_concurrent(
    ctx: &WorkerCtx,
    claims: &[ClaimQueue<LiveChunk>],
    reorder: Option<&[ReorderBuffer<LiveChunk>]>,
) {
    for &q in &ctx.members {
        loop {
            match claims[q].try_claim() {
                Claim::Claimed(chunk) => drop_chunk(&ctx.shared, chunk),
                Claim::Contended => std::hint::spin_loop(),
                Claim::Empty => break,
            }
        }
    }
    if let Some(ro) = reorder {
        for &q in &ctx.members {
            for chunk in ro[q].take_stranded() {
                drop_chunk(&ctx.shared, chunk);
            }
            ctx.shared.tel.queue(q).pool.reorder_occupancy.set(0);
        }
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
