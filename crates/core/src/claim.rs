//! Concurrent single-queue consumption: lock-free chunk claiming
//! (DESIGN.md §4.12).
//!
//! WireCAP's buddy groups and the work-stealing pool rebalance load
//! *across* queues, but until this module a single scorching queue was
//! still drained by exactly one worker at a time. Following COREC
//! ("Concurrent Non-Blocking Single-Queue Receive Driver for Low
//! Latency Networking"), [`ClaimQueue`] lets any number of pool
//! workers claim sealed chunks from the *same* capture stream through
//! a per-cell CAS-claimed sequence/ticket word. Per "From RDMA to
//! RDCA", every ticket word lives on its own cache line so claim
//! traffic for neighbouring chunks never bounces a shared line between
//! cores.
//!
//! [`ClaimQueue`] is a bounded multi-producer multi-consumer queue in
//! the Vyukov style. Each cell carries one atomic *ticket* word; a
//! consumer claims a cell by CASing the shared claim cursor and then
//! owns the cell's chunk exclusively until the ticket wraps a full
//! lap. Losing the CAS race is reported explicitly as
//! [`Claim::Contended`] so callers can feed claim-contention telemetry
//! and the [`AdaptivePoller`](crate::AdaptivePoller)'s lost-race yield
//! instead of retrying blind. Delivery order within a queue is
//! unspecified; a per-queue [`LiveConsumer`](crate::LiveConsumer)
//! gives seal order.
//!
//! Recycling stays home-pool-only: claiming moves *handles* (sealed
//! chunk descriptors), never slots, exactly like stealing — the worker
//! that finishes a chunk still returns the slot to the chunk's home
//! arena free list.

pub use imp::{Claim, ClaimQueue};

// Raw-cell internals: `MaybeUninit` storage guarded by the per-cell
// ticket protocol, same opt-in pattern as `spsc` and `steal`.
#[allow(unsafe_code)]
mod imp {
    use std::cell::UnsafeCell;
    use std::mem::MaybeUninit;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Outcome of one [`ClaimQueue::try_claim`] attempt.
    #[derive(Debug, PartialEq, Eq)]
    pub enum Claim<T> {
        /// This worker won the CAS and exclusively owns the chunk.
        Claimed(T),
        /// Another worker won the race for the cell we targeted (or
        /// advanced the cursor under us). Work may still be available —
        /// retry after a cheap lost-race backoff, not a full park.
        Contended,
        /// Nothing published at the claim cursor.
        Empty,
    }

    /// One queue cell: the CAS-claimed sequence/ticket word plus the
    /// chunk it guards, padded to its own cache line (128 bytes covers
    /// adjacent-line prefetch) so per-chunk claim traffic never false-
    /// shares with the neighbouring cell's ticket.
    #[repr(align(128))]
    struct Cell<T> {
        /// Ticket protocol: `lap*cap + index` when empty and waiting
        /// for producer lap `lap`; `pos + 1` once the value for cursor
        /// position `pos` is published; back to `pos + cap` after a
        /// consumer takes it.
        ticket: AtomicUsize,
        value: UnsafeCell<MaybeUninit<T>>,
    }

    /// Pads a hot cursor to its own cache line.
    #[derive(Default)]
    #[repr(align(128))]
    struct PaddedCursor(AtomicUsize);

    /// Bounded MPMC claim queue (Vyukov-style) with per-cell padded
    /// ticket words and an explicit contended claim outcome.
    ///
    /// Close protocol: the queue is constructed with the number of
    /// producers that will ever push (one per capture thread); each
    /// calls [`producer_done`](Self::producer_done) exactly once at
    /// exit. Consumers treat `is_closed() && Empty` as end-of-stream.
    pub struct ClaimQueue<T> {
        cells: Box<[Cell<T>]>,
        mask: usize,
        /// Producer cursor: next position to publish.
        publish_pos: PaddedCursor,
        /// Consumer cursor: next position to claim. The CAS on this
        /// word is the claim; the per-cell ticket then transfers
        /// exclusive ownership of the cell to the winner.
        claim_pos: PaddedCursor,
        open_producers: AtomicUsize,
    }

    // SAFETY: a cell's value is written only by the producer that won
    // the publish CAS for its position, and read only by the worker that
    // won the claim CAS for it; the per-cell ticket's Release/Acquire
    // pair orders the write before the read. Values cross threads, so
    // `T: Send` is required and sufficient.
    unsafe impl<T: Send> Send for ClaimQueue<T> {}
    // SAFETY: shared access only publishes and claims through the
    // ticket protocol above; no `&T` is ever handed out.
    unsafe impl<T: Send> Sync for ClaimQueue<T> {}

    impl<T> ClaimQueue<T> {
        /// Creates a queue holding at least `capacity` chunks (rounded
        /// up to a power of two, minimum 2) with `producers` producers
        /// expected to call [`producer_done`](Self::producer_done).
        pub fn new(capacity: usize, producers: usize) -> Self {
            let cap = capacity.max(2).next_power_of_two();
            let cells = (0..cap)
                .map(|i| Cell {
                    ticket: AtomicUsize::new(i),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect::<Vec<_>>()
                .into_boxed_slice();
            ClaimQueue {
                cells,
                mask: cap - 1,
                publish_pos: PaddedCursor::default(),
                claim_pos: PaddedCursor::default(),
                open_producers: AtomicUsize::new(producers),
            }
        }

        /// Number of cells.
        pub fn capacity(&self) -> usize {
            self.cells.len()
        }

        /// Publishes a sealed chunk. Returns `Err(item)` when the
        /// queue is full — the engine sizes claim queues so this is
        /// unreachable under the chunk-conservation invariant (at most
        /// `queues * R` chunks exist), but the contract stays total.
        pub fn push(&self, item: T) -> Result<(), T> {
            let mut pos = self.publish_pos.0.load(Ordering::Relaxed);
            loop {
                let cell = &self.cells[pos & self.mask];
                let ticket = cell.ticket.load(Ordering::Acquire);
                let dif = ticket as isize - pos as isize;
                if dif == 0 {
                    // Cell empty and expecting this lap: race peers
                    // for the publish slot.
                    match self.publish_pos.0.compare_exchange_weak(
                        pos,
                        pos + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: winning the publish CAS for `pos`
                            // makes this producer the cell's only
                            // writer, and the ticket (== pos) says no
                            // claimer reads it until the store below.
                            unsafe { (*cell.value.get()).write(item) };
                            cell.ticket.store(pos + 1, Ordering::Release);
                            return Ok(());
                        }
                        Err(now) => pos = now,
                    }
                } else if dif < 0 {
                    return Err(item); // full: consumer lap not done
                } else {
                    pos = self.publish_pos.0.load(Ordering::Relaxed);
                }
            }
        }

        /// One claim attempt. [`Claim::Claimed`] transfers exclusive
        /// ownership of one chunk; [`Claim::Contended`] means another
        /// worker won the CAS (or moved the cursor) — back off cheaply
        /// and retry; [`Claim::Empty`] means nothing is published.
        pub fn try_claim(&self) -> Claim<T> {
            let pos = self.claim_pos.0.load(Ordering::Relaxed);
            let cell = &self.cells[pos & self.mask];
            let ticket = cell.ticket.load(Ordering::Acquire);
            let dif = ticket as isize - (pos + 1) as isize;
            if dif == 0 {
                // Published and unclaimed: the cursor CAS is the claim.
                match self.claim_pos.0.compare_exchange(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the Acquire load saw ticket == pos + 1,
                        // so the value was written and published; winning
                        // the claim CAS makes this the only read of it
                        // before the ticket hands the cell back.
                        let value = unsafe { (*cell.value.get()).assume_init_read() };
                        cell.ticket.store(pos + self.mask + 1, Ordering::Release);
                        Claim::Claimed(value)
                    }
                    Err(_) => Claim::Contended,
                }
            } else if dif < 0 {
                Claim::Empty
            } else {
                // Our cursor read was stale: a peer already claimed
                // past this cell. Equivalent to losing the race.
                Claim::Contended
            }
        }

        /// Marks one producer finished (call exactly once per
        /// producer declared at construction).
        pub fn producer_done(&self) {
            let prev = self.open_producers.fetch_sub(1, Ordering::AcqRel);
            debug_assert!(prev > 0, "producer_done called more times than producers");
        }

        /// True once every producer called
        /// [`producer_done`](Self::producer_done). Combined with
        /// [`Claim::Empty`] this is end-of-stream.
        pub fn is_closed(&self) -> bool {
            self.open_producers.load(Ordering::Acquire) == 0
        }

        /// Published-but-unclaimed chunk count (racy estimate).
        pub fn len(&self) -> usize {
            let publish = self.publish_pos.0.load(Ordering::Relaxed);
            let claim = self.claim_pos.0.load(Ordering::Relaxed);
            publish.saturating_sub(claim)
        }

        /// True when no published chunk is waiting (racy estimate).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Drop for ClaimQueue<T> {
        fn drop(&mut self) {
            // &mut self: no concurrent claims. Drop whatever is still
            // published and unclaimed.
            let publish = *self.publish_pos.0.get_mut();
            let claim = *self.claim_pos.0.get_mut();
            for pos in claim..publish {
                let cell = &mut self.cells[pos & self.mask];
                if *cell.ticket.get_mut() == pos + 1 {
                    // SAFETY: ticket == pos + 1 means published and not
                    // claimed, so the value is initialized and owned
                    // here; `&mut self` rules out a concurrent claim.
                    unsafe { cell.value.get_mut().assume_init_drop() };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn claim_round_trips_in_order_single_thread() {
        let q = ClaimQueue::new(8, 1);
        for i in 0..5u32 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 5);
        for i in 0..5u32 {
            assert_eq!(q.try_claim(), Claim::Claimed(i));
        }
        assert_eq!(q.try_claim(), Claim::Empty);
        assert!(!q.is_closed());
        q.producer_done();
        assert!(q.is_closed());
    }

    #[test]
    fn claim_queue_reports_full() {
        let q = ClaimQueue::new(2, 1);
        q.push(1u32).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.try_claim(), Claim::Claimed(1));
        q.push(3).unwrap();
    }

    #[test]
    fn claim_queue_wraps_many_laps() {
        let q = ClaimQueue::new(4, 1);
        for i in 0..1_000u64 {
            q.push(i).unwrap();
            assert_eq!(q.try_claim(), Claim::Claimed(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn concurrent_claims_conserve_items() {
        const N: u64 = 40_000;
        const WORKERS: usize = 4;
        let q = Arc::new(ClaimQueue::new(1024, 1));
        let sum = Arc::new(AtomicU64::new(0));
        let count = Arc::new(AtomicU64::new(0));
        let claimers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let q = Arc::clone(&q);
                let sum = Arc::clone(&sum);
                let count = Arc::clone(&count);
                std::thread::spawn(move || loop {
                    match q.try_claim() {
                        Claim::Claimed(v) => {
                            sum.fetch_add(v, Ordering::Relaxed);
                            count.fetch_add(1, Ordering::Relaxed);
                        }
                        Claim::Contended => std::hint::spin_loop(),
                        Claim::Empty => {
                            if q.is_closed() && q.is_empty() {
                                return;
                            }
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for i in 1..=N {
            while q.push(i).is_err() {
                std::thread::yield_now();
            }
        }
        q.producer_done();
        for c in claimers {
            c.join().unwrap();
        }
        assert_eq!(count.load(Ordering::Relaxed), N, "items lost or duplicated");
        assert_eq!(sum.load(Ordering::Relaxed), N * (N + 1) / 2);
    }

    #[test]
    fn drop_releases_unclaimed_items() {
        let q = ClaimQueue::new(8, 1);
        let item = Arc::new(());
        q.push(Arc::clone(&item)).unwrap();
        q.push(Arc::clone(&item)).unwrap();
        assert_eq!(Arc::strong_count(&item), 3);
        drop(q);
        assert_eq!(Arc::strong_count(&item), 1, "drop leaked queued items");
    }
}
