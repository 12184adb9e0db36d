//! Cache-line-padded SPSC rings with batched hand-off.
//!
//! The live engine's chunk hand-off moved one chunk per atomic
//! compare-and-swap; at high rates the CAS and the head/tail false
//! sharing dominate. [`BatchRing`] replaces it: a bounded single-producer
//! single-consumer ring whose producer publishes up to [`MAX_BATCH`]
//! items with **one** release store of the tail, and whose consumer
//! claims up to a batch with one release store of the head. Every
//! field that is written after construction has a cache line of its own
//! ([`crossbeam::utils::CachePadded`]): a hand-off moves the two cursor
//! lines it must, each side's guard stays resident in its owner's cache,
//! and a consumer polling an empty ring disturbs nothing the producer
//! writes besides `tail`.
//!
//! The intended topology is strictly one producer and one consumer per
//! ring (the live engine allocates one ring per (target queue, producer)
//! pair), but misuse must not be unsound: cheap spin guards serialize
//! concurrent pushers and concurrent poppers — uncontended in the
//! intended topology, correct when applications share a consumer handle
//! (§5e paradigm 1).
//!
//! Shutdown protocol: the producer pushes its final items, then calls
//! [`BatchRing::close`]. A consumer treats an empty ring as end-of-stream
//! only after observing `is_closed()`, followed by one final pop to close
//! the race window.

#[allow(unsafe_code)]
mod imp {
    use crossbeam::utils::CachePadded;
    use std::cell::UnsafeCell;
    use std::mem::MaybeUninit;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// Maximum items moved per synchronization point.
    pub const MAX_BATCH: usize = 64;

    /// A bounded SPSC ring with batched push/pop.
    pub struct BatchRing<T> {
        buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
        mask: usize,
        /// Consumer cursor: next index to pop.
        head: CachePadded<AtomicUsize>,
        /// Producer cursor: next index to fill.
        tail: CachePadded<AtomicUsize>,
        /// Written once, by [`BatchRing::close`].
        closed: CachePadded<AtomicBool>,
        /// Touched only by pushers: in the intended topology, one thread.
        push_guard: CachePadded<AtomicBool>,
        /// Touched only by poppers: in the intended topology, one thread.
        pop_guard: CachePadded<AtomicBool>,
    }

    // Safety: items are moved in through push_batch and out through
    // pop_batch; the head/tail protocol ensures a slot is never read and
    // written concurrently, and the guards serialize same-side callers.
    unsafe impl<T: Send> Send for BatchRing<T> {}
    // SAFETY: as for Send: shared callers reach slots only through the
    // guarded push/pop protocol, never through a `&T`.
    unsafe impl<T: Send> Sync for BatchRing<T> {}

    impl<T> std::fmt::Debug for BatchRing<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("BatchRing")
                .field("capacity", &self.capacity())
                .field("len", &self.len())
                .field("closed", &self.is_closed())
                .finish()
        }
    }

    fn lock(guard: &AtomicBool) {
        while guard
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
    }

    impl<T> BatchRing<T> {
        /// Creates a ring holding at least `cap` items (rounded up to a
        /// power of two).
        pub fn with_capacity(cap: usize) -> Self {
            let cap = cap.max(2).next_power_of_two();
            BatchRing {
                buf: (0..cap)
                    .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                    .collect(),
                mask: cap - 1,
                head: CachePadded::new(AtomicUsize::new(0)),
                tail: CachePadded::new(AtomicUsize::new(0)),
                closed: CachePadded::new(AtomicBool::new(false)),
                push_guard: CachePadded::new(AtomicBool::new(false)),
                pop_guard: CachePadded::new(AtomicBool::new(false)),
            }
        }

        /// Ring capacity in items.
        pub fn capacity(&self) -> usize {
            self.buf.len()
        }

        /// Items currently queued (a racy snapshot).
        pub fn len(&self) -> usize {
            let tail = self.tail.load(Ordering::Acquire);
            let head = self.head.load(Ordering::Acquire);
            tail.wrapping_sub(head)
        }

        /// True when nothing is queued (a racy snapshot).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Moves up to [`MAX_BATCH`] items from the front of `items` into
        /// the ring, publishing them with a single tail store. Returns
        /// how many were moved; the rest stay in `items`.
        pub fn push_batch(&self, items: &mut Vec<T>) -> usize {
            if items.is_empty() {
                return 0;
            }
            lock(&self.push_guard);
            let tail = self.tail.load(Ordering::Relaxed);
            let head = self.head.load(Ordering::Acquire);
            let space = self.capacity() - tail.wrapping_sub(head);
            let n = items.len().min(space).min(MAX_BATCH);
            for (i, item) in items.drain(..n).enumerate() {
                let slot = &self.buf[(tail.wrapping_add(i)) & self.mask];
                // Safety: slots in [tail, tail + space) are dead (already
                // popped or never filled), and the push guard makes this
                // the only writer.
                unsafe { (*slot.get()).write(item) };
            }
            self.tail.store(tail.wrapping_add(n), Ordering::Release);
            self.push_guard.store(false, Ordering::Release);
            n
        }

        /// Moves up to `max` queued items into `out`, claiming them with
        /// a single head store. Returns how many were moved.
        pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
            if max == 0 {
                return 0;
            }
            // Empty fast path: a consumer polling many quiet rings (the
            // pool workers scan every producer ring of every owned
            // queue) skips the guard CAS entirely. Racy in its favor
            // only — a concurrent push after this check is caught on
            // the next poll round.
            if self.is_empty() {
                return 0;
            }
            lock(&self.pop_guard);
            let head = self.head.load(Ordering::Relaxed);
            let tail = self.tail.load(Ordering::Acquire);
            let avail = tail.wrapping_sub(head);
            let n = avail.min(max);
            out.reserve(n);
            for i in 0..n {
                let slot = &self.buf[(head.wrapping_add(i)) & self.mask];
                // Safety: slots in [head, tail) hold initialized items
                // published by the Release tail store; the pop guard
                // makes this the only reader, and the head store below
                // transfers ownership out before the producer can reuse
                // the slot.
                out.push(unsafe { (*slot.get()).assume_init_read() });
            }
            self.head.store(head.wrapping_add(n), Ordering::Release);
            self.pop_guard.store(false, Ordering::Release);
            n
        }

        /// Marks the stream finished. Idempotent; pushed items remain
        /// poppable.
        pub fn close(&self) {
            self.closed.store(true, Ordering::Release);
        }

        /// True once the producer has closed the ring. An empty ring is
        /// end-of-stream only if this is set — and even then one final
        /// pop is required (items may have been pushed before the close).
        pub fn is_closed(&self) -> bool {
            self.closed.load(Ordering::Acquire)
        }
    }

    impl<T> Drop for BatchRing<T> {
        fn drop(&mut self) {
            let head = *self.head.get_mut();
            let tail = *self.tail.get_mut();
            for i in head..tail {
                let slot = &mut self.buf[i & self.mask];
                // Safety: &mut self — no other accessor; [head, tail)
                // holds initialized, un-popped items.
                unsafe { slot.get_mut().assume_init_drop() };
            }
        }
    }
}

pub use imp::{BatchRing, MAX_BATCH};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn batches_preserve_fifo_order() {
        let ring: BatchRing<u32> = BatchRing::with_capacity(8);
        let mut input: Vec<u32> = (0..6).collect();
        assert_eq!(ring.push_batch(&mut input), 6);
        assert!(input.is_empty());
        let mut out = Vec::new();
        assert_eq!(ring.pop_batch(&mut out, 4), 4);
        assert_eq!(ring.pop_batch(&mut out, 4), 2);
        assert_eq!(out, (0..6).collect::<Vec<u32>>());
    }

    #[test]
    fn push_stops_at_capacity_and_resumes_after_pop() {
        let ring: BatchRing<u32> = BatchRing::with_capacity(4);
        let mut input: Vec<u32> = (0..10).collect();
        assert_eq!(ring.push_batch(&mut input), 4);
        assert_eq!(input.len(), 6);
        let mut out = Vec::new();
        assert_eq!(ring.pop_batch(&mut out, usize::MAX), 4);
        assert_eq!(ring.push_batch(&mut input), 4);
        assert_eq!(ring.len(), 4);
    }

    #[test]
    fn batch_size_is_capped() {
        let ring: BatchRing<u32> = BatchRing::with_capacity(256);
        let mut input: Vec<u32> = (0..200).collect();
        assert_eq!(ring.push_batch(&mut input), MAX_BATCH);
        assert_eq!(input.len(), 200 - MAX_BATCH);
    }

    #[test]
    fn close_then_drain_protocol() {
        let ring: BatchRing<u32> = BatchRing::with_capacity(8);
        let mut input = vec![1, 2, 3];
        ring.push_batch(&mut input);
        ring.close();
        assert!(ring.is_closed());
        let mut out = Vec::new();
        ring.pop_batch(&mut out, usize::MAX);
        assert_eq!(out, vec![1, 2, 3]);
        assert!(ring.is_empty());
    }

    #[test]
    fn drop_releases_unpopped_items() {
        let item = Arc::new(());
        {
            let ring: BatchRing<Arc<()>> = BatchRing::with_capacity(8);
            let mut input = vec![Arc::clone(&item), Arc::clone(&item)];
            ring.push_batch(&mut input);
            assert_eq!(Arc::strong_count(&item), 3);
        }
        assert_eq!(Arc::strong_count(&item), 1);
    }

    #[test]
    fn two_thread_stream_is_lossless_and_ordered() {
        let ring: Arc<BatchRing<u64>> = Arc::new(BatchRing::with_capacity(64));
        const N: u64 = 100_000;
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut pending: Vec<u64> = Vec::new();
                let mut next = 0u64;
                while next < N || !pending.is_empty() {
                    while pending.len() < MAX_BATCH && next < N {
                        pending.push(next);
                        next += 1;
                    }
                    if ring.push_batch(&mut pending) == 0 {
                        std::thread::yield_now();
                    }
                }
                ring.close();
            })
        };
        let mut seen = Vec::with_capacity(N as usize);
        let mut out = Vec::new();
        loop {
            out.clear();
            if ring.pop_batch(&mut out, MAX_BATCH) == 0 {
                if ring.is_closed() && ring.pop_batch(&mut out, MAX_BATCH) == 0 {
                    break;
                }
                std::thread::yield_now();
            }
            seen.extend_from_slice(&out);
        }
        producer.join().unwrap();
        assert_eq!(seen.len() as u64, N);
        assert!(seen.windows(2).all(|w| w[1] == w[0] + 1));
    }
}
