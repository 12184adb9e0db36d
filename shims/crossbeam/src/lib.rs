//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides the two pieces this workspace uses:
//! * [`queue::ArrayQueue`] — a bounded lock-free MPMC queue (the classic
//!   Vyukov bounded-queue algorithm, the same one the real crate uses);
//! * [`utils::CachePadded`] — alignment padding to keep hot atomics on
//!   their own cache line.

pub mod utils {
    //! Miscellaneous utilities (cache-line padding).

    /// Pads and aligns a value to 128 bytes so neighbouring values never
    /// share a cache line (128 covers the spatial-prefetcher pairing on
    /// x86 and the 128-byte lines on some arm64 parts).
    #[derive(Clone, Copy, Default, PartialEq, Eq)]
    #[repr(align(128))]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        /// Wraps `value` in padding.
        pub const fn new(value: T) -> Self {
            CachePadded { value }
        }

        /// Unwraps the padded value.
        pub fn into_inner(self) -> T {
            self.value
        }
    }

    impl<T> std::ops::Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> std::ops::DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.value
        }
    }

    impl<T> From<T> for CachePadded<T> {
        fn from(value: T) -> Self {
            CachePadded::new(value)
        }
    }

    impl<T: std::fmt::Debug> std::fmt::Debug for CachePadded<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.value.fmt(f)
        }
    }
}

pub mod queue {
    //! Concurrent queues.

    use super::utils::CachePadded;
    use std::cell::UnsafeCell;
    use std::mem::MaybeUninit;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Slot<T> {
        stamp: AtomicUsize,
        value: UnsafeCell<MaybeUninit<T>>,
    }

    /// A bounded lock-free multi-producer multi-consumer queue.
    ///
    /// Vyukov's bounded-queue algorithm: every slot carries a stamp that
    /// encodes which "lap" of the ring may use it next, so producers and
    /// consumers synchronize per-slot without locks.
    pub struct ArrayQueue<T> {
        head: CachePadded<AtomicUsize>,
        tail: CachePadded<AtomicUsize>,
        buffer: Box<[Slot<T>]>,
        cap: usize,
        one_lap: usize,
    }

    // SAFETY: the per-slot stamp protocol hands each value from exactly
    // one producer to exactly one consumer with Release/Acquire pairs.
    unsafe impl<T: Send> Send for ArrayQueue<T> {}
    // SAFETY: as for Send: values move in and out by the stamp protocol;
    // a shared `&ArrayQueue` never yields a `&T`.
    unsafe impl<T: Send> Sync for ArrayQueue<T> {}

    impl<T> ArrayQueue<T> {
        /// Creates a queue holding at most `cap` elements.
        ///
        /// # Panics
        /// Panics if `cap` is zero.
        pub fn new(cap: usize) -> Self {
            assert!(cap > 0, "capacity must be non-zero");
            let buffer: Box<[Slot<T>]> = (0..cap)
                .map(|i| Slot {
                    stamp: AtomicUsize::new(i),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect();
            ArrayQueue {
                head: CachePadded::new(AtomicUsize::new(0)),
                tail: CachePadded::new(AtomicUsize::new(0)),
                buffer,
                cap,
                one_lap: (cap + 1).next_power_of_two(),
            }
        }

        /// Attempts to push, returning the value back if the queue is full.
        pub fn push(&self, value: T) -> Result<(), T> {
            let mut tail = self.tail.load(Ordering::Relaxed);
            loop {
                let index = tail & (self.one_lap - 1);
                let lap = tail & !(self.one_lap - 1);
                let slot = &self.buffer[index];
                let stamp = slot.stamp.load(Ordering::Acquire);

                if tail == stamp {
                    let new_tail = if index + 1 < self.cap {
                        tail + 1
                    } else {
                        lap.wrapping_add(self.one_lap)
                    };
                    match self.tail.compare_exchange_weak(
                        tail,
                        new_tail,
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: the CAS claimed this slot for this
                            // producer; nobody else touches it until the
                            // stamp below publishes it.
                            unsafe { slot.value.get().write(MaybeUninit::new(value)) };
                            slot.stamp.store(tail + 1, Ordering::Release);
                            return Ok(());
                        }
                        Err(t) => tail = t,
                    }
                } else if stamp.wrapping_add(self.one_lap) == tail + 1 {
                    std::sync::atomic::fence(Ordering::SeqCst);
                    let head = self.head.load(Ordering::Relaxed);
                    if head.wrapping_add(self.one_lap) == tail {
                        return Err(value);
                    }
                    std::hint::spin_loop();
                    tail = self.tail.load(Ordering::Relaxed);
                } else {
                    std::hint::spin_loop();
                    tail = self.tail.load(Ordering::Relaxed);
                }
            }
        }

        /// Attempts to pop, returning `None` if the queue is empty.
        pub fn pop(&self) -> Option<T> {
            let mut head = self.head.load(Ordering::Relaxed);
            loop {
                let index = head & (self.one_lap - 1);
                let lap = head & !(self.one_lap - 1);
                let slot = &self.buffer[index];
                let stamp = slot.stamp.load(Ordering::Acquire);

                if head + 1 == stamp {
                    let new_head = if index + 1 < self.cap {
                        head + 1
                    } else {
                        lap.wrapping_add(self.one_lap)
                    };
                    match self.head.compare_exchange_weak(
                        head,
                        new_head,
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: the CAS claimed this slot; the
                            // Acquire stamp load above synchronized with
                            // the producer's Release store, so the value
                            // is fully written.
                            let value = unsafe { slot.value.get().read().assume_init() };
                            slot.stamp
                                .store(head.wrapping_add(self.one_lap), Ordering::Release);
                            return Some(value);
                        }
                        Err(h) => head = h,
                    }
                } else if stamp == head {
                    std::sync::atomic::fence(Ordering::SeqCst);
                    let tail = self.tail.load(Ordering::Relaxed);
                    if tail == head {
                        return None;
                    }
                    std::hint::spin_loop();
                    head = self.head.load(Ordering::Relaxed);
                } else {
                    std::hint::spin_loop();
                    head = self.head.load(Ordering::Relaxed);
                }
            }
        }

        /// Maximum number of elements.
        pub fn capacity(&self) -> usize {
            self.cap
        }

        /// Current number of elements (a racy snapshot under concurrency).
        pub fn len(&self) -> usize {
            loop {
                let tail = self.tail.load(Ordering::SeqCst);
                let head = self.head.load(Ordering::SeqCst);
                if self.tail.load(Ordering::SeqCst) == tail {
                    let hix = head & (self.one_lap - 1);
                    let tix = tail & (self.one_lap - 1);
                    return if hix < tix {
                        tix - hix
                    } else if hix > tix {
                        self.cap - hix + tix
                    } else if tail == head {
                        0
                    } else {
                        self.cap
                    };
                }
            }
        }

        /// Whether the queue is empty (a racy snapshot under concurrency).
        pub fn is_empty(&self) -> bool {
            let head = self.head.load(Ordering::SeqCst);
            let tail = self.tail.load(Ordering::SeqCst);
            tail == head
        }

        /// Whether the queue is full (a racy snapshot under concurrency).
        pub fn is_full(&self) -> bool {
            let tail = self.tail.load(Ordering::SeqCst);
            let head = self.head.load(Ordering::SeqCst);
            head.wrapping_add(self.one_lap) == tail
        }
    }

    impl<T> Drop for ArrayQueue<T> {
        fn drop(&mut self) {
            while self.pop().is_some() {}
        }
    }

    impl<T> std::fmt::Debug for ArrayQueue<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("ArrayQueue")
                .field("cap", &self.cap)
                .field("len", &self.len())
                .finish()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::queue::ArrayQueue;
    use std::sync::Arc;

    #[test]
    fn fifo_and_capacity() {
        let q = ArrayQueue::new(3);
        assert_eq!(q.push(1), Ok(()));
        assert_eq!(q.push(2), Ok(()));
        assert_eq!(q.push(3), Ok(()));
        assert_eq!(q.push(4), Err(4));
        assert!(q.is_full());
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.push(5), Ok(()));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(5));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn concurrent_mpmc_conserves_items() {
        let q = Arc::new(ArrayQueue::<u64>::new(64));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        let mut v = p * 10_000 + i;
                        while let Err(back) = q.push(v) {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while got.len() < 10_000 {
                        match q.pop() {
                            Some(v) => got.push(v),
                            None => std::thread::yield_now(),
                        }
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all.len(), 40_000);
        all.dedup();
        assert_eq!(all.len(), 40_000, "duplicate or lost items");
    }

    #[test]
    fn drops_remaining_items() {
        static DROPS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let q = ArrayQueue::new(8);
        for _ in 0..5 {
            assert!(q.push(D).is_ok());
        }
        drop(q.pop());
        drop(q);
        assert_eq!(DROPS.load(std::sync::atomic::Ordering::Relaxed), 5);
    }
}
