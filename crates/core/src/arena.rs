//! Pre-allocated cell arenas for the live engine's chunks.
//!
//! The paper's ring buffer pool allocates all packet storage once, when a
//! queue is opened: "ring buffers are allocated in chunks … a chunk
//! consists of M cells" (§3.2.1), and afterwards only *metadata* moves.
//! [`ChunkArena`] is that storage: one flat buffer of `R × M` fixed-size
//! cells plus per-cell length/timestamp tables, allocated exactly once.
//! The DMA-fill, capture, and recycle paths never allocate and never copy
//! a payload — they write packet bytes into a cell and move an affine
//! *slot token* between threads.
//!
//! # Cell layout
//!
//! The capture path touches each cell of a chunk once per packet, so the
//! layout is chosen for that walk:
//!
//! * cells start `cell_bytes` rounded up to a cache line, plus one line,
//!   apart (2,112 B for the shipped 2,048 B cell). At a power-of-two
//!   stride every cell's first line would fall into the same few L1
//!   sets; at an odd number of lines the 64 cells of a chunk begin in
//!   64 distinct sets. The extra line is padding and holds nothing;
//! * the payload buffer is one anonymous mapping whose start is rounded
//!   up to 2 MiB, and its whole 2 MiB pages are advised as transparent
//!   huge pages, so a chunk's cells share one dTLB entry instead of one
//!   per two cells. Where THP is off the advice fails silently and the
//!   arena runs on 4 KiB pages. The kernel zeroes pages on first touch,
//!   so construction writes nothing.
//!
//! # Token discipline
//!
//! Each of the R chunks is represented by exactly one token, created at
//! arena construction and alive for the arena's lifetime, cycling
//! between two states:
//!
//! * [`FreeSlot`] — the chunk is owned by the capture thread, which may
//!   write packets into its cells (`&mut FreeSlot` proves exclusivity);
//! * [`SealedSlot`] — the chunk is full (or timed out partial) and
//!   read-only; consumers borrow its payload through [`ChunkView`].
//!
//! Neither token is `Clone` and both constructors are private, so at any
//! instant a chunk has exactly one writer *or* any number of readers —
//! never both. Transferring a token across threads through a queue
//! provides the happens-before edge that makes the cell bytes visible.
//!
//! Views borrow the `SealedSlot`; [`ChunkArena::release`] consumes it, so
//! recycling a chunk invalidates every outstanding [`ChunkView`] at
//! compile time.

#[allow(unsafe_code)]
mod imp {
    use std::cell::UnsafeCell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Heap allocations performed by arena construction, process-wide.
    ///
    /// Test hook: the zero-copy integration tests snapshot this before the
    /// hot phase and assert it did not move — proof that capture and
    /// delivery perform no payload allocation after open.
    static ARENA_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    /// Arena instance ids, so tokens cannot be replayed across arenas.
    static ARENA_IDS: AtomicU64 = AtomicU64::new(1);

    /// Number of arena-construction allocations performed so far,
    /// process-wide (see [`ChunkArena`]). Stable across the hot path by
    /// construction: only [`ChunkArena::with_slots`] increments it.
    pub fn arena_allocations() -> u64 {
        ARENA_ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// A write-capable token for one chunk of an arena. See the module
    /// docs for the token discipline.
    #[derive(Debug)]
    pub struct FreeSlot {
        arena: u64,
        chunk: u32,
        filled: u32,
    }

    impl FreeSlot {
        /// Packets written into the chunk so far.
        pub fn filled(&self) -> usize {
            self.filled as usize
        }

        /// True if no packet has been written yet.
        pub fn is_empty(&self) -> bool {
            self.filled == 0
        }
    }

    /// A sealed, read-only token for one chunk. Obtained from
    /// [`ChunkArena::seal`]; turned back into a [`FreeSlot`] by
    /// [`ChunkArena::release`].
    #[derive(Debug)]
    pub struct SealedSlot {
        arena: u64,
        chunk: u32,
        len: u32,
        sealed_ns: u64,
    }

    impl SealedSlot {
        /// Packets the sealed chunk holds.
        pub fn len(&self) -> usize {
            self.len as usize
        }

        /// True if the chunk was sealed empty.
        pub fn is_empty(&self) -> bool {
            self.len == 0
        }

        /// Monotonic seal timestamp, ns (0 when sealed without one).
        ///
        /// The token carries one clock read per *chunk*, taken at seal
        /// time; the consumer subtracts it from its own clock read to
        /// get the capture-to-delivery latency without any per-packet
        /// timing cost.
        pub fn sealed_ns(&self) -> u64 {
            self.sealed_ns
        }
    }

    /// One packet borrowed from a sealed chunk: payload slice plus the
    /// capture metadata the cell tables record.
    #[derive(Debug, Clone, Copy)]
    pub struct PacketRef<'a> {
        /// The captured bytes, truncated to the cell size.
        pub data: &'a [u8],
        /// Capture timestamp, nanoseconds.
        pub ts_ns: u64,
        /// Original on-wire frame length.
        pub wire_len: u32,
    }

    /// A borrowed, read-only view of one sealed chunk's packets.
    ///
    /// Lives no longer than the `SealedSlot` it was created from, so
    /// recycling the chunk (which consumes the slot) statically
    /// invalidates the view.
    #[derive(Debug, Clone, Copy)]
    pub struct ChunkView<'a> {
        arena: &'a ChunkArena,
        chunk: u32,
        len: u32,
    }

    impl<'a> ChunkView<'a> {
        /// Packets in the chunk.
        pub fn len(&self) -> usize {
            self.len as usize
        }

        /// True if the chunk holds no packets.
        pub fn is_empty(&self) -> bool {
            self.len == 0
        }

        /// Borrows packet `i` of the chunk.
        ///
        /// # Panics
        /// If `i >= self.len()`.
        pub fn packet(&self, i: usize) -> PacketRef<'a> {
            assert!(i < self.len(), "packet {i} of a {}-packet chunk", self.len);
            let cell = self.chunk as usize * self.arena.m + i;
            // Safety: the chunk is sealed (the caller holds a borrow of
            // its SealedSlot via this view's lifetime), so no &mut
            // FreeSlot for it can exist and these cells are immutable.
            unsafe {
                let len = *self.arena.lens[cell].get() as usize;
                let bytes = std::slice::from_raw_parts(self.arena.cell_ptr(cell), len);
                PacketRef {
                    data: bytes,
                    ts_ns: *self.arena.ts[cell].get(),
                    wire_len: *self.arena.wire[cell].get(),
                }
            }
        }

        /// Iterates the chunk's packets in capture order. Takes the view
        /// by value (it is `Copy`), so the iterator is independent of
        /// the view binding and lives for the full `'a`.
        pub fn iter(self) -> impl Iterator<Item = PacketRef<'a>> + 'a {
            (0..self.len()).map(move |i| self.packet(i))
        }
    }

    /// The fixed cell storage for R chunks of M cells each.
    ///
    /// All memory is allocated in [`ChunkArena::with_slots`]; every later
    /// operation is a bounds-checked write or a borrowed read.
    pub struct ChunkArena {
        id: u64,
        m: usize,
        cell_bytes: usize,
        /// Bytes from one cell's start to the next (see the module docs).
        stride: usize,
        /// `r * m * stride` payload bytes.
        data: slab::Slab,
        /// Captured length per cell.
        lens: Box<[UnsafeCell<u32>]>,
        /// On-wire length per cell.
        wire: Box<[UnsafeCell<u32>]>,
        /// Capture timestamp per cell.
        ts: Box<[UnsafeCell<u64>]>,
    }

    // Safety: cells are only written through an exclusively held &mut
    // FreeSlot and only read through a shared &SealedSlot; the affine
    // token protocol (see module docs) guarantees the two never overlap
    // for the same chunk, and token transfer between threads happens
    // through synchronizing queues. The slab's raw pointers name memory
    // the arena owns until it drops, whichever thread drops it.
    unsafe impl Send for ChunkArena {}
    // SAFETY: as for Send: shared access writes a cell only through its
    // chunk's unique &mut FreeSlot.
    unsafe impl Sync for ChunkArena {}

    impl std::fmt::Debug for ChunkArena {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("ChunkArena")
                .field("id", &self.id)
                .field("m", &self.m)
                .field("cell_bytes", &self.cell_bytes)
                .field("stride", &self.stride)
                .field("cells", &self.lens.len())
                .finish()
        }
    }

    impl ChunkArena {
        /// Allocates an arena of `r` chunks × `m` cells of `cell_bytes`
        /// each, returning it together with the `r` write tokens.
        ///
        /// This is the *only* allocation site on the capture path; the
        /// returned `FreeSlot`s are the complete, final token population.
        pub fn with_slots(r: usize, m: usize, cell_bytes: usize) -> (Arc<Self>, Vec<FreeSlot>) {
            assert!(r > 0 && m > 0 && cell_bytes > 0);
            let cells = r * m;
            let stride = cell_bytes.next_multiple_of(64) + 64;
            let id = ARENA_IDS.fetch_add(1, Ordering::Relaxed);
            let arena = Arc::new(ChunkArena {
                id,
                m,
                cell_bytes,
                stride,
                data: slab::Slab::zeroed(cells * stride),
                lens: (0..cells).map(|_| UnsafeCell::new(0)).collect(),
                wire: (0..cells).map(|_| UnsafeCell::new(0)).collect(),
                ts: (0..cells).map(|_| UnsafeCell::new(0)).collect(),
            });
            ARENA_ALLOCATIONS.fetch_add(4, Ordering::Relaxed);
            let slots = (0..r as u32)
                .map(|chunk| FreeSlot {
                    arena: id,
                    chunk,
                    filled: 0,
                })
                .collect();
            (arena, slots)
        }

        /// Cells per chunk (the paper's M).
        pub fn m(&self) -> usize {
            self.m
        }

        /// Bytes per cell.
        pub fn cell_bytes(&self) -> usize {
            self.cell_bytes
        }

        fn check(&self, arena: u64, chunk: u32) {
            assert_eq!(arena, self.id, "slot token from a different arena");
            assert!((chunk as usize) < self.lens.len() / self.m);
        }

        /// Start of cell `cell`'s payload bytes.
        fn cell_ptr(&self, cell: usize) -> *mut u8 {
            assert!(cell < self.lens.len());
            // SAFETY: cell < r * m, so the offset is inside the
            // `r * m * stride`-byte slab.
            unsafe { self.data.as_ptr().add(cell * self.stride) }
        }

        /// Writes one packet into the slot's next free cell, truncating
        /// `data` to the cell size. Returns `false` (without writing) if
        /// the chunk is already full.
        pub fn write_packet(
            &self,
            slot: &mut FreeSlot,
            ts_ns: u64,
            wire_len: u32,
            data: &[u8],
        ) -> bool {
            self.check(slot.arena, slot.chunk);
            if slot.filled as usize >= self.m {
                return false;
            }
            let cell = slot.chunk as usize * self.m + slot.filled as usize;
            let copied = data.len().min(self.cell_bytes);
            // Safety: `&mut FreeSlot` is the unique writer token for this
            // chunk, and the cell indices it covers are disjoint from
            // every other chunk's.
            unsafe {
                let dst = std::slice::from_raw_parts_mut(self.cell_ptr(cell), copied);
                dst.copy_from_slice(&data[..copied]);
                *self.lens[cell].get() = copied as u32;
                *self.wire[cell].get() = wire_len;
                *self.ts[cell].get() = ts_ns;
            }
            slot.filled += 1;
            true
        }

        /// Seals a chunk for delivery: the token becomes read-only,
        /// carrying the packet count written so far. The seal timestamp
        /// is left at 0; the live engine uses [`ChunkArena::seal_at`].
        pub fn seal(&self, slot: FreeSlot) -> SealedSlot {
            self.seal_at(slot, 0)
        }

        /// Seals a chunk, stamping it with a monotonic timestamp for
        /// capture-to-delivery latency accounting (one clock read per
        /// chunk, taken by the caller).
        pub fn seal_at(&self, slot: FreeSlot, sealed_ns: u64) -> SealedSlot {
            self.check(slot.arena, slot.chunk);
            SealedSlot {
                arena: slot.arena,
                chunk: slot.chunk,
                len: slot.filled,
                sealed_ns,
            }
        }

        /// Recycles a sealed chunk: the token becomes writable again and
        /// previous contents are logically discarded. Consuming the
        /// `SealedSlot` ends every [`ChunkView`] borrowed from it.
        pub fn release(&self, slot: SealedSlot) -> FreeSlot {
            self.check(slot.arena, slot.chunk);
            FreeSlot {
                arena: slot.arena,
                chunk: slot.chunk,
                filled: 0,
            }
        }

        /// Borrows a read-only view of a sealed chunk's packets.
        pub fn view<'a>(&'a self, slot: &'a SealedSlot) -> ChunkView<'a> {
            self.check(slot.arena, slot.chunk);
            ChunkView {
                arena: self,
                chunk: slot.chunk,
                len: slot.len,
            }
        }
    }

    /// The payload buffer: zeroed, 2 MiB-aligned where the platform maps
    /// anonymous memory, freed when the arena drops.
    #[cfg(target_os = "linux")]
    mod slab {
        // Declared directly, as in `shmring`'s segment, so the workspace
        // needs no `libc` crate: std already links the C library.
        extern "C" {
            fn mmap(
                addr: *mut u8,
                length: usize,
                prot: i32,
                flags: i32,
                fd: i32,
                offset: i64,
            ) -> *mut u8;
            fn madvise(addr: *mut u8, length: usize, advice: i32) -> i32;
            fn munmap(addr: *mut u8, length: usize) -> i32;
        }

        const PROT_READ: i32 = 0x1;
        const PROT_WRITE: i32 = 0x2;
        const MAP_PRIVATE: i32 = 0x02;
        const MAP_ANONYMOUS: i32 = 0x20;
        const MAP_FAILED: isize = -1;
        const MADV_HUGEPAGE: i32 = 14;
        const HUGE_PAGE: usize = 2 << 20;

        pub(super) struct Slab {
            /// First payload byte: `map` rounded up to [`HUGE_PAGE`].
            base: *mut u8,
            map: *mut u8,
            map_len: usize,
        }

        impl Slab {
            /// Maps `len + 2 MiB` bytes, so that `len` bytes fit after
            /// the first 2 MiB boundary, and advises the whole 2 MiB
            /// pages among them as huge pages. The tail stays on 4 KiB
            /// pages, and nothing is touched here.
            pub(super) fn zeroed(len: usize) -> Self {
                let map_len = len + HUGE_PAGE;
                // SAFETY: a fresh anonymous private mapping; the kernel
                // chooses the address and zeroes each page on first touch.
                let map = unsafe {
                    mmap(
                        std::ptr::null_mut(),
                        map_len,
                        PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS,
                        -1,
                        0,
                    )
                };
                assert!(
                    !map.is_null() && map as isize != MAP_FAILED,
                    "mmap of {map_len}-byte arena slab failed"
                );
                let pad = (map as usize).next_multiple_of(HUGE_PAGE) - map as usize;
                // SAFETY: pad < HUGE_PAGE, so `base .. base + len` lies
                // inside the mapping.
                let base = unsafe { map.add(pad) };
                let huge = len / HUGE_PAGE * HUGE_PAGE;
                if huge > 0 {
                    // SAFETY: advice on whole pages of our own mapping;
                    // it changes no contents. A failure (THP set to
                    // `never`) leaves the slab on 4 KiB pages.
                    unsafe { madvise(base, huge, MADV_HUGEPAGE) };
                }
                Slab { base, map, map_len }
            }

            pub(super) fn as_ptr(&self) -> *mut u8 {
                self.base
            }
        }

        impl Drop for Slab {
            fn drop(&mut self) {
                // SAFETY: map/map_len are exactly what mmap returned, and
                // every borrow of a cell ends before its arena drops.
                let rc = unsafe { munmap(self.map, self.map_len) };
                debug_assert_eq!(rc, 0, "munmap of the arena slab failed");
            }
        }
    }

    #[cfg(not(target_os = "linux"))]
    mod slab {
        use std::alloc::Layout;

        pub(super) struct Slab {
            base: *mut u8,
            layout: Layout,
        }

        impl Slab {
            pub(super) fn zeroed(len: usize) -> Self {
                let layout = Layout::from_size_align(len, 4096).expect("arena slab layout");
                // SAFETY: non-zero size (r, m and cell_bytes are
                // asserted positive), valid alignment.
                let base = unsafe { std::alloc::alloc_zeroed(layout) };
                assert!(!base.is_null(), "allocating {len}-byte arena slab failed");
                Slab { base, layout }
            }

            pub(super) fn as_ptr(&self) -> *mut u8 {
                self.base
            }
        }

        impl Drop for Slab {
            fn drop(&mut self) {
                // SAFETY: base/layout are exactly what alloc_zeroed used.
                unsafe { std::alloc::dealloc(self.base, self.layout) };
            }
        }
    }
}

pub use imp::{arena_allocations, ChunkArena, ChunkView, FreeSlot, PacketRef, SealedSlot};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CELL_BYTES;

    #[test]
    fn write_seal_view_release_roundtrip() {
        let (arena, mut slots) = ChunkArena::with_slots(2, 4, 64);
        let mut slot = slots.pop().unwrap();
        assert!(slot.is_empty());
        assert!(arena.write_packet(&mut slot, 10, 100, b"hello"));
        assert!(arena.write_packet(&mut slot, 20, 200, b"world!"));
        assert_eq!(slot.filled(), 2);
        let sealed = arena.seal_at(slot, 777);
        assert_eq!(sealed.len(), 2);
        assert_eq!(sealed.sealed_ns(), 777);
        let view = arena.view(&sealed);
        assert_eq!(view.len(), 2);
        assert_eq!(view.packet(0).data, b"hello");
        assert_eq!(view.packet(0).ts_ns, 10);
        assert_eq!(view.packet(1).data, b"world!");
        assert_eq!(view.packet(1).wire_len, 200);
        assert_eq!(view.iter().count(), 2);
        let slot = arena.release(sealed);
        assert!(slot.is_empty());
    }

    #[test]
    fn full_chunk_rejects_further_writes() {
        let (arena, mut slots) = ChunkArena::with_slots(1, 2, 64);
        let mut slot = slots.pop().unwrap();
        assert!(arena.write_packet(&mut slot, 0, 64, b"a"));
        assert!(arena.write_packet(&mut slot, 1, 64, b"b"));
        assert!(!arena.write_packet(&mut slot, 2, 64, b"c"));
        assert_eq!(slot.filled(), 2);
    }

    #[test]
    fn oversized_packets_truncate_to_the_cell() {
        let (arena, mut slots) = ChunkArena::with_slots(1, 1, 8);
        let mut slot = slots.pop().unwrap();
        assert!(arena.write_packet(&mut slot, 0, 16, &[7u8; 16]));
        let sealed = arena.seal(slot);
        let view = arena.view(&sealed);
        assert_eq!(view.packet(0).data, &[7u8; 8]);
        assert_eq!(view.packet(0).wire_len, 16);
    }

    #[test]
    fn chunks_do_not_alias() {
        let (arena, mut slots) = ChunkArena::with_slots(2, 1, 16);
        let mut b = slots.pop().unwrap();
        let mut a = slots.pop().unwrap();
        arena.write_packet(&mut a, 0, 16, b"aaaa");
        arena.write_packet(&mut b, 0, 16, b"bbbb");
        let (sa, sb) = (arena.seal(a), arena.seal(b));
        assert_eq!(arena.view(&sa).packet(0).data, b"aaaa");
        assert_eq!(arena.view(&sb).packet(0).data, b"bbbb");
    }

    #[test]
    #[should_panic(expected = "different arena")]
    fn cross_arena_tokens_are_rejected() {
        let (_a, mut sa) = ChunkArena::with_slots(1, 1, 16);
        let (b, _sb) = ChunkArena::with_slots(1, 1, 16);
        let mut slot = sa.pop().unwrap();
        b.write_packet(&mut slot, 0, 16, b"x");
    }

    #[test]
    fn allocation_hook_moves_only_at_construction() {
        let before = arena_allocations();
        let (arena, mut slots) = ChunkArena::with_slots(4, 8, 128);
        let after_open = arena_allocations();
        assert!(after_open > before);
        let mut slot = slots.pop().unwrap();
        for i in 0..8 {
            arena.write_packet(&mut slot, i, 100, &[i as u8; 100]);
        }
        let sealed = arena.seal(slot);
        let view = arena.view(&sealed);
        let sum: u64 = view.iter().map(|p| u64::from(p.data[0])).sum();
        assert_eq!(sum, (0..8).sum::<u64>());
        arena.release(sealed);
        assert_eq!(arena_allocations(), after_open, "hot path allocated");
    }

    /// Writes one packet per fill into a fresh chunk of `CELL_BYTES`
    /// cells and returns the arena with the sealed chunk.
    fn sealed_chunk(m: usize, fills: &[&[u8]]) -> (std::sync::Arc<ChunkArena>, SealedSlot) {
        let (arena, slots) = ChunkArena::with_slots(1, m, CELL_BYTES);
        let mut slot = slots.into_iter().next().unwrap();
        for (i, fill) in fills.iter().enumerate() {
            assert!(arena.write_packet(&mut slot, i as u64, fill.len() as u32, fill));
        }
        let sealed = arena.seal(slot);
        (arena, sealed)
    }

    #[test]
    fn full_cells_do_not_bleed_into_their_neighbours() {
        let (a, b) = (vec![0xAA; CELL_BYTES], vec![0x55; CELL_BYTES]);
        let (arena, sealed) = sealed_chunk(4, &[&a, &b, &a]);
        let view = arena.view(&sealed);
        assert_eq!(view.packet(0).data, &a[..]);
        assert_eq!(view.packet(1).data, &b[..]);
        assert_eq!(view.packet(2).data, &a[..]);
    }

    #[test]
    fn a_chunks_cells_start_in_distinct_l1_sets() {
        let fills = vec![&b"x"[..]; 64];
        let (arena, sealed) = sealed_chunk(64, &fills);
        let sets: std::collections::HashSet<usize> = arena
            .view(&sealed)
            .iter()
            .map(|p| (p.data.as_ptr() as usize / 64) % 64)
            .collect();
        assert_eq!(sets.len(), 64);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_huge_page_sized_arena_starts_on_a_huge_page() {
        const { assert!(16 * 64 * CELL_BYTES >= 2 << 20) };
        let (arena, slots) = ChunkArena::with_slots(16, 64, CELL_BYTES);
        let mut first = slots.into_iter().next().unwrap();
        assert!(arena.write_packet(&mut first, 0, 1, b"x"));
        let sealed = arena.seal(first);
        let start = arena.view(&sealed).packet(0).data.as_ptr() as usize;
        assert_eq!(start % (2 << 20), 0);
    }
}
