//! The shared-memory segment behind a descriptor ring: one mapped
//! region holding the ring header, the descriptor array, and the
//! DMA-slice-shaped buffer slots, laid out exactly as a user-space
//! driver would map them (ixy-style).
//!
//! All `unsafe` in the crate lives here, behind typed accessors. On
//! Linux the region comes from `mmap(MAP_SHARED | MAP_ANONYMOUS)` — the
//! same call a real driver uses for its DMA-able hugepage pool, and
//! shareable with forked producers; elsewhere it falls back to a
//! page-aligned heap allocation with identical semantics.

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU32, AtomicU64};

use crate::SLOT_BYTES;

/// Descriptor-done: the producer's write-back bit. Set (release) after
/// the payload and descriptor fields are written; cleared (release) by
/// the consumer's recycle before the tail advances. The consumer polls
/// this bit instead of re-reading the head — the ixy observation that
/// touching RDH costs a device register read while DD is just memory.
pub(crate) const DD: u32 = 1;

/// The ring's control block, at offset 0 of the segment. Head and tail
/// are free-running u64 counts (never wrapped), so `head - tail` is the
/// occupancy and indexing is `count % n`.
#[repr(C)]
pub(crate) struct RingHeader {
    /// Frames the producer has published (RDH analog).
    pub head: AtomicU64,
    /// Frames the consumer has recycled back to the producer (RDT
    /// analog): slots below this are reusable.
    pub tail: AtomicU64,
    /// Frames the consumer has polled (lent to the engine); always
    /// `tail <= next_read <= head`.
    pub next_read: AtomicU64,
    /// Frames ever accepted into the ring.
    pub received: AtomicU64,
    /// Frames dropped because the ring was full — "no receive
    /// descriptor in the ready state".
    pub dropped: AtomicU64,
}

/// One advanced receive descriptor (write-back layout): timestamp,
/// lengths, and the status word carrying [`DD`].
#[repr(C)]
pub(crate) struct RxDescriptor {
    /// Arrival timestamp, nanoseconds.
    pub ts_ns: AtomicU64,
    /// Original length on the wire.
    pub wire_len: AtomicU32,
    /// Valid bytes in the buffer slot (≤ [`SLOT_BYTES`]).
    pub buf_len: AtomicU32,
    /// Status word; bit 0 is [`DD`].
    pub status: AtomicU32,
    _pad: AtomicU32,
}

/// Header region size; descriptors start here (their own cache lines).
const HDR_BYTES: usize = 128;
/// Bytes per descriptor (kept power-of-two for cheap indexing).
const DESC_BYTES: usize = 32;

/// The mapped segment plus its geometry: typed views over raw memory.
pub(crate) struct RingMem {
    base: *mut u8,
    len: usize,
    n: usize,
}

// SAFETY: the raw base pointer refers to a region owned by this value
// for its whole lifetime; all mutation goes through atomics or through
// the buffer-slot protocol (a slot is written only while the producer
// owns it and read only between DD-publish and recycle), which the
// ShmQueue protocol enforces.
unsafe impl Send for RingMem {}
// SAFETY: as for Send: shared access is atomics plus the slot protocol.
unsafe impl Sync for RingMem {}

impl RingMem {
    /// Maps a zeroed segment for an `n`-descriptor ring.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n >= 1, "ring needs at least one descriptor");
        let len = HDR_BYTES + n * DESC_BYTES + n * SLOT_BYTES;
        let base = alloc::map_zeroed(len);
        // A zeroed region is a valid initial state: head = tail =
        // next_read = 0, every descriptor's status has DD clear.
        RingMem { base, len, n }
    }

    pub(crate) fn header(&self) -> &RingHeader {
        // SAFETY: offset 0 is in-bounds, page-aligned, zero-initialized;
        // RingHeader is all atomics (valid for any bit pattern).
        unsafe { &*(self.base as *const RingHeader) }
    }

    pub(crate) fn desc(&self, i: usize) -> &RxDescriptor {
        debug_assert!(i < self.n);
        // SAFETY: in-bounds (i < n), 32-byte aligned from an aligned
        // base, zero-initialized, all-atomic field types.
        unsafe { &*(self.base.add(HDR_BYTES + i * DESC_BYTES) as *const RxDescriptor) }
    }

    fn buf_ptr(&self, i: usize) -> *mut u8 {
        debug_assert!(i < self.n);
        // SAFETY: in-bounds: buffers live after the descriptor array.
        unsafe {
            self.base
                .add(HDR_BYTES + self.n * DESC_BYTES + i * SLOT_BYTES)
        }
    }

    /// Copies `data` into buffer slot `i`. Caller must own the slot
    /// (producer side, between recycle and DD-publish).
    pub(crate) fn write_buf(&self, i: usize, data: &[u8]) {
        assert!(data.len() <= SLOT_BYTES);
        // SAFETY: destination is in-bounds and exclusively owned by the
        // producer for this slot under the ring protocol; source and
        // destination cannot overlap (segment vs caller memory).
        unsafe { std::ptr::copy_nonoverlapping(data.as_ptr(), self.buf_ptr(i), data.len()) };
    }

    /// Borrows `len` bytes of buffer slot `i`. Caller must hold the
    /// slot readable (consumer side, between DD observation and
    /// recycle); the protocol guarantees no writer touches it while the
    /// borrow is lent to the poll sink.
    pub(crate) fn read_buf(&self, i: usize, len: usize) -> &[u8] {
        assert!(len <= SLOT_BYTES);
        // SAFETY: in-bounds, initialized by the producer's write (DD
        // was observed with acquire ordering), not mutated until the
        // consumer recycles the slot.
        unsafe { std::slice::from_raw_parts(self.buf_ptr(i), len) }
    }
}

impl Drop for RingMem {
    fn drop(&mut self) {
        alloc::unmap(self.base, self.len);
    }
}

impl std::fmt::Debug for RingMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingMem")
            .field("descriptors", &self.n)
            .field("bytes", &self.len)
            .finish()
    }
}

#[cfg(target_os = "linux")]
mod alloc {
    // Declared directly so the workspace needs no `libc` crate: std
    // already links the platform C library, which exports these.
    extern "C" {
        fn mmap(
            addr: *mut u8,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut u8;
        fn munmap(addr: *mut u8, length: usize) -> i32;
    }

    const PROT_READ: i32 = 0x1;
    const PROT_WRITE: i32 = 0x2;
    const MAP_SHARED: i32 = 0x01;
    const MAP_ANONYMOUS: i32 = 0x20;
    const MAP_FAILED: isize = -1;

    pub(super) fn map_zeroed(len: usize) -> *mut u8 {
        // SAFETY: a fresh anonymous shared mapping; the kernel zeroes
        // it and chooses the (page-aligned) address.
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(
            !p.is_null() && p as isize != MAP_FAILED,
            "mmap of {len}-byte ring segment failed"
        );
        p
    }

    pub(super) fn unmap(base: *mut u8, len: usize) {
        // SAFETY: base/len are exactly what map_zeroed returned.
        unsafe { munmap(base, len) };
    }
}

#[cfg(not(target_os = "linux"))]
mod alloc {
    use std::alloc::Layout;

    fn layout(len: usize) -> Layout {
        Layout::from_size_align(len, 4096).expect("ring segment layout")
    }

    pub(super) fn map_zeroed(len: usize) -> *mut u8 {
        // SAFETY: non-zero size, valid alignment.
        let p = unsafe { std::alloc::alloc_zeroed(layout(len)) };
        assert!(!p.is_null(), "allocating {len}-byte ring segment failed");
        p
    }

    pub(super) fn unmap(base: *mut u8, len: usize) {
        // SAFETY: base/len/alignment are exactly what map_zeroed used.
        unsafe { std::alloc::dealloc(base, layout(len)) };
    }
}
