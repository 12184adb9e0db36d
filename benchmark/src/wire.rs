//! The benchmark's traffic source: a zero-cost "wire" behind the public
//! `wirecap::backend` traits.
//!
//! There is no generator thread and no ring. `poll_batch` lends frames
//! straight out of the seeded [`FrameTable`]:
//!
//! * a **saturating** queue always lends `max` frames — the NIC ring is
//!   never empty — so the capture thread's own backpressure (it never
//!   polls more than its free chunks can absorb) bounds the pipeline,
//!   loss is 0 by construction and the delivered rate is the engine's
//!   capacity. `ts_ns` carries the frame's sequence number;
//! * a **rate** queue lends only the frames of its [`Schedule`] that are
//!   already due. `ts_ns` carries the due time, from which the sequence
//!   number is recovered exactly.
//!
//! Deliberately *not* a credit/window closed loop: a 4096-frame window
//! lock-steps the capture thread against its own 1 ms park and reads
//! 2 Mpps where the engine does 26 (see the README's rejected designs).

use crate::frames::{FrameTable, Schedule};
use crate::plan::TABLE_FRAMES;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use telemetry::clock;
use wirecap::backend::{BackendError, BackendQueue, CaptureBackend, QueueAccounting, RxFrame};

/// How one queue of the wire decides what to lend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMode {
    /// Always `max` frames.
    Saturating,
    /// The frames of this schedule that are due.
    Rate(Schedule),
}

/// Sequence numbers per entry of the lent-time table (one entry per
/// block, so a saturating poll pays one store per 64 frames).
const LENT_BLOCK_SHIFT: u32 = 6;
/// Entries in the lent-time table. It must outlast a frame's stay in the
/// pipeline: 4096 blocks × 64 frames is 16× the largest pool used here.
const LENT_BLOCKS: usize = 4096;

/// One queue of the wire.
pub struct WireQueue {
    table: Arc<FrameTable>,
    mode: WireMode,
    stopped: Arc<AtomicBool>,
    /// Next sequence number to lend. Written by the single poller only.
    next_seq: AtomicU64,
    /// Polled but not yet recycled frames (the recycle ownership rule).
    outstanding: AtomicU64,
    /// When the first frame of each 64-frame block was lent: the origin
    /// of the latency measured on a saturating queue, where `ts_ns` is
    /// taken by the sequence number.
    lent_at: Box<[AtomicU64]>,
}

impl WireQueue {
    fn new(table: Arc<FrameTable>, mode: WireMode, stopped: Arc<AtomicBool>) -> Self {
        WireQueue {
            table,
            mode,
            stopped,
            next_seq: AtomicU64::new(0),
            outstanding: AtomicU64::new(0),
            lent_at: (0..LENT_BLOCKS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The queue's mode.
    pub fn mode(&self) -> WireMode {
        self.mode
    }

    /// Frames lent so far; the delivered sequence must be exactly
    /// `0..polled()`.
    pub fn polled(&self) -> u64 {
        self.next_seq.load(Ordering::Acquire)
    }

    /// When the block holding frame `seq` began to be lent
    /// (`clock::mono_ns` time). Valid while the frame is in the pipeline.
    #[inline]
    pub fn lent_at(&self, seq: u64) -> u64 {
        self.lent_at[(seq >> LENT_BLOCK_SHIFT) as usize & (LENT_BLOCKS - 1)].load(Ordering::Relaxed)
    }
}

impl BackendQueue for WireQueue {
    fn poll_batch(
        &self,
        max: usize,
        sink: &mut dyn FnMut(RxFrame<'_>),
    ) -> Result<usize, BackendError> {
        // End-of-stream after stop: nothing is ever lent again, so the
        // engine's forced-stop drain finds the "ring" empty.
        if max == 0 || self.stopped.load(Ordering::Acquire) {
            return Ok(0);
        }
        let first = self.next_seq.load(Ordering::Relaxed);
        let now = clock::mono_ns();
        let wire_len = self.table.frame_len() as u32;
        let n = match self.mode {
            WireMode::Saturating => {
                for seq in first..first + max as u64 {
                    sink(RxFrame {
                        ts_ns: seq,
                        wire_len,
                        data: self.table.frame(seq),
                    });
                }
                max as u64
            }
            WireMode::Rate(sched) => {
                let n = sched.due_by(now).saturating_sub(first).min(max as u64);
                for seq in first..first + n {
                    sink(RxFrame {
                        ts_ns: sched.due(seq),
                        wire_len,
                        data: self.table.frame(seq),
                    });
                }
                n
            }
        };
        // Stamp every block that starts inside [first, first + n).
        let block = 1u64 << LENT_BLOCK_SHIFT;
        let mut b = first.next_multiple_of(block);
        while b < first + n {
            self.lent_at[(b >> LENT_BLOCK_SHIFT) as usize & (LENT_BLOCKS - 1)]
                .store(now, Ordering::Relaxed);
            b += block;
        }
        self.outstanding.fetch_add(n, Ordering::Relaxed);
        // Release: a thread that reads `polled()` after the engine has
        // shut down sees every frame this call lent.
        self.next_seq.store(first + n, Ordering::Release);
        Ok(n as usize)
    }

    fn recycle(&self, frames: usize) -> Result<(), BackendError> {
        let frames = frames as u64;
        let held = self.outstanding.load(Ordering::Relaxed);
        if frames > held {
            return Err(BackendError::Corrupt("recycled more frames than polled"));
        }
        self.outstanding.store(held - frames, Ordering::Relaxed);
        Ok(())
    }

    fn depth(&self) -> usize {
        if self.stopped.load(Ordering::Acquire) {
            return 0;
        }
        match self.mode {
            WireMode::Saturating => TABLE_FRAMES,
            WireMode::Rate(sched) => sched
                .due_by(clock::mono_ns())
                .saturating_sub(self.next_seq.load(Ordering::Relaxed))
                as usize,
        }
    }

    fn accounting(&self) -> QueueAccounting {
        QueueAccounting {
            // Nothing waits in a ring, so nothing can be dropped there:
            // every frame the wire accounts for is one it lent.
            received: self.polled(),
            dropped: 0,
            ring_used: self.depth().min(TABLE_FRAMES) as u64,
            ring_capacity: TABLE_FRAMES as u64,
        }
    }
}

/// The wire: one [`WireQueue`] per mode given.
pub struct WireSource {
    queues: Vec<Arc<WireQueue>>,
    stopped: Arc<AtomicBool>,
}

impl WireSource {
    /// A source with one queue per entry of `modes`, all lending from
    /// `table`.
    pub fn new(table: Arc<FrameTable>, modes: &[WireMode]) -> Arc<Self> {
        let stopped = Arc::new(AtomicBool::new(false));
        Arc::new(WireSource {
            queues: modes
                .iter()
                .map(|&mode| {
                    Arc::new(WireQueue::new(
                        Arc::clone(&table),
                        mode,
                        Arc::clone(&stopped),
                    ))
                })
                .collect(),
            stopped,
        })
    }

    /// Concrete handle to queue `q`.
    pub fn wire_queue(&self, q: usize) -> Arc<WireQueue> {
        Arc::clone(&self.queues[q])
    }
}

impl CaptureBackend for WireSource {
    fn name(&self) -> &'static str {
        "wire"
    }

    fn queue_count(&self) -> usize {
        self.queues.len()
    }

    fn queue(&self, q: usize) -> Arc<dyn BackendQueue> {
        Arc::clone(&self.queues[q]) as Arc<dyn BackendQueue>
    }

    fn stop(&self) -> Result<(), BackendError> {
        self.stopped.store(true, Ordering::Release);
        Ok(())
    }

    fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }
}
