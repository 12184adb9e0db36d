//! The disk sink: per-queue drainer + writer thread pairs with a
//! bounded handoff and an explicit, telemetry-accounted drop policy.
//!
//! # Thread model
//!
//! Each queue gets **two** threads so the engine's single-consumer
//! invariants survive intact:
//!
//! * the **drainer** owns the queue's [`wirecap::live::LiveConsumer`] — it is the one
//!   SPSC consumer and the one recycler, so delivery tallies and the
//!   capture-to-delivery latency histogram keep their single-writer
//!   semantics. It moves chunks into a bounded handoff ring and
//!   recycles them when the writer hands them back;
//! * the **writer** pops chunks from the handoff, reads their packets
//!   zero-copy through a [`ChunkLens`] view, encodes them into the
//!   [`RotatingWriter`]'s batch buffer, and commits one `write` syscall
//!   per chunk batch.
//!
//! # Graceful degradation
//!
//! The handoff ring is bounded. When the writer falls behind — slow
//! disk, rotation stall, or a deliberately throttled sink — the ring
//! fills, and the drainer **drops the chunk for the disk leg only**:
//! the packets count into `disk_drop_packets`, the chunk recycles
//! immediately, and capture continues at full speed. The capture
//! thread is never blocked and never even knows the sink exists. Every
//! shed packet shows in the next `/metrics` scrape, so degradation is
//! loud in telemetry while invisible to capture.
//!
//! Conservation is exact by construction: every chunk the drainer
//! receives is either encoded (counted into `disk_written_packets`) or
//! dropped (counted into `disk_drop_packets`), including when the
//! writer dies on an I/O error mid-run — the writer then switches to a
//! drain-and-drop loop so `delivered == written + dropped` still holds
//! at exit.

use crate::format::FileFormat;
use crate::writer::{RotatingWriter, RotationPolicy};
use crossbeam::queue::ArrayQueue;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use wirecap::live::{ChunkLens, LiveChunk, LiveWireCap};

/// Chunks the writer drains from the handoff per commit batch.
const WRITE_BATCH_CHUNKS: usize = 8;

/// How a capture application consumes chunks: the choice the
/// `capture_and_save` harness exposes.
#[derive(Debug)]
pub enum SinkMode {
    /// Count packets and recycle — the pure capture benchmark.
    Count,
    /// Stream packets to rotating capture files via a [`DiskSink`].
    Disk(DiskSinkConfig),
}

/// Configuration for a [`DiskSink`].
#[derive(Debug, Clone)]
pub struct DiskSinkConfig {
    /// Output directory (created if missing).
    pub dir: PathBuf,
    /// Filename prefix; queue and sequence numbers are appended
    /// (`<prefix>-q<N>-<SEQ>.<ext>`).
    pub prefix: String,
    /// On-disk format.
    pub format: FileFormat,
    /// Per-packet snap length.
    pub snaplen: u32,
    /// File rotation policy.
    pub rotation: RotationPolicy,
    /// Capacity of the drainer→writer handoff ring, in chunks. When
    /// full, further chunks are dropped (disk leg only) and counted.
    pub handoff_chunks: usize,
    /// Artificial write-bandwidth ceiling, bytes/s. The writer sleeps
    /// after each commit to stay under it — the deterministic way to
    /// provoke the degradation path in tests and the loss-rate
    /// experiment. `None` writes at full speed.
    pub max_write_bps: Option<u64>,
}

impl DiskSinkConfig {
    /// Defaults: pcapng, 64 KiB snaplen, 1 GiB size rotation, a
    /// 64-chunk handoff, no throttle.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskSinkConfig {
            dir: dir.into(),
            prefix: "capture".to_string(),
            format: FileFormat::Pcapng,
            snaplen: 65_535,
            rotation: RotationPolicy::default(),
            handoff_chunks: 64,
            max_write_bps: None,
        }
    }
}

/// Per-queue outcome of a finished sink.
#[derive(Debug)]
pub struct QueueDiskReport {
    /// Queue index.
    pub queue: usize,
    /// Packets the drainer received from the engine.
    pub delivered_packets: u64,
    /// Packets encoded and handed to the OS.
    pub written_packets: u64,
    /// Packets dropped because the writer fell behind (or failed).
    pub dropped_packets: u64,
    /// File-format bytes written.
    pub written_bytes: u64,
    /// Capture files produced, in rotation order.
    pub files: Vec<PathBuf>,
    /// The writer's I/O error, if it failed mid-run.
    pub io_error: Option<String>,
}

/// Aggregate outcome of a finished sink.
#[derive(Debug)]
pub struct DiskReport {
    /// One report per queue.
    pub queues: Vec<QueueDiskReport>,
}

impl DiskReport {
    /// Total packets the drainers received.
    pub fn delivered_packets(&self) -> u64 {
        self.queues.iter().map(|q| q.delivered_packets).sum()
    }

    /// Total packets written.
    pub fn written_packets(&self) -> u64 {
        self.queues.iter().map(|q| q.written_packets).sum()
    }

    /// Total packets dropped by the disk leg.
    pub fn dropped_packets(&self) -> u64 {
        self.queues.iter().map(|q| q.dropped_packets).sum()
    }

    /// Total file-format bytes written.
    pub fn written_bytes(&self) -> u64 {
        self.queues.iter().map(|q| q.written_bytes).sum()
    }

    /// All capture files, queue-major.
    pub fn files(&self) -> Vec<PathBuf> {
        self.queues.iter().flat_map(|q| q.files.clone()).collect()
    }

    /// True when every delivered packet is accounted for:
    /// `delivered == written + dropped`, per queue.
    pub fn is_conserved(&self) -> bool {
        self.queues
            .iter()
            .all(|q| q.delivered_packets == q.written_packets + q.dropped_packets)
    }
}

struct DrainOutcome {
    delivered_packets: u64,
    dropped_packets: u64,
}

struct WriteOutcome {
    written_packets: u64,
    dropped_packets: u64,
    written_bytes: u64,
    files: Vec<PathBuf>,
    io_error: Option<String>,
}

/// A running capture-to-disk sink over every queue of a live engine.
///
/// Attach once after `LiveWireCap::builder().….start()`; the sink's
/// drainers become
/// the queues' consumers. Call [`DiskSink::wait`] after the NIC stops
/// (the capture streams must end for the drainers to exit) and before
/// `engine.shutdown()`.
#[derive(Debug)]
pub struct DiskSink {
    drainers: Vec<JoinHandle<DrainOutcome>>,
    writers: Vec<JoinHandle<WriteOutcome>>,
}

impl DiskSink {
    /// Spawns a drainer + writer pair for every queue of `engine`.
    ///
    /// # Errors
    /// Fails if the output directory cannot be created.
    pub fn attach(engine: &LiveWireCap, cfg: &DiskSinkConfig) -> io::Result<DiskSink> {
        std::fs::create_dir_all(&cfg.dir)?;
        let lens = engine.chunk_lens();
        let queues = lens.queues();
        // The return ring must absorb every chunk that can exist at
        // once. Offloading can route any queue's chunks to this
        // consumer, so the bound is all slots in the engine, not R.
        let return_capacity = queues * engine.config().r + 1;
        let mut drainers = Vec::with_capacity(queues);
        let mut writers = Vec::with_capacity(queues);
        for q in 0..queues {
            let handoff = Arc::new(ArrayQueue::<LiveChunk>::new(cfg.handoff_chunks.max(1)));
            let returns = Arc::new(ArrayQueue::<LiveChunk>::new(return_capacity));
            let done = Arc::new(AtomicBool::new(false));
            drainers.push(spawn_drainer(
                q,
                engine.consumer(q),
                lens.clone(),
                Arc::clone(&handoff),
                Arc::clone(&returns),
                Arc::clone(&done),
            ));
            writers.push(spawn_writer(q, cfg, lens.clone(), handoff, returns, done)?);
        }
        Ok(DiskSink { drainers, writers })
    }

    /// Joins every thread and reports. Returns only after the capture
    /// streams have ended (NIC stopped and rings drained).
    pub fn wait(self) -> DiskReport {
        let queues = self
            .drainers
            .into_iter()
            .zip(self.writers)
            .enumerate()
            .map(|(q, (d, w))| {
                let drain = d.join().expect("capdisk drainer panicked");
                let write = w.join().expect("capdisk writer panicked");
                QueueDiskReport {
                    queue: q,
                    delivered_packets: drain.delivered_packets,
                    written_packets: write.written_packets,
                    dropped_packets: drain.dropped_packets + write.dropped_packets,
                    written_bytes: write.written_bytes,
                    files: write.files,
                    io_error: write.io_error,
                }
            })
            .collect();
        DiskReport { queues }
    }
}

fn spawn_drainer(
    q: usize,
    mut consumer: wirecap::live::LiveConsumer,
    lens: ChunkLens,
    handoff: Arc<ArrayQueue<LiveChunk>>,
    returns: Arc<ArrayQueue<LiveChunk>>,
    done: Arc<AtomicBool>,
) -> JoinHandle<DrainOutcome> {
    std::thread::Builder::new()
        .name(format!("capdisk-drain-{q}"))
        .spawn(move || {
            use pcap::PacketSource as _;
            let mut delivered = 0u64;
            let mut dropped = 0u64;
            let mut handed = 0u64;
            let mut recycled = 0u64;
            loop {
                // Recycle whatever the writer has finished with first —
                // and keep doing it while idle, not just when a new
                // chunk arrives, or the returned slots sit here while
                // the capture pool starves.
                while let Some(back) = returns.pop() {
                    consumer.recycle(back);
                    recycled += 1;
                }
                let Some(mut chunk) = consumer.try_chunk() else {
                    if consumer.is_done() {
                        break;
                    }
                    std::thread::yield_now();
                    continue;
                };
                delivered += chunk.len() as u64;
                // Span-sampled chunk: the push below transfers ownership
                // to the writer — the disk stage opens here and closes
                // at the write commit (see `spawn_writer`).
                if chunk.is_sampled() {
                    chunk.stamp_disk_handoff(telemetry::clock::mono_ns());
                }
                match handoff.push(chunk) {
                    Ok(()) => handed += 1,
                    Err(chunk) => {
                        // Writer is behind and the bounded handoff is
                        // full: shed this chunk from the disk leg,
                        // account it, recycle immediately. Capture
                        // never blocks on the disk.
                        let n = chunk.len() as u64;
                        dropped += n;
                        lens.disk(q).disk_drop_packets.add(n);
                        consumer.recycle(chunk);
                    }
                }
            }
            // Stream ended: let the writer finish, then recycle the
            // stragglers it hands back.
            done.store(true, Ordering::Release);
            while recycled < handed {
                match returns.pop() {
                    Some(back) => {
                        consumer.recycle(back);
                        recycled += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
            DrainOutcome {
                delivered_packets: delivered,
                dropped_packets: dropped,
            }
        })
        .expect("spawning capdisk drainer")
}

fn spawn_writer(
    q: usize,
    cfg: &DiskSinkConfig,
    lens: ChunkLens,
    handoff: Arc<ArrayQueue<LiveChunk>>,
    returns: Arc<ArrayQueue<LiveChunk>>,
    done: Arc<AtomicBool>,
) -> io::Result<JoinHandle<WriteOutcome>> {
    let mut writer = RotatingWriter::new(
        &cfg.dir,
        &format!("{}-q{q}", cfg.prefix),
        cfg.format,
        cfg.snaplen,
        cfg.rotation,
    )?;
    let max_write_bps = cfg.max_write_bps;
    Ok(std::thread::Builder::new()
        .name(format!("capdisk-write-{q}"))
        .spawn(move || {
            let disk = lens.disk(q);
            let mut files_accounted = 0usize;
            let mut dropped = 0u64;
            let mut io_error: Option<io::Error> = None;
            // Chunks popped this round, held until after the commit so
            // sampled ones can be stamped with the write instant (the
            // batch is bounded by WRITE_BATCH_CHUNKS, so holding them
            // delays recycling by at most one commit).
            let mut batch: Vec<LiveChunk> = Vec::with_capacity(WRITE_BATCH_CHUNKS);
            loop {
                let mut batch_packets = 0u64;
                while batch.len() < WRITE_BATCH_CHUNKS {
                    let Some(chunk) = handoff.pop() else { break };
                    if io_error.is_none() {
                        // Zero-copy encode: the view borrows the chunk,
                        // which stays with this thread until pushed
                        // back for recycling.
                        for p in lens.view(&chunk).iter() {
                            writer.push_packet(p.ts_ns, p.wire_len, p.data);
                            batch_packets += 1;
                        }
                    } else {
                        // Writer failed: keep draining so the capture
                        // side stays healthy, but account the packets
                        // as disk drops.
                        let n = chunk.len() as u64;
                        dropped += n;
                        disk.disk_drop_packets.add(n);
                    }
                    batch.push(chunk);
                }
                let popped = batch.len();
                if batch_packets > 0 {
                    match writer.commit_batch() {
                        Ok(bytes) => {
                            disk.disk_written_packets.add(batch_packets);
                            disk.disk_written_bytes.add(bytes);
                            let opened = writer.files().len();
                            if opened > files_accounted {
                                disk.disk_files.add((opened - files_accounted) as u64);
                                files_accounted = opened;
                            }
                            throttle(bytes, max_write_bps);
                        }
                        Err(e) => {
                            // The staged packets never reached the OS:
                            // reclassify them as drops and degrade to
                            // drain-only mode.
                            dropped += batch_packets;
                            disk.disk_drop_packets.add(batch_packets);
                            io_error = Some(e);
                        }
                    }
                }
                // Close the disk stage on sampled chunks (one lazy
                // clock read per batch; this thread is the disk
                // shard's single histogram writer) and hand everything
                // back for recycling.
                let mut commit_ns = 0u64;
                for mut chunk in batch.drain(..) {
                    if chunk.is_sampled() {
                        if commit_ns == 0 {
                            commit_ns = telemetry::clock::mono_ns();
                        }
                        if let Some(stage_ns) = chunk.stamp_disk_write(commit_ns) {
                            disk.stage_disk_ns.record(stage_ns);
                        }
                    }
                    let mut back = chunk;
                    // The return ring is sized for every slot in the
                    // engine, so this succeeds; spin defensively.
                    while let Err(c) = returns.push(back) {
                        back = c;
                        std::thread::yield_now();
                    }
                }
                if popped == 0 && batch_packets == 0 {
                    if done.load(Ordering::Acquire) && handoff.is_empty() {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
            if io_error.is_none() {
                if let Err(e) = writer.finish() {
                    io_error = Some(e);
                }
                let opened = writer.files().len();
                if opened > files_accounted {
                    disk.disk_files.add((opened - files_accounted) as u64);
                }
            }
            WriteOutcome {
                written_packets: writer.written_packets(),
                dropped_packets: dropped,
                written_bytes: writer.written_bytes(),
                files: writer.files().to_vec(),
                io_error: io_error.map(|e| e.to_string()),
            }
        })
        .expect("spawning capdisk writer"))
}

/// Sleeps long enough that `bytes` at `max_write_bps` has "taken" the
/// right wall time — the deterministic slow-disk emulation.
fn throttle(bytes: u64, max_write_bps: Option<u64>) {
    if let Some(bps) = max_write_bps {
        if bps > 0 && bytes > 0 {
            let nanos = bytes.saturating_mul(1_000_000_000) / bps;
            std::thread::sleep(Duration::from_nanos(nanos));
        }
    }
}
