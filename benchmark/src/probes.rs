//! Isolated layer probes: timed loops over one module's public functions
//! on the benchmark's own frames. Single-threaded unless the name says
//! otherwise (`xthread`, `handoff`, `loop`: two threads). Every value is
//! the median of [`PROBE_REPS`] repetitions.
//!
//! These are the rungs of the ladder. They say what a layer costs alone
//! and warm; what it costs inside the pipeline, with another core pulling
//! on its cache lines, is what `ladder.explained_frac` leaves over.

use crate::frames::FrameTable;
use crate::hist::median;
use crate::plan::{Plan, PROBE_REPS, RING_DEPTH, TABLE_FRAMES};
use crate::wire::{WireMode, WireSource};
use netproto::Packet;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use telemetry::clock::mono_ns;
use wirecap::backend::{BackendQueue, CaptureBackend, LoopbackBackend};
use wirecap::config::CELL_BYTES;
use wirecap::{
    steal_deque, BatchRing, BuddyGroup, ChunkArena, Claim, ClaimQueue, LiveChunk, LiveWireCap,
    NicSimBackend, WireCapConfig,
};

/// Name → value of every probe metric.
pub type Probed = Vec<(&'static str, f64)>;

/// A value the size of the engine's chunk handle, so the queue probes
/// move what the engine's queues move. (`LiveChunk` itself cannot be
/// built outside the engine.)
#[derive(Clone, Copy)]
struct Handle([u64; std::mem::size_of::<LiveChunk>() / 8]);

impl Handle {
    fn new(i: u64) -> Self {
        Handle([i; std::mem::size_of::<LiveChunk>() / 8])
    }
}

/// Median over the repetitions of `elapsed ns / ops`, where `rep` does
/// the work and returns how many operations it performed.
fn ns_per_op(mut rep: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t = Instant::now();
            let ops = rep();
            t.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

const M: usize = 64;
const R: usize = 256;

fn wire_poll(table: &Arc<FrameTable>, iters: u64) -> f64 {
    let source = WireSource::new(Arc::clone(table), &[WireMode::Saturating]);
    let q: Arc<dyn BackendQueue> = source.queue(0);
    ns_per_op(|| {
        let mut acc = 0u64;
        for _ in 0..iters / 256 {
            let n = q
                .poll_batch(256, &mut |f| acc ^= f.ts_ns ^ f.data.as_ptr() as u64)
                .expect("the wire never errors");
            q.recycle(n).expect("recycling what was polled");
        }
        black_box(acc);
        iters / 256 * 256
    })
}

/// `ChunkArena::write_packet` over a pool-sized arena, chunk after chunk
/// (each chunk is sealed and released once full, as the engine does;
/// that is 1/64 of the calls).
pub fn arena_write(table: &FrameTable, iters: u64) -> f64 {
    let (arena, slots) = ChunkArena::with_slots(R, M, CELL_BYTES);
    let wire_len = table.frame_len() as u32;
    let mut slots = Some(slots);
    let mut seq = 0u64;
    ns_per_op(|| {
        let mut free = slots.take().expect("slots are put back below");
        let mut written = 0;
        while written < iters {
            free = free
                .into_iter()
                .map(|mut slot| {
                    for _ in 0..M {
                        arena.write_packet(&mut slot, seq, wire_len, table.frame(seq));
                        seq += 1;
                    }
                    arena.release(arena.seal(slot))
                })
                .collect();
            written += (R * M) as u64;
        }
        slots = Some(free);
        written
    })
}

fn arena_seal_release(iters: u64) -> f64 {
    let (arena, slots) = ChunkArena::with_slots(R, M, CELL_BYTES);
    let mut slots = Some(slots);
    ns_per_op(|| {
        let mut free = slots.take().expect("slots are put back below");
        let mut done = 0;
        while done < iters {
            free = free
                .into_iter()
                .map(|slot| arena.release(arena.seal_at(slot, mono_ns())))
                .collect();
            done += R as u64;
        }
        slots = Some(free);
        done
    })
}

fn arena_view_iter(table: &FrameTable, iters: u64) -> f64 {
    let (arena, slots) = ChunkArena::with_slots(R, M, CELL_BYTES);
    let wire_len = table.frame_len() as u32;
    let mut seq = 0u64;
    let sealed: Vec<_> = slots
        .into_iter()
        .map(|mut slot| {
            for _ in 0..M {
                arena.write_packet(&mut slot, seq, wire_len, table.frame(seq));
                seq += 1;
            }
            arena.seal(slot)
        })
        .collect();
    ns_per_op(|| {
        let mut acc = 0u64;
        let mut seen = 0;
        while seen < iters {
            for s in &sealed {
                for p in arena.view(s).iter() {
                    acc += u64::from(p.wire_len) + p.ts_ns;
                }
            }
            seen += (R * M) as u64;
        }
        black_box(acc);
        seen
    })
}

/// Chunks per flush of a saturated capture thread: one 256-packet poll
/// fills four 64-cell chunks.
const FLUSH: usize = 4;

fn spsc_hop(iters: u64) -> f64 {
    let ring = BatchRing::<Handle>::with_capacity(R);
    let mut staged: Vec<Handle> = Vec::with_capacity(FLUSH);
    let mut popped: Vec<Handle> = Vec::with_capacity(FLUSH);
    ns_per_op(|| {
        let mut moved = 0u64;
        while moved < iters {
            staged.extend((0..FLUSH as u64).map(Handle::new));
            ring.push_batch(&mut staged);
            moved += ring.pop_batch(&mut popped, wirecap::MAX_BATCH) as u64;
            black_box(popped.last().map(|h| h.0[0]));
            popped.clear();
        }
        moved
    })
}

fn spsc_hop_xthread(iters: u64) -> f64 {
    ns_per_op(|| {
        let ring = BatchRing::<Handle>::with_capacity(R);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut staged: Vec<Handle> = Vec::with_capacity(FLUSH);
                let mut sent = 0u64;
                while sent < iters {
                    if staged.is_empty() {
                        staged.extend((0..FLUSH as u64).map(Handle::new));
                    }
                    let n = ring.push_batch(&mut staged) as u64;
                    if n == 0 {
                        std::hint::spin_loop();
                    }
                    sent += n;
                }
            });
            let mut popped: Vec<Handle> = Vec::with_capacity(wirecap::MAX_BATCH);
            let mut got = 0u64;
            // The producer may overshoot `iters` by less than one flush.
            while got < iters {
                let n = ring.pop_batch(&mut popped, wirecap::MAX_BATCH) as u64;
                if n == 0 {
                    std::hint::spin_loop();
                }
                got += n;
                popped.clear();
            }
            got
        })
    })
}

/// Fills a loopback backend's ring through `inject`, drains it through
/// `poll_batch` + `recycle`, and times the two phases apart.
fn ring_fill_drain(
    backend: &Arc<dyn LoopbackBackend>,
    packets: &[Packet],
    iters: u64,
) -> (f64, f64) {
    let q = backend.queue(0);
    let mut inject_ns = Vec::new();
    let mut poll_ns = Vec::new();
    for _ in 0..PROBE_REPS {
        let (mut inj, mut pol, mut ops) = (0u128, 0u128, 0u64);
        while ops < iters {
            let t = Instant::now();
            for p in packets.iter().take(RING_DEPTH) {
                black_box(backend.inject(p.clone()));
            }
            inj += t.elapsed().as_nanos();
            let t = Instant::now();
            let mut acc = 0u64;
            loop {
                let n = q
                    .poll_batch(256, &mut |f| acc ^= f.ts_ns ^ u64::from(f.wire_len))
                    .expect("loopback poll");
                if n == 0 {
                    break;
                }
                q.recycle(n).expect("loopback recycle");
            }
            black_box(acc);
            pol += t.elapsed().as_nanos();
            ops += RING_DEPTH as u64;
        }
        inject_ns.push(inj as f64 / ops as f64);
        poll_ns.push(pol as f64 / ops as f64);
    }
    (median(&inject_ns), median(&poll_ns))
}

fn shmring_produce(packets: &[Packet], iters: u64) -> f64 {
    let nic = shmring::ShmRingNic::new(1, RING_DEPTH);
    let ring = nic.ring(0);
    let q = nic.queue(0);
    let mut samples = Vec::new();
    for _ in 0..PROBE_REPS {
        let (mut ns, mut ops) = (0u128, 0u64);
        while ops < iters {
            let t = Instant::now();
            for p in packets.iter().take(RING_DEPTH) {
                black_box(ring.produce(p.ts_ns, p.wire_len, &p.data).expect("produce"));
            }
            ns += t.elapsed().as_nanos();
            while let Ok(n @ 1..) = q.poll_batch(256, &mut |_| {}) {
                q.recycle(n).expect("recycle");
            }
            ops += RING_DEPTH as u64;
        }
        samples.push(ns as f64 / ops as f64);
    }
    median(&samples)
}

/// Producer thread `inject` ↔ this thread `poll_batch` + `recycle`, no
/// engine. The producer only injects into free ring space, so nothing
/// is refused. Mpackets/s.
fn handoff_mpps(backend: &Arc<dyn LoopbackBackend>, packets: &[Packet], total: u64) -> f64 {
    let q = backend.queue(0);
    let samples: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t = Instant::now();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut sent = 0u64;
                    while sent < total {
                        let room = RING_DEPTH.saturating_sub(q.depth()) as u64;
                        for _ in 0..room.min(total - sent) {
                            let p = packets[sent as usize & (TABLE_FRAMES - 1)].clone();
                            if backend.inject(p).is_some() {
                                sent += 1;
                            }
                        }
                        if room == 0 {
                            std::hint::spin_loop();
                        }
                    }
                });
                let mut got = 0u64;
                let mut acc = 0u64;
                while got < total {
                    let n = q
                        .poll_batch(256, &mut |f| acc ^= f.ts_ns)
                        .expect("loopback poll");
                    if n == 0 {
                        std::hint::spin_loop();
                        continue;
                    }
                    q.recycle(n).expect("loopback recycle");
                    got += n as u64;
                }
                black_box(acc);
            });
            total as f64 / t.elapsed().as_secs_f64() / 1e6
        })
        .collect();
    median(&samples)
}

/// The real-thread per-backend number: full engine, null consumer, the
/// driver thread injects through the loopback `inject` in bursts sized to
/// the free ring space (a refused `inject` is a counted NIC drop, so it
/// must never be the backpressure). Three rounds; returns
/// (median, min, max) Mpackets/s. Not gated: the injecting thread, not
/// the engine, is the bottleneck, and it swings 17–30 % between runs.
pub fn loop_mpps(
    backend: Arc<dyn LoopbackBackend>,
    packets: &[Packet],
    plan: &Plan,
) -> Result<(f64, f64, f64), String> {
    let capture: Arc<dyn CaptureBackend> = backend.clone();
    let engine = LiveWireCap::builder()
        .backend(capture)
        .config(WireCapConfig::basic(M, R, 0))
        .start();
    let observer = engine.observer();
    let mut consumer = engine.consumer(0);
    let q = backend.queue(0);
    let (mut sent, mut delivered, mut acc) = (0u64, 0u64, 0u64);
    let mut drain = |consumer: &mut wirecap::LiveConsumer, delivered: &mut u64| {
        while let Some(chunk) = consumer.try_chunk() {
            for p in consumer.view(&chunk).iter() {
                acc += u64::from(p.wire_len);
            }
            *delivered += chunk.len() as u64;
            consumer.recycle(chunk);
        }
    };
    let round = plan.loop_round();
    let mut rates = Vec::new();
    for r in 0..4 {
        let (t, from) = (Instant::now(), delivered);
        while t.elapsed() < round {
            let room = RING_DEPTH.saturating_sub(q.depth());
            for _ in 0..room {
                let p = packets[sent as usize & (TABLE_FRAMES - 1)].clone();
                sent += u64::from(backend.inject(p).is_some());
            }
            drain(&mut consumer, &mut delivered);
        }
        // Round 0 is the warm-up.
        if r > 0 {
            rates.push((delivered - from) as f64 / t.elapsed().as_secs_f64() / 1e6);
        }
    }
    backend.stop().map_err(|e| e.to_string())?;
    while let Some(chunk) = consumer.next_chunk() {
        delivered += chunk.len() as u64;
        consumer.recycle(chunk);
    }
    drop(consumer);
    engine.shutdown();
    black_box(acc);
    crate::check::check_ledger(&observer.snapshot(), delivered)?;
    if delivered != sent {
        return Err(format!(
            "{} loop: sent {sent}, delivered {delivered}",
            backend.name()
        ));
    }
    let (lo, hi) = rates
        .iter()
        .fold((f64::MAX, 0f64), |(lo, hi), &r| (lo.min(r), hi.max(r)));
    Ok((median(&rates), lo, hi))
}

fn buddy_place(iters: u64) -> f64 {
    let group = BuddyGroup::all(2);
    ns_per_op(|| {
        let mut acc = 0usize;
        for i in 0..iters as usize {
            let lens = [i % 128, (i * 7) % 128];
            acc += group.place(0, black_box(&lens), 128, 0.6);
        }
        black_box(acc);
        iters
    })
}

fn steal_deque_push_pop(iters: u64) -> f64 {
    let (mut owner, _stealer) = steal_deque::<Handle>(R);
    ns_per_op(|| {
        for i in 0..iters {
            let _ = owner.push(Handle::new(i));
            black_box(owner.pop().map(|h| h.0[0]));
        }
        iters
    })
}

fn claim_publish_claim(iters: u64) -> f64 {
    let queue = ClaimQueue::<Handle>::new(R, 1);
    ns_per_op(|| {
        for i in 0..iters {
            let _ = queue.push(Handle::new(i));
            if let Claim::Claimed(h) = queue.try_claim() {
                black_box(h.0[0]);
            }
        }
        iters
    })
}

/// `LiveWireCap::snapshot` + JSON rendering of an idle two-queue engine,
/// in microseconds.
fn telemetry_snapshot_us(table: &Arc<FrameTable>, iters: u64) -> f64 {
    let source = WireSource::new(
        Arc::clone(table),
        &[WireMode::Saturating, WireMode::Saturating],
    );
    source.stop().expect("the wire source's stop cannot fail");
    let engine = LiveWireCap::builder()
        .backend(source)
        .config(WireCapConfig::basic(M, 32, 0))
        .start();
    let ns = ns_per_op(|| {
        for _ in 0..iters {
            black_box(engine.snapshot().to_json().len());
        }
        iters
    });
    engine.shutdown();
    ns / 1e3
}

fn telemetry_counter_add(iters: u64) -> f64 {
    let counter = telemetry::Counter::new();
    ns_per_op(|| {
        for _ in 0..iters {
            black_box(&counter).add_local(1);
        }
        iters
    })
}

fn telemetry_hist_record(iters: u64) -> f64 {
    let hist = telemetry::Log2Histogram::new();
    ns_per_op(|| {
        for i in 0..iters {
            black_box(&hist).record(i & 0xFFFF);
        }
        iters
    })
}

fn capdisk_encode(table: &FrameTable, iters: u64) -> f64 {
    let tmpl = capdisk::EpbTemplate::new(65_535);
    let wire_len = table.frame_len() as u32;
    let mut buf = Vec::with_capacity(M * tmpl.encoded_len(table.frame_len()));
    ns_per_op(|| {
        let mut seq = 0u64;
        while seq < iters {
            buf.clear();
            for _ in 0..M {
                tmpl.append(&mut buf, seq, wire_len, table.frame(seq));
                seq += 1;
            }
            black_box(buf.len());
        }
        seq
    })
}

/// `push_packet` × 64 + `commit_batch` into `dir`: (ns per packet, bytes
/// per write). Every repetition rewrites the same file.
fn capdisk_write(table: &FrameTable, dir: &Path, iters: u64) -> Result<(f64, f64), String> {
    let wire_len = table.frame_len() as u32;
    let mut bytes_per_write = 0.0;
    let mut err = None;
    let ns = ns_per_op(|| {
        let mut body = || -> std::io::Result<u64> {
            let mut w = capdisk::RotatingWriter::new(
                dir,
                "probe",
                capdisk::FileFormat::Pcapng,
                65_535,
                capdisk::RotationPolicy::default(),
            )?;
            let (mut seq, mut writes) = (0u64, 0u64);
            while seq < iters {
                for _ in 0..M {
                    w.push_packet(seq, wire_len, table.frame(seq));
                    seq += 1;
                }
                w.commit_batch()?;
                writes += 1;
            }
            w.finish()?;
            bytes_per_write = w.written_bytes() as f64 / writes as f64;
            Ok(seq)
        };
        body().unwrap_or_else(|e| {
            err = Some(e.to_string());
            1
        })
    });
    let _ = std::fs::remove_dir_all(dir);
    match err {
        Some(e) => Err(format!("capdisk probe in {}: {e}", dir.display())),
        None => Ok((ns, bytes_per_write)),
    }
}

fn netproto_parse(table: &FrameTable, iters: u64) -> f64 {
    ns_per_op(|| {
        let mut flows = 0u64;
        for seq in 0..iters {
            flows += u64::from(
                netproto::parse_frame(black_box(table.frame(seq))).is_ok_and(|p| p.flow.is_some()),
            );
        }
        black_box(flows);
        iters
    })
}

fn bpf_filter(table: &FrameTable, iters: u64) -> Result<f64, String> {
    let filter = bpf::Filter::compile("udp and dst port 443").map_err(|e| e.to_string())?;
    Ok(ns_per_op(|| {
        let mut hits = 0u64;
        for seq in 0..iters {
            hits += u64::from(filter.matches(black_box(table.frame(seq))));
        }
        black_box(hits);
        iters
    }))
}

fn flowstat_record(table: &FrameTable, iters: u64) -> f64 {
    let mut sink = flowstat::FlowSink::new(flowstat::FlowSinkConfig {
        table_capacity: 1 << 16,
        topk_capacity: 1024,
    });
    ns_per_op(|| {
        let mut seq = 0u64;
        while seq < iters {
            sink.record_frames((seq..seq + M as u64).map(|s| table.frame(s)));
            seq += M as u64;
        }
        black_box(sink.stats());
        seq
    })
}

/// Runs every probe. `table` is the workload's own frame table (it feeds
/// the wire and application-side probes); the two arena-write rungs and
/// the ring probes build the frame sizes their names state. `scratch` is
/// a directory the disk probe may create, fill and remove.
pub fn run_all(
    table: &Arc<FrameTable>,
    seed: u64,
    plan: &Plan,
    scratch: &Path,
) -> Result<Probed, String> {
    let it = |base: u64| plan.probe_iters(base);
    let t64 = FrameTable::new(seed, 64);
    let t1518 = FrameTable::new(seed, 1518);
    let t128 = FrameTable::new(seed, 128);
    let packets = t128.packets();
    // A fresh backend per probe: each one's accounting starts at 0.
    let fresh_nic = || -> Arc<dyn LoopbackBackend> {
        NicSimBackend::new(nicsim::livenic::LiveNic::new(1, RING_DEPTH))
    };
    let fresh_shm = || -> Arc<dyn LoopbackBackend> { shmring::ShmRingNic::new(1, RING_DEPTH) };
    let (nic_inject, nic_poll) = ring_fill_drain(&fresh_nic(), &packets, it(400_000));
    let (shm_inject, shm_poll) = ring_fill_drain(&fresh_shm(), &packets, it(400_000));
    let (disk_ns, disk_bytes) = capdisk_write(&t128, scratch, it(32_000))?;
    let nic_loop = loop_mpps(fresh_nic(), &packets, plan)?;
    let shm_loop = loop_mpps(fresh_shm(), &packets, plan)?;
    eprintln!(
        "wcbench: nicsim.loop_mpps min {:.3} max {:.3}; shmring.loop_mpps min {:.3} max {:.3}",
        nic_loop.1, nic_loop.2, shm_loop.1, shm_loop.2
    );
    Ok(vec![
        ("wire.poll_ns_per_pkt", wire_poll(table, it(8_000_000))),
        (
            "arena.write_ns_per_pkt_64",
            arena_write(&t64, it(4_000_000)),
        ),
        (
            "arena.write_ns_per_pkt_1518",
            arena_write(&t1518, it(1_000_000)),
        ),
        (
            "arena.seal_release_ns_per_chunk",
            arena_seal_release(it(2_000_000)),
        ),
        (
            "arena.view_iter_ns_per_pkt",
            arena_view_iter(&t64, it(8_000_000)),
        ),
        ("spsc.hop_ns_per_chunk", spsc_hop(it(2_000_000))),
        (
            "spsc.hop_xthread_ns_per_chunk",
            spsc_hop_xthread(it(2_000_000)),
        ),
        ("nicsim.inject_ns_per_pkt", nic_inject),
        ("nicsim.poll_ns_per_pkt", nic_poll),
        (
            "nicsim.handoff_mpps",
            handoff_mpps(&fresh_nic(), &packets, it(1_000_000)),
        ),
        (
            "shmring.handoff_mpps",
            handoff_mpps(&fresh_shm(), &packets, it(1_000_000)),
        ),
        ("nicsim.loop_mpps", nic_loop.0),
        ("shmring.loop_mpps", shm_loop.0),
        ("shmring.inject_ns_per_pkt", shm_inject),
        (
            "shmring.produce_ns_per_pkt",
            shmring_produce(&packets, it(400_000)),
        ),
        ("shmring.poll_ns_per_pkt", shm_poll),
        ("buddy.place_ns_per_call", buddy_place(it(8_000_000))),
        (
            "steal.deque_push_pop_ns_per_chunk",
            steal_deque_push_pop(it(2_000_000)),
        ),
        (
            "claim.publish_claim_ns_per_chunk",
            claim_publish_claim(it(2_000_000)),
        ),
        (
            "telemetry.snapshot_us",
            telemetry_snapshot_us(table, it(2_000)),
        ),
        (
            "telemetry.counter_add_ns",
            telemetry_counter_add(it(16_000_000)),
        ),
        (
            "telemetry.hist_record_ns",
            telemetry_hist_record(it(8_000_000)),
        ),
        (
            "capdisk.encode_ns_per_pkt",
            capdisk_encode(&t128, it(2_000_000)),
        ),
        ("capdisk.write_ns_per_pkt", disk_ns),
        ("capdisk.bytes_per_write", disk_bytes),
        (
            "netproto.parse_ns_per_pkt",
            netproto_parse(table, it(2_000_000)),
        ),
        ("bpf.filter_ns_per_pkt", bpf_filter(table, it(2_000_000))?),
        (
            "flowstat.record_ns_per_pkt",
            flowstat_record(table, it(2_000_000)),
        ),
    ])
}
