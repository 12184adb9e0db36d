//! Work-stealing consumer pool vs. per-queue consumers (DESIGN.md §4.11).
//!
//! The paper's load-imbalance problem reappears on the delivery side:
//! RSS concentrates a heavy flow onto one receive queue, and with one
//! consumer thread bound to each queue, every other thread idles while
//! the hot queue's consumer serializes its per-chunk work. This example
//! runs the same skewed workload twice —
//!
//! 1. **per-queue**: one `LiveConsumer` thread per queue (the classic
//!    `multi_pkt_handler` topology);
//! 2. **pooled**: a [`wirecap::ConsumerPool`] over *all* queues, whose
//!    workers steal sealed chunks from the hot queue's backlog and park
//!    on a wakeup gate when there is nothing to do —
//!
//! with a blocking per-chunk stage (standing in for a batch `write(2)`
//! or a downstream RPC) so the serialization is visible in wall-clock
//! time. It also shows the adaptive-polling knobs on
//! [`wirecap::WireCapConfig::builder`]: the yield → park ladder
//! and optional core pinning.
//!
//! The pooled run additionally enables 1-in-16 span tracing
//! (`span_sample_n`), and at the end exports the sampled chunk
//! lifecycles plus the worker time-state profile as Chrome trace-event
//! JSON — load `target/consumer_pool-trace.json` into
//! <https://ui.perfetto.dev> or `chrome://tracing` to see stolen
//! chunks land on foreign workers.
//!
//! Run with:
//! ```sh
//! cargo run --release --example consumer_pool
//! ```

use netproto::{FlowKey, PacketBuilder};
use nicsim::livenic::LiveNic;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wirecap::buddy::BuddyGroups;
use wirecap::live::LiveWireCap;
use wirecap::NicSimBackend;
use wirecap::{BuddyGroup, WireCapConfig};

const QUEUES: usize = 4;
const WORKERS: usize = 4;
const PACKETS: u64 = 48_000;
/// Blocking stage per consumed chunk: one consumer serializes these,
/// pool workers overlap them.
const CHUNK_IO: Duration = Duration::from_micros(50);

fn config() -> WireCapConfig {
    WireCapConfig::builder()
        .cells(64)
        .chunks(32)
        .capture_timeout_ns(2_000_000)
        // The adaptive-polling ladder: yield a while to let busy
        // siblings run, then park on the wakeup gate in bounded slices.
        .yield_iters(32)
        .park_timeout_ns(500_000)
        // Set true to pin capture threads and pool workers to cores
        // (`sched_setaffinity`; a no-op where unavailable).
        .pin_threads(false)
        // Trace every 16th chunk's full lifecycle (seal → publish →
        // claim → deliver) and profile worker time states; 0 = off.
        .span_sample_n(16)
        .build()
        .expect("valid configuration")
}

/// Everything lands on one queue: a single UDP flow hashes to a single
/// RSS bucket no matter how many queues the NIC has.
fn inject_skewed(nic: &Arc<LiveNic>) {
    let mut b = PacketBuilder::new();
    let flow = FlowKey::udp(
        Ipv4Addr::new(131, 225, 2, 7),
        5_005,
        Ipv4Addr::new(10, 0, 0, 1),
        443,
    );
    for i in 0..PACKETS {
        let pkt = b.build_packet(i * 1_000, &flow, 128).unwrap();
        while nic.inject(pkt.clone()).is_none() {
            std::thread::yield_now();
        }
    }
    nic.stop();
}

/// One consumer thread bound to each queue.
fn per_queue_run() -> (u64, f64) {
    let nic = LiveNic::new(QUEUES, 4096);
    let engine = LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(&nic)))
        .config(config())
        .groups(BuddyGroups::single(QUEUES))
        .start();
    let start = Instant::now();
    let consumers: Vec<_> = (0..QUEUES)
        .map(|q| {
            let mut c = engine.consumer(q);
            std::thread::spawn(move || {
                let mut delivered = 0u64;
                while let Some(chunk) = c.next_chunk() {
                    for pkt in c.view(&chunk).iter() {
                        delivered += u64::from(!pkt.data.is_empty());
                    }
                    std::thread::sleep(CHUNK_IO);
                    c.recycle(chunk);
                }
                delivered
            })
        })
        .collect();
    inject_skewed(&nic);
    let delivered: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
    let elapsed = start.elapsed().as_secs_f64();
    engine.shutdown();
    (delivered, elapsed)
}

/// A pool of workers over all queues, stealing and parking adaptively.
fn pooled_run() -> (u64, u64, u64, f64) {
    let nic = LiveNic::new(QUEUES, 4096);
    let engine = LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(&nic)))
        .config(config())
        .groups(BuddyGroups::single(QUEUES))
        .start();
    let group = BuddyGroup::all(QUEUES);
    let delivered = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let pool = {
        let delivered = Arc::clone(&delivered);
        engine.consumer_pool(&group, WORKERS, move |d| {
            let mut n = 0u64;
            for pkt in d.view().iter() {
                n += u64::from(!pkt.data.is_empty());
            }
            std::thread::sleep(CHUNK_IO);
            delivered.fetch_add(n, Ordering::Relaxed);
        })
    };
    inject_skewed(&nic);
    let reports = pool.join();
    let elapsed = start.elapsed().as_secs_f64();
    let observer = engine.observer();
    let spans = observer.spans();
    let snap = observer.snapshot();
    engine.shutdown();
    let stolen: u64 = reports.iter().map(|r| r.stolen_chunks).sum();
    let parks: u64 = reports.iter().map(|r| r.parks).sum();
    for r in &reports {
        println!(
            "  worker {}: {:>6} packets in {:>3} chunks ({} stolen, {} parks)",
            r.worker, r.packets, r.chunks, r.stolen_chunks, r.parks
        );
    }

    // Per-stage latency decomposition of the sampled chunks.
    let stolen_spans = spans.iter().filter(|s| s.stolen).count();
    println!(
        "\n  {} sampled spans ({} on stolen chunks); mean stage times:",
        spans.len(),
        stolen_spans
    );
    if !spans.is_empty() {
        let n = spans.len() as u64;
        let mean = |f: fn(&telemetry::SpanRecord) -> u64| spans.iter().map(f).sum::<u64>() / n;
        println!(
            "    backend {:>7} ns | queue-wait {:>9} ns | claim {:>5} ns | \
             deliver {:>9} ns | end-to-end {:>9} ns",
            mean(|s| s.stage_backend_ns),
            mean(|s| s.stage_queue_wait_ns),
            mean(|s| s.stage_claim_ns),
            mean(|s| s.stage_deliver_ns),
            mean(|s| s.end_to_end_ns),
        );
    }
    // Where each worker's wall clock went (the time-state profiler).
    for w in &snap.workers {
        let busy = w.claim_ns + w.deliver_ns + w.steal_ns;
        let idle = w.yield_ns + w.park_ns;
        println!(
            "  worker {} time: {:>4} ms delivering/claiming/stealing, \
             {:>4} ms yielding/parked",
            w.worker,
            busy / 1_000_000,
            idle / 1_000_000
        );
    }

    // Export the run as Chrome trace-event JSON for Perfetto.
    let trace = telemetry::chrome_trace_json(&spans, &snap.workers);
    let out = std::path::Path::new("target/consumer_pool-trace.json");
    match std::fs::write(out, trace.as_bytes()) {
        Ok(()) => println!(
            "\n  wrote {} ({} bytes) — open in https://ui.perfetto.dev",
            out.display(),
            trace.len()
        ),
        Err(e) => println!("\n  could not write {}: {e}", out.display()),
    }

    (delivered.load(Ordering::Relaxed), stolen, parks, elapsed)
}

fn main() {
    println!("skewed workload: {PACKETS} packets, one flow, {QUEUES} queues\n");

    let (base_delivered, base_s) = per_queue_run();
    println!(
        "per-queue ({QUEUES} consumers): {base_delivered} packets in {base_s:.3}s \
         ({:.0} pps)\n",
        base_delivered as f64 / base_s
    );

    println!("pooled ({WORKERS} workers over {QUEUES} queues):");
    let (pool_delivered, stolen, parks, pool_s) = pooled_run();
    println!(
        "pooled total: {pool_delivered} packets in {pool_s:.3}s ({:.0} pps), \
         {stolen} chunks stolen, {parks} parks\n",
        pool_delivered as f64 / pool_s
    );

    assert_eq!(base_delivered, PACKETS);
    assert_eq!(pool_delivered, PACKETS);
    println!(
        "pool speedup over per-queue consumers: {:.2}x",
        base_s / pool_s
    );
    println!("consumer_pool OK");
}
