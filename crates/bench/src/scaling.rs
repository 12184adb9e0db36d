//! Multi-core delivery scaling: work-stealing consumer pools against
//! the one-consumer-per-queue baseline (`fig_scaling`).
//!
//! The workload is the paper's problem case: RSS concentrates a single
//! heavy flow onto one receive queue, and the consumer is *heavy* — a
//! per-packet CPU fold plus a blocking per-chunk I/O stage (modeled as
//! a bounded sleep, standing in for the `write(2)` the capdisk writer
//! issues per batch, or any downstream RPC). With one consumer bound
//! to each queue, the hot queue's delivery rate is capped at
//! M / io-latency no matter how many queues the NIC has: the blocking
//! stage serializes, and the other consumers sit idle busy-yielding. A
//! [`wirecap::ConsumerPool`] breaks the cap: idle workers steal sealed
//! chunks from the hot queue's worker and overlap their blocking
//! stages, so aggregate pps scales with the worker count (toward
//! linear, until capture itself becomes the bottleneck) — and workers
//! with nothing to steal park on the delivery gate instead of burning
//! the cycles the busy threads need.
//!
//! Every data point asserts the engine's conservation laws before
//! reporting a rate — a scaling number from a run that lost packets or
//! leaked chunk slots would be meaningless:
//!
//! * `delivered + delivery_drop == captured`
//! * `captured + capture_drop == offered`
//! * Σ `steal_in_chunks` == Σ `steal_out_chunks`
//! * Σ `recycled_chunks` == Σ `sealed_chunks`

use netproto::{FlowKey, Packet, PacketBuilder};
use nicsim::livenic::LiveNic;
use serde::Serialize;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use telemetry::EngineSnapshot;
use wirecap::buddy::BuddyGroups;
use wirecap::live::LiveWireCap;
use wirecap::NicSimBackend;
use wirecap::WireCapConfig;

/// Payload bytes per packet.
pub const FRAME: usize = 128;

/// Per-packet application work: passes of a xor-fold over the payload.
/// Heavy enough that delivery (not capture) is the bottleneck, as in
/// the paper's x = 300 heavy-consumer runs.
pub const WORK_PASSES: usize = 8;

/// Blocking I/O latency per consumed chunk, in microseconds: the
/// synchronous stage of the consumer (a batch `write(2)`, a downstream
/// call). One consumer serializes these; pool workers overlap them.
pub const CHUNK_IO_US: u64 = 100;

/// One measured configuration of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingPoint {
    /// `"per_queue"` (one `LiveConsumer` thread per queue), `"pooled"`
    /// (one work-stealing `ConsumerPool` over all queues), or
    /// `"concurrent"` (COREC-style claim-based pool, DESIGN.md §4.12).
    pub mode: &'static str,
    /// Receive queues on the NIC.
    pub queues: usize,
    /// Delivery threads (baseline: always equal to `queues`).
    pub workers: usize,
    /// Packets offered (and, conservation-checked, delivered).
    pub packets: u64,
    /// Wall-clock seconds from first injection to delivery completion.
    pub elapsed_s: f64,
    /// Aggregate delivered packets per second.
    pub pps: f64,
    /// Chunks that moved between pool workers by stealing.
    pub stolen_chunks: u64,
    /// Times pool workers parked on the delivery gate.
    pub worker_parks: u64,
    /// Claim CAS races lost by concurrent-mode workers (0 elsewhere).
    pub claim_contention: u64,
}

/// The per-packet work function: `WORK_PASSES` xor-folds over the
/// payload. Returns a fold the caller must keep live so the work is
/// not optimized away.
#[inline]
pub fn packet_work(data: &[u8]) -> u64 {
    let mut acc = 0u64;
    for pass in 0..WORK_PASSES {
        for (i, b) in data.iter().enumerate() {
            acc = acc
                .rotate_left(7)
                .wrapping_add(u64::from(*b) ^ ((pass + i) as u64));
        }
    }
    acc
}

fn engine_config() -> WireCapConfig {
    let mut cfg = WireCapConfig::basic(64, 32, 0);
    cfg.capture_timeout_ns = 2_000_000;
    cfg
}

/// Prebuilds the skewed traffic: one UDP flow, so RSS lands every
/// packet on a single queue regardless of the queue count.
fn skewed_traffic(n: u64) -> Vec<Packet> {
    let mut b = PacketBuilder::new();
    let flow = FlowKey::udp(
        Ipv4Addr::new(10, 5, 5, 5),
        5_555,
        Ipv4Addr::new(131, 225, 2, 1),
        443,
    );
    (0..n)
        .map(|i| b.build_packet(i * 1_000, &flow, FRAME).unwrap())
        .collect()
}

/// Asserts the engine's conservation laws over a finished run's
/// snapshot (shared with the `latency` sweep — every reported data
/// point passes through here first).
pub fn assert_conserved(snap: &EngineSnapshot, offered: u64) {
    let captured: u64 = snap.queues.iter().map(|q| q.captured_packets).sum();
    let delivered: u64 = snap.queues.iter().map(|q| q.delivered_packets).sum();
    let delivery_dropped: u64 = snap.queues.iter().map(|q| q.delivery_drop_packets).sum();
    assert_eq!(
        delivered + delivery_dropped,
        captured,
        "packets lost between capture and delivery"
    );
    let capture_dropped: u64 = snap.queues.iter().map(|q| q.capture_drop_packets).sum();
    assert_eq!(
        captured + capture_dropped,
        offered,
        "captured + dropped must cover every offered packet"
    );
    let steal_in: u64 = snap.queues.iter().map(|q| q.steal_in_chunks).sum();
    let steal_out: u64 = snap.queues.iter().map(|q| q.steal_out_chunks).sum();
    assert_eq!(steal_in, steal_out, "steal in/out drifted");
    let sealed: u64 = snap.queues.iter().map(|q| q.sealed_chunks).sum();
    let recycled: u64 = snap.queues.iter().map(|q| q.recycled_chunks).sum();
    assert_eq!(recycled, sealed, "chunk slots leaked");
}

/// Runs the per-queue baseline: one `LiveConsumer` thread bound to each
/// queue, exactly the delivery topology every pre-pool example used.
pub fn baseline_point(queues: usize, packets: u64) -> ScalingPoint {
    let traffic = skewed_traffic(packets);
    let nic = LiveNic::new(queues, 4096);
    let engine = LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(&nic)))
        .config(engine_config())
        .groups(BuddyGroups::single(queues))
        .start();
    let start = Instant::now();
    let consumers: Vec<_> = (0..queues)
        .map(|q| {
            let mut c = engine.consumer(q);
            std::thread::spawn(move || {
                let mut acc = 0u64;
                let mut delivered = 0u64;
                while let Some(chunk) = c.next_chunk() {
                    for p in c.view(&chunk).iter() {
                        acc ^= packet_work(p.data);
                    }
                    std::thread::sleep(std::time::Duration::from_micros(CHUNK_IO_US));
                    delivered += chunk.len() as u64;
                    c.recycle(chunk);
                }
                (delivered, acc)
            })
        })
        .collect();
    for pkt in &traffic {
        while nic.inject(pkt.clone()).is_none() {
            std::thread::yield_now();
        }
    }
    nic.stop();
    let delivered: u64 = consumers
        .into_iter()
        .map(|h| h.join().expect("consumer panicked").0)
        .sum();
    let elapsed = start.elapsed().as_secs_f64();
    let observer = engine.observer();
    engine.shutdown();
    let snap = observer.snapshot();
    assert_conserved(&snap, packets);
    assert_eq!(delivered, packets, "baseline delivered every packet");
    ScalingPoint {
        mode: "per_queue",
        queues,
        workers: queues,
        packets,
        elapsed_s: elapsed,
        pps: delivered as f64 / elapsed,
        stolen_chunks: 0,
        worker_parks: 0,
        claim_contention: 0,
    }
}

/// Runs the pooled configuration: a `ConsumerPool` of `workers` threads
/// over all queues, with stealing and adaptive parking.
pub fn pooled_point(queues: usize, workers: usize, packets: u64) -> ScalingPoint {
    pool_point_with("pooled", engine_config(), queues, workers, packets)
}

/// Runs the concurrent-claim configuration (DESIGN.md §4.12): every
/// pool worker claims sealed chunks straight off the same queues'
/// shared claim streams, so even a single hot queue is drained by all
/// `workers` threads at once.
pub fn concurrent_point(queues: usize, workers: usize, packets: u64) -> ScalingPoint {
    let mut cfg = engine_config();
    cfg.concurrent_queue = true;
    pool_point_with("concurrent", cfg, queues, workers, packets)
}

fn pool_point_with(
    mode: &'static str,
    cfg: WireCapConfig,
    queues: usize,
    workers: usize,
    packets: u64,
) -> ScalingPoint {
    let traffic = skewed_traffic(packets);
    let nic = LiveNic::new(queues, 4096);
    let engine = LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(&nic)))
        .config(cfg)
        .groups(BuddyGroups::single(queues))
        .start();
    let group = wirecap::BuddyGroup::all(queues);
    let acc = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let pool = {
        let acc = Arc::clone(&acc);
        engine.consumer_pool(&group, workers, move |d| {
            let mut local = 0u64;
            for p in d.view().iter() {
                local ^= packet_work(p.data);
            }
            std::thread::sleep(std::time::Duration::from_micros(CHUNK_IO_US));
            acc.fetch_add(local, Ordering::Relaxed);
        })
    };
    for pkt in &traffic {
        while nic.inject(pkt.clone()).is_none() {
            std::thread::yield_now();
        }
    }
    nic.stop();
    let reports = pool.join();
    let elapsed = start.elapsed().as_secs_f64();
    let observer = engine.observer();
    engine.shutdown();
    let snap = observer.snapshot();
    assert_conserved(&snap, packets);
    let delivered: u64 = reports.iter().map(|r| r.packets).sum();
    assert_eq!(delivered, packets, "pool delivered every packet");
    ScalingPoint {
        mode,
        queues,
        workers,
        packets,
        elapsed_s: elapsed,
        pps: delivered as f64 / elapsed,
        stolen_chunks: reports.iter().map(|r| r.stolen_chunks).sum(),
        worker_parks: reports.iter().map(|r| r.parks).sum(),
        claim_contention: snap.queues.iter().map(|q| q.claim_contention).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_modes_conserve_and_report_rates() {
        let b = baseline_point(2, 20_000);
        assert_eq!(b.packets, 20_000);
        assert!(b.pps > 0.0);
        let p = pooled_point(2, 2, 20_000);
        assert_eq!(p.packets, 20_000);
        assert!(p.pps > 0.0);
    }

    #[test]
    fn concurrent_mode_conserves_and_reports_rates() {
        let c = concurrent_point(1, 2, 20_000);
        assert_eq!(c.packets, 20_000);
        assert!(c.pps > 0.0);
        assert_eq!(c.mode, "concurrent");
        assert_eq!(c.stolen_chunks, 0, "claim mode never steals");
    }
}
