//! Span-tracing invariants over real engine runs.
//!
//! Three contracts, checked end to end rather than on synthetic stamps:
//!
//! * **Decomposition** — every completed [`SpanRecord`] has non-negative
//!   per-stage durations (trivially true of `u64`, but the proptest
//!   drives randomized runs through the real stamp points) whose sum
//!   never exceeds the span's end-to-end latency: stamps are taken in
//!   pipeline order from one monotonic clock, so the stages partition a
//!   subset of the seal→recycle interval.
//! * **Sampling** — with 1-in-N sampling the span ring holds one span
//!   per N sealed chunks, up to ring retention: the count equals
//!   `ceil(sealed / N)` clamped by the ring capacity.
//! * **Worker parks** — `QueueCounters::worker_parks` counts parks of
//!   *every* worker servicing the queue: a one-worker pool that owns
//!   two idle queues must account its parks to both.
//!
//! The first two run over every delivery path — a per-queue consumer
//! and a pool with either intake — since each retires spans through
//! the same shared step.

use netproto::{FlowKey, PacketBuilder};
use nicsim::livenic::LiveNic;
use std::net::Ipv4Addr;
use std::sync::Arc;
use wirecap::buddy::{BuddyGroup, BuddyGroups};
use wirecap::live::LiveWireCap;
use wirecap::NicSimBackend;
use wirecap::WireCapConfig;

/// Who takes the chunks off the queue: a `LiveConsumer`, or a
/// one-worker pool with the deque or the claim (`concurrent_queue`)
/// intake. The one worker owns the queue, so every delivery lands in
/// the queue's latency and stage shards.
#[derive(Debug, Clone, Copy)]
enum Delivery {
    PerQueue,
    DequePool,
    ClaimPool,
}

const DELIVERIES: [Delivery; 3] = [Delivery::PerQueue, Delivery::DequePool, Delivery::ClaimPool];

/// Run `delivery` over `total` packets with 1-in-`sample_n` span
/// sampling; return (completed spans, engine snapshot).
fn run_sampled(
    total: u64,
    sample_n: u32,
    cells: usize,
    delivery: Delivery,
) -> (Vec<telemetry::SpanRecord>, telemetry::EngineSnapshot) {
    let nic = LiveNic::new(1, 8192);
    let cfg = WireCapConfig::builder()
        .cells(cells)
        // The pool must exceed ring_size / m attached segments.
        .chunks(2 * (1024 / cells))
        .capture_timeout_ns(1_000_000)
        .span_sample_n(sample_n)
        .concurrent_queue(matches!(delivery, Delivery::ClaimPool))
        .build()
        .unwrap();
    let engine = LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(&nic)))
        .config(cfg)
        .groups(BuddyGroups::isolated(1))
        .start();

    let consumer = if let Delivery::PerQueue = delivery {
        let mut c = engine.consumer(0);
        std::thread::spawn(move || {
            let mut n = 0u64;
            while let Some(chunk) = c.next_chunk() {
                n += chunk.len() as u64;
                c.recycle(chunk);
            }
            n
        })
    } else {
        let pool = engine.consumer_pool(&BuddyGroup::all(1), 1, |_| {});
        std::thread::spawn(move || pool.join().iter().map(|r| r.packets).sum())
    };

    let mut b = PacketBuilder::new();
    for i in 0..total {
        let flow = FlowKey::udp(
            Ipv4Addr::new(10, 4, (i % 16) as u8 + 1, 7),
            9_000 + (i % 128) as u16,
            Ipv4Addr::new(131, 225, 2, 1),
            443,
        );
        let pkt = b.build_packet(i * 800, &flow, 96).unwrap();
        while nic.inject(pkt.clone()).is_none() {
            std::thread::yield_now();
        }
    }
    nic.stop();
    assert_eq!(consumer.join().unwrap(), total, "{delivery:?}");

    let observer = engine.observer();
    let spans = observer.spans();
    let snap = observer.snapshot();
    engine.shutdown();
    (spans, snap)
}

/// The per-stage decomposition partitions (a subset of) the span: each
/// stage is non-negative and their sum never exceeds end-to-end.
fn assert_decomposed(spans: &[telemetry::SpanRecord]) {
    assert!(!spans.is_empty(), "sampled run must complete spans");
    for s in spans {
        let stage_sum = s.stage_sum_ns();
        assert!(
            stage_sum <= s.end_to_end_ns,
            "stage sum {} exceeds end-to-end {} for queue {} seq {}: {s:?}",
            stage_sum,
            s.end_to_end_ns,
            s.queue,
            s.seq,
        );
    }
}

#[test]
fn sampled_spans_decompose_into_stages() {
    for delivery in DELIVERIES {
        let (spans, snap) = run_sampled(4_000, 1, 32, delivery);
        assert_decomposed(&spans);
        // Fully sampled: per-stage histograms carry one sample per span
        // completion, matching the latency histogram count.
        let total = snap.total();
        assert_eq!(
            total.stage_deliver_ns.count, total.latency_ns.count,
            "{delivery:?}: sample_n=1 must stage every latency sample"
        );
        assert_eq!(
            total.stage_backend_ns.count, total.latency_ns.count,
            "{delivery:?}: backend stage recorded per sampled chunk"
        );
    }
}

#[test]
fn span_count_tracks_sample_rate() {
    for delivery in DELIVERIES {
        for sample_n in [1u32, 4, 16] {
            let (spans, snap) = run_sampled(3_000, sample_n, 32, delivery);
            let sealed: u64 = snap.queues.iter().map(|q| q.sealed_chunks).sum();
            // seq starts at 0 and every seq % N == 0 chunk is sampled.
            let expected = sealed.div_ceil(u64::from(sample_n));
            let retained = expected.min(telemetry::DEFAULT_SPAN_CAPACITY as u64);
            assert_eq!(
                spans.len() as u64,
                retained,
                "{delivery:?}, 1-in-{sample_n}: {} sealed chunks must yield {retained} \
                 retained spans, got {}",
                sealed,
                spans.len()
            );
        }
    }
}

#[test]
fn sampling_disabled_emits_no_spans() {
    for delivery in DELIVERIES {
        let (spans, snap) = run_sampled(1_500, 0, 32, delivery);
        assert!(
            spans.is_empty(),
            "{delivery:?}: span_sample_n=0 must trace nothing"
        );
        let total = snap.total();
        assert_eq!(total.stage_deliver_ns.count, 0, "no stage samples when off");
        assert!(
            total.latency_ns.count > 0,
            "{delivery:?}: plain latency accounting unaffected by sampling being off"
        );
        assert!(
            snap.workers.is_empty(),
            "worker profiler only runs when span tracing is on"
        );
    }
}

/// `worker_parks` counts parks from every worker servicing the queue.
/// One pool worker owning two queues with no traffic parks repeatedly —
/// both queues must see those parks, not just the first — with either
/// intake.
#[test]
fn worker_parks_accrue_to_every_serviced_queue() {
    for concurrent_queue in [false, true] {
        worker_parks_accrue(concurrent_queue);
    }
}

fn worker_parks_accrue(concurrent_queue: bool) {
    let queues = 2;
    let nic = LiveNic::new(queues, 1024);
    let cfg = WireCapConfig::builder()
        .cells(32)
        .chunks(64)
        .capture_timeout_ns(500_000)
        .yield_iters(2)
        .park_timeout_ns(200_000)
        .span_sample_n(8)
        .concurrent_queue(concurrent_queue)
        .build()
        .unwrap();
    let groups = BuddyGroups::single(queues);
    let group = groups.group_of(0).cloned().expect("grouped");
    let engine = LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(&nic)))
        .config(cfg)
        .groups(groups)
        .start();

    // One worker owns both queues; with no traffic it rides the
    // adaptive-polling ladder down to parking in every loop.
    let pool = engine.consumer_pool(&group, 1, |_d| {});
    std::thread::sleep(std::time::Duration::from_millis(80));
    nic.stop();

    let observer = engine.observer();
    engine.shutdown();
    pool.join();
    let snap = observer.snapshot();
    assert_eq!(snap.queues.len(), queues);
    for q in &snap.queues {
        assert!(
            q.worker_parks > 0,
            "concurrent_queue={concurrent_queue}: queue {} saw no parks from its \
             (only) worker: {snap:?}",
            q.queue
        );
    }
    // The profiler saw the same worker: park wall-time is attributed.
    let parked: u64 = snap.workers.iter().map(|w| w.park_ns).sum();
    assert!(
        parked > 0,
        "profiled worker must have accumulated park time: {:?}",
        snap.workers
    );
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Randomized load shapes never violate the decomposition or
        /// the sampling-count contract.
        #[test]
        fn decomposition_holds_under_random_runs(
            total in 500u64..2_500,
            sample_n in 1u32..8,
            cells_idx in 0usize..3,
            delivery_idx in 0usize..3,
        ) {
            let cells = [16usize, 32, 64][cells_idx];
            let (spans, snap) = run_sampled(total, sample_n, cells, DELIVERIES[delivery_idx]);
            assert_decomposed(&spans);
            let sealed: u64 = snap.queues.iter().map(|q| q.sealed_chunks).sum();
            let expected = sealed.div_ceil(u64::from(sample_n))
                .min(telemetry::DEFAULT_SPAN_CAPACITY as u64);
            prop_assert_eq!(spans.len() as u64, expected);
            // Stage histograms and the ring agree on how many chunks
            // were sampled (ring may retain fewer than recorded).
            let staged = snap.total().stage_deliver_ns.count;
            prop_assert!(staged >= spans.len() as u64);
        }
    }
}
