//! Buddy-offload accounting under early consumer shutdown.
//!
//! The audit behind this test: `offloaded_out_chunks` (home queue's
//! capture shard) and `offloaded_in_chunks` (target queue's peer shard)
//! are both incremented at stage time on the capture thread — the same
//! code path, before the chunk is even published — so no consumer-side
//! interleaving can split them. What a departing consumer *can* do is
//! strand offloaded chunks in the target queue's rings; the engine's
//! contract is that a later consumer on the same queue (SPSC hand-off,
//! never concurrent) finds and recycles them, leaving the global
//! accounting conserved:
//!
//! * Σ `offloaded_out_chunks` == Σ `offloaded_in_chunks`,
//! * per home queue, `delivered_packets` + `delivery_drop_packets` ==
//!   `captured_packets` (every packet that entered a chunk either
//!   reached an application or is explicitly counted as stranded by a
//!   departing consumer — on the queue that captured it, even when the
//!   chunk was offloaded),
//! * per home queue, `recycled_chunks` == `sealed_chunks` (every slot
//!   came home).
//!
//! The audit found — and `LiveConsumer::drop` now fixes — a real leak
//! here: a consumer dropped mid-run used to strand the chunks already
//! popped into its private inbox, permanently bleeding pool slots and
//! breaking all three equalities. A later audit found such a consumer
//! charging the stranded packets to its own queue rather than to their
//! home, which balanced the sums but not each queue's ledger.
//!
//! The proptest drives randomized early-consumer-shutdown
//! interleavings: a single flow concentrates all traffic on one queue
//! (forcing offloads to its buddy once the backlog crosses T), the
//! buddy's consumer exits after a random number of chunks mid-run, and
//! a rescue consumer attaches afterwards to drain what was stranded.

use netproto::{FlowKey, PacketBuilder};
use nicsim::livenic::LiveNic;
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use shmring::ShmRingNic;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use telemetry::EngineSnapshot;
use wirecap::buddy::BuddyGroups;
use wirecap::live::LiveWireCap;
use wirecap::{CaptureBackend, LoopbackBackend, NicSimBackend, WireCapConfig};

/// Both loopback-capable backends, same two-queue geometry: the offload
/// conservation laws are a property of the engine, not of where frames
/// come from.
fn backends() -> Vec<Arc<dyn LoopbackBackend>> {
    vec![
        NicSimBackend::new(LiveNic::new(2, 8192)) as Arc<dyn LoopbackBackend>,
        ShmRingNic::new(2, 8192) as Arc<dyn LoopbackBackend>,
    ]
}

/// Cells per chunk, default pool size and descriptor segments (ring
/// size 1024 / M) of every run.
const M: usize = 32;
const R: usize = 40;
const SEGMENTS: usize = 1024 / M;

/// How the offload target's first consumer leaves mid-run.
#[derive(Debug, Clone, Copy)]
enum EarlyExit {
    /// After taking and recycling at most this many chunks.
    After(usize),
    /// Holding chunks: once at least two offloaded chunks wait on its
    /// rings, one `try_chunk` pops them all into its inbox, it recycles
    /// that one, and it drops with the rest undelivered.
    Holding,
}

/// How the home queue's consumer builds the backlog that makes
/// offloading fire.
#[derive(Debug, Clone, Copy)]
enum Pressure {
    /// Sleep this many µs per chunk: offloading fires only if the
    /// injector outpaces the consumer, so it may or may not.
    SleepPerChunk(u64),
    /// Take nothing until the home queue has offloaded this many chunks
    /// (or the injector is done), then drain. Every run's packets fit
    /// in the NIC ring, so injection never waits on the consumer and
    /// the backlog reaches T·R whatever the injection rate.
    UntilOffloaded(u64),
}

/// One randomized run: `total` packets of a single flow, the offload
/// target's consumer exiting as `early` says, and the home queue's
/// consumer applying `pressure`. `r` is the pool size in chunks
/// (`SEGMENTS + 1 ..= R`): offloading and the stranded-chunk rescue
/// must conserve with a shrunk pool just as with the default. Returns
/// the final snapshot.
fn run_interleaving(
    backend: Arc<dyn LoopbackBackend>,
    total: u64,
    early: EarlyExit,
    pressure: Pressure,
    r: usize,
) -> EngineSnapshot {
    let mut cfg = WireCapConfig::advanced(M, r, 0.2, 0);
    cfg.capture_timeout_ns = 1_000_000;
    let upcast: Arc<dyn CaptureBackend> = backend.clone();
    let engine = LiveWireCap::builder()
        .backend(upcast)
        .config(cfg)
        .groups(BuddyGroups::single(2))
        .start();

    // A single flow RSS-hashes every packet to one queue; learn which
    // from the first injection so the test is independent of the hash.
    let mut b = PacketBuilder::new();
    let flow = FlowKey::udp(
        Ipv4Addr::new(10, 7, 7, 7),
        7_777,
        Ipv4Addr::new(131, 225, 2, 1),
        443,
    );
    let first = b.build_packet(0, &flow, 120).unwrap();
    let busy = loop {
        match backend.inject(first.clone()) {
            Some(q) => break q,
            None => std::thread::yield_now(),
        }
    };
    let target = 1 - busy;
    let injected = Arc::new(AtomicBool::new(false));

    // Home-queue consumer: runs to completion, held back so the capture
    // queue backs up past T and offloading engages.
    let busy_thread = {
        let mut c = engine.consumer(busy);
        let observer = engine.observer();
        let injected = Arc::clone(&injected);
        std::thread::spawn(move || {
            if let Pressure::UntilOffloaded(chunks) = pressure {
                while observer.snapshot().queues[busy].offloaded_out_chunks < chunks
                    && !injected.load(Ordering::Acquire)
                {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            while let Some(chunk) = c.next_chunk() {
                if let Pressure::SleepPerChunk(us @ 1..) = pressure {
                    std::thread::sleep(Duration::from_micros(us));
                }
                c.recycle(chunk);
            }
        })
    };

    // The early-exit consumer on the offload target drops mid-run —
    // stranding whatever lands on the target's rings afterwards, and
    // in `Holding` mode whatever it popped but never recycled.
    let early_thread = {
        let mut c = engine.consumer(target);
        let observer = engine.observer();
        std::thread::spawn(move || match early {
            EarlyExit::After(chunks) => {
                for _ in 0..chunks {
                    match c.next_chunk() {
                        Some(chunk) => c.recycle(chunk),
                        None => break,
                    }
                }
            }
            EarlyExit::Holding => {
                // The target gets no traffic of its own: everything on
                // its rings was offloaded by the busy queue.
                let deadline = std::time::Instant::now() + Duration::from_secs(20);
                while observer.snapshot().queues[target].capture_queue_len < 2 {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "two offloaded chunks never queued on the target"
                    );
                    std::thread::sleep(Duration::from_micros(200));
                }
                let chunk = c.try_chunk().expect("offloaded chunks are queued");
                c.recycle(chunk);
            }
        })
    };

    let injector = {
        let backend = Arc::clone(&backend);
        let injected = Arc::clone(&injected);
        std::thread::spawn(move || {
            let mut b = PacketBuilder::new();
            let flow = FlowKey::udp(
                Ipv4Addr::new(10, 7, 7, 7),
                7_777,
                Ipv4Addr::new(131, 225, 2, 1),
                443,
            );
            for i in 1..total {
                let pkt = b.build_packet(i * 1_000, &flow, 120).unwrap();
                while backend.inject(pkt.clone()).is_none() {
                    std::thread::yield_now();
                }
            }
            injected.store(true, Ordering::Release);
            backend.stop().expect("stop backend");
        })
    };

    // Rescue: after the early consumer is gone (sequential hand-off on
    // the same queue — never two concurrent SPSC consumers), a fresh
    // consumer drains the stranded chunks to end-of-stream. It must
    // start before the injector joins: with nobody popping the target's
    // rings, the busy capture thread's flush would wedge and the NIC
    // ring behind it would fill.
    early_thread.join().expect("early consumer panicked");
    let mut rescue = engine.consumer(target);
    while let Some(chunk) = rescue.next_chunk() {
        rescue.recycle(chunk);
    }
    injector.join().expect("injector panicked");
    busy_thread.join().expect("busy consumer panicked");
    drop(rescue); // flush its delivery tally before snapshotting
    let snapshot = engine.snapshot();
    engine.shutdown();
    snapshot
}

fn assert_conserved(snap: &EngineSnapshot, total: u64) {
    let out: u64 = snap.queues.iter().map(|q| q.offloaded_out_chunks).sum();
    let inn: u64 = snap.queues.iter().map(|q| q.offloaded_in_chunks).sum();
    assert_eq!(out, inn, "offload out/in drifted: {snap:?}");
    // Both ledgers balance per home queue, not only in sum: an
    // offloaded chunk's packets and slot stay on the queue that
    // captured them, whoever delivers, drops or recycles it.
    for q in &snap.queues {
        assert_eq!(
            q.delivered_packets + q.delivery_drop_packets,
            q.captured_packets,
            "queue {}: packets lost between capture and delivery: {snap:?}",
            q.queue
        );
        assert_eq!(
            q.recycled_chunks, q.sealed_chunks,
            "queue {}: chunk slots leaked: {snap:?}",
            q.queue
        );
    }
    let captured: u64 = snap.queues.iter().map(|q| q.captured_packets).sum();
    let dropped: u64 = snap.queues.iter().map(|q| q.capture_drop_packets).sum();
    assert_eq!(
        captured + dropped,
        total,
        "captured + capture-dropped must cover every injected packet: {snap:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Conservation holds across randomized early-shutdown
    /// interleavings: any exit point of the target's consumer, any
    /// backlog pressure on the home queue, on every backend, at any
    /// pool size from the smallest valid one up to the default.
    #[test]
    fn offload_accounting_survives_early_consumer_exit(
        total in 1_500u64..5_000,
        early_chunks in 0usize..12,
        busy_sleep_us in 0u64..200,
        r in SEGMENTS + 1..=R,
    ) {
        for backend in backends() {
            let snap = run_interleaving(
                backend,
                total,
                EarlyExit::After(early_chunks),
                Pressure::SleepPerChunk(busy_sleep_us),
                r,
            );
            assert_conserved(&snap, total);
        }
    }
}

/// Deterministic companion: the home queue's consumer waits for the
/// first offload, so offloading demonstrably fires (the proptest above
/// must hold whether or not it does; this pins that the scenario
/// actually exercises the offload path and the stranded-chunk rescue).
#[test]
fn offloads_fire_and_survive_target_consumer_exit() {
    for backend in backends() {
        let name = backend.name();
        let snap = run_interleaving(
            backend,
            6_000,
            EarlyExit::After(2),
            Pressure::UntilOffloaded(1),
            R,
        );
        assert_conserved(&snap, 6_000);
        let out: u64 = snap.queues.iter().map(|q| q.offloaded_out_chunks).sum();
        assert!(
            out > 0,
            "{name}: scenario failed to trigger offloading: {snap:?}"
        );
    }
}

/// A consumer that exits holding offloaded chunks charges their packets
/// to the queue that captured them, so the per-queue ledger in
/// [`assert_conserved`] balances on both queues.
#[test]
fn early_exit_drops_are_charged_to_the_home_queue() {
    for backend in backends() {
        let name = backend.name();
        let snap = run_interleaving(
            backend,
            6_000,
            EarlyExit::Holding,
            Pressure::UntilOffloaded(2),
            R,
        );
        assert_conserved(&snap, 6_000);
        let dropped: u64 = snap.queues.iter().map(|q| q.delivery_drop_packets).sum();
        assert!(
            dropped > 0,
            "{name}: the consumer must exit holding undelivered chunks: {snap:?}"
        );
    }
}
