//! Work-stealing pool accounting under randomized interleavings.
//!
//! Mirrors `offload_conservation.rs` one layer down: where that test
//! audits buddy-group offloading between capture threads, this one
//! audits chunk stealing between pool workers. The invariants are the
//! same shape, and both steal counters are incremented at the *same*
//! steal event (the thief charges the victim chunk's home queue with
//! `steal_out_chunks` and its own primary queue with `steal_in_chunks`
//! in one motion), so no interleaving can split them:
//!
//! * Σ `steal_in_chunks` == Σ `steal_out_chunks`,
//! * per home queue, `delivered_packets` + `delivery_drop_packets` ==
//!   `captured_packets` (every captured packet reached a handler or is
//!   explicitly counted as dropped by a forced pool stop, on the queue
//!   that captured it),
//! * per home queue, `recycled_chunks` == `sealed_chunks` (every slot
//!   came home — stealing moves handles, never slots, and recycling
//!   stays home-pool-only).
//!
//! A deterministic two-thread smoke test pins down the raw deque
//! (tier-1, run by `scripts/check.sh`), a deterministic skewed-traffic
//! run pins that stealing actually fires, and a proptest drives
//! randomized worker/queue/handler-latency schedules over the full
//! pool.

use netproto::{FlowKey, PacketBuilder};
use nicsim::livenic::LiveNic;
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use telemetry::EngineSnapshot;
use wirecap::buddy::BuddyGroups;
use wirecap::live::LiveWireCap;
use wirecap::NicSimBackend;
use wirecap::{steal_deque, PoolWorkerReport, Steal, WireCapConfig};

/// Deterministic two-thread deque exercise: the owner pushes and pops
/// from the bottom while one thief steals from the top; every pushed
/// item comes out exactly once, on exactly one side.
#[test]
fn steal_smoke_two_threads_conserve_items() {
    const N: u64 = 50_000;
    let (mut owner, stealer) = steal_deque::<u64>(N as usize);
    let thief = std::thread::spawn(move || {
        let mut got = Vec::new();
        loop {
            match stealer.steal() {
                Steal::Success(v) => {
                    if v == u64::MAX {
                        return got;
                    }
                    got.push(v);
                }
                Steal::Retry => {}
                Steal::Empty => std::thread::yield_now(),
            }
        }
    });
    let mut kept = Vec::new();
    for i in 0..N {
        owner.push(i).expect("deque sized to hold every item");
        // Interleave pops so both ends are contended.
        if i % 3 == 0 {
            if let Some(v) = owner.pop() {
                kept.push(v);
            }
        }
    }
    while let Some(v) = owner.pop() {
        kept.push(v);
    }
    // Sentinel: the deque is empty now, so the thief sees it next.
    owner.push(u64::MAX).unwrap();
    let mut stolen = thief.join().unwrap();
    assert!(owner.is_empty());
    kept.append(&mut stolen);
    kept.sort_unstable();
    assert_eq!(kept.len() as u64, N, "items lost or duplicated");
    for (i, v) in kept.iter().enumerate() {
        assert_eq!(*v, i as u64, "item set corrupted at {i}");
    }
}

/// One pool run: `total` packets spread over `flows` flows into a
/// `queues`-queue NIC, consumed by a `workers`-worker pool whose
/// handler sleeps `work_us` per chunk. When `force_stop` is set the
/// pool is torn down right after the rings close instead of joining
/// naturally, exercising the delivery-drop drain path.
fn run_pool(
    total: u64,
    queues: usize,
    workers: usize,
    flows: u16,
    work_us: u64,
    force_stop: bool,
) -> (EngineSnapshot, Vec<PoolWorkerReport>, u64) {
    let nic = LiveNic::new(queues, 8192);
    let mut cfg = WireCapConfig::basic(32, 64, 0);
    cfg.capture_timeout_ns = 1_000_000;
    let groups = BuddyGroups::single(queues);
    let group = groups.group_of(0).cloned().expect("queue 0 grouped");
    let engine = LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(&nic)))
        .config(cfg)
        .groups(groups)
        .start();

    let handled = Arc::new(AtomicU64::new(0));
    let pool = {
        let handled = Arc::clone(&handled);
        engine.consumer_pool(&group, workers, move |d| {
            // Touch the payload so the borrow is real, then simulate
            // per-chunk application work.
            let mut bytes = 0usize;
            for p in d.view().iter() {
                bytes += p.data.len();
            }
            assert!(bytes > 0 || d.is_empty());
            handled.fetch_add(d.len() as u64, Ordering::Relaxed);
            if work_us > 0 {
                std::thread::sleep(Duration::from_micros(work_us));
            }
        })
    };

    let mut b = PacketBuilder::new();
    for i in 0..total {
        let flow = FlowKey::udp(
            Ipv4Addr::new(10, 9, (i % u64::from(flows.max(1))) as u8, 9),
            9_000 + (i % u64::from(flows.max(1))) as u16,
            Ipv4Addr::new(131, 225, 2, 1),
            443,
        );
        let pkt = b.build_packet(i * 1_000, &flow, 96).unwrap();
        while nic.inject(pkt.clone()).is_none() {
            std::thread::yield_now();
        }
    }
    nic.stop();

    // Shutdown closes the rings; the pool then drains to end-of-stream
    // (join) or is forced down with work still queued (stop).
    let observer = engine.observer();
    engine.shutdown();
    let reports = if force_stop { pool.stop() } else { pool.join() };
    let snap = observer.snapshot();
    (snap, reports, handled.load(Ordering::Relaxed))
}

fn assert_conserved(snap: &EngineSnapshot, total: u64) {
    let steal_out: u64 = snap.queues.iter().map(|q| q.steal_out_chunks).sum();
    let steal_in: u64 = snap.queues.iter().map(|q| q.steal_in_chunks).sum();
    assert_eq!(steal_out, steal_in, "steal out/in drifted: {snap:?}");
    // Both ledgers balance per home queue, not only in sum: a stolen
    // chunk's packets and slot stay on the queue that captured them,
    // whichever worker delivers, drops or recycles it.
    for q in &snap.queues {
        assert_eq!(
            q.delivered_packets + q.delivery_drop_packets,
            q.captured_packets,
            "queue {}: packets lost between capture and the pool: {snap:?}",
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

/// Deterministic pool smoke test (tier-1, run by `scripts/check.sh`):
/// skewed single-flow traffic concentrates every chunk on one queue, so
/// the worker owning the other queue can only contribute by stealing —
/// and conservation must survive it doing so.
#[test]
fn pool_steals_under_skew_and_conserves() {
    let (snap, reports, handled) = run_pool(1_600, 2, 2, 1, 100, false);
    assert_conserved(&snap, 1_600);
    let delivered: u64 = snap.queues.iter().map(|q| q.delivered_packets).sum();
    assert_eq!(handled, delivered, "handler saw every delivered packet");
    assert_eq!(
        reports.iter().map(|r| r.packets).sum::<u64>(),
        delivered,
        "worker reports disagree with telemetry"
    );
    let stolen: u64 = reports.iter().map(|r| r.stolen_chunks).sum();
    let steal_out: u64 = snap.queues.iter().map(|q| q.steal_out_chunks).sum();
    assert_eq!(stolen, steal_out, "report/telemetry steal counts differ");
    assert!(
        stolen > 0,
        "skewed traffic with a slow handler must provoke stealing: {reports:?}"
    );
}

/// A forced stop right after the rings close recycles queued chunks as
/// delivery drops — conservation holds without a graceful drain.
#[test]
fn forced_pool_stop_accounts_queued_chunks_as_drops() {
    let (snap, reports, handled) = run_pool(2_000, 2, 2, 4, 150, true);
    assert_conserved(&snap, 2_000);
    let delivered: u64 = snap.queues.iter().map(|q| q.delivered_packets).sum();
    assert_eq!(handled, delivered);
    assert_eq!(reports.iter().map(|r| r.packets).sum::<u64>(), delivered);
}

/// A pool worker serves its own deque oldest-first. One worker over one
/// queue, with a handler slow enough that a backlog of sealed chunks
/// piles up in the worker's deque: the handler must see seal-order
/// sequence numbers strictly increase, and no chunk may wait longer
/// than the whole pool's worth of chunks ahead of it takes to serve. A
/// newest-first owner fails both: the first chunks wait until the run
/// ends, however small the pool.
#[test]
fn pool_worker_serves_its_deque_oldest_first() {
    const M: usize = 32;
    const R: usize = 48;
    const CHUNKS: u64 = 400;
    const STALL: Duration = Duration::from_millis(1);
    let total = CHUNKS * M as u64;
    let nic = LiveNic::new(1, 8192);
    let mut cfg = WireCapConfig::basic(M, R, 0);
    cfg.capture_timeout_ns = 1_000_000;
    let engine = LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(&nic)))
        .config(cfg)
        .groups(BuddyGroups::single(1))
        .start();
    let seqs = Arc::new(std::sync::Mutex::new(Vec::new()));
    let busy_ns = Arc::new(AtomicU64::new(0));
    let pool = {
        let (seqs, busy_ns) = (Arc::clone(&seqs), Arc::clone(&busy_ns));
        engine.consumer_pool(&wirecap::BuddyGroup::all(1), 1, move |d| {
            let t = std::time::Instant::now();
            seqs.lock().unwrap().push(d.seq());
            std::thread::sleep(STALL);
            busy_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        })
    };
    let mut b = PacketBuilder::new();
    let flow = FlowKey::udp(
        Ipv4Addr::new(10, 9, 9, 9),
        9_000,
        Ipv4Addr::new(131, 225, 2, 1),
        443,
    );
    for i in 0..total {
        let pkt = b.build_packet(i * 1_000, &flow, 96).unwrap();
        while nic.inject(pkt.clone()).is_none() {
            std::thread::yield_now();
        }
    }
    nic.stop();
    // Shutdown discards what the NIC ring still holds, so let capture
    // (paced by the slow handler's recycles) take every packet first.
    let observer = engine.observer();
    while observer.snapshot().queues[0].captured_packets < total {
        std::thread::sleep(Duration::from_millis(5));
    }
    engine.shutdown();
    let reports = pool.join();
    let snap = observer.snapshot();
    assert_conserved(&snap, total);
    assert_eq!(reports[0].packets, total);

    let seqs = seqs.lock().unwrap();
    assert!(seqs.len() as u64 >= CHUNKS, "a backlog must form");
    for w in seqs.windows(2) {
        assert!(w[0] < w[1], "chunk {} delivered after {}", w[1], w[0]);
    }
    // At most R chunks are sealed and outstanding, so a chunk waits at
    // most R service times; 2x slack for scheduling noise.
    let service_ns = busy_ns.load(Ordering::Relaxed) / seqs.len() as u64;
    let worst_ns = snap.queues[0].latency_ns.max;
    assert!(
        worst_ns < 2 * R as u64 * service_ns,
        "worst latency {worst_ns} ns exceeds {R} chunks x {service_ns} ns"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation holds across randomized steal/pop/recycle
    /// schedules: any worker count (including workers with no owned
    /// queue), any flow spread, any handler latency.
    #[test]
    fn pool_accounting_survives_random_interleavings(
        total in 400u64..2_500,
        queues in 1usize..4,
        workers in 1usize..5,
        flows in 1u16..8,
        work_us in 0u64..120,
        force_stop in any::<bool>(),
    ) {
        let (snap, reports, handled) =
            run_pool(total, queues, workers, flows, work_us, force_stop);
        assert_conserved(&snap, total);
        let delivered: u64 = snap.queues.iter().map(|q| q.delivered_packets).sum();
        prop_assert_eq!(handled, delivered);
        prop_assert_eq!(reports.iter().map(|r| r.packets).sum::<u64>(), delivered);
        prop_assert_eq!(reports.len(), workers);
    }
}
