//! Consumer-pool accounting under randomized interleavings, on both
//! pool intakes: per-worker deques with stealing (DESIGN.md §4.11) and
//! COREC-style claiming off shared per-queue claim queues (§4.12).
//!
//! Mirrors `offload_conservation.rs` one layer down: where that test
//! audits buddy-group offloading between capture threads, this one
//! audits chunk movement between pool workers. The invariants are the
//! same shape, and both steal counters are incremented at the *same*
//! steal event (the thief charges the victim chunk's home queue with
//! `steal_out_chunks` and its own primary queue with `steal_in_chunks`
//! in one motion), so no interleaving can split them:
//!
//! * Σ `steal_in_chunks` == Σ `steal_out_chunks`, and both are 0 on
//!   the claim intake (the claim CAS is the load balancer),
//! * per home queue, `delivered_packets` + `delivery_drop_packets` ==
//!   `captured_packets` (every captured packet reached a handler or is
//!   explicitly counted as dropped by a forced pool stop, on the queue
//!   that captured it),
//! * per home queue, `recycled_chunks` == `sealed_chunks` (every slot
//!   came home — stealing moves handles, never slots, and recycling
//!   stays home-pool-only).
//!
//! A deterministic two-thread smoke test pins down the raw deque
//! (tier-1, run by `scripts/check.sh`), deterministic skewed-traffic
//! runs pin that stealing actually fires and that claim workers drain
//! one hot queue, and one proptest per intake drives randomized
//! worker/queue/handler-latency/pool-size schedules over the full pool,
//! from the smallest valid pool (one spare chunk past the descriptor
//! segments) up to the default.

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

/// Cells per chunk, default pool size and descriptor segments (ring
/// size 1024 / M) of every [`run_pool`].
const M: usize = 32;
const R: usize = 64;
const SEGMENTS: usize = 1024 / M;

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
/// handler sleeps `work_us` per chunk. `concurrent` picks the claim
/// intake over the deque intake, and `r` is the pool size in chunks
/// (`SEGMENTS + 1 ..= R`). When `force_stop` is set the pool is torn
/// down right after the rings close instead of joining naturally,
/// exercising the delivery-drop drain path.
#[allow(clippy::too_many_arguments)]
fn run_pool(
    total: u64,
    queues: usize,
    workers: usize,
    flows: u16,
    work_us: u64,
    force_stop: bool,
    concurrent: bool,
    r: usize,
) -> (EngineSnapshot, Vec<PoolWorkerReport>, u64) {
    let nic = LiveNic::new(queues, 8192);
    let mut cfg = WireCapConfig::basic(M, r, 0);
    cfg.capture_timeout_ns = 1_000_000;
    cfg.concurrent_queue = concurrent;
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

    // `shutdown()` abandons whatever is still in the NIC ring, so wait
    // until capture has taken or capture-dropped every packet: then
    // conservation is against `total`, and a natural join delivers all
    // of it. Shutdown closes the rings; the pool then drains to
    // end-of-stream (join) or is forced down with work still queued
    // (stop).
    let observer = engine.observer();
    loop {
        let s = observer.snapshot();
        let seen: u64 = s
            .queues
            .iter()
            .map(|q| q.captured_packets + q.capture_drop_packets)
            .sum();
        if seen >= total {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    engine.shutdown();
    let reports = if force_stop { pool.stop() } else { pool.join() };
    let snap = observer.snapshot();
    (snap, reports, handled.load(Ordering::Relaxed))
}

fn assert_conserved(snap: &EngineSnapshot, total: u64, concurrent: bool) {
    let steal_out: u64 = snap.queues.iter().map(|q| q.steal_out_chunks).sum();
    let steal_in: u64 = snap.queues.iter().map(|q| q.steal_in_chunks).sum();
    assert_eq!(steal_out, steal_in, "steal out/in drifted: {snap:?}");
    if concurrent {
        assert_eq!(steal_out, 0, "the claim intake must never steal: {snap:?}");
    }
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
    let (snap, reports, handled) = run_pool(1_600, 2, 2, 1, 100, false, false, R);
    assert_conserved(&snap, 1_600, false);
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
    let (snap, reports, handled) = run_pool(2_000, 2, 2, 4, 150, true, false, R);
    assert_conserved(&snap, 2_000, false);
    let delivered: u64 = snap.queues.iter().map(|q| q.delivered_packets).sum();
    assert_eq!(handled, delivered);
    assert_eq!(reports.iter().map(|r| r.packets).sum::<u64>(), delivered);
}

/// Claim-intake smoke test: skewed single-flow traffic on one hot
/// queue, three claim workers with a stall per chunk. Every worker
/// drains the same queue, nothing is stolen, and a natural join
/// delivers everything.
#[test]
fn claim_pool_drains_a_hot_queue_and_conserves() {
    let (snap, reports, handled) = run_pool(1_600, 2, 3, 1, 120, false, true, R);
    assert_conserved(&snap, 1_600, true);
    let delivered: u64 = snap.queues.iter().map(|q| q.delivered_packets).sum();
    assert_eq!(handled, delivered, "handler saw every delivered packet");
    assert_eq!(
        reports.iter().map(|r| r.packets).sum::<u64>(),
        delivered,
        "worker reports disagree with telemetry"
    );
    assert_eq!(handled, 1_600, "natural join delivers everything");
}

/// A forced stop of a claim pool drops whatever is still queued in the
/// claim queues and accounts the drops on their home queues. Runs at
/// the smallest valid pool: a shrunk pool must not perturb the
/// forced-stop sweep.
#[test]
fn forced_claim_pool_stop_at_smallest_pool_accounts_drops() {
    let (snap, reports, handled) = run_pool(2_000, 2, 3, 4, 150, true, true, SEGMENTS + 1);
    assert_conserved(&snap, 2_000, true);
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
    assert_conserved(&snap, total, false);
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

/// One randomized pool run on the given intake, audited against the
/// ledgers above and the workers' own reports.
#[allow(clippy::too_many_arguments)]
fn audit_random_pool(
    total: u64,
    queues: usize,
    workers: usize,
    flows: u16,
    work_us: u64,
    force_stop: bool,
    concurrent: bool,
    r: usize,
) {
    let (snap, reports, handled) = run_pool(
        total, queues, workers, flows, work_us, force_stop, concurrent, r,
    );
    assert_conserved(&snap, total, concurrent);
    let delivered: u64 = snap.queues.iter().map(|q| q.delivered_packets).sum();
    assert_eq!(handled, delivered);
    assert_eq!(reports.iter().map(|r| r.packets).sum::<u64>(), delivered);
    assert_eq!(reports.len(), workers);
    if !force_stop {
        assert_eq!(handled, total, "natural join delivers everything");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation holds across randomized steal/pop/recycle schedules
    /// on the deque intake: any worker count (including workers with no
    /// owned queue), any flow spread, any handler latency, graceful or
    /// forced teardown, at any pool size from the smallest valid one up
    /// to the default.
    #[test]
    fn pool_accounting_survives_random_interleavings(
        total in 400u64..2_500,
        queues in 1usize..4,
        workers in 1usize..5,
        flows in 1u16..8,
        work_us in 0u64..120,
        force_stop in any::<bool>(),
        r in SEGMENTS + 1..=R,
    ) {
        audit_random_pool(total, queues, workers, flows, work_us, force_stop, false, r);
    }

    /// The same audit on the claim intake: any number of workers
    /// claiming off the same queues, any stall pattern, graceful or
    /// forced teardown, at any pool size — and nothing is ever stolen.
    #[test]
    fn claim_accounting_survives_random_interleavings(
        total in 400u64..2_500,
        queues in 1usize..4,
        workers in 1usize..5,
        flows in 1u16..8,
        work_us in 0u64..150,
        force_stop in any::<bool>(),
        r in SEGMENTS + 1..=R,
    ) {
        audit_random_pool(total, queues, workers, flows, work_us, force_stop, true, r);
    }
}
