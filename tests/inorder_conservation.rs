//! Concurrent-claim pool accounting under randomized interleavings,
//! with and without in-order delivery (DESIGN.md §4.12).
//!
//! Mirrors `steal_conservation.rs` for the COREC-style claim mode:
//! N workers drain the *same* queues' sealed streams through lock-free
//! claim words instead of deques and stealing. The audited invariants:
//!
//! * Σ `delivered_packets` + Σ `delivery_drop_packets` ==
//!   Σ `captured_packets` (every captured chunk reached a handler or
//!   was explicitly dropped by a forced stop — including chunks caught
//!   mid-claim or stranded behind a gap in the reorder buffer),
//! * Σ `recycled_chunks` == Σ `sealed_chunks` (every slot came home),
//! * Σ `steal_in_chunks` == Σ `steal_out_chunks` == 0 (claim mode
//!   never steals: the claim CAS is the load balancer),
//! * with `in_order`: per home queue, the handler observes strictly
//!   increasing sequence numbers, and no chunk is left in the reorder
//!   buffer after shutdown (`reorder_occupancy` drains to zero).
//!
//! Randomized worker stalls (a sleep on a pseudo-random subset of
//! chunks) force reorder-buffer occupancy and claim contention, so the
//! in-order path is exercised with real gaps, not just the fast path.
//! The pool size R is randomized too, from the smallest valid pool
//! (one spare chunk past the descriptor segments) up to the default,
//! so a shrunk pool faces the same interleavings — including forced
//! stops — as the default.

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
use wirecap::{PoolWorkerReport, WireCapConfig};

/// Cells per chunk, default pool size and descriptor segments (ring
/// size 1024 / M) of every run.
const M: usize = 32;
const R: usize = 64;
const SEGMENTS: usize = 1024 / M;

/// One concurrent-claim pool run. `stall_us > 0` makes the handler
/// sleep on every chunk whose sequence number lands on a small residue
/// class, staggering workers so in-order runs accumulate real gaps.
/// `force_stop` tears the pool down right after the rings close,
/// exercising the claim-drain and reorder-strand sweep. `r` is the
/// pool size in chunks (`SEGMENTS + 1 ..= R`).
#[allow(clippy::too_many_arguments)]
fn run_concurrent(
    total: u64,
    queues: usize,
    workers: usize,
    flows: u16,
    stall_us: u64,
    in_order: bool,
    force_stop: bool,
    r: usize,
) -> (EngineSnapshot, Vec<PoolWorkerReport>, u64) {
    let nic = LiveNic::new(queues, 8192);
    let mut cfg = WireCapConfig::basic(M, r, 0);
    cfg.capture_timeout_ns = 1_000_000;
    cfg.concurrent_queue = true;
    cfg.in_order = in_order;
    let groups = BuddyGroups::single(queues);
    let group = groups.group_of(0).cloned().expect("queue 0 grouped");
    let engine = LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(&nic)))
        .config(cfg)
        .groups(groups)
        .start();

    let handled = Arc::new(AtomicU64::new(0));
    // Last sequence number the handler saw per home queue (u64::MAX =
    // none yet). In-order delivery is serialized per queue by the
    // reorder pump, so a swap-and-compare is race-free.
    let last_seq: Arc<Vec<AtomicU64>> =
        Arc::new((0..queues).map(|_| AtomicU64::new(u64::MAX)).collect());
    let pool = {
        let handled = Arc::clone(&handled);
        let last_seq = Arc::clone(&last_seq);
        engine.consumer_pool(&group, workers, move |d| {
            let mut bytes = 0usize;
            for p in d.view().iter() {
                bytes += p.data.len();
            }
            assert!(bytes > 0 || d.is_empty());
            if in_order {
                let prev = last_seq[d.home()].swap(d.seq(), Ordering::SeqCst);
                assert!(
                    prev == u64::MAX || d.seq() > prev,
                    "queue {} delivered seq {} after {}",
                    d.home(),
                    d.seq(),
                    prev
                );
            }
            handled.fetch_add(d.len() as u64, Ordering::Relaxed);
            if stall_us > 0 && d.seq() % 5 == 0 {
                std::thread::sleep(Duration::from_micros(stall_us));
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

    // `shutdown()` abandons whatever is still in the NIC ring (the
    // backpressure design leaves overflow to the hardware's drop
    // accounting), so conservation against `total` is only meaningful
    // once capture has drained the ring. In-order runs make exhaustion
    // likely: the reorder pump serializes stalled handlers, chunks pool
    // up in the buffer, and capture parks out of free slots — wait for
    // every injected packet to be captured or capture-dropped first.
    // Forced stops still find work queued in the claim and reorder
    // buffers, so the drop-drain path stays exercised.
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

fn assert_conserved(snap: &EngineSnapshot, total: u64) {
    let steal_out: u64 = snap.queues.iter().map(|q| q.steal_out_chunks).sum();
    let steal_in: u64 = snap.queues.iter().map(|q| q.steal_in_chunks).sum();
    assert_eq!(steal_out, 0, "claim mode must never steal: {snap:?}");
    assert_eq!(steal_in, 0, "claim mode must never steal: {snap:?}");
    let captured: u64 = snap.queues.iter().map(|q| q.captured_packets).sum();
    let delivered: u64 = snap.queues.iter().map(|q| q.delivered_packets).sum();
    let delivery_dropped: u64 = snap.queues.iter().map(|q| q.delivery_drop_packets).sum();
    assert_eq!(
        delivered + delivery_dropped,
        captured,
        "packets lost between capture and the claim workers: {snap:?}"
    );
    let sealed: u64 = snap.queues.iter().map(|q| q.sealed_chunks).sum();
    let recycled: u64 = snap.queues.iter().map(|q| q.recycled_chunks).sum();
    assert_eq!(recycled, sealed, "chunk slots leaked: {snap:?}");
    let dropped: u64 = snap.queues.iter().map(|q| q.capture_drop_packets).sum();
    assert_eq!(
        captured + dropped,
        total,
        "captured + capture-dropped must cover every injected packet: {snap:?}"
    );
    let stranded: u64 = snap.queues.iter().map(|q| q.reorder_occupancy).sum();
    assert_eq!(stranded, 0, "chunks stranded in reorder buffers: {snap:?}");
}

/// Deterministic in-order smoke test (tier-1): skewed single-flow
/// traffic on one hot queue, three claim workers with staggered
/// stalls, strictly increasing delivery asserted in the handler.
#[test]
fn inorder_claims_deliver_sequenced_and_conserve() {
    let (snap, reports, handled) = run_concurrent(1_600, 2, 3, 1, 120, true, false, R);
    assert_conserved(&snap, 1_600);
    let delivered: u64 = snap.queues.iter().map(|q| q.delivered_packets).sum();
    assert_eq!(handled, delivered, "handler saw every delivered packet");
    assert_eq!(
        reports.iter().map(|r| r.packets).sum::<u64>(),
        delivered,
        "worker reports disagree with telemetry"
    );
    assert_eq!(handled, 1_600, "natural join delivers everything");
}

/// A forced stop mid-claim drops whatever is still queued or stranded
/// behind a reorder gap, and the drops are accounted — no chunk is
/// left in the buffer, no slot leaks. Runs at the smallest valid pool:
/// a shrunk pool must not perturb the forced-stop sweep.
#[test]
fn forced_stop_drains_reorder_buffer_without_leaks() {
    let (snap, reports, handled) = run_concurrent(2_000, 2, 3, 4, 150, true, true, SEGMENTS + 1);
    assert_conserved(&snap, 2_000);
    let delivered: u64 = snap.queues.iter().map(|q| q.delivered_packets).sum();
    assert_eq!(handled, delivered);
    assert_eq!(reports.iter().map(|r| r.packets).sum::<u64>(), delivered);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation and per-queue delivery order hold across
    /// randomized claim interleavings: any worker count, any flow
    /// spread, any stall pattern, graceful or forced teardown,
    /// ordered or unordered, at any pool size from the smallest valid
    /// one up to the default.
    #[test]
    fn claim_accounting_survives_random_interleavings(
        total in 400u64..2_500,
        queues in 1usize..4,
        workers in 1usize..5,
        flows in 1u16..8,
        stall_us in 0u64..150,
        in_order in any::<bool>(),
        force_stop in any::<bool>(),
        r in SEGMENTS + 1..=R,
    ) {
        let (snap, reports, handled) =
            run_concurrent(total, queues, workers, flows, stall_us, in_order, force_stop, r);
        assert_conserved(&snap, total);
        let delivered: u64 = snap.queues.iter().map(|q| q.delivered_packets).sum();
        prop_assert_eq!(handled, delivered);
        prop_assert_eq!(reports.iter().map(|r| r.packets).sum::<u64>(), delivered);
        prop_assert_eq!(reports.len(), workers);
        if !force_stop {
            prop_assert_eq!(handled, total, "natural join delivers everything");
        }
    }
}
