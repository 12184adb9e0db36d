//! Flow-accounting conservation under randomized pool schedules.
//!
//! The flow table's core invariant (DESIGN.md §4.15) is that eviction
//! loses identity but never counts: at any instant,
//!
//! * Σ live per-flow `packets` + `evicted_packets` == `tracked_packets`,
//! * and with every delivered frame parseable (synthetic traffic),
//!   Σ `tracked_packets` over the workers' sinks == Σ `delivered_packets`
//!   from the pool reports — even when the pool is forced down with
//!   chunks still queued (those count as delivery drops, not flows).
//!
//! The proptest drives randomized packet/queue/worker/flow schedules
//! through both the work-stealing pool and the concurrent claim path,
//! with tables sized small enough that eviction actually fires, and
//! checks the per-chunk telemetry flushes agree with the sinks.

use flowstat::{FlowSink, FlowSinkConfig};
use netproto::{FlowKey, PacketBuilder};
use nicsim::livenic::LiveNic;
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};
use telemetry::EngineSnapshot;
use wirecap::buddy::BuddyGroups;
use wirecap::live::LiveWireCap;
use wirecap::NicSimBackend;
use wirecap::{PoolWorkerReport, WireCapConfig};

struct FlowRun {
    sinks: Vec<FlowSink>,
    reports: Vec<PoolWorkerReport>,
    snap: EngineSnapshot,
    /// Ground truth: packets injected per flow.
    injected: HashMap<FlowKey, u64>,
}

fn flow_key(i: u64, flows: u16) -> FlowKey {
    let f = i % u64::from(flows.max(1));
    FlowKey::udp(
        Ipv4Addr::new(10, 9, (f % 250) as u8, 9),
        9_000 + f as u16,
        Ipv4Addr::new(131, 225, 2, 1),
        443,
    )
}

fn run_flow_pool(
    total: u64,
    queues: usize,
    workers: usize,
    flows: u16,
    table_capacity: usize,
    concurrent: bool,
    force_stop: bool,
) -> FlowRun {
    let nic = LiveNic::new(queues, 8192);
    let mut cfg = WireCapConfig::basic(32, 64, 0);
    cfg.capture_timeout_ns = 1_000_000;
    cfg.concurrent_queue = concurrent;
    let groups = BuddyGroups::single(queues);
    let group = groups.group_of(0).cloned().expect("queue 0 grouped");
    let engine = LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(&nic)))
        .config(cfg)
        .groups(groups)
        .start();

    let reg = engine.registry_handle();
    let sinks: Arc<Vec<Mutex<FlowSink>>> = Arc::new(
        (0..workers)
            .map(|_| {
                Mutex::new(FlowSink::new(FlowSinkConfig {
                    table_capacity,
                    topk_capacity: 16,
                }))
            })
            .collect(),
    );
    let pool = {
        let sinks = Arc::clone(&sinks);
        engine.consumer_pool(&group, workers, move |d| {
            let mut sink = sinks[d.worker()].lock().expect("sink poisoned");
            sink.record_frames(d.view().iter().map(|p| p.data));
            let deltas = sink.drain_deltas();
            drop(sink);
            let flow = &reg.queue(d.home()).flow.0;
            flow.flow_tracked_packets.add(deltas.packets);
            flow.flow_evicted_flows.add(deltas.evicted_flows);
            flow.flow_evicted_packets.add(deltas.evicted_packets);
            flow.flow_hash_collisions.add(deltas.hash_collisions);
        })
    };

    let mut injected: HashMap<FlowKey, u64> = HashMap::new();
    let mut b = PacketBuilder::new();
    for i in 0..total {
        let flow = flow_key(i, flows);
        *injected.entry(flow).or_insert(0) += 1;
        let pkt = b.build_packet(i * 1_000, &flow, 96).unwrap();
        while nic.inject(pkt.clone()).is_none() {
            std::thread::yield_now();
        }
    }
    nic.stop();

    let observer = engine.observer();
    engine.shutdown();
    let reports = if force_stop { pool.stop() } else { pool.join() };
    let snap = observer.snapshot();
    let Ok(sinks) = Arc::try_unwrap(sinks) else {
        unreachable!("pool joined, sinks unshared");
    };
    let sinks = sinks
        .into_iter()
        .map(|m| m.into_inner().expect("sink poisoned"))
        .collect();
    FlowRun {
        sinks,
        reports,
        snap,
        injected,
    }
}

fn assert_flow_conserved(r: &FlowRun) {
    let delivered: u64 = r.reports.iter().map(|w| w.packets).sum();

    // Per sink: live counts plus the eviction aggregate cover exactly
    // the packets that sink recorded.
    let mut tracked = 0u64;
    let mut evicted_packets = 0u64;
    let mut per_flow: HashMap<FlowKey, u64> = HashMap::new();
    for s in &r.sinks {
        let st = s.stats();
        let live: u64 = s.table().iter().map(|(_, p, _)| p).sum();
        assert_eq!(
            live + st.evicted_packets,
            st.tracked_packets,
            "sink leaked packets between live flows and the eviction aggregate"
        );
        assert_eq!(s.unparsed(), 0, "synthetic frames always parse");
        tracked += st.tracked_packets;
        evicted_packets += st.evicted_packets;
        for (key, p, _) in s.table().iter() {
            *per_flow.entry(key.to_flow()).or_insert(0) += p;
        }
    }

    // Every delivered frame was recorded into exactly one sink.
    assert_eq!(tracked, delivered, "delivered vs tracked drifted");

    // Merged across workers, per-flow counts plus evictions cover
    // delivery; no flow exceeds its injected count.
    let merged_live: u64 = per_flow.values().sum();
    assert_eq!(merged_live + evicted_packets, delivered);
    for (flow, n) in &per_flow {
        let injected = r.injected.get(flow).copied().unwrap_or(0);
        assert!(
            *n <= injected,
            "flow {flow:?} counted {n} packets but only {injected} were injected"
        );
    }

    // The per-chunk telemetry flushes agree with the sinks' own books.
    let tel_tracked: u64 = r.snap.queues.iter().map(|q| q.flow_tracked_packets).sum();
    let tel_evicted: u64 = r.snap.queues.iter().map(|q| q.flow_evicted_packets).sum();
    assert_eq!(tel_tracked, tracked, "telemetry missed recorded packets");
    assert_eq!(tel_evicted, evicted_packets, "telemetry missed evictions");
}

/// Deterministic smoke: enough flows into a deliberately small table
/// that eviction must fire, and conservation still holds.
#[test]
fn eviction_pressure_conserves_counts() {
    let r = run_flow_pool(3_000, 2, 2, 500, 64, false, false);
    assert_flow_conserved(&r);
    let evicted: u64 = r.sinks.iter().map(|s| s.stats().evicted_flows).sum();
    assert!(
        evicted > 0,
        "500 flows against 64 slots must evict; stats: {:?}",
        r.sinks.iter().map(|s| s.stats()).collect::<Vec<_>>()
    );
}

/// Without eviction pressure, the merged per-flow counts are *exact*:
/// every flow's merged count equals its injected count.
#[test]
fn exact_per_flow_counts_without_eviction() {
    let r = run_flow_pool(2_000, 2, 3, 40, 4096, false, false);
    assert_flow_conserved(&r);
    let mut per_flow: HashMap<FlowKey, u64> = HashMap::new();
    for s in &r.sinks {
        for (key, p, _) in s.table().iter() {
            *per_flow.entry(key.to_flow()).or_insert(0) += p;
        }
    }
    assert_eq!(per_flow, r.injected, "merged per-flow counts must be exact");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Conservation survives randomized schedules across both delivery
    /// modes, small tables (eviction), and forced stops (delivery
    /// drops never reach a sink).
    #[test]
    fn flow_accounting_survives_random_schedules(
        total in 400u64..2_000,
        queues in 1usize..3,
        workers in 1usize..4,
        flows in 1u16..300,
        table_shift in 5usize..13,
        concurrent in any::<bool>(),
        force_stop in any::<bool>(),
    ) {
        let r = run_flow_pool(
            total, queues, workers, flows, 1usize << table_shift,
            concurrent, force_stop,
        );
        assert_flow_conserved(&r);
        prop_assert_eq!(r.reports.len(), workers);
    }
}
