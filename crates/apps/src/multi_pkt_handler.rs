//! `multi_pkt_handler` — the multi-threaded experiment application.
//!
//! "It is a multi-threaded version of pkt_handler, called
//! multi_pkt_handler, which can spawn one or multiple pkt_handler threads
//! that share the same address space." (§4)
//!
//! This is the live-mode driver: one `pkt_handler` thread per receive
//! queue, consuming chunks from the live WireCAP engine. Because all
//! threads belong to one process, the engine forms one buddy group over
//! all queues — the advanced-mode setup of §4.
//!
//! The engine it starts honors the live-telemetry environment
//! (`WIRECAP_TELEMETRY_LISTEN` — DESIGN.md §4.9), so any run of this
//! driver can be scraped while it processes.

use crate::pkt_handler::PktHandler;
use flowstat::{merge_top_k, FlowSink, FlowSinkConfig};
use netproto::FlowKey;
use nicsim::livenic::LiveNic;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use wirecap::buddy::BuddyGroups;
use wirecap::live::LiveWireCap;
use wirecap::NicSimBackend;
use wirecap::{BuddyGroup, PoolWorkerReport, WireCapConfig};

/// Results from one pkt_handler thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandlerReport {
    /// Queue the thread consumed from.
    pub queue: usize,
    /// Packets processed.
    pub processed: u64,
    /// Packets that matched the filter.
    pub matched: u64,
}

/// Runs one `pkt_handler` thread per queue of a live WireCAP engine
/// until the NIC stops, then reports per-thread counts.
///
/// The caller owns the injection side: inject packets into `nic`, call
/// [`LiveNic::stop`], then collect the reports this function returns.
pub fn run(nic: Arc<LiveNic>, cfg: WireCapConfig, x: u32) -> Vec<HandlerReport> {
    let queues = nic.queue_count();
    let groups = if cfg.threshold.is_some() {
        BuddyGroups::single(queues)
    } else {
        BuddyGroups::isolated(queues)
    };
    let cap = LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(&nic)))
        .config(cfg)
        .groups(groups)
        .start();
    let workers: Vec<_> = (0..queues)
        .map(|q| {
            let mut consumer = cap.consumer(q);
            std::thread::Builder::new()
                .name(format!("pkt-handler-{q}"))
                .spawn(move || {
                    let mut handler = PktHandler::paper(x);
                    let mut matched = 0u64;
                    while let Some(chunk) = consumer.next_chunk() {
                        // Zero-copy consumption: the filter runs on
                        // borrowed arena slices; recycling the chunk
                        // ends the view's lifetime.
                        for pkt in consumer.view(&chunk).iter() {
                            if handler.handle_bytes(pkt.data) {
                                matched += 1;
                            }
                        }
                        consumer.recycle(chunk);
                    }
                    HandlerReport {
                        queue: q,
                        processed: handler.processed(),
                        matched,
                    }
                })
                .expect("spawning pkt_handler thread")
        })
        .collect();
    let reports = workers
        .into_iter()
        .map(|w| w.join().expect("pkt_handler thread panicked"))
        .collect();
    cap.shutdown();
    reports
}

/// Results from one pooled `multi_pkt_handler` run.
#[derive(Debug, Clone)]
pub struct PooledReport {
    /// Packets the handlers processed (across all workers).
    pub processed: u64,
    /// Packets that matched the filter.
    pub matched: u64,
    /// Chunks that moved between workers by stealing.
    pub stolen_chunks: u64,
    /// Per-worker accounting from the pool.
    pub workers: Vec<PoolWorkerReport>,
}

/// Runs a work-stealing [`wirecap::ConsumerPool`] of `workers` threads
/// over *all* queues of a live WireCAP engine until the NIC stops —
/// the multi-core variant of [`run`] (DESIGN.md §4.11).
///
/// Where [`run`] binds one thread to each queue (and a skewed flow mix
/// leaves most of them idle), the pool lets any worker steal sealed
/// chunks from a hot queue's backlog, so delivery throughput follows
/// the worker count rather than the flow distribution. Each worker
/// thread keeps its own [`PktHandler`] (the BPF filter program is
/// compiled once per worker, not per chunk). With
/// `cfg.concurrent_queue` set, every worker instead claims chunks off
/// the same queue's sealed stream, so even traffic pinned to one queue
/// is drained by all `workers` threads at once (DESIGN.md §4.12).
pub fn run_pooled(nic: Arc<LiveNic>, cfg: WireCapConfig, x: u32, workers: usize) -> PooledReport {
    let queues = nic.queue_count();
    let cap = LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(&nic)))
        .config(cfg)
        .groups(BuddyGroups::single(queues))
        .start();
    let group = BuddyGroup::all(queues);
    let processed = Arc::new(AtomicU64::new(0));
    let matched = Arc::new(AtomicU64::new(0));
    let pool = {
        let processed = Arc::clone(&processed);
        let matched = Arc::clone(&matched);
        cap.consumer_pool(&group, workers, move |d| {
            thread_local! {
                static HANDLER: RefCell<Option<PktHandler>> = const { RefCell::new(None) };
            }
            HANDLER.with(|slot| {
                let mut slot = slot.borrow_mut();
                let handler = slot.get_or_insert_with(|| PktHandler::paper(x));
                let mut m = 0u64;
                for pkt in d.view().iter() {
                    if handler.handle_bytes(pkt.data) {
                        m += 1;
                    }
                }
                processed.fetch_add(d.len() as u64, Ordering::Relaxed);
                matched.fetch_add(m, Ordering::Relaxed);
            });
        })
    };
    let reports = pool.join();
    cap.shutdown();
    PooledReport {
        processed: processed.load(Ordering::Relaxed),
        matched: matched.load(Ordering::Relaxed),
        stolen_chunks: reports.iter().map(|r| r.stolen_chunks).sum(),
        workers: reports,
    }
}

/// Results from one flow-tracking `multi_pkt_handler` run.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Packets the handlers processed (across all workers).
    pub processed: u64,
    /// Packets that matched the filter.
    pub matched: u64,
    /// Frames that did not parse to an IPv4 5-tuple.
    pub unparsed: u64,
    /// Packets recorded into flow tables (== processed - unparsed).
    pub tracked_packets: u64,
    /// Flows live across all workers' tables at end of run.
    pub live_flows: u64,
    /// Flows displaced by LRU eviction across all workers.
    pub evicted_flows: u64,
    /// Packets folded into eviction aggregates across all workers.
    pub evicted_packets: u64,
    /// Occupied non-matching slots scanned across all workers.
    pub hash_collisions: u64,
    /// The merged global top flows, strongest first.
    pub top: Vec<(FlowKey, u64)>,
    /// Per-worker accounting from the pool.
    pub workers: Vec<PoolWorkerReport>,
}

/// [`run_pooled`] with online flow analytics: each worker keeps a
/// [`FlowSink`] (exact set-associative flow table + top-K candidate
/// tracker) beside its BPF filter, and after every chunk flushes its
/// counter deltas into the home queue's `flow` telemetry shard. After
/// the pool drains, the per-worker trackers merge into the global top
/// `k` (DESIGN.md §4.15).
pub fn run_pooled_flows(
    nic: Arc<LiveNic>,
    cfg: WireCapConfig,
    x: u32,
    workers: usize,
    flow_cfg: FlowSinkConfig,
    k: usize,
) -> FlowReport {
    let queues = nic.queue_count();
    let cap = LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(&nic)))
        .config(cfg)
        .groups(BuddyGroups::single(queues))
        .start();
    let group = BuddyGroup::all(queues);
    let reg = cap.registry_handle();
    let processed = Arc::new(AtomicU64::new(0));
    let matched = Arc::new(AtomicU64::new(0));
    // One sink per worker. The pool guarantees one delivery at a time
    // per worker index, so each Mutex is uncontended — it exists only
    // to make the shared Vec Sync.
    let sinks: Arc<Vec<Mutex<FlowSink>>> = Arc::new(
        (0..workers.max(1))
            .map(|_| Mutex::new(FlowSink::new(flow_cfg)))
            .collect(),
    );
    // Per-worker occupancy levels: each flush republishes the global
    // sum, so the gauge is a consistent engine-wide level no matter
    // how workers map onto queues.
    let occupancy: Arc<Vec<AtomicU64>> =
        Arc::new((0..workers.max(1)).map(|_| AtomicU64::new(0)).collect());
    let pool = {
        let processed = Arc::clone(&processed);
        let matched = Arc::clone(&matched);
        let sinks = Arc::clone(&sinks);
        let occupancy = Arc::clone(&occupancy);
        cap.consumer_pool(&group, workers, move |d| {
            thread_local! {
                static HANDLER: RefCell<Option<PktHandler>> = const { RefCell::new(None) };
            }
            HANDLER.with(|slot| {
                let mut slot = slot.borrow_mut();
                let handler = slot.get_or_insert_with(|| PktHandler::paper(x));
                let mut m = 0u64;
                for pkt in d.view().iter() {
                    if handler.handle_bytes(pkt.data) {
                        m += 1;
                    }
                }
                processed.fetch_add(d.len() as u64, Ordering::Relaxed);
                matched.fetch_add(m, Ordering::Relaxed);
            });
            let mut sink = sinks[d.worker()].lock().expect("flow sink poisoned");
            sink.record_frames(d.view().iter().map(|p| p.data));
            let deltas = sink.drain_deltas();
            drop(sink);
            // Counter deltas charge the chunk's home queue (multi-writer
            // shard: several workers may drain one hot queue).
            let flow = &reg.queue(d.home()).flow.0;
            flow.flow_tracked_packets.add(deltas.packets);
            flow.flow_evicted_flows.add(deltas.evicted_flows);
            flow.flow_evicted_packets.add(deltas.evicted_packets);
            flow.flow_hash_collisions.add(deltas.hash_collisions);
            occupancy[d.worker()].store(deltas.occupancy, Ordering::Relaxed);
            let total: u64 = occupancy.iter().map(|o| o.load(Ordering::Relaxed)).sum();
            reg.queue(0).flow.0.flow_table_occupancy.set(total);
        })
    };
    let reports = pool.join();
    cap.shutdown();
    let Ok(sinks) = Arc::try_unwrap(sinks) else {
        unreachable!("pool joined, sinks unshared");
    };
    let sinks: Vec<FlowSink> = sinks
        .into_iter()
        .map(|m| m.into_inner().expect("flow sink poisoned"))
        .collect();
    let refs: Vec<&FlowSink> = sinks.iter().collect();
    let top = merge_top_k(&refs, k);
    let mut report = FlowReport {
        processed: processed.load(Ordering::Relaxed),
        matched: matched.load(Ordering::Relaxed),
        unparsed: 0,
        tracked_packets: 0,
        live_flows: 0,
        evicted_flows: 0,
        evicted_packets: 0,
        hash_collisions: 0,
        top,
        workers: reports,
    };
    for s in &sinks {
        let st = s.stats();
        report.unparsed += s.unparsed();
        report.tracked_packets += st.tracked_packets;
        report.live_flows += st.live_flows;
        report.evicted_flows += st.evicted_flows;
        report.evicted_packets += st.evicted_packets;
        report.hash_collisions += st.hash_collisions;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use netproto::{FlowKey, PacketBuilder};
    use std::net::Ipv4Addr;

    #[test]
    fn all_threads_process_their_share() {
        let nic = LiveNic::new(2, 4096);
        let injector = {
            let nic = Arc::clone(&nic);
            std::thread::spawn(move || {
                let mut b = PacketBuilder::new();
                for i in 0..1000u16 {
                    let flow = FlowKey::udp(
                        Ipv4Addr::new(131, 225, 2, (i % 250) as u8 + 1),
                        1000 + i,
                        Ipv4Addr::new(8, 8, 8, 8),
                        53,
                    );
                    let pkt = b.build_packet(u64::from(i), &flow, 100).unwrap();
                    while nic.inject(pkt.clone()).is_none() {
                        std::thread::yield_now();
                    }
                }
                nic.stop();
            })
        };
        let mut cfg = WireCapConfig::basic(64, 32, 0);
        cfg.capture_timeout_ns = 1_000_000;
        let reports = run(Arc::clone(&nic), cfg, 3);
        injector.join().unwrap();
        let processed: u64 = reports.iter().map(|r| r.processed).sum();
        let matched: u64 = reports.iter().map(|r| r.matched).sum();
        assert_eq!(processed, 1000);
        assert_eq!(matched, 1000); // every packet matches the paper filter
        assert_eq!(reports.len(), 2);
    }

    #[test]
    fn pooled_run_processes_everything_under_skew() {
        let nic = LiveNic::new(2, 4096);
        let injector = {
            let nic = Arc::clone(&nic);
            std::thread::spawn(move || {
                let mut b = PacketBuilder::new();
                // One flow: everything lands on a single queue, the
                // worst case for per-queue consumers and the case the
                // pool exists for.
                let flow = FlowKey::udp(
                    Ipv4Addr::new(131, 225, 2, 9),
                    7_777,
                    Ipv4Addr::new(8, 8, 8, 8),
                    53,
                );
                for i in 0..1000u64 {
                    let pkt = b.build_packet(i * 1_000, &flow, 100).unwrap();
                    while nic.inject(pkt.clone()).is_none() {
                        std::thread::yield_now();
                    }
                }
                nic.stop();
            })
        };
        let mut cfg = WireCapConfig::basic(64, 32, 0);
        cfg.capture_timeout_ns = 1_000_000;
        let report = run_pooled(Arc::clone(&nic), cfg, 3, 2);
        injector.join().unwrap();
        assert_eq!(report.processed, 1000);
        assert_eq!(report.matched, 1000);
        assert_eq!(report.workers.len(), 2);
        assert_eq!(
            report.workers.iter().map(|r| r.packets).sum::<u64>(),
            1000,
            "worker reports disagree with handler counts"
        );
    }

    #[test]
    fn flow_mode_tracks_flows_and_finds_the_elephant() {
        let nic = LiveNic::new(2, 4096);
        let elephant = FlowKey::udp(
            Ipv4Addr::new(131, 225, 2, 9),
            7_777,
            Ipv4Addr::new(8, 8, 8, 8),
            53,
        );
        let injector = {
            let nic = Arc::clone(&nic);
            std::thread::spawn(move || {
                let mut b = PacketBuilder::new();
                for i in 0..900u64 {
                    // Two thirds elephant, one third spread over mice.
                    let flow = if i % 3 != 0 {
                        elephant
                    } else {
                        FlowKey::udp(
                            Ipv4Addr::new(10, 0, 1, (i % 200) as u8 + 1),
                            2_000 + (i % 200) as u16,
                            Ipv4Addr::new(8, 8, 8, 8),
                            53,
                        )
                    };
                    let pkt = b.build_packet(i * 1_000, &flow, 100).unwrap();
                    while nic.inject(pkt.clone()).is_none() {
                        std::thread::yield_now();
                    }
                }
                nic.stop();
            })
        };
        let mut cfg = WireCapConfig::basic(64, 32, 0);
        cfg.capture_timeout_ns = 1_000_000;
        let flow_cfg = FlowSinkConfig {
            table_capacity: 4096,
            topk_capacity: 64,
        };
        let report = run_pooled_flows(Arc::clone(&nic), cfg, 3, 2, flow_cfg, 4);
        injector.join().unwrap();
        assert_eq!(report.processed, 900);
        assert_eq!(report.unparsed, 0);
        assert_eq!(report.tracked_packets, 900);
        assert_eq!(report.evicted_flows, 0, "table sized to hold every flow");
        assert_eq!(report.top[0], (elephant, 600));
        let live_sum: u64 = report.tracked_packets - report.evicted_packets;
        assert_eq!(live_sum, 900, "every packet sits in a live flow count");
    }

    #[test]
    fn concurrent_flow_mode_conserves_on_one_hot_queue() {
        let nic = LiveNic::new(2, 4096);
        let flow = FlowKey::udp(
            Ipv4Addr::new(131, 225, 2, 9),
            7_777,
            Ipv4Addr::new(8, 8, 8, 8),
            53,
        );
        let injector = {
            let nic = Arc::clone(&nic);
            std::thread::spawn(move || {
                let mut b = PacketBuilder::new();
                for i in 0..800u64 {
                    let pkt = b.build_packet(i * 1_000, &flow, 100).unwrap();
                    while nic.inject(pkt.clone()).is_none() {
                        std::thread::yield_now();
                    }
                }
                nic.stop();
            })
        };
        let mut cfg = WireCapConfig::basic(64, 32, 0);
        cfg.capture_timeout_ns = 1_000_000;
        cfg.concurrent_queue = true;
        let report = run_pooled_flows(
            Arc::clone(&nic),
            cfg,
            3,
            3,
            FlowSinkConfig {
                table_capacity: 1024,
                topk_capacity: 16,
            },
            1,
        );
        injector.join().unwrap();
        assert_eq!(report.processed, 800);
        assert_eq!(report.tracked_packets, 800);
        assert_eq!(report.top, vec![(flow, 800)]);
    }

    #[test]
    fn concurrent_run_processes_everything_on_one_hot_queue() {
        let nic = LiveNic::new(2, 4096);
        let injector = {
            let nic = Arc::clone(&nic);
            std::thread::spawn(move || {
                let mut b = PacketBuilder::new();
                // One flow, one queue: the concurrent claim path's
                // reason for existing.
                let flow = FlowKey::udp(
                    Ipv4Addr::new(131, 225, 2, 9),
                    7_777,
                    Ipv4Addr::new(8, 8, 8, 8),
                    53,
                );
                for i in 0..1000u64 {
                    let pkt = b.build_packet(i * 1_000, &flow, 100).unwrap();
                    while nic.inject(pkt.clone()).is_none() {
                        std::thread::yield_now();
                    }
                }
                nic.stop();
            })
        };
        let mut cfg = WireCapConfig::basic(64, 32, 0);
        cfg.capture_timeout_ns = 1_000_000;
        cfg.concurrent_queue = true;
        let report = run_pooled(Arc::clone(&nic), cfg, 3, 3);
        injector.join().unwrap();
        assert_eq!(report.processed, 1000);
        assert_eq!(report.matched, 1000);
        assert_eq!(report.workers.len(), 3);
        assert_eq!(
            report.workers.iter().map(|r| r.packets).sum::<u64>(),
            1000,
            "worker reports disagree with handler counts"
        );
        assert_eq!(
            report.stolen_chunks, 0,
            "concurrent mode claims, it never steals"
        );
    }
}
