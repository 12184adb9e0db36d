//! Integration: the live (real-thread) engine end to end.
//!
//! Bounded, second-scale smoke runs of the concurrent implementation:
//! multi-queue capture with offloading, the multi_pkt_handler driver,
//! and loss accounting under deliberate overload.

use netproto::{FlowKey, PacketBuilder};
use nicsim::livenic::LiveNic;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wirecap::buddy::BuddyGroups;
use wirecap::live::LiveWireCap;
use wirecap::NicSimBackend;
use wirecap::WireCapConfig;

fn cfg() -> WireCapConfig {
    let mut cfg = WireCapConfig::basic(64, 32, 0);
    cfg.capture_timeout_ns = 1_500_000;
    cfg
}

fn inject_flows(nic: &Arc<LiveNic>, n: u16, dst_last: u8) {
    let mut b = PacketBuilder::new();
    for i in 0..n {
        let flow = FlowKey::udp(
            Ipv4Addr::new(131, 225, 2, (i % 200) as u8 + 1),
            9_000 + i,
            Ipv4Addr::new(10, 0, 0, dst_last),
            443,
        );
        let pkt = b.build_packet(u64::from(i), &flow, 128).unwrap();
        while nic.inject(pkt.clone()).is_none() {
            std::thread::yield_now();
        }
    }
}

#[test]
fn multi_queue_capture_accounts_every_packet() {
    let nic = LiveNic::new(4, 4096);
    let engine = LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(&nic)))
        .config(cfg())
        .groups(BuddyGroups::isolated(4))
        .start();
    let consumers: Vec<_> = (0..4)
        .map(|q| {
            let mut c = engine.consumer(q);
            std::thread::spawn(move || {
                let mut n = 0u64;
                while let Some(chunk) = c.next_chunk() {
                    n += chunk.len() as u64;
                    c.recycle(chunk);
                }
                n
            })
        })
        .collect();
    inject_flows(&nic, 5_000, 1);
    nic.stop();
    let consumed: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
    let tel = engine.snapshot().total();
    let captured = tel.captured_packets;
    let dropped = tel.capture_drop_packets;
    engine.shutdown();
    assert_eq!(captured + dropped, 5_000);
    assert_eq!(consumed, captured);
    assert_eq!(dropped, 0, "no overload, no drops");
}

#[test]
fn multi_pkt_handler_processes_all_queues() {
    let nic = LiveNic::new(3, 4096);
    let injector = {
        let nic = Arc::clone(&nic);
        std::thread::spawn(move || {
            inject_flows(&nic, 2_000, 2);
            nic.stop();
        })
    };
    let reports = apps::multi_pkt_handler::run(Arc::clone(&nic), cfg(), 2);
    injector.join().unwrap();
    let processed: u64 = reports.iter().map(|r| r.processed).sum();
    let matched: u64 = reports.iter().map(|r| r.matched).sum();
    assert_eq!(processed, 2_000);
    assert_eq!(matched, 2_000, "all traffic matches 131.225.2 and udp");
    assert_eq!(reports.len(), 3);
}

#[test]
fn offloading_moves_chunks_in_live_mode() {
    // Two queues, one buddy group, and one flow, so one queue gets every
    // packet. Its consumer takes nothing until that queue has offloaded
    // a chunk, so offloading must fire; T = 0 lets the first backlog do it.
    let nic = LiveNic::new(2, 8192);
    let mut config = WireCapConfig::advanced(64, 32, 0.0, 0);
    config.capture_timeout_ns = 1_500_000;
    let engine = LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(&nic)))
        .config(config)
        .groups(BuddyGroups::single(2))
        .start();

    let mut b = PacketBuilder::new();
    let flow = FlowKey::udp(
        Ipv4Addr::new(131, 225, 2, 9),
        50_000,
        Ipv4Addr::new(10, 0, 0, 9),
        443,
    );
    // The first injection names the flow's queue, whatever the hash.
    let first = b.build_packet(0, &flow, 128).unwrap();
    let busy = loop {
        match nic.inject(first.clone()) {
            Some(q) => break q,
            None => std::thread::yield_now(),
        }
    };
    let injected = Arc::new(AtomicBool::new(false));

    let fast = {
        let mut c = engine.consumer(1 - busy);
        std::thread::spawn(move || {
            let mut n = 0u64;
            while let Some(chunk) = c.next_chunk() {
                n += chunk.len() as u64;
                c.recycle(chunk);
            }
            n
        })
    };
    let gated = {
        let mut c = engine.consumer(busy);
        let observer = engine.observer();
        let injected = Arc::clone(&injected);
        std::thread::spawn(move || {
            // The NIC ring holds all 6,000 packets, so injection never
            // waits on this consumer and the backlog builds regardless.
            while observer.snapshot().queues[busy].offloaded_out_chunks == 0
                && !injected.load(Ordering::Acquire)
            {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            let mut n = 0u64;
            while let Some(chunk) = c.next_chunk() {
                n += chunk.len() as u64;
                c.recycle(chunk);
            }
            n
        })
    };
    for i in 1..6_000u64 {
        let pkt = b.build_packet(i, &flow, 128).unwrap();
        while nic.inject(pkt.clone()).is_none() {
            std::thread::yield_now();
        }
    }
    injected.store(true, Ordering::Release);
    nic.stop();
    let total = fast.join().unwrap() + gated.join().unwrap();
    let tel = engine.snapshot().total();
    let offloaded = tel.offloaded_in_chunks;
    let captured = tel.captured_packets;
    engine.shutdown();
    assert_eq!(total, captured, "every captured packet is consumed");
    assert!(offloaded > 0, "offloading must have moved chunks");
}

#[test]
fn overload_produces_bounded_loss_accounting() {
    // Tiny pool, no consumer at all until the end: drops must be counted,
    // and captured + dropped must equal offered.
    let nic = LiveNic::new(1, 256);
    let mut config = WireCapConfig::basic(64, 17, 0); // pool = 1088 pkts
    config.capture_timeout_ns = 50_000_000; // effectively never
    let engine = LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(&nic)))
        .config(config)
        .groups(BuddyGroups::isolated(1))
        .start();

    let mut b = PacketBuilder::new();
    let flow = FlowKey::udp(
        Ipv4Addr::new(131, 225, 2, 1),
        1,
        Ipv4Addr::new(10, 0, 0, 1),
        2,
    );
    let mut offered = 0u64;
    let mut wire_drops = 0u64;
    for i in 0..5_000u64 {
        let pkt = b.build_packet(i, &flow, 128).unwrap();
        offered += 1;
        if nic.inject(pkt).is_none() {
            wire_drops += 1;
        }
    }
    // Give the capture thread a moment to drain the NIC queue.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let mut c = engine.consumer(0);
    nic.stop();
    let mut consumed = 0u64;
    while let Some(chunk) = c.next_chunk() {
        consumed += chunk.len() as u64;
        c.recycle(chunk);
    }
    let t = engine.telemetry(0);
    let captured = t.captured_packets;
    let dropped = t.capture_drop_packets;
    engine.shutdown();
    assert_eq!(captured + dropped + wire_drops, offered);
    assert_eq!(consumed, captured);
    assert!(
        dropped + wire_drops > 0,
        "overload must be visible somewhere"
    );
}

/// §5e paradigm 1: "Multiple threads (or processes) of a packet-processing
/// application can access a single NIC receive queue, through the queue's
/// corresponding work-queue pair. Certainly, this approach incurs extra
/// synchronization overheads across these threads."
#[test]
fn multiple_consumers_share_one_queue() {
    let nic = LiveNic::new(1, 8192);
    let engine = LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(&nic)))
        .config(cfg())
        .groups(BuddyGroups::isolated(1))
        .start();
    let consumers: Vec<_> = (0..3)
        .map(|_| {
            let mut c = engine.consumer(0);
            std::thread::spawn(move || {
                let mut n = 0u64;
                while let Some(chunk) = c.next_chunk() {
                    n += chunk.len() as u64;
                    c.recycle(chunk);
                }
                n
            })
        })
        .collect();
    // One flow: everything lands on queue 0, three threads share it.
    let mut b = PacketBuilder::new();
    let flow = FlowKey::udp(
        Ipv4Addr::new(131, 225, 2, 7),
        7_000,
        Ipv4Addr::new(10, 0, 0, 7),
        443,
    );
    // Paced injection: the shared consumers must keep up with the
    // capture thread, or the (small, R = 32) pool exhausts — which is
    // correct engine behaviour but not what this test is about.
    for i in 0..4_000u64 {
        let pkt = b.build_packet(i, &flow, 128).unwrap();
        while nic.inject(pkt.clone()).is_none() {
            std::thread::yield_now();
        }
        if i % 64 == 63 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    nic.stop();
    let per_thread: Vec<u64> = consumers.into_iter().map(|c| c.join().unwrap()).collect();
    let dropped = engine.telemetry(0).capture_drop_packets;
    engine.shutdown();
    assert_eq!(per_thread.iter().sum::<u64>() + dropped, 4_000);
    assert_eq!(dropped, 0, "paced load must be lossless: {per_thread:?}");
}

/// §5e paradigm 2: application-level steering atop the capture stream —
/// more application queues than NIC queues, at the cost of one copy.
#[test]
fn app_level_steering_over_live_capture() {
    use wirecap::steering::AppSteering;
    let nic = LiveNic::new(2, 8192);
    let engine = LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(&nic)))
        .config(cfg())
        .groups(BuddyGroups::isolated(2))
        .start();
    let steering = AppSteering::new(16, 4096);
    let dispatchers: Vec<_> = (0..2)
        .map(|q| {
            let mut c = engine.consumer(q);
            let s = Arc::clone(&steering);
            std::thread::spawn(move || {
                let mut dropped = 0u64;
                while let Some(chunk) = c.next_chunk() {
                    dropped += s.dispatch_view(c.view(&chunk));
                    // The chunk recycles immediately — the copy decoupled it.
                    c.recycle(chunk);
                }
                dropped
            })
        })
        .collect();
    inject_flows(&nic, 3_000, 3);
    nic.stop();
    let dropped: u64 = dispatchers.into_iter().map(|d| d.join().unwrap()).sum();
    engine.shutdown();
    assert_eq!(dropped, 0);
    assert_eq!(steering.copied_packets(), 3_000);
    let delivered: u64 = (0..16).map(|i| steering.queue(i).enqueued()).sum();
    assert_eq!(delivered, 3_000);
    // The fan-out actually spread the traffic beyond the 2 NIC queues.
    let used = (0..16)
        .filter(|&i| steering.queue(i).enqueued() > 0)
        .count();
    assert!(used > 4, "only {used} app queues used");
}

/// Waits until the capture thread has popped everything queued on the
/// NIC's queue `q`.
fn wait_nic_drained(nic: &Arc<LiveNic>, q: usize) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while nic.queue(q).depth() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "NIC queue never drained"
        );
        std::thread::yield_now();
    }
}

#[test]
fn basic_mode_capture_path_charges_the_watermark() {
    // Basic mode makes no placement decisions, so only the capture
    // thread's publish can charge the capture-queue watermark; a
    // snapshot reads it and never writes it.
    let nic = LiveNic::new(1, 4096);
    let mut cfg = cfg();
    cfg.capture_timeout_ns = 1_000_000_000;
    let engine = LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(&nic)))
        .config(cfg)
        .groups(BuddyGroups::isolated(1))
        .start();
    let observer = engine.observer();

    // A backlog with nothing consuming: six chunks' worth of packets
    // seal at least five chunks (at most one idle hand-off partial,
    // at most one chunk still filling). A second, one-packet burst
    // drains only after the round that drained the first has flushed.
    inject_flows(&nic, 6 * 64, 1);
    wait_nic_drained(&nic, 0);
    inject_flows(&nic, 1, 1);
    wait_nic_drained(&nic, 0);

    let consumer = {
        let mut c = engine.consumer(0);
        std::thread::spawn(move || {
            let mut n = 0u64;
            while let Some(chunk) = c.next_chunk() {
                n += chunk.len() as u64;
                c.recycle(chunk);
            }
            n
        })
    };
    nic.stop();
    assert_eq!(consumer.join().unwrap(), 6 * 64 + 1);
    engine.shutdown();

    let q = &observer.snapshot().queues[0];
    assert_eq!(q.capture_queue_len, 0, "drained");
    assert!(
        q.capture_queue_watermark >= 4,
        "a backlog of >= 4 chunks must show in the watermark: {}",
        q.capture_queue_watermark
    );
}
