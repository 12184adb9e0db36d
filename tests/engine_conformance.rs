//! Engine-conformance suite: every capture engine, same contracts.
//!
//! The harness treats all engines uniformly through the `CaptureEngine`
//! trait; these tests pin down the contract every implementation must
//! honor — empty runs, idle gaps, repeated finish, stats consistency at
//! every intermediate point, and independence from advance() cadence.

use apps::harness::EngineKind;
use engines::EngineConfig;
use sim::SimTime;
use wirecap::WireCapConfig;

fn all_engines() -> Vec<EngineKind> {
    vec![
        EngineKind::Dna,
        EngineKind::Netmap,
        EngineKind::PfRing,
        EngineKind::PfPacket,
        EngineKind::Psioe,
        EngineKind::Dpdk,
        EngineKind::DpdkAppOffload(0.6),
        EngineKind::WireCap(WireCapConfig::basic(64, 20, 300)),
        EngineKind::WireCap(WireCapConfig::advanced(64, 20, 0.6, 300)),
    ]
}

#[test]
fn empty_run_is_clean() {
    for kind in all_engines() {
        let mut e = kind.build(2, EngineConfig::paper(300));
        let end = e.finish(SimTime(0));
        assert_eq!(end, SimTime(0), "{}", e.name());
        let s = e.total_stats();
        assert_eq!(s.offered, 0, "{}", e.name());
        assert!(s.is_consistent(), "{}", e.name());
    }
}

#[test]
fn long_idle_gaps_do_not_bank_capacity_or_lose_packets() {
    for kind in all_engines() {
        let mut e = kind.build(1, EngineConfig::paper(300));
        // Three widely spaced packets: a second of idle between each.
        for i in 0..3u64 {
            e.on_arrival(SimTime(i * 1_000_000_000), 0, 64);
        }
        e.finish(SimTime(10_000_000_000));
        let s = e.total_stats();
        assert_eq!(s.offered, 3, "{}", e.name());
        assert_eq!(s.delivered, 3, "{}", e.name());
        assert_eq!(s.overall_drop_rate(), 0.0, "{}", e.name());
    }
}

#[test]
fn finish_is_idempotent() {
    for kind in all_engines() {
        let mut e = kind.build(1, EngineConfig::paper(300));
        for i in 0..500u64 {
            e.on_arrival(SimTime(i * 10_000), 0, 64);
        }
        let end1 = e.finish(SimTime(500 * 10_000));
        let stats1 = e.total_stats();
        let end2 = e.finish(end1);
        let stats2 = e.total_stats();
        assert_eq!(stats1, stats2, "{}", e.name());
        assert_eq!(end1, end2, "{}", e.name());
    }
}

#[test]
fn stats_consistent_at_every_intermediate_point() {
    for kind in all_engines() {
        let mut e = kind.build(2, EngineConfig::paper(300));
        for i in 0..2_000u64 {
            e.on_arrival(SimTime(i * 5_000), (i % 2) as usize, 64);
            if i % 97 == 0 {
                let s = e.total_stats();
                assert!(s.is_consistent(), "{} at i={i}: {s:?}", e.name());
            }
        }
        e.finish(SimTime(2_000 * 5_000));
        assert!(e.total_stats().is_consistent(), "{}", e.name());
    }
}

#[test]
fn interleaved_advance_calls_do_not_change_outcomes() {
    // Calling advance() between arrivals (as a poll-driven harness might)
    // must not change the final accounting.
    for kind in all_engines() {
        let cfg = EngineConfig::paper(300);
        let mut plain = kind.build(1, cfg);
        let mut chatty = kind.build(1, cfg);
        for i in 0..1_000u64 {
            let t = SimTime(i * 20_000);
            plain.on_arrival(t, 0, 64);
            chatty.advance(t);
            chatty.on_arrival(t, 0, 64);
            chatty.advance(SimTime(t.as_nanos() + 1_000));
        }
        plain.finish(SimTime(1_000 * 20_000));
        chatty.finish(SimTime(1_000 * 20_000));
        let a = plain.total_stats();
        let b = chatty.total_stats();
        // The fluid integrators floor whole completions at whatever step
        // boundaries they are advanced across, so a ±2-packet wobble at
        // different cadences is inherent; anything larger would mean the
        // cadence changed behaviour.
        let drops_a = a.capture_drops + a.delivery_drops;
        let drops_b = b.capture_drops + b.delivery_drops;
        assert!(
            drops_a.abs_diff(drops_b) <= 2,
            "{}: {a:?} vs {b:?}",
            plain.name()
        );
        assert!(
            a.delivered.abs_diff(b.delivered) <= 2,
            "{}: delivered {} vs {}",
            plain.name(),
            a.delivered,
            b.delivered
        );
    }
}

#[test]
fn names_are_distinct_and_stable() {
    let names: Vec<String> = all_engines()
        .iter()
        .map(|k| k.build(1, EngineConfig::paper(0)).name())
        .collect();
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(
        unique.len(),
        names.len(),
        "duplicate engine names: {names:?}"
    );
}

/// Live-backend conformance: the real-thread engine behind every
/// [`wirecap::CaptureBackend`] must honor the same contracts — the
/// conservation laws, the zero-copy hot path, and clean teardown —
/// whether frames come from `nicsim`'s owned-packet rings or from
/// `shmring`'s shared-memory descriptor rings.
mod live_backends {
    use netproto::{FlowKey, PacketBuilder};
    use nicsim::livenic::LiveNic;
    use shmring::ShmRingNic;
    use std::net::Ipv4Addr;
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};
    use wirecap::arena::arena_allocations;
    use wirecap::buddy::BuddyGroups;
    use wirecap::live::{LiveChunk, LiveConsumer, LiveWireCap};
    use wirecap::{CaptureBackend, LoopbackBackend, NicSimBackend, WireCapConfig};

    /// Serializes the live tests in this binary: `arena_allocations()`
    /// is a global counter, so the zero-copy assertion must not race
    /// another live engine's start.
    static LIVE: Mutex<()> = Mutex::new(());

    /// Every loopback-capable backend, same geometry. A new conformant
    /// backend earns its row here and nowhere else.
    fn backends(queues: usize, depth: usize) -> Vec<Arc<dyn LoopbackBackend>> {
        vec![
            NicSimBackend::new(LiveNic::new(queues, depth)) as Arc<dyn LoopbackBackend>,
            ShmRingNic::new(queues, depth) as Arc<dyn LoopbackBackend>,
        ]
    }

    fn live_cfg() -> WireCapConfig {
        let mut cfg = WireCapConfig::basic(64, 32, 0);
        cfg.capture_timeout_ns = 1_500_000;
        cfg
    }

    fn flow(i: u16) -> FlowKey {
        FlowKey::udp(
            Ipv4Addr::new(131, 225, 2, (i % 200) as u8 + 1),
            9_000 + i,
            Ipv4Addr::new(10, 0, 0, 1),
            443,
        )
    }

    fn inject_flows(backend: &dyn LoopbackBackend, n: u16) {
        let mut b = PacketBuilder::new();
        for i in 0..n {
            let pkt = b.build_packet(u64::from(i), &flow(i), 128).unwrap();
            while backend.inject(pkt.clone()).is_none() {
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn conservation_laws_hold_on_every_backend() {
        let _live = LIVE.lock().unwrap_or_else(|e| e.into_inner());
        for backend in backends(2, 4096) {
            let name = backend.name();
            let upcast: Arc<dyn CaptureBackend> = backend.clone();
            let engine = LiveWireCap::builder()
                .backend(upcast)
                .config(live_cfg())
                .groups(BuddyGroups::isolated(2))
                .start();
            let consumers: Vec<_> = (0..2)
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
            inject_flows(backend.as_ref(), 3_000);
            backend.stop().expect("stop backend");
            let consumed: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
            let t = engine.snapshot().total();
            engine.shutdown();
            // offered folds in wire-side drops from the retried injects;
            // net of those, every packet that landed was offered once.
            assert_eq!(t.offered_packets - t.nic_drop_packets, 3_000, "{name}");
            assert_eq!(t.captured_packets + t.capture_drop_packets, 3_000, "{name}");
            assert_eq!(
                t.delivered_packets + t.delivery_drop_packets,
                t.captured_packets,
                "{name}"
            );
            assert_eq!(consumed, t.captured_packets, "{name}");
            assert_eq!(t.recycled_chunks, t.sealed_chunks, "{name}");
        }
    }

    #[test]
    fn hot_path_allocates_no_arena_buffers_on_any_backend() {
        let _live = LIVE.lock().unwrap_or_else(|e| e.into_inner());
        for backend in backends(1, 4096) {
            let name = backend.name();
            let upcast: Arc<dyn CaptureBackend> = backend.clone();
            let engine = LiveWireCap::builder()
                .backend(upcast)
                .config(live_cfg())
                .groups(BuddyGroups::isolated(1))
                .start();
            // All arena buffers exist as of here; capture and view-based
            // consumption must not add any, no matter the backend.
            let baseline = arena_allocations();
            let mut b = PacketBuilder::new();
            let mut c = engine.consumer(0);
            let mut consumed = 0u64;
            let mut bytes_seen = 0u64;
            for i in 0..2_048u64 {
                let pkt = b.build_packet(i, &flow(7), 128).unwrap();
                while backend.inject(pkt.clone()).is_none() {
                    std::thread::yield_now();
                }
                // Drain as we go so the small pool never exhausts.
                while let Some(chunk) = c.try_chunk() {
                    for p in c.view(&chunk).iter() {
                        bytes_seen += p.data.len() as u64;
                    }
                    consumed += chunk.len() as u64;
                    c.recycle(chunk);
                }
            }
            backend.stop().expect("stop backend");
            while let Some(chunk) = c.next_chunk() {
                for p in c.view(&chunk).iter() {
                    bytes_seen += p.data.len() as u64;
                }
                consumed += chunk.len() as u64;
                c.recycle(chunk);
            }
            let dropped = engine.telemetry(0).capture_drop_packets;
            engine.shutdown();
            assert_eq!(consumed + dropped, 2_048, "{name}");
            assert_eq!(bytes_seen, consumed * 128, "{name}");
            assert_eq!(
                arena_allocations(),
                baseline,
                "{name}: the hot path must not allocate arena buffers"
            );
        }
    }

    #[test]
    fn teardown_joins_cleanly_and_reports_stopped() {
        let _live = LIVE.lock().unwrap_or_else(|e| e.into_inner());
        for backend in backends(2, 1024) {
            let name = backend.name();
            let upcast: Arc<dyn CaptureBackend> = backend.clone();
            let engine = LiveWireCap::builder()
                .backend(upcast)
                .config(live_cfg())
                .groups(BuddyGroups::isolated(2))
                .start();
            let consumers: Vec<_> = (0..2)
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
            inject_flows(backend.as_ref(), 500);
            backend.stop().expect("stop backend");
            assert!(backend.is_stopped(), "{name}");
            // Stop is idempotent, and a late inject must not panic (the
            // frame may land or drop; either is conformant).
            backend.stop().expect("second stop");
            let mut b = PacketBuilder::new();
            let _ = backend.inject(b.build_packet(9_999, &flow(9), 64).unwrap());
            let consumed: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
            let t = engine.snapshot().total();
            engine.shutdown();
            assert_eq!(consumed, t.captured_packets, "{name}");
            assert!(
                t.captured_packets + t.capture_drop_packets >= 500,
                "{name}: teardown lost pre-stop packets"
            );
            assert_eq!(t.recycled_chunks, t.sealed_chunks, "{name}");
        }
    }

    // --- Idle hand-off (DESIGN.md section 4.7) -------------------------
    //
    // The rule under test: an empty poll seals a non-empty partial chunk
    // iff every other chunk of the queue's pool is home. Geometry R = 4,
    // M = 8, and a capture timeout far beyond any test's lifetime, so a
    // partial that reaches a consumer got there by the rule alone.

    const R: usize = 4;
    const M: usize = 8;

    fn one_queue_engine(backend: &Arc<dyn LoopbackBackend>, cfg: WireCapConfig) -> LiveWireCap {
        let upcast: Arc<dyn CaptureBackend> = backend.clone();
        LiveWireCap::builder()
            .backend(upcast)
            .config(cfg)
            .groups(BuddyGroups::isolated(1))
            .start()
    }

    /// Starts a one-queue engine with the small geometry. The park
    /// timeout is long next to the "promptly" bounds below, so only the
    /// capture gate's wake-up — not a park running out — can meet them.
    fn handoff_engine(backend: &Arc<dyn LoopbackBackend>) -> LiveWireCap {
        let mut cfg = WireCapConfig::basic(M, R, 0);
        cfg.ring_size = 2 * M;
        cfg.capture_timeout_ns = 60_000_000_000;
        cfg.park_timeout_ns = 200_000_000;
        one_queue_engine(backend, cfg)
    }

    /// Polls `cond` (yielding) until it holds; panics after 10 s.
    fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
        let start = Instant::now();
        while !cond() {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "timed out: {what}"
            );
            std::thread::yield_now();
        }
    }

    /// Spins on `try_chunk` until a chunk arrives; panics after 10 s.
    fn await_chunk(c: &mut LiveConsumer, what: &str) -> LiveChunk {
        let mut got = None;
        wait_for(what, || {
            got = c.try_chunk();
            got.is_some()
        });
        got.expect("wait_for returned")
    }

    /// Injects `n` packets and waits until the capture thread has
    /// written all of them into chunks (`total` captured so far).
    fn inject_and_settle(
        backend: &dyn LoopbackBackend,
        engine: &LiveWireCap,
        builder: &mut PacketBuilder,
        n: usize,
        total: &mut u64,
    ) {
        for _ in 0..n {
            let pkt = builder.build_packet(*total, &flow(3), 128).unwrap();
            backend.inject(pkt).expect("ring has room");
            *total += 1;
        }
        wait_for("capture thread absorbs the injected packets", || {
            engine.telemetry(0).captured_packets == *total
        });
    }

    #[test]
    fn idle_handoff_delivers_a_lone_packet() {
        let _live = LIVE.lock().unwrap_or_else(|e| e.into_inner());
        for backend in backends(1, 1024) {
            let name = backend.name();
            let mut cfg = live_cfg();
            cfg.capture_timeout_ns = 1_000_000_000;
            let engine = one_queue_engine(&backend, cfg);
            let mut c = engine.consumer(0);
            let pkt = PacketBuilder::new().build_packet(0, &flow(1), 128).unwrap();
            let sent = Instant::now();
            backend.inject(pkt).expect("empty ring");
            let chunk = await_chunk(&mut c, "lone packet delivered");
            let took = sent.elapsed();
            assert!(
                took < Duration::from_millis(50),
                "{name}: a lone packet waited {took:?} with an idle consumer attached"
            );
            assert_eq!(chunk.len(), 1, "{name}");
            c.recycle(chunk);
            backend.stop().expect("stop backend");
            assert!(c.next_chunk().is_none(), "{name}");
            drop(c);
            let t = engine.telemetry(0);
            engine.shutdown();
            assert_eq!(t.partial_chunks, 1, "{name}");
            assert_eq!(t.sealed_chunks, 1, "{name}");
            assert_eq!(t.delivered_packets, 1, "{name}");
        }
    }

    #[test]
    fn at_most_one_early_seal_outstanding() {
        let _live = LIVE.lock().unwrap_or_else(|e| e.into_inner());
        for backend in backends(1, 1024) {
            let name = backend.name();
            let engine = handoff_engine(&backend);
            let mut c = engine.consumer(0);
            let mut b = PacketBuilder::new();
            let mut total = 0u64;

            // The first packet is handed off early; the consumer takes
            // the chunk and does not recycle it.
            inject_and_settle(backend.as_ref(), &engine, &mut b, 1, &mut total);
            let held = await_chunk(&mut c, "first packet handed off early");
            assert_eq!(held.len(), 1, "{name}");

            // A trickle of 2M + 3 more, the capture thread polling empty
            // between bursts with a partial in hand every time.
            for burst in [3, 3, 3, 3, 3, 3, 1] {
                inject_and_settle(backend.as_ref(), &engine, &mut b, burst, &mut total);
            }
            assert_eq!(total as usize, 1 + 2 * M + 3);
            // Time for a wrong seal of the remainder to show.
            std::thread::sleep(Duration::from_millis(20));
            let t = engine.telemetry(0);
            assert_eq!(t.partial_chunks, 1, "{name}: a second early seal went out");
            assert_eq!(t.sealed_chunks, 3, "{name}");
            assert_eq!(t.capture_drop_packets + t.nic_drop_packets, 0, "{name}");
            let full: Vec<LiveChunk> = std::iter::from_fn(|| c.try_chunk()).collect();
            assert_eq!(
                full.iter().map(LiveChunk::len).collect::<Vec<_>>(),
                [M, M],
                "{name}: chunks sealed behind an outstanding early seal must be full"
            );

            // Everything sealed so far goes home: the capture thread —
            // parked for 200 ms at a time by now — is woken by the
            // recycle and hands the remainder off at once.
            let recycled_at = Instant::now();
            c.recycle(held);
            full.into_iter().for_each(|chunk| c.recycle(chunk));
            let rest = await_chunk(&mut c, "remainder handed off after recycle");
            let took = recycled_at.elapsed();
            assert!(
                took < Duration::from_millis(100),
                "{name}: remainder took {took:?} after the pool came home"
            );
            assert_eq!(rest.len(), 3, "{name}");
            c.recycle(rest);

            backend.stop().expect("stop backend");
            assert!(c.next_chunk().is_none(), "{name}");
            drop(c);
            let t = engine.telemetry(0);
            engine.shutdown();
            assert_eq!(t.partial_chunks, 2, "{name}");
            assert_eq!(t.delivered_packets, total, "{name}");
            assert_eq!(t.recycled_chunks, t.sealed_chunks, "{name}");
        }
    }

    #[test]
    fn an_early_seal_costs_less_than_one_chunk_of_capacity() {
        let _live = LIVE.lock().unwrap_or_else(|e| e.into_inner());
        for backend in backends(1, 1024) {
            let name = backend.name();
            let engine = handoff_engine(&backend);
            let mut c = engine.consumer(0);
            let mut b = PacketBuilder::new();
            let mut total = 0u64;

            // Worst case for the pool: the one early-sealed chunk that
            // can be outstanding holds a single packet and never comes
            // home. The other R - 1 chunks still absorb M each.
            inject_and_settle(backend.as_ref(), &engine, &mut b, 1, &mut total);
            let held = await_chunk(&mut c, "first packet handed off early");
            assert_eq!(held.len(), 1, "{name}");
            inject_and_settle(backend.as_ref(), &engine, &mut b, (R - 1) * M, &mut total);
            let t = engine.telemetry(0);
            assert_eq!(t.captured_packets as usize, (R - 1) * M + 1, "{name}");
            assert_eq!(t.capture_drop_packets + t.nic_drop_packets, 0, "{name}");
            assert_eq!(t.sealed_chunks as usize, R, "{name}");
            assert_eq!(t.partial_chunks, 1, "{name}");

            // One packet past capacity waits in the backend's ring
            // (backpressure) rather than being captured and dropped.
            let over = b.build_packet(total, &flow(3), 128).unwrap();
            backend.inject(over).expect("ring has room");
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(engine.telemetry(0).captured_packets, total, "{name}");
            assert_eq!(backend.queue(0).depth(), 1, "{name}");

            // The pool comes home and the waiting packet follows.
            let full: Vec<LiveChunk> = std::iter::from_fn(|| c.try_chunk()).collect();
            assert_eq!(full.len(), R - 1, "{name}");
            assert!(full.iter().all(|chunk| chunk.len() == M), "{name}");
            c.recycle(held);
            full.into_iter().for_each(|chunk| c.recycle(chunk));
            let last = await_chunk(&mut c, "backpressured packet delivered");
            assert_eq!(last.len(), 1, "{name}");
            c.recycle(last);

            backend.stop().expect("stop backend");
            assert!(c.next_chunk().is_none(), "{name}");
            drop(c);
            let t = engine.telemetry(0);
            engine.shutdown();
            assert_eq!(t.delivered_packets, total + 1, "{name}");
            assert_eq!(t.capture_drop_packets + t.nic_drop_packets, 0, "{name}");
            assert_eq!(t.recycled_chunks, t.sealed_chunks, "{name}");
        }
    }
}
