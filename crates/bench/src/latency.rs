//! Capture-to-delivery tail latency against pool size R
//! (`fig_latency`, DESIGN.md §4.16).
//!
//! A large ring buffer pool is great for loss tolerance but costs tail
//! latency: when the consumer lags, up to R chunks queue behind it, and
//! every queued chunk adds a full service time to the chunks sealed
//! after it (bufferbloat, in chunk units). The pool workers serve their
//! backlog oldest-first, so the worst-case queueing delay is R's alone.
//!
//! Each data point runs the live engine over the nicsim backend at a
//! fixed offered load (or saturating when `offered_pps == 0`), drains
//! it through a one-worker [`wirecap::ConsumerPool`] with a blocking
//! per-chunk stage (the deterministic service time), and reports the
//! p50/p99/p99.9 of the engine's own capture-to-delivery latency
//! histogram — the same `latency_ns` instrument the telemetry
//! pipeline scrapes, quantiles interpolated sub-bucket. Conservation
//! is asserted before any number is reported.

use crate::scaling::{assert_conserved, FRAME};
use netproto::{FlowKey, Packet, PacketBuilder};
use nicsim::livenic::LiveNic;
use serde::Serialize;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;
use telemetry::HistogramSnapshot;
use wirecap::buddy::BuddyGroups;
use wirecap::live::LiveWireCap;
use wirecap::NicSimBackend;
use wirecap::WireCapConfig;

/// Cells per chunk in every latency run (chunk service time and the
/// pool working set both scale with it; one value keeps points
/// comparable).
pub const M: usize = 64;

/// Blocking per-chunk stage in the consumer, microseconds: the
/// deterministic service time that turns backlog depth into latency.
pub const CHUNK_IO_US: u64 = 20;

/// One measured configuration of the latency sweep.
#[derive(Debug, Clone, Serialize)]
pub struct LatencyPoint {
    /// Pool chunks R.
    pub pool_chunks: usize,
    /// Paced injection rate, packets/s (0 = saturating).
    pub offered_pps: u64,
    /// Packets offered (and, conservation-checked, accounted).
    pub packets: u64,
    /// Wall-clock seconds from first injection to delivery completion.
    pub elapsed_s: f64,
    /// Aggregate delivered packets per second.
    pub pps: f64,
    /// Latency samples (delivered chunks) behind the quantiles.
    pub samples: u64,
    /// Capture-to-delivery latency median, ns (sub-bucket interpolated
    /// from the engine's own `latency_ns` histogram).
    pub p50_ns: u64,
    /// Capture-to-delivery latency 99th percentile, ns.
    pub p99_ns: u64,
    /// Capture-to-delivery latency 99.9th percentile, ns — the SLO
    /// number `fig_latency` gates across pool sizes.
    pub p999_ns: u64,
    /// Largest latency sample observed, ns.
    pub max_ns: u64,
    /// Packets the engine dropped at capture (`capture_drop_packets`).
    pub capture_drops: u64,
    /// Captured packets that never reached the handler
    /// (`delivery_drop_packets`).
    pub delivery_drops: u64,
    /// Injections the full NIC ring refused (`nic_drop_packets`). The
    /// injector retries each one, so these are backpressure, not loss.
    pub nic_refusals: u64,
}

/// Single-flow traffic: everything lands on queue 0, so one consumer's
/// backlog is the whole story.
fn traffic(n: u64) -> Vec<Packet> {
    let mut b = PacketBuilder::new();
    let flow = FlowKey::udp(
        Ipv4Addr::new(10, 7, 7, 7),
        7_777,
        Ipv4Addr::new(131, 225, 2, 1),
        443,
    );
    (0..n)
        .map(|i| b.build_packet(i * 1_000, &flow, FRAME).unwrap())
        .collect()
}

/// Runs one latency point: `r` pool chunks, injection paced at
/// `offered_pps` (0 = as fast as the NIC accepts), one queue, one pool
/// worker with the blocking per-chunk stage.
pub fn latency_point(r: usize, offered_pps: u64, packets: u64) -> LatencyPoint {
    let mut cfg = WireCapConfig::basic(M, r, 0);
    cfg.capture_timeout_ns = 2_000_000;

    let traffic = traffic(packets);
    let nic = LiveNic::new(1, 4096);
    let engine = LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(&nic)))
        .config(cfg)
        .groups(BuddyGroups::single(1))
        .start();
    let group = wirecap::BuddyGroup::all(1);
    let start = Instant::now();
    let pool = engine.consumer_pool(&group, 1, move |d| {
        // Touch every payload byte (the cache-facing read), then the
        // deterministic blocking stage.
        let mut acc = 0u64;
        for p in d.view().iter() {
            for b in p.data {
                acc = acc.rotate_left(7).wrapping_add(u64::from(*b));
            }
        }
        std::hint::black_box(acc);
        std::thread::sleep(std::time::Duration::from_micros(CHUNK_IO_US));
    });
    // Paced injection: bursts of PACE_BURST packets scheduled against
    // the wall clock, so the offered rate holds without a per-packet
    // clock spin. Saturating mode just pushes as fast as the ring
    // accepts (backpressure spins).
    const PACE_BURST: u64 = 64;
    let gap_ns_per_burst = if offered_pps > 0 {
        PACE_BURST as f64 * 1e9 / offered_pps as f64
    } else {
        0.0
    };
    for (i, pkt) in traffic.iter().enumerate() {
        if gap_ns_per_burst > 0.0 && (i as u64).is_multiple_of(PACE_BURST) {
            let due = start
                + std::time::Duration::from_nanos(
                    ((i as u64 / PACE_BURST) as f64 * gap_ns_per_burst) as u64,
                );
            while Instant::now() < due {
                // Yield, don't spin: on small machines the pacer
                // shares a core with the capture and worker threads,
                // and a spin-wait here starves the very pipeline
                // being measured.
                std::thread::yield_now();
            }
        }
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
    let delivered: u64 = reports.iter().map(|rep| rep.packets).sum();
    assert_eq!(delivered, packets, "latency point delivered every packet");

    // Engine-wide latency distribution: per-queue histograms merged,
    // quantiles interpolated (what `EngineSnapshot::total` reports as
    // `latency_p999_ns`).
    let mut latency = HistogramSnapshot::default();
    for q in &snap.queues {
        latency.merge(&q.latency_ns);
    }
    let total = snap.total();
    LatencyPoint {
        pool_chunks: r,
        offered_pps,
        packets,
        elapsed_s: elapsed,
        pps: delivered as f64 / elapsed,
        samples: latency.count,
        p50_ns: latency.quantile(0.5),
        p99_ns: latency.quantile(0.99),
        p999_ns: latency.quantile(0.999),
        max_ns: latency.max,
        capture_drops: total.capture_drop_packets,
        delivery_drops: total.delivery_drop_packets,
        nic_refusals: total.nic_drop_packets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_conserves_and_reports_quantiles() {
        let t = latency_point(64, 0, 30_000);
        assert_eq!(t.packets, 30_000);
        assert!(t.samples > 0);
        assert!(t.p50_ns <= t.p99_ns && t.p99_ns <= t.p999_ns);
        assert!(t.p999_ns <= t.max_ns);
        assert_eq!((t.capture_drops, t.delivery_drops), (0, 0));
    }

    #[test]
    fn paced_injection_holds_the_offered_rate() {
        // 500 kp/s for 25k packets ≈ 50 ms floor; saturating would
        // finish much faster. The ceiling check is loose (scheduling),
        // the floor is the point.
        let p = latency_point(64, 500_000, 25_000);
        assert!(
            p.elapsed_s >= 0.045,
            "paced run finished implausibly fast: {}s",
            p.elapsed_s
        );
    }
}
