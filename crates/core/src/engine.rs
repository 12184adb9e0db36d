//! The WireCAP engine under simulation.
//!
//! Implements [`engines::CaptureEngine`] so the experiment harness can
//! compare WireCAP against the baselines uniformly. Per receive queue the
//! engine runs the full §3.2.2 machinery:
//!
//! * DMA lands packets in the attached chunks of the queue's
//!   [`RingBufferPool`]; a packet with no armed cell is a *capture drop*
//!   (the only drop WireCAP suffers, §4);
//! * the **capture thread** (dedicated core, woken by traffic) moves full
//!   chunks to a capture queue as metadata, fires the timeout
//!   partial-chunk copy, recycles consumed chunks, and — in advanced
//!   mode — applies the buddy-group offloading policy;
//! * the **application thread** consumes chunks from its capture queue at
//!   the `pkt_handler` rate, with a configurable CPU-affinity penalty on
//!   offloaded chunks (§5b), and optionally forwards processed packets
//!   zero-copy through [`crate::tx::ForwardPath`].

use crate::buddy::BuddyGroups;
use crate::chunk::ChunkMeta;
use crate::config::WireCapConfig;
use crate::pool::RingBufferPool;
use crate::tx::ForwardPath;
use crate::workqueue::WorkQueuePair;
use engines::CaptureEngine;
use nicsim::tx::TxRing;
use sim::stats::CopyMeter;
use sim::SimTime;
use telemetry::{kind, QueueTelemetry, Registry};

#[derive(Debug)]
struct QueueState {
    pool: RingBufferPool,
    wq: WorkQueuePair,
    /// Chunk the application is currently processing: (meta, packets left).
    current: Option<(ChunkMeta, u32)>,
    app_carry: f64,
    last_app: SimTime,
    bytes_seen: u64,
    fwd: Option<ForwardPath>,
    latency: sim::stats::LatencyStats,
}

/// The WireCAP capture engine (simulation model).
#[derive(Debug)]
pub struct WireCapEngine {
    cfg: WireCapConfig,
    groups: BuddyGroups,
    queues: Vec<QueueState>,
    /// All packet/chunk counters, histograms and the event tracer.
    tel: Registry,
    app_rate: f64,
    /// Monotone offload-decision counter (rotation-policy cursor).
    place_seq: u64,
}

impl WireCapEngine {
    /// Creates an engine over `queues` receive queues of NIC 0.
    ///
    /// Basic mode isolates every queue; advanced mode forms one buddy
    /// group over all queues (the paper's `multi_pkt_handler` setup; use
    /// [`WireCapEngine::with_groups`] for multi-application partitions).
    pub fn new(queues: usize, cfg: WireCapConfig) -> Self {
        let groups = if cfg.threshold.is_some() {
            BuddyGroups::single(queues)
        } else {
            BuddyGroups::isolated(queues)
        };
        Self::with_groups(queues, cfg, groups)
    }

    /// Creates an engine with an explicit buddy-group partition.
    pub fn with_groups(queues: usize, cfg: WireCapConfig, groups: BuddyGroups) -> Self {
        cfg.validate().expect("invalid WireCAP configuration");
        WireCapEngine {
            app_rate: cfg.app.rate_pps(),
            place_seq: 0,
            groups,
            tel: Registry::new(queues),
            queues: (0..queues)
                .map(|q| QueueState {
                    pool: RingBufferPool::open(0, q as u16, &cfg),
                    wq: WorkQueuePair::new(cfg.r),
                    current: None,
                    app_carry: 0.0,
                    last_app: SimTime::ZERO,
                    bytes_seen: 0,
                    fwd: cfg
                        .app
                        .forward
                        .then(|| ForwardPath::new(TxRing::new(4096, 10.0))),
                    latency: sim::stats::LatencyStats::new(),
                })
                .collect(),
            cfg,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &WireCapConfig {
        &self.cfg
    }

    /// The telemetry registry (counters + event tracer). Enable the
    /// tracer with `engine.registry().tracer().enable()`.
    pub fn registry(&self) -> &Registry {
        &self.tel
    }

    /// Application-thread step: consume packets from the capture queue.
    fn run_app(&mut self, q: usize, now: SimTime) {
        let qs = &mut self.queues[q];
        let dt = now.since(qs.last_app) as f64 / 1e9;
        qs.last_app = SimTime(qs.last_app.0.max(now.0));
        // Budget in units of home-affinity packets.
        let max_cost = 1.0 / self.cfg.offload_penalty;
        let mut budget = (self.app_rate * dt + qs.app_carry).min(
            // Never bank more than the queue could possibly consume —
            // keeps the server work-conserving across idle gaps.
            (qs.wq.capture_len() as u64 * self.cfg.m as u64
                + u64::from(qs.current.as_ref().map_or(0, |c| c.1))) as f64
                * max_cost
                + max_cost,
        );
        // Delivered packets are credited to the chunk's *home* queue
        // (the queue whose traffic they are), not the consuming queue —
        // otherwise offloading makes per-queue accounting incoherent
        // (a buddy would show more deliveries than captures).
        let mut delivered_by_home = vec![0u64; self.queues.len()];
        let captured_so_far = self.tel.queue(q).cap.captured_packets.get();
        let qs = &mut self.queues[q];
        loop {
            if qs.current.is_none() {
                qs.current = qs.wq.pop_captured().map(|m| (m, m.pkt_count));
            }
            let Some((meta, remaining)) = &mut qs.current else {
                break;
            };
            let cost = if meta.offloaded { max_cost } else { 1.0 };
            let can = (budget / cost).floor() as u32;
            if can == 0 {
                break;
            }
            let take = can.min(*remaining);
            budget -= f64::from(take) * cost;
            *remaining -= take;
            delivered_by_home[meta.id.ring_id as usize] += u64::from(take);
            if *remaining == 0 {
                let done = *meta;
                // Capture-to-delivery latency for the whole chunk: the
                // batching cost §5c warns about, metered per packet
                // against the chunk's first arrival.
                qs.latency.record_n(
                    now.as_nanos().saturating_sub(done.first_fill_ns),
                    u64::from(done.pkt_count),
                );
                qs.current = None;
                match &mut qs.fwd {
                    Some(fwd) => {
                        // Zero-copy forward: the chunk pins until the NIC
                        // transmits its packets, then recycles.
                        let mean_len = mean_frame_len(qs.bytes_seen, captured_so_far);
                        fwd.forward_chunk(now.as_nanos(), done, mean_len);
                    }
                    None => qs.wq.push_recycle(done),
                }
            }
        }
        qs.app_carry = budget.min(max_cost);
        // Reap transmit completions; released chunks go to recycling.
        if let Some(fwd) = &mut qs.fwd {
            fwd.reap(now.as_nanos());
            for meta in fwd.take_released() {
                qs.wq.push_recycle(meta);
            }
        }
        for (home, n) in delivered_by_home.into_iter().enumerate() {
            if n > 0 {
                self.tel.queue(home).app.delivered_packets.add(n);
            }
        }
    }

    /// Capture-thread step for queue `q`: recycle, capture, offload.
    fn run_capture_thread(&mut self, q: usize, now: SimTime) {
        // 1. Recycle consumed chunks (they may belong to other queues'
        // pools when offloading moved them here).
        while let Some(meta) = self.queues[q].wq.pop_recycle() {
            let home = meta.id.ring_id as usize;
            self.queues[home]
                .pool
                .recycle(&meta)
                .expect("engine-internal recycle metadata is always valid");
            self.queues[home].pool.replenish();
            self.tel.queue(home).app.recycled_chunks.inc();
            self.tel.tracer().record(
                now.as_nanos(),
                q as u32,
                kind::RECYCLE,
                meta.id.chunk_id,
                home as u32,
                u64::from(meta.pkt_count),
            );
        }

        // 2. Capture full chunks and the timeout partial.
        let (mut metas, _) = self.queues[q].pool.capture_full();
        for meta in &metas {
            self.tel.tracer().record(
                now.as_nanos(),
                q as u32,
                kind::CAPTURE,
                meta.id.chunk_id,
                q as u32,
                u64::from(meta.pkt_count),
            );
        }
        if let Some((meta, _)) = self.queues[q]
            .pool
            .capture_partial(now.as_nanos(), self.cfg.capture_timeout_ns)
        {
            self.tel.queue(q).cap.partial_chunks.inc();
            self.tel.tracer().record(
                now.as_nanos(),
                q as u32,
                kind::CAPTURE_PARTIAL,
                meta.id.chunk_id,
                q as u32,
                u64::from(meta.pkt_count),
            );
            metas.push(meta);
        }
        if metas.is_empty() {
            return;
        }
        {
            let cap = &self.tel.queue(q).cap;
            cap.sealed_chunks.add(metas.len() as u64);
            cap.batch_size.record(metas.len() as u64);
            for meta in &metas {
                cap.chunk_fill.record(u64::from(meta.pkt_count));
            }
        }

        // 3. Placement: home queue in basic mode; buddy-group policy in
        // advanced mode.
        let lens: Vec<usize> = self.queues.iter().map(|s| s.wq.capture_len()).collect();
        for mut meta in metas {
            self.place_seq += 1;
            let seq = self.place_seq;
            let target = match self.cfg.threshold {
                Some(t) => self.groups.group_of(q).map_or(q, |g| {
                    g.place_seq(q, &lens, self.cfg.capture_queue_capacity(), t, seq)
                }),
                None => q,
            };
            meta.offloaded = target != q;
            self.tel
                .queue(target)
                .cap
                .capture_queue_depth
                .record(lens[target] as u64);
            self.tel
                .queue(target)
                .capture_queue_watermark
                .observe(lens[target] as u64 + 1);
            if self.queues[target].wq.push_captured(meta).is_err() {
                // The target queue rejected the chunk (at capacity). The
                // packets are lost after capture; the chunk itself goes
                // straight back to its home pool so the buffer population
                // is preserved.
                let home = meta.id.ring_id as usize;
                self.tel
                    .queue(home)
                    .cap
                    .delivery_drop_packets
                    .add(u64::from(meta.pkt_count));
                self.queues[home]
                    .pool
                    .recycle(&meta)
                    .expect("engine-internal recycle metadata is always valid");
                self.queues[home].pool.replenish();
                self.tel.queue(home).app.recycled_chunks.inc();
                self.tel.tracer().record(
                    now.as_nanos(),
                    q as u32,
                    kind::REJECT,
                    meta.id.chunk_id,
                    target as u32,
                    u64::from(meta.pkt_count),
                );
            } else if meta.offloaded {
                self.tel.queue(q).cap.offloaded_out_chunks.inc();
                self.tel.queue(target).peer.offloaded_in_chunks.inc();
                self.tel.tracer().record(
                    now.as_nanos(),
                    q as u32,
                    kind::OFFLOAD,
                    meta.id.chunk_id,
                    target as u32,
                    lens[target] as u64,
                );
            }
        }
    }

    fn advance_queue(&mut self, q: usize, now: SimTime) {
        self.run_app(q, now);
        self.run_capture_thread(q, now);
    }

    fn any_backlog(&self) -> bool {
        self.queues.iter().any(|qs| {
            qs.wq.capture_len() > 0
                || qs.wq.recycle_len() > 0
                || qs.current.is_some()
                || qs.pool.armed_cells() < qs.pool.attached_chunks() * self.cfg.m
                || qs.fwd.as_ref().is_some_and(|f| f.pinned_chunks() > 0)
        })
    }
}

fn mean_frame_len(bytes_seen: u64, captured: u64) -> u16 {
    bytes_seen
        .checked_div(captured)
        .map_or(64, |mean| mean.clamp(60, 1518) as u16)
}

impl CaptureEngine for WireCapEngine {
    fn name(&self) -> String {
        self.cfg.name()
    }

    fn queues(&self) -> usize {
        self.queues.len()
    }

    fn on_arrival(&mut self, now: SimTime, queue: usize, len: u16) {
        // Advanced mode couples queues through offloading, so idle
        // buddies must make progress too.
        if self.cfg.threshold.is_some() {
            for q in 0..self.queues.len() {
                self.advance_queue(q, now);
            }
        } else {
            self.advance_queue(queue, now);
        }
        let cap = &self.tel.queue(queue).cap;
        cap.offered_packets.inc();
        let qs = &mut self.queues[queue];
        if qs.pool.on_dma(now.as_nanos()) {
            cap.captured_packets.inc();
            qs.bytes_seen += u64::from(len);
        } else {
            cap.capture_drop_packets.inc();
        }
    }

    fn advance(&mut self, now: SimTime) {
        for q in 0..self.queues.len() {
            self.advance_queue(q, now);
        }
    }

    fn finish(&mut self, after: SimTime) -> SimTime {
        let mut t = after;
        for _ in 0..100_000 {
            if !self.any_backlog() {
                return t;
            }
            t = SimTime(t.as_nanos() + self.cfg.capture_timeout_ns.max(1_000_000));
            self.advance(t);
        }
        t
    }

    fn telemetry(&self, queue: usize) -> QueueTelemetry {
        // WireCAP's design makes delivery drops structurally impossible:
        // the capture queue is bounded by the chunk population, and
        // back-pressure surfaces as capture drops. The bound is enforced
        // rather than assumed — a rejected chunk surfaces in
        // `delivery_drop_packets` instead of silently growing the queue.
        let mut t = self.tel.snapshot_queue(queue);
        let qs = &self.queues[queue];
        t.forwarded_packets = qs.fwd.as_ref().map_or(0, ForwardPath::forwarded);
        t.transmitted_packets = qs.fwd.as_ref().map_or(0, ForwardPath::transmitted);
        t.capture_queue_len = qs.wq.capture_len() as u64;
        let wm = &self.tel.queue(queue).capture_queue_watermark;
        wm.observe(t.capture_queue_len);
        t.capture_queue_watermark = wm.get();
        t.free_chunks = qs.pool.free_chunks() as u64;
        t.ring_ready = qs.pool.armed_cells() as u64;
        t.ring_used = (qs.pool.attached_chunks() * self.cfg.m) as u64 - t.ring_ready;
        // The sim engine meters latency in its own accumulator; expose
        // it through the unified schema too (bucket mapping documented
        // on the `From` impl).
        t.latency_ns = telemetry::HistogramSnapshot::from(&qs.latency);
        t
    }

    fn copies(&self) -> CopyMeter {
        let mut m = CopyMeter::default();
        for (q, qs) in self.queues.iter().enumerate() {
            let pkts = qs.pool.partial_copy_packets();
            let captured = self.tel.queue(q).cap.captured_packets.get();
            let mean = u64::from(mean_frame_len(qs.bytes_seen, captured));
            m.record(pkts, pkts * mean);
        }
        m
    }

    fn latency(&self) -> sim::stats::LatencyStats {
        let mut l = sim::stats::LatencyStats::new();
        for qs in &self.queues {
            l.merge(&qs.latency);
        }
        l
    }

    fn tuning(&self) -> Option<telemetry::TuningTelemetry> {
        Some(tuning_telemetry(&self.cfg, self.queues.len()))
    }
}

/// Reports `cfg`'s pool geometry in the snapshot's `tuning` block,
/// shared by the sim engine and the live threaded path. The engine
/// runs the configured M and R as given, so the block reads mode
/// `"throughput"` with no LLC budget and no recycle-depth bound.
pub fn tuning_telemetry(cfg: &WireCapConfig, queues: usize) -> telemetry::TuningTelemetry {
    telemetry::TuningTelemetry {
        mode: "throughput".into(),
        llc_bytes: 0,
        queues: queues as u64,
        r_configured: cfg.r as u64,
        r_effective: cfg.r as u64,
        m_effective: cfg.m as u64,
        recycle_depth: 0,
        working_set_bytes: cfg.pool_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::time::SECOND;

    fn burst(e: &mut WireCapEngine, q: usize, n: u64, start: u64, gap: u64) {
        for i in 0..n {
            e.on_arrival(SimTime(start + i * gap), q, 64);
        }
    }

    /// Fig. 8: wire rate, no processing load — lossless for every tested
    /// (M, R).
    #[test]
    fn wire_rate_x0_lossless_all_configs() {
        for (m, r) in [(64, 100), (128, 100), (256, 100), (256, 500)] {
            let mut e = WireCapEngine::new(1, WireCapConfig::basic(m, r, 0));
            burst(&mut e, 0, 100_000, 0, 67);
            e.finish(SimTime(SECOND));
            let s = e.queue_stats(0);
            assert_eq!(s.capture_drops, 0, "WireCAP-B-({m},{r})");
            assert_eq!(s.delivered, 100_000, "WireCAP-B-({m},{r})");
            assert!(s.is_consistent());
        }
    }

    /// Fig. 9's headline: with x = 300, WireCAP-B-(256,500) absorbs a
    /// 100 000-packet wire-rate burst losslessly where DNA drops at 6 000.
    #[test]
    fn big_pool_absorbs_100k_burst() {
        let mut e = WireCapEngine::new(1, WireCapConfig::basic(256, 500, 300));
        burst(&mut e, 0, 100_000, 0, 67);
        e.finish(SimTime(10 * SECOND));
        let s = e.queue_stats(0);
        assert_eq!(s.capture_drops, 0);
        assert_eq!(s.delivered, 100_000);
    }

    /// …and the smaller pool WireCAP-B-(256,100) drops most of the same
    /// burst (the paper measures 71 % at P = 100 000).
    #[test]
    fn small_pool_drops_beyond_capacity() {
        let mut e = WireCapEngine::new(1, WireCapConfig::basic(256, 100, 300));
        burst(&mut e, 0, 100_000, 0, 67);
        e.finish(SimTime(10 * SECOND));
        let rate = e.queue_stats(0).capture_drop_rate();
        assert!((0.6..0.8).contains(&rate), "drop rate = {rate}");
    }

    /// The loss bound of §3.2.2a: bursts up to Pin·(R·M)/(Pin−Pp) are
    /// absorbed; beyond it drops begin.
    #[test]
    fn loss_bound_is_tight() {
        let cfg = WireCapConfig::basic(256, 100, 300);
        let bound = cfg.max_lossless_burst(14_880_952.0, 38_844.0) as u64;
        let mut under = WireCapEngine::new(1, cfg);
        burst(&mut under, 0, bound - 200, 0, 67);
        under.finish(SimTime(10 * SECOND));
        assert_eq!(under.queue_stats(0).capture_drops, 0);

        let mut over = WireCapEngine::new(1, cfg);
        burst(&mut over, 0, bound + 500, 0, 67);
        over.finish(SimTime(10 * SECOND));
        assert!(over.queue_stats(0).capture_drops > 0);
    }

    /// R·M invariance (Fig. 10): equal pool capacity, equal behaviour.
    #[test]
    fn buffering_depends_on_rm_product() {
        let mut drops = Vec::new();
        for (m, r) in [(64, 400), (128, 200), (256, 100)] {
            let mut e = WireCapEngine::new(1, WireCapConfig::basic(m, r, 300));
            burst(&mut e, 0, 40_000, 0, 67);
            e.finish(SimTime(10 * SECOND));
            drops.push(e.queue_stats(0).capture_drop_rate());
        }
        for w in drops.windows(2) {
            assert!((w[0] - w[1]).abs() < 0.02, "{drops:?}");
        }
    }

    /// Advanced mode: a single overloaded queue offloads to idle buddies
    /// and the group absorbs what basic mode cannot.
    #[test]
    fn offloading_rescues_overloaded_queue() {
        let n = 200_000u64;
        // 80 k/s sustained onto queue 0 of 4 — double one core's rate.
        let mut basic = WireCapEngine::new(4, WireCapConfig::basic(256, 100, 300));
        burst(&mut basic, 0, n, 0, 12_500);
        basic.finish(SimTime(30 * SECOND));
        let b = basic.total_stats();

        let mut adv = WireCapEngine::new(4, WireCapConfig::advanced(256, 100, 0.6, 300));
        burst(&mut adv, 0, n, 0, 12_500);
        adv.finish(SimTime(30 * SECOND));
        let a = adv.total_stats();

        assert!(
            b.overall_drop_rate() > 0.3,
            "basic should drop heavily: {}",
            b.overall_drop_rate()
        );
        assert_eq!(a.capture_drops, 0, "advanced mode should be lossless");
        assert_eq!(a.delivered, n);
        // Work actually moved: buddies processed offloaded chunks.
        let moved: u64 = (1..4).map(|q| adv.telemetry(q).offloaded_in_chunks).sum();
        assert!(moved > 0);
    }

    /// Offloading respects buddy-group boundaries (§3.2.2c).
    #[test]
    fn offloading_stays_in_group() {
        use crate::buddy::{BuddyGroup, BuddyGroups};
        let groups = BuddyGroups::new(
            4,
            vec![BuddyGroup::new(vec![0, 1]), BuddyGroup::new(vec![2, 3])],
        );
        let mut e =
            WireCapEngine::with_groups(4, WireCapConfig::advanced(256, 100, 0.6, 300), groups);
        burst(&mut e, 0, 100_000, 0, 12_500);
        e.finish(SimTime(30 * SECOND));
        assert_eq!(e.telemetry(2).offloaded_in_chunks, 0);
        assert_eq!(e.telemetry(3).offloaded_in_chunks, 0);
        assert!(e.telemetry(1).offloaded_in_chunks > 0);
    }

    /// The timeout partial-capture path delivers stragglers, and those
    /// are the only copies WireCAP ever makes.
    #[test]
    fn partial_timeout_delivers_stragglers() {
        let mut e = WireCapEngine::new(1, WireCapConfig::basic(256, 100, 0));
        burst(&mut e, 0, 100, 0, 67); // 100 pkts: less than half a chunk
        e.finish(SimTime(SECOND));
        let s = e.queue_stats(0);
        assert_eq!(s.delivered, 100);
        let copies = e.copies();
        assert_eq!(copies.packets, 100);
        assert!(copies.bytes > 0);
    }

    /// Full chunks move zero-copy: a multiple of M packets never touches
    /// the copy path.
    #[test]
    fn full_chunks_are_zero_copy() {
        let mut e = WireCapEngine::new(1, WireCapConfig::basic(256, 100, 0));
        burst(&mut e, 0, 256 * 10, 0, 67);
        e.finish(SimTime(SECOND));
        assert_eq!(e.queue_stats(0).delivered, 2560);
        assert!(e.copies().is_zero_copy());
    }

    /// Forwarding: every delivered packet is transmitted, zero-copy, and
    /// chunks recycle after their packets leave the wire.
    #[test]
    fn forwarding_transmits_everything() {
        let mut e = WireCapEngine::new(1, WireCapConfig::basic(256, 100, 300).forwarding());
        burst(&mut e, 0, 20_000, 0, 67);
        e.finish(SimTime(10 * SECOND));
        let s = e.queue_stats(0);
        assert_eq!(s.capture_drops, 0);
        let t = e.telemetry(0);
        assert_eq!(t.forwarded_packets, 20_000);
        assert_eq!(t.transmitted_packets, 20_000);
        assert!(s.is_consistent());
    }

    /// Offload penalty (§5b): offloaded work costs more CPU, so under
    /// sustained overload a heavily penalized group drops where an
    /// unpenalized one keeps up. 80 k/s onto one queue of two: combined
    /// capacity is 38.8 k + 38.8 k·penalty.
    #[test]
    fn offload_penalty_costs_capacity() {
        let run = |penalty: f64| {
            let mut cfg = WireCapConfig::advanced(256, 100, 0.0, 300);
            cfg.offload_penalty = penalty;
            let mut e = WireCapEngine::new(2, cfg);
            burst(&mut e, 0, 400_000, 0, 12_500); // 80 k/s for 5 s
            e.finish(SimTime(30 * SECOND));
            e.total_stats().overall_drop_rate()
        };
        let penalized = run(0.5); // capacity ≈ 58 k/s < 80 k/s: must drop
        let full = run(1.0); // capacity ≈ 77.7 k/s: pools absorb the rest
        assert!(penalized > 0.05, "penalized drop rate = {penalized}");
        assert!(full < penalized / 2.0, "full-speed drop rate = {full}");
    }

    /// The tracer observes the chunk lifecycle when enabled, and the
    /// telemetry snapshot carries coherent chunk/histogram accounting.
    #[test]
    fn telemetry_traces_chunk_lifecycle() {
        let mut e = WireCapEngine::new(2, WireCapConfig::advanced(64, 20, 0.0, 300));
        e.registry().tracer().enable();
        for i in 0..20_000u64 {
            e.on_arrival(SimTime(i * 500), 0, 64);
        }
        e.finish(SimTime(10 * SECOND));
        let t = e.telemetry(0);
        assert!(t.sealed_chunks > 0);
        assert_eq!(t.chunk_fill.count, t.sealed_chunks);
        assert_eq!(
            t.sealed_chunks, t.recycled_chunks,
            "drained engine recycles every sealed chunk"
        );
        assert!(t.offloaded_out_chunks > 0, "T = 0 forces offloading");
        assert_eq!(t.offloaded_out_chunks, e.telemetry(1).offloaded_in_chunks);
        let kinds: std::collections::HashSet<&str> = e
            .registry()
            .tracer()
            .events()
            .iter()
            .map(|ev| ev.kind)
            .collect();
        assert!(kinds.contains(kind::CAPTURE));
        assert!(kinds.contains(kind::RECYCLE));
        assert!(kinds.contains(kind::OFFLOAD));
    }

    /// The trait-level snapshot emits the unified schema.
    #[test]
    fn snapshot_has_every_queue() {
        let mut e = WireCapEngine::new(2, WireCapConfig::basic(64, 20, 300));
        burst(&mut e, 0, 1_000, 0, 67);
        e.finish(SimTime(SECOND));
        let snap = e.snapshot();
        assert_eq!(snap.engine, e.name());
        assert_eq!(snap.queues.len(), 2);
        assert_eq!(snap.queues[0].delivered_packets, 1_000);
        assert!(snap.to_json().contains("\"capture_queue_depth\""));
        assert!(snap.total_drop_stats().is_consistent());
    }

    #[test]
    fn stats_are_consistent_under_stress() {
        let mut e = WireCapEngine::new(2, WireCapConfig::advanced(64, 20, 0.5, 300));
        for i in 0..50_000u64 {
            e.on_arrival(SimTime(i * 500), (i % 2) as usize, 64);
        }
        e.finish(SimTime(30 * SECOND));
        for q in 0..2 {
            assert!(e.queue_stats(q).is_consistent());
        }
        let t = e.total_stats();
        assert_eq!(t.captured, t.delivered + t.in_flight());
    }
}
