//! The unified snapshot schema: [`QueueTelemetry`] per queue,
//! [`EngineSnapshot`] per engine, JSON and Prometheus text exposition.
//!
//! Every engine — the live threaded `LiveWireCap`, the simulation
//! `WireCapEngine`, and the baseline models — returns this exact type
//! from `CaptureEngine::telemetry(q)`, so figure binaries, the apps
//! harness and the benchmark (`wcbench`) all read one schema.

use crate::hist::{bucket_upper_edge, HistogramSnapshot};
use crate::spans::WorkerTelemetry;
use serde::{Deserialize, Serialize};
use sim::stats::{CopyMeter, LatencyStats};
use sim::DropStats;
use std::fmt::Write as _;

/// Point-in-time telemetry for one capture queue.
///
/// Naming scheme (DESIGN.md §4.8): packet counters end in `_packets`,
/// chunk counters in `_chunks`; gauges carry no suffix. Monotonic
/// counters and gauges may be mutually inconsistent by a few in-flight
/// packets when snapshotted while capture threads run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QueueTelemetry {
    /// Queue index.
    pub queue: usize,
    /// Packets offered to this queue (NIC-received plus NIC-dropped).
    pub offered_packets: u64,
    /// Packets landed in pool chunks (or the baseline's ring/buffer).
    pub captured_packets: u64,
    /// Packets handed to the application.
    pub delivered_packets: u64,
    /// Capture-side losses: pool or capture ring exhausted.
    pub capture_drop_packets: u64,
    /// Captured packets discarded before delivery.
    pub delivery_drop_packets: u64,
    /// Frames the NIC dropped before the engine saw them (ring full).
    pub nic_drop_packets: u64,
    /// Packets forwarded by the middlebox path (0 when not forwarding).
    pub forwarded_packets: u64,
    /// Forwarded packets actually put on the wire by the TX path.
    pub transmitted_packets: u64,
    /// Chunks sealed and handed toward user space.
    pub sealed_chunks: u64,
    /// Sealed chunks that were partial (capture-timeout flushes).
    pub partial_chunks: u64,
    /// Chunks recycled back to the pool.
    pub recycled_chunks: u64,
    /// Chunks buddies placed on this queue.
    pub offloaded_in_chunks: u64,
    /// Chunks this queue placed on buddies.
    pub offloaded_out_chunks: u64,
    /// Packets written to capture files by the disk sink (0 when no
    /// sink is attached).
    pub disk_written_packets: u64,
    /// Packets dropped because the disk writer fell behind — the
    /// capture-to-disk subsystem's explicit graceful-degradation drop.
    pub disk_drop_packets: u64,
    /// Chunks this queue's primary pool worker stole from other
    /// workers' deques (0 when no `ConsumerPool` is attached).
    pub steal_in_chunks: u64,
    /// Chunks homed on this queue that other pool workers stole.
    pub steal_out_chunks: u64,
    /// Packets inside chunks stolen from this queue
    /// (`Σ steal_in_chunks == Σ steal_out_chunks` engine-wide).
    pub stolen_packets: u64,
    /// Times a pool worker owning this queue parked on the delivery
    /// gate (adaptive polling reached the park stage). Every owning
    /// worker charges its parks to each of its owned queues.
    pub worker_parks: u64,
    /// Claim CAS races lost on this queue's claim queue (0 unless
    /// concurrent single-queue mode is active).
    pub claim_contention: u64,
    /// Packets recorded into a flow table by the flow-analytics stage
    /// (0 unless a flow sink is attached).
    pub flow_tracked_packets: u64,
    /// Flows displaced from the flow table by per-set LRU eviction.
    pub flow_evicted_flows: u64,
    /// Packets folded into the flow-table eviction aggregate (live
    /// per-flow sums + this == `flow_tracked_packets`).
    pub flow_evicted_packets: u64,
    /// Occupied non-matching flow-table slots scanned during lookups.
    pub flow_hash_collisions: u64,
    /// Gauge: occupancy of the primary pool worker's steal deque.
    pub steal_queue_len: u64,
    /// Gauge: chunks parked in this queue's reorder buffer. Never
    /// charged since in-order delivery was removed: it reads 0, and the
    /// field stays because the snapshot schema is frozen.
    pub reorder_occupancy: u64,
    /// Gauge: live flows resident in the flow tables of this queue's
    /// processing workers (0 unless a flow sink is attached).
    pub flow_table_occupancy: u64,
    /// Gauge: chunks currently waiting on this queue's capture queue.
    pub capture_queue_len: u64,
    /// High-watermark of `capture_queue_len` since engine start (the
    /// deepest this queue's capture queue has ever been, in chunks).
    pub capture_queue_watermark: u64,
    /// Gauge: free chunks in this queue's pool (or free ring slots).
    pub free_chunks: u64,
    /// Gauge: ring descriptors armed and ready for the NIC.
    pub ring_ready: u64,
    /// Gauge: ring descriptors holding received, unharvested frames.
    pub ring_used: u64,
    /// Destination capture-queue depth at each placement decision.
    pub capture_queue_depth: HistogramSnapshot,
    /// Packets per sealed chunk (partials show up short).
    pub chunk_fill: HistogramSnapshot,
    /// Chunks (or packets, for copy baselines) per handoff batch.
    pub batch_size: HistogramSnapshot,
    /// Capture-to-delivery latency per chunk, ns: the chunk's seal
    /// timestamp to its consumption/recycle. One clock read per chunk,
    /// never per packet, so the hot path stays flat (§5c).
    pub latency_ns: HistogramSnapshot,
    /// p99.9 of `latency_ns` (sub-bucket interpolated — see
    /// [`HistogramSnapshot::quantile`]), derived at snapshot time —
    /// the first-class tail-latency number the SLO gate rests on.
    pub latency_p999_ns: u64,
    /// Sampled-span stage (see `telemetry::spans`): seal → ring
    /// publish. Only 1-in-N chunks are sampled, so `count` tracks
    /// `sealed_chunks / span_sample_n`, not `sealed_chunks`.
    pub stage_backend_ns: HistogramSnapshot,
    /// Sampled-span stage: ring publish → acquisition start.
    pub stage_queue_wait_ns: HistogramSnapshot,
    /// Sampled-span stage: acquisition start → ownership (worker-deque
    /// dwell; 0 off the deque intake).
    pub stage_claim_ns: HistogramSnapshot,
    /// Sampled-span stage: ownership → delivery start. Records 0 for
    /// every sampled chunk since in-order delivery (reorder-buffer
    /// dwell) was removed; kept because the schema is frozen.
    pub stage_reorder_ns: HistogramSnapshot,
    /// Sampled-span stage: delivery start → end (handler time).
    pub stage_deliver_ns: HistogramSnapshot,
    /// Sampled-span stage: disk handoff → write-batch commit (0 unless
    /// a disk sink is attached).
    pub stage_disk_ns: HistogramSnapshot,
}

impl QueueTelemetry {
    /// An all-zero snapshot for queue `queue`.
    pub fn empty(queue: usize) -> Self {
        QueueTelemetry {
            queue,
            ..Default::default()
        }
    }

    /// Folds another queue's telemetry into this one. Counters and
    /// gauges add; histograms merge bucket-wise; `queue` keeps its
    /// value.
    pub fn merge(&mut self, other: &QueueTelemetry) {
        self.offered_packets += other.offered_packets;
        self.captured_packets += other.captured_packets;
        self.delivered_packets += other.delivered_packets;
        self.capture_drop_packets += other.capture_drop_packets;
        self.delivery_drop_packets += other.delivery_drop_packets;
        self.nic_drop_packets += other.nic_drop_packets;
        self.forwarded_packets += other.forwarded_packets;
        self.transmitted_packets += other.transmitted_packets;
        self.sealed_chunks += other.sealed_chunks;
        self.partial_chunks += other.partial_chunks;
        self.recycled_chunks += other.recycled_chunks;
        self.offloaded_in_chunks += other.offloaded_in_chunks;
        self.offloaded_out_chunks += other.offloaded_out_chunks;
        self.disk_written_packets += other.disk_written_packets;
        self.disk_drop_packets += other.disk_drop_packets;
        self.steal_in_chunks += other.steal_in_chunks;
        self.steal_out_chunks += other.steal_out_chunks;
        self.stolen_packets += other.stolen_packets;
        self.worker_parks += other.worker_parks;
        self.claim_contention += other.claim_contention;
        self.flow_tracked_packets += other.flow_tracked_packets;
        self.flow_evicted_flows += other.flow_evicted_flows;
        self.flow_evicted_packets += other.flow_evicted_packets;
        self.flow_hash_collisions += other.flow_hash_collisions;
        self.steal_queue_len += other.steal_queue_len;
        self.reorder_occupancy += other.reorder_occupancy;
        self.flow_table_occupancy += other.flow_table_occupancy;
        self.capture_queue_len += other.capture_queue_len;
        self.capture_queue_watermark = self
            .capture_queue_watermark
            .max(other.capture_queue_watermark);
        self.free_chunks += other.free_chunks;
        self.ring_ready += other.ring_ready;
        self.ring_used += other.ring_used;
        self.capture_queue_depth.merge(&other.capture_queue_depth);
        self.chunk_fill.merge(&other.chunk_fill);
        self.batch_size.merge(&other.batch_size);
        self.latency_ns.merge(&other.latency_ns);
        self.stage_backend_ns.merge(&other.stage_backend_ns);
        self.stage_queue_wait_ns.merge(&other.stage_queue_wait_ns);
        self.stage_claim_ns.merge(&other.stage_claim_ns);
        self.stage_reorder_ns.merge(&other.stage_reorder_ns);
        self.stage_deliver_ns.merge(&other.stage_deliver_ns);
        self.stage_disk_ns.merge(&other.stage_disk_ns);
        // The merged tail quantile must come from the merged
        // distribution, not from adding per-queue quantiles.
        self.latency_p999_ns = self.latency_ns.quantile(0.999);
    }

    /// The figure-code view of this queue's drop accounting.
    pub fn drop_stats(&self) -> DropStats {
        DropStats::from(self)
    }
}

/// Bridge to the simulation vocabulary, so figure code keeps compiling:
/// NIC drops and engine capture drops both land in `capture_drops`
/// (the paper does not distinguish where before-capture losses occur).
impl From<&QueueTelemetry> for DropStats {
    fn from(t: &QueueTelemetry) -> DropStats {
        DropStats {
            offered: t.offered_packets,
            captured: t.captured_packets,
            delivered: t.delivered_packets,
            capture_drops: t.capture_drop_packets + t.nic_drop_packets,
            delivery_drops: t.delivery_drop_packets,
        }
    }
}

/// Owned-value variant of the [`DropStats`] bridge.
impl From<QueueTelemetry> for DropStats {
    fn from(t: QueueTelemetry) -> DropStats {
        DropStats::from(&t)
    }
}

/// The pool geometry an engine runs with, logged into
/// [`EngineSnapshot`] so a capture's buffering budget is auditable after
/// the fact. The field names are a frozen schema; the engine runs its
/// configured geometry unmodified, so `mode` is `"throughput"`,
/// `llc_bytes` and `recycle_depth` are 0 and `r_effective` =
/// `r_configured`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TuningTelemetry {
    /// Always `"throughput"`: the configured geometry, unmodified.
    pub mode: String,
    /// Always 0 (no LLC budget).
    pub llc_bytes: u64,
    /// Receive queues, each with its own pool.
    pub queues: u64,
    /// Configured pool chunks per queue (R).
    pub r_configured: u64,
    /// Pool chunks per queue the engine runs with (= `r_configured`).
    pub r_effective: u64,
    /// Cells per chunk (M).
    pub m_effective: u64,
    /// Always 0: consumers recycle at their own cadence, unbounded.
    pub recycle_depth: u64,
    /// Per-queue pool bytes, R × M × cell size.
    pub working_set_bytes: u64,
}

/// Full engine snapshot: one [`QueueTelemetry`] per queue plus the
/// engine-wide copy and latency meters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// Engine display name (e.g. `WireCAP-A-(64, 20, 60%)`).
    pub engine: String,
    /// The engine's pool geometry (`None` for engines without a
    /// chunk pool).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub tuning: Option<TuningTelemetry>,
    /// Per-queue telemetry, indexed by queue.
    pub queues: Vec<QueueTelemetry>,
    /// Per-pool-worker time-state profiles (empty unless a
    /// `ConsumerPool` runs with span tracing enabled).
    pub workers: Vec<WorkerTelemetry>,
    /// Packets/bytes copied outside the zero-copy path.
    pub copies: CopyMeter,
    /// Capture-to-delivery latency distribution.
    pub latency: LatencyStats,
}

impl EngineSnapshot {
    /// Sum of all queues' telemetry (the `queue` field is the queue
    /// count).
    pub fn total(&self) -> QueueTelemetry {
        let mut total = QueueTelemetry::empty(self.queues.len());
        for q in &self.queues {
            total.merge(q);
        }
        total
    }

    /// Engine-wide drop accounting in the figure-code vocabulary.
    pub fn total_drop_stats(&self) -> DropStats {
        DropStats::from(&self.total())
    }

    /// Pretty-printed JSON (the schema the fig binaries emit).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("EngineSnapshot serializes")
    }

    /// Prometheus text exposition (metric names `wirecap_*`, labels
    /// `engine` and `queue`; histograms use cumulative `_bucket{le=…}`
    /// lines with power-of-two edges).
    pub fn to_prometheus(&self) -> String {
        /// A named accessor over one `QueueTelemetry` scalar.
        type Field = (&'static str, fn(&QueueTelemetry) -> u64);
        /// A named accessor over one `QueueTelemetry` histogram.
        type HistField = (&'static str, fn(&QueueTelemetry) -> &HistogramSnapshot);
        let mut out = String::new();
        let engine = self.engine.replace('"', "'");
        let counters: [Field; 24] = [
            ("offered_packets", |t| t.offered_packets),
            ("captured_packets", |t| t.captured_packets),
            ("delivered_packets", |t| t.delivered_packets),
            ("capture_drop_packets", |t| t.capture_drop_packets),
            ("delivery_drop_packets", |t| t.delivery_drop_packets),
            ("nic_drop_packets", |t| t.nic_drop_packets),
            ("forwarded_packets", |t| t.forwarded_packets),
            ("transmitted_packets", |t| t.transmitted_packets),
            ("sealed_chunks", |t| t.sealed_chunks),
            ("partial_chunks", |t| t.partial_chunks),
            ("recycled_chunks", |t| t.recycled_chunks),
            ("offloaded_in_chunks", |t| t.offloaded_in_chunks),
            ("offloaded_out_chunks", |t| t.offloaded_out_chunks),
            ("disk_written_packets", |t| t.disk_written_packets),
            ("disk_drop_packets", |t| t.disk_drop_packets),
            ("steal_in_chunks", |t| t.steal_in_chunks),
            ("steal_out_chunks", |t| t.steal_out_chunks),
            ("stolen_packets", |t| t.stolen_packets),
            ("worker_parks", |t| t.worker_parks),
            ("claim_contention", |t| t.claim_contention),
            ("flow_tracked_packets", |t| t.flow_tracked_packets),
            ("flow_evicted_flows", |t| t.flow_evicted_flows),
            ("flow_evicted_packets", |t| t.flow_evicted_packets),
            ("flow_hash_collisions", |t| t.flow_hash_collisions),
        ];
        for (name, get) in counters {
            let _ = writeln!(out, "# TYPE wirecap_{name}_total counter");
            for t in &self.queues {
                let _ = writeln!(
                    out,
                    "wirecap_{name}_total{{engine=\"{engine}\",queue=\"{}\"}} {}",
                    t.queue,
                    get(t)
                );
            }
        }
        let gauges: [Field; 9] = [
            ("latency_p999_ns", |t| t.latency_p999_ns),
            ("steal_queue_len", |t| t.steal_queue_len),
            ("reorder_occupancy", |t| t.reorder_occupancy),
            ("flow_table_occupancy", |t| t.flow_table_occupancy),
            ("capture_queue_len", |t| t.capture_queue_len),
            ("capture_queue_watermark", |t| t.capture_queue_watermark),
            ("free_chunks", |t| t.free_chunks),
            ("ring_ready", |t| t.ring_ready),
            ("ring_used", |t| t.ring_used),
        ];
        for (name, get) in gauges {
            let _ = writeln!(out, "# TYPE wirecap_{name} gauge");
            for t in &self.queues {
                let _ = writeln!(
                    out,
                    "wirecap_{name}{{engine=\"{engine}\",queue=\"{}\"}} {}",
                    t.queue,
                    get(t)
                );
            }
        }
        let hists: [HistField; 10] = [
            ("capture_queue_depth", |t| &t.capture_queue_depth),
            ("chunk_fill", |t| &t.chunk_fill),
            ("batch_size", |t| &t.batch_size),
            ("latency_ns", |t| &t.latency_ns),
            ("stage_backend_ns", |t| &t.stage_backend_ns),
            ("stage_queue_wait_ns", |t| &t.stage_queue_wait_ns),
            ("stage_claim_ns", |t| &t.stage_claim_ns),
            ("stage_reorder_ns", |t| &t.stage_reorder_ns),
            ("stage_deliver_ns", |t| &t.stage_deliver_ns),
            ("stage_disk_ns", |t| &t.stage_disk_ns),
        ];
        for (name, get) in hists {
            let _ = writeln!(out, "# TYPE wirecap_{name} histogram");
            for t in &self.queues {
                let h = get(t);
                let labels = format!("engine=\"{engine}\",queue=\"{}\"", t.queue);
                let mut cum = 0u64;
                for (i, &n) in h.buckets.iter().enumerate() {
                    cum += n;
                    let _ = writeln!(
                        out,
                        "wirecap_{name}_bucket{{{labels},le=\"{}\"}} {cum}",
                        bucket_upper_edge(i)
                    );
                }
                let _ = writeln!(
                    out,
                    "wirecap_{name}_bucket{{{labels},le=\"+Inf\"}} {}",
                    h.count
                );
                let _ = writeln!(out, "wirecap_{name}_sum{{{labels}}} {}", h.sum);
                let _ = writeln!(out, "wirecap_{name}_count{{{labels}}} {}", h.count);
            }
        }
        if !self.workers.is_empty() {
            let _ = writeln!(out, "# TYPE wirecap_worker_state_ns_total counter");
            for w in &self.workers {
                for (state, ns) in [
                    ("spin", w.spin_ns),
                    ("yield", w.yield_ns),
                    ("park", w.park_ns),
                    ("claim", w.claim_ns),
                    ("deliver", w.deliver_ns),
                    ("steal", w.steal_ns),
                ] {
                    let _ = writeln!(
                        out,
                        "wirecap_worker_state_ns_total{{engine=\"{engine}\",worker=\"{}\",state=\"{state}\"}} {ns}",
                        w.worker
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EngineSnapshot {
        let mut q0 = QueueTelemetry::empty(0);
        q0.offered_packets = 100;
        q0.captured_packets = 90;
        q0.delivered_packets = 88;
        q0.capture_drop_packets = 7;
        q0.nic_drop_packets = 3;
        q0.delivery_drop_packets = 2;
        q0.disk_written_packets = 80;
        q0.disk_drop_packets = 8;
        q0.steal_in_chunks = 4;
        q0.steal_out_chunks = 4;
        q0.stolen_packets = 40;
        q0.worker_parks = 2;
        q0.claim_contention = 6;
        q0.flow_tracked_packets = 88;
        q0.flow_evicted_flows = 1;
        q0.flow_evicted_packets = 4;
        q0.flow_hash_collisions = 9;
        q0.steal_queue_len = 3;
        q0.reorder_occupancy = 2;
        q0.flow_table_occupancy = 12;
        q0.chunk_fill.count = 2;
        q0.chunk_fill.sum = 90;
        q0.chunk_fill.max = 64;
        q0.chunk_fill.buckets = vec![0, 0, 0, 0, 0, 1, 0, 1];
        q0.capture_queue_watermark = 5;
        q0.latency_ns.count = 1;
        q0.latency_ns.sum = 1500;
        q0.latency_ns.max = 1500;
        q0.latency_ns.buckets = vec![0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1];
        q0.latency_p999_ns = q0.latency_ns.quantile(0.999);
        q0.stage_deliver_ns.count = 1;
        q0.stage_deliver_ns.sum = 700;
        q0.stage_deliver_ns.max = 700;
        q0.stage_deliver_ns.buckets = vec![0, 0, 0, 0, 0, 0, 0, 0, 0, 1];
        EngineSnapshot {
            engine: "test".into(),
            tuning: None,
            queues: vec![q0, QueueTelemetry::empty(1)],
            workers: vec![WorkerTelemetry {
                worker: 0,
                spin_ns: 11,
                deliver_ns: 400,
                ..Default::default()
            }],
            copies: CopyMeter::default(),
            latency: LatencyStats::default(),
        }
    }

    #[test]
    fn drop_stats_bridge_is_consistent() {
        let snap = sample();
        let ds = snap.total_drop_stats();
        assert_eq!(ds.offered, 100);
        assert_eq!(ds.captured, 90);
        assert_eq!(ds.delivered, 88);
        assert_eq!(ds.capture_drops, 10, "nic + capture drops unify");
        assert_eq!(ds.delivery_drops, 2);
        assert!(ds.is_consistent());
    }

    #[test]
    fn json_round_trips() {
        let snap = sample();
        let json = snap.to_json();
        let back: EngineSnapshot = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.engine, snap.engine);
        assert_eq!(back.queues, snap.queues);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE wirecap_captured_packets_total counter"));
        assert!(text.contains("wirecap_captured_packets_total{engine=\"test\",queue=\"0\"} 90"));
        assert!(text.contains("# TYPE wirecap_chunk_fill histogram"));
        assert!(
            text.contains("wirecap_chunk_fill_bucket{engine=\"test\",queue=\"0\",le=\"+Inf\"} 2")
        );
        assert!(text.contains("wirecap_chunk_fill_sum{engine=\"test\",queue=\"0\"} 90"));
        // Cumulative buckets end at the total count.
        assert!(text.contains("le=\"128\"} 2"));
        assert!(text.contains("# TYPE wirecap_disk_drop_packets_total counter"));
        assert!(text.contains("wirecap_disk_written_packets_total{engine=\"test\",queue=\"0\"} 80"));
        assert!(text.contains("wirecap_disk_drop_packets_total{engine=\"test\",queue=\"0\"} 8"));
        assert!(text.contains("# TYPE wirecap_steal_out_chunks_total counter"));
        assert!(text.contains("wirecap_stolen_packets_total{engine=\"test\",queue=\"0\"} 40"));
        assert!(text.contains("# TYPE wirecap_steal_queue_len gauge"));
        assert!(text.contains("wirecap_steal_queue_len{engine=\"test\",queue=\"0\"} 3"));
        assert!(text.contains("# TYPE wirecap_claim_contention_total counter"));
        assert!(text.contains("wirecap_claim_contention_total{engine=\"test\",queue=\"0\"} 6"));
        assert!(text.contains("# TYPE wirecap_reorder_occupancy gauge"));
        assert!(text.contains("wirecap_reorder_occupancy{engine=\"test\",queue=\"0\"} 2"));
        assert!(text.contains("# TYPE wirecap_flow_tracked_packets_total counter"));
        assert!(text.contains("wirecap_flow_tracked_packets_total{engine=\"test\",queue=\"0\"} 88"));
        assert!(text.contains("wirecap_flow_evicted_packets_total{engine=\"test\",queue=\"0\"} 4"));
        assert!(text.contains("wirecap_flow_hash_collisions_total{engine=\"test\",queue=\"0\"} 9"));
        assert!(text.contains("# TYPE wirecap_flow_table_occupancy gauge"));
        assert!(text.contains("wirecap_flow_table_occupancy{engine=\"test\",queue=\"0\"} 12"));
        assert!(text.contains("# TYPE wirecap_capture_queue_watermark gauge"));
        assert!(text.contains("wirecap_capture_queue_watermark{engine=\"test\",queue=\"0\"} 5"));
        assert!(text.contains("# TYPE wirecap_latency_ns histogram"));
        assert!(text.contains("wirecap_latency_ns_sum{engine=\"test\",queue=\"0\"} 1500"));
        assert!(text.contains("# TYPE wirecap_latency_p999_ns gauge"));
        // A single 1500 ns sample: interpolation anchors the last
        // non-empty bucket at the observed max, so p99.9 is exact.
        assert!(text.contains("wirecap_latency_p999_ns{engine=\"test\",queue=\"0\"} 1500"));
        assert!(text.contains("# TYPE wirecap_stage_deliver_ns histogram"));
        assert!(text.contains("wirecap_stage_deliver_ns_sum{engine=\"test\",queue=\"0\"} 700"));
        assert!(text.contains("# TYPE wirecap_stage_disk_ns histogram"));
        assert!(text.contains("# TYPE wirecap_worker_state_ns_total counter"));
        assert!(text.contains(
            "wirecap_worker_state_ns_total{engine=\"test\",worker=\"0\",state=\"spin\"} 11"
        ));
        assert!(text.contains(
            "wirecap_worker_state_ns_total{engine=\"test\",worker=\"0\",state=\"deliver\"} 400"
        ));
    }

    #[test]
    fn merge_sums_queues() {
        let snap = sample();
        let total = snap.total();
        assert_eq!(total.queue, 2);
        assert_eq!(total.offered_packets, 100);
        assert_eq!(total.chunk_fill.count, 2);
        assert_eq!(total.capture_queue_watermark, 5, "watermarks merge as max");
        assert_eq!(total.flow_tracked_packets, 88);
        assert_eq!(total.flow_table_occupancy, 12, "occupancy levels sum");
        assert_eq!(total.latency_ns.count, 1);
        assert_eq!(total.stage_deliver_ns.count, 1, "stage histograms merge");
        assert_eq!(
            total.latency_p999_ns,
            total.latency_ns.quantile(0.999),
            "merged p99.9 derives from the merged distribution"
        );
    }
}
