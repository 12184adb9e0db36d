//! Sampled per-chunk lifecycle spans and the worker time-state
//! profiler.
//!
//! The end-to-end `latency_ns` histogram says *how long* capture →
//! delivery took, but not *where* the time went. This module adds the
//! decomposition: engines stamp a sampled chunk (1-in-N per queue,
//! `WireCapConfig::span_sample_n`, 0 = off) at every ownership-transfer
//! boundary it crosses — seal, ring publish, claim-or-steal
//! acquisition, delivery start/end, disk handoff, disk write — using
//! the amortized [`crate::clock`] seam. The stamps travel *inside* the
//! engine's chunk handle (a plain [`SpanStamps`] value, moved with the
//! chunk through rings, deques and claim queues; no shared state, no
//! synchronization), and are folded into a [`SpanRecord`] at the same
//! point the end-to-end latency is recorded.
//!
//! Completed records land in a bounded [`SpanRing`] (newest-wins, the
//! same retention shape as [`crate::trace::EventTracer`]) and feed
//! two consumers:
//!
//! * per-stage `Log2Histogram`s in the snapshot / Prometheus schema
//!   (`stage_backend_ns`, `stage_queue_wait_ns`, `stage_claim_ns`,
//!   `stage_reorder_ns`, `stage_deliver_ns`, `stage_disk_ns`);
//! * the `/trace.json` scrape route, which renders the ring as Chrome
//!   trace-event JSON ([`chrome_trace_json`]) loadable in
//!   `chrome://tracing` / Perfetto — one track per queue, one per pool
//!   worker.
//!
//! Cost contract: an unsampled chunk pays exactly one branch at seal.
//! A sampled chunk pays a handful of `u64` stores at boundaries it was
//! already crossing plus one short ring lock at completion — once per
//! *chunk*, never per packet. The benchmark's `trace.overhead_frac`
//! (`BENCHMARK.json`) measures the whole feature on the real engine with
//! every chunk sampled.
//!
//! The worker time-state profiler ([`WorkerState`]) is the dual view:
//! instead of following a chunk through stages, it follows a pool
//! worker through the adaptive-polling ladder, accounting wall time
//! into yield / park / claim / deliver / steal buckets (plus a `spin`
//! bucket that the snapshot schema keeps and the ladder never fills).
//! Workers register with the [`crate::Registry`] at pool start and
//! account transitions single-writer; snapshots read the buckets
//! relaxed.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default retained completed spans when the engine does not size the
/// ring explicitly.
pub const DEFAULT_SPAN_CAPACITY: usize = 1024;

/// In-flight boundary stamps, carried *by value* inside an engine's
/// chunk handle from seal to recycle. All stamps are
/// [`crate::clock::mono_ns`] values; `0` means "boundary not crossed"
/// (e.g. no disk stage on a count-only consumer).
///
/// The carrier is deliberately dumb: plain `u64`s, no atomics. A chunk
/// is owned by exactly one thread at a time — the same ownership
/// discipline that makes the hot path safe makes these stamps safe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStamps {
    /// Chunk sealed by the capture thread (span start).
    pub sealed_ns: u64,
    /// Chunk published to its delivery ring (end of the backend stage).
    pub published_ns: u64,
    /// Acquisition *began*: the deque intake's ring drain; equals
    /// `acquired_ns` on every other path.
    pub acquire_started_ns: u64,
    /// Ownership transferred to a consumer or pool worker.
    pub acquired_ns: u64,
    /// Delivery (handler) began.
    pub deliver_start_ns: u64,
    /// Delivery (handler) finished.
    pub deliver_end_ns: u64,
    /// Handed to the disk writer's bounded queue; 0 off the disk path.
    pub disk_handoff_ns: u64,
    /// Disk write batch committed (write syscall done); 0 off the disk
    /// path.
    pub disk_write_ns: u64,
}

/// One completed, sampled chunk lifetime with its per-stage
/// decomposition. Durations are computed with saturating subtraction
/// from the boundary stamps, so they are non-negative by construction
/// and partition (a subset of) the end-to-end interval.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Home queue of the chunk.
    pub queue: u32,
    /// Per-queue chunk sequence number (the sampling key).
    pub seq: u64,
    /// Packets the chunk carried.
    pub packets: u32,
    /// Pool worker that delivered it; `None` for the per-queue
    /// consumer and the disk path.
    pub worker: Option<u32>,
    /// Delivered by a worker that did not own the home queue.
    pub stolen: bool,
    /// Seal stamp (`mono_ns`), the span's position on the timeline.
    pub sealed_ns: u64,
    /// Seal → recycle (or the engine's recorded end), ns.
    pub end_to_end_ns: u64,
    /// Seal → ring publish: capture-side residency.
    pub stage_backend_ns: u64,
    /// Publish → acquisition start: time waiting in the ring or claim
    /// queue.
    pub stage_queue_wait_ns: u64,
    /// Acquisition start → ownership (worker-deque dwell; 0 off the
    /// deque intake).
    pub stage_claim_ns: u64,
    /// Ownership → delivery start. 0 on every path since in-order
    /// delivery (reorder-buffer dwell) was removed; kept because the
    /// snapshot schema is frozen.
    pub stage_reorder_ns: u64,
    /// Delivery start → end: handler time.
    pub stage_deliver_ns: u64,
    /// Disk handoff → write commit; 0 off the disk path.
    pub stage_disk_ns: u64,
}

impl SpanRecord {
    /// Folds boundary stamps into a completed record. `end_ns` is the
    /// same timestamp the engine records into `latency_ns`, so the
    /// stage sum can be compared against the end-to-end histogram.
    pub fn from_stamps(
        queue: u32,
        seq: u64,
        packets: u32,
        worker: Option<u32>,
        stolen: bool,
        s: &SpanStamps,
        end_ns: u64,
    ) -> SpanRecord {
        SpanRecord {
            queue,
            seq,
            packets,
            worker,
            stolen,
            sealed_ns: s.sealed_ns,
            end_to_end_ns: end_ns.saturating_sub(s.sealed_ns),
            stage_backend_ns: s.published_ns.saturating_sub(s.sealed_ns),
            stage_queue_wait_ns: s.acquire_started_ns.saturating_sub(s.published_ns),
            stage_claim_ns: s.acquired_ns.saturating_sub(s.acquire_started_ns),
            stage_reorder_ns: s.deliver_start_ns.saturating_sub(s.acquired_ns),
            stage_deliver_ns: s.deliver_end_ns.saturating_sub(s.deliver_start_ns),
            stage_disk_ns: s.disk_write_ns.saturating_sub(s.disk_handoff_ns),
        }
    }

    /// Sum of all stage durations — ≤ `end_to_end_ns` whenever the
    /// stamps were taken in pipeline order from the one monotonic
    /// clock.
    pub fn stage_sum_ns(&self) -> u64 {
        self.stage_backend_ns
            + self.stage_queue_wait_ns
            + self.stage_claim_ns
            + self.stage_reorder_ns
            + self.stage_deliver_ns
            + self.stage_disk_ns
    }
}

/// Bounded ring of completed [`SpanRecord`]s, newest-wins. Pushes come
/// from delivery-side threads once per *sampled chunk* — far off the
/// per-packet path — so a short mutex hold is cheaper than the
/// padded-slot machinery a true per-packet ring would need.
#[derive(Debug)]
pub struct SpanRing {
    ring: Mutex<Ring>,
}

#[derive(Debug)]
struct Ring {
    buf: Vec<SpanRecord>,
    capacity: usize,
    next: usize,
}

impl SpanRing {
    /// A ring retaining up to `capacity` completed spans (min 1).
    pub fn with_capacity(capacity: usize) -> SpanRing {
        let capacity = capacity.max(1);
        SpanRing {
            ring: Mutex::new(Ring {
                buf: Vec::with_capacity(capacity),
                capacity,
                next: 0,
            }),
        }
    }

    /// Retention capacity.
    pub fn capacity(&self) -> usize {
        self.ring.lock().expect("span ring poisoned").capacity
    }

    /// Records a completed span, evicting the oldest when full.
    pub fn push(&self, record: SpanRecord) {
        let mut r = self.ring.lock().expect("span ring poisoned");
        if r.buf.len() < r.capacity {
            r.buf.push(record);
        } else {
            let at = r.next;
            r.buf[at] = record;
        }
        r.next = (r.next + 1) % r.capacity;
    }

    /// Retained spans, oldest first.
    pub fn records(&self) -> Vec<SpanRecord> {
        let r = self.ring.lock().expect("span ring poisoned");
        if r.buf.len() < r.capacity {
            return r.buf.clone();
        }
        let mut out = Vec::with_capacity(r.buf.len());
        out.extend_from_slice(&r.buf[r.next..]);
        out.extend_from_slice(&r.buf[..r.next]);
        out
    }

    /// Spans retained right now.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("span ring poisoned").buf.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for SpanRing {
    fn default() -> Self {
        SpanRing::with_capacity(DEFAULT_SPAN_CAPACITY)
    }
}

/// The wall-time buckets a pool worker's life divides into. Yield and
/// park are the two rungs of the adaptive-polling ladder; claim,
/// deliver and steal are the working states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerTimeState {
    /// Busy-spinning. The live engine's ladder has no spin rung, so
    /// it never charges this bucket (see [`WorkerTelemetry::spin_ns`]).
    Spin,
    /// Yielding the core on the first rung.
    Yield,
    /// Parked on the wakeup gate.
    Park,
    /// Attempting claim-CAS acquisitions (concurrent queue mode).
    Claim,
    /// Running the delivery handler (includes recycle bookkeeping).
    Deliver,
    /// Probing other workers' deques for work to steal.
    Steal,
}

/// Per-worker wall-time accounting across the ladder and working
/// states. Buckets are written by the owning worker only (plain
/// relaxed adds at state transitions — a handful per loop iteration,
/// never per packet) and read relaxed by snapshots.
#[derive(Debug, Default)]
pub struct WorkerState {
    /// Pool worker index.
    pub worker: u32,
    spin_ns: AtomicU64,
    yield_ns: AtomicU64,
    park_ns: AtomicU64,
    claim_ns: AtomicU64,
    deliver_ns: AtomicU64,
    steal_ns: AtomicU64,
}

impl WorkerState {
    /// Accounting state for pool worker `worker`.
    pub fn new(worker: u32) -> WorkerState {
        WorkerState {
            worker,
            ..Default::default()
        }
    }

    /// Adds `ns` of wall time to `state`'s bucket.
    pub fn account(&self, state: WorkerTimeState, ns: u64) {
        let bucket = match state {
            WorkerTimeState::Spin => &self.spin_ns,
            WorkerTimeState::Yield => &self.yield_ns,
            WorkerTimeState::Park => &self.park_ns,
            WorkerTimeState::Claim => &self.claim_ns,
            WorkerTimeState::Deliver => &self.deliver_ns,
            WorkerTimeState::Steal => &self.steal_ns,
        };
        bucket.fetch_add(ns, Ordering::Relaxed);
    }

    /// Point-in-time copy of the buckets.
    pub fn snapshot(&self) -> WorkerTelemetry {
        WorkerTelemetry {
            worker: self.worker,
            spin_ns: self.spin_ns.load(Ordering::Relaxed),
            yield_ns: self.yield_ns.load(Ordering::Relaxed),
            park_ns: self.park_ns.load(Ordering::Relaxed),
            claim_ns: self.claim_ns.load(Ordering::Relaxed),
            deliver_ns: self.deliver_ns.load(Ordering::Relaxed),
            steal_ns: self.steal_ns.load(Ordering::Relaxed),
        }
    }
}

/// Serializable point-in-time copy of one worker's time-state buckets,
/// embedded in [`crate::EngineSnapshot::workers`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerTelemetry {
    /// Pool worker index.
    pub worker: u32,
    /// Wall time busy-spinning, ns. The live engine does not busy-spin
    /// when idle, so its workers leave this at 0; the field is kept
    /// because the snapshot schema is frozen.
    pub spin_ns: u64,
    /// Wall time yielding, ns.
    pub yield_ns: u64,
    /// Wall time parked on the wakeup gate, ns.
    pub park_ns: u64,
    /// Wall time in claim-CAS acquisition, ns.
    pub claim_ns: u64,
    /// Wall time running delivery handlers, ns.
    pub deliver_ns: u64,
    /// Wall time probing steal targets, ns.
    pub steal_ns: u64,
}

/// Shorthand for one object node in the trace-event tree.
fn obj(fields: Vec<(&str, serde::Value)>) -> serde::Value {
    serde::Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One trace event with the four fields every consumer requires
/// (`ph`/`ts`/`pid`/`tid`) plus the given extras.
fn event(
    ph: &str,
    ts_us: f64,
    pid: u64,
    tid: u64,
    extra: Vec<(&str, serde::Value)>,
) -> serde::Value {
    let mut fields = vec![
        ("ph", serde::Value::Str(ph.to_string())),
        ("ts", serde::Value::F64(ts_us)),
        ("pid", serde::Value::U64(pid)),
        ("tid", serde::Value::U64(tid)),
    ];
    fields.extend(extra);
    obj(fields)
}

/// A `"M"` metadata event naming a process or thread track.
fn meta_event(pid: u64, tid: u64, kind: &str, name: &str) -> serde::Value {
    event(
        "M",
        0.0,
        pid,
        tid,
        vec![
            ("name", serde::Value::Str(kind.to_string())),
            (
                "args",
                obj(vec![("name", serde::Value::Str(name.to_string()))]),
            ),
        ],
    )
}

/// Renders completed spans plus worker time-state totals as Chrome
/// trace-event JSON: a plain array of event objects, loadable directly
/// in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
///
/// Track layout: `pid 1` carries one track per *queue* (backend /
/// queue-wait / claim / reorder / disk stages, `tid` = queue id);
/// `pid 2` carries one track per pool *worker* (deliver stages, `tid`
/// = worker id; per-queue consumer deliveries stay on the queue
/// track). Worker bucket totals are emitted as counter events on the
/// worker track. Timestamps are `mono_ns / 1000` (the format counts
/// microseconds).
pub fn chrome_trace_json(spans: &[SpanRecord], workers: &[WorkerTelemetry]) -> String {
    let mut events: Vec<serde::Value> = Vec::new();
    events.push(meta_event(1, 0, "process_name", "wirecap queues"));
    events.push(meta_event(2, 0, "process_name", "wirecap workers"));
    let mut named_queues = std::collections::BTreeSet::new();
    for w in workers {
        events.push(meta_event(
            2,
            u64::from(w.worker),
            "thread_name",
            &format!("worker {}", w.worker),
        ));
    }
    let complete =
        |pid: u64, tid: u64, name: &str, cat: &str, ts_ns: u64, dur_ns: u64, s: &SpanRecord| {
            event(
                "X",
                ts_ns as f64 / 1000.0,
                pid,
                tid,
                vec![
                    ("dur", serde::Value::F64(dur_ns.max(1) as f64 / 1000.0)),
                    ("name", serde::Value::Str(name.to_string())),
                    ("cat", serde::Value::Str(cat.to_string())),
                    (
                        "args",
                        obj(vec![
                            ("queue", serde::Value::U64(u64::from(s.queue))),
                            ("seq", serde::Value::U64(s.seq)),
                            ("packets", serde::Value::U64(u64::from(s.packets))),
                            ("stolen", serde::Value::Bool(s.stolen)),
                        ]),
                    ),
                ],
            )
        };
    for s in spans {
        if named_queues.insert(s.queue) {
            events.push(meta_event(
                1,
                u64::from(s.queue),
                "thread_name",
                &format!("queue {}", s.queue),
            ));
        }
        let q = u64::from(s.queue);
        let mut at = s.sealed_ns;
        for (name, dur) in [
            ("backend", s.stage_backend_ns),
            ("queue_wait", s.stage_queue_wait_ns),
            ("claim", s.stage_claim_ns),
            ("reorder", s.stage_reorder_ns),
        ] {
            if dur > 0 {
                events.push(complete(1, q, name, "pipeline", at, dur, s));
            }
            at += dur;
        }
        if s.stage_deliver_ns > 0 {
            match s.worker {
                Some(w) => events.push(complete(
                    2,
                    u64::from(w),
                    "deliver",
                    "pipeline",
                    at,
                    s.stage_deliver_ns,
                    s,
                )),
                None => events.push(complete(
                    1,
                    q,
                    "deliver",
                    "pipeline",
                    at,
                    s.stage_deliver_ns,
                    s,
                )),
            }
        }
        at += s.stage_deliver_ns;
        if s.stage_disk_ns > 0 {
            events.push(complete(1, q, "disk", "disk", at, s.stage_disk_ns, s));
        }
    }
    for w in workers {
        events.push(event(
            "C",
            0.0,
            2,
            u64::from(w.worker),
            vec![
                (
                    "name",
                    serde::Value::Str(format!("worker {} time-state (ns)", w.worker)),
                ),
                (
                    "args",
                    obj(vec![
                        ("spin", serde::Value::U64(w.spin_ns)),
                        ("yield", serde::Value::U64(w.yield_ns)),
                        ("park", serde::Value::U64(w.park_ns)),
                        ("claim", serde::Value::U64(w.claim_ns)),
                        ("deliver", serde::Value::U64(w.deliver_ns)),
                        ("steal", serde::Value::U64(w.steal_ns)),
                    ]),
                ),
            ],
        ));
    }
    serde_json::to_string_pretty(&serde::Value::Arr(events)).expect("trace events serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamps() -> SpanStamps {
        SpanStamps {
            sealed_ns: 1_000,
            published_ns: 1_200,
            acquire_started_ns: 1_900,
            acquired_ns: 2_000,
            deliver_start_ns: 2_050,
            deliver_end_ns: 2_500,
            disk_handoff_ns: 0,
            disk_write_ns: 0,
        }
    }

    #[test]
    fn stages_decompose_the_end_to_end_interval() {
        let r = SpanRecord::from_stamps(3, 42, 64, Some(1), true, &stamps(), 2_600);
        assert_eq!(r.stage_backend_ns, 200);
        assert_eq!(r.stage_queue_wait_ns, 700);
        assert_eq!(r.stage_claim_ns, 100);
        assert_eq!(r.stage_reorder_ns, 50);
        assert_eq!(r.stage_deliver_ns, 450);
        assert_eq!(r.stage_disk_ns, 0);
        assert_eq!(r.end_to_end_ns, 1_600);
        assert!(r.stage_sum_ns() <= r.end_to_end_ns);
    }

    #[test]
    fn out_of_order_stamps_saturate_to_zero() {
        let mut s = stamps();
        s.published_ns = 500; // "before" the seal
        let r = SpanRecord::from_stamps(0, 0, 1, None, false, &s, 2_600);
        assert_eq!(r.stage_backend_ns, 0, "saturating, never negative");
    }

    #[test]
    fn ring_retains_newest_and_reads_oldest_first() {
        let ring = SpanRing::with_capacity(3);
        assert!(ring.is_empty());
        for seq in 0..5u64 {
            ring.push(SpanRecord {
                seq,
                ..Default::default()
            });
        }
        let got: Vec<u64> = ring.records().iter().map(|r| r.seq).collect();
        assert_eq!(got, vec![2, 3, 4]);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
    }

    #[test]
    fn worker_state_accounts_into_named_buckets() {
        let w = WorkerState::new(7);
        w.account(WorkerTimeState::Spin, 10);
        w.account(WorkerTimeState::Spin, 5);
        w.account(WorkerTimeState::Deliver, 100);
        w.account(WorkerTimeState::Steal, 1);
        let t = w.snapshot();
        assert_eq!(t.worker, 7);
        assert_eq!(t.spin_ns, 15);
        assert_eq!(t.deliver_ns, 100);
        assert_eq!(t.steal_ns, 1);
        assert_eq!(t.park_ns, 0);
    }

    #[test]
    fn chrome_trace_is_an_array_of_events_with_required_fields() {
        let r = SpanRecord::from_stamps(1, 8, 32, Some(0), false, &stamps(), 2_600);
        let d = SpanRecord {
            stage_disk_ns: 900,
            ..SpanRecord::from_stamps(0, 9, 16, None, false, &stamps(), 3_600)
        };
        let w = WorkerTelemetry {
            worker: 0,
            spin_ns: 5,
            ..Default::default()
        };
        let body = chrome_trace_json(&[r, d], &[w]);
        let parsed: serde::Value = serde_json::from_str(&body).unwrap();
        let events = match parsed {
            serde::Value::Arr(evs) => evs,
            other => panic!("expected array, got {other:?}"),
        };
        assert!(!events.is_empty());
        for e in &events {
            assert!(matches!(e, serde::Value::Obj(_)), "expected object: {e:?}");
            for key in ["ph", "ts", "pid", "tid"] {
                assert!(e.field(key).is_some(), "missing {key}: {e:?}");
            }
        }
        // Both the queue track and the worker track are present.
        assert!(body.contains("wirecap queues"));
        assert!(body.contains("wirecap workers"));
        assert!(body.contains("\"deliver\""));
        assert!(body.contains("\"disk\""));
    }
}
