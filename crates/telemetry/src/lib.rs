//! Unified telemetry for WireCAP capture engines.
//!
//! The paper's evaluation (§4, Figs. 11–14) is driven entirely by
//! per-queue counters — packets captured, dropped, delivered, chunks
//! offloaded between buddies, partial-chunk copies. This crate is the
//! one observability layer those numbers flow through:
//!
//! * [`Registry`] / [`QueueCounters`] — lock-free, cache-padded,
//!   relaxed-atomic counter groups sharded by writer role (capture
//!   thread, application/consumer side, buddy peers), so the hot path
//!   pays one relaxed RMW per *batch*, never a lock and never a shared
//!   cache line between roles.
//! * [`Log2Histogram`] — fixed-bucket power-of-two histograms for
//!   capture-queue depth, chunk fill level and handoff batch sizes.
//! * [`EventTracer`] — a bounded ring buffer of chunk lifecycle events
//!   (`free → attached → captured → recycled`) and offload decisions
//!   (which buddy was chosen, and why). Disabled by default; recording
//!   while disabled is a single relaxed load.
//! * [`spans`] — sampled per-chunk lifecycle spans: per-stage latency
//!   decomposition histograms, a worker time-state profiler, and a
//!   bounded ring of completed spans exportable as Chrome trace-event
//!   JSON (`/trace.json`, `chrome://tracing` / Perfetto).
//! * [`QueueTelemetry`] / [`EngineSnapshot`] — the one snapshot schema
//!   every engine (live, simulated, and the baseline models) returns
//!   from `CaptureEngine::telemetry(q)`, serializable to JSON and
//!   Prometheus text exposition, served live by the [`scrape`]
//!   endpoint. Observation is pull-only: a scraper reads a snapshot
//!   when it asks for one, and computes rates from the `/metrics`
//!   counters itself; nothing inside the engine samples on a timer.
//!
//! The naming scheme (the single drop-accounting vocabulary, DESIGN.md
//! §4.8): packet counters end in `_packets`, chunk counters in
//! `_chunks`; `capture_drop_packets` are losses on the capture side
//! (pool or ring exhausted, the paper's "capture drops"),
//! `delivery_drop_packets` are packets captured but never delivered to
//! the application ("delivery drops"), and `nic_drop_packets` are
//! frames the NIC dropped before the engine ever saw them.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod clock;
pub mod counters;
pub mod hist;
pub mod registry;
pub mod scrape;
pub mod snapshot;
pub mod spans;
pub mod trace;

pub use counters::{
    CaptureSide, Counter, DeliverySide, DiskSide, Gauge, PeerSide, PoolSide, QueueCounters,
};
pub use hist::{HistogramSnapshot, Log2Histogram, RunRecorder, BUCKETS};
pub use registry::Registry;
pub use scrape::{Observable, ScrapeServer};
pub use snapshot::{EngineSnapshot, QueueTelemetry, TuningTelemetry};
pub use spans::{
    chrome_trace_json, SpanRecord, SpanRing, SpanStamps, WorkerState, WorkerTelemetry,
    WorkerTimeState, DEFAULT_SPAN_CAPACITY,
};
pub use trace::{kind, EventTracer, TraceEvent};
