//! Harness spans: what the traced run records around each call into a
//! layer, from outside the engine.
//!
//! Each delivery thread owns a [`SpanBuf`]: a pre-allocated excerpt of
//! raw spans for the trace file, and running aggregates over *every*
//! span for the per-layer metrics. A span's self time is its duration
//! minus that of its children; the one parent span, `chunk`, is tiled
//! exactly by its three children, so every reported span is a leaf and
//! its duration is its self time. Nothing here allocates after
//! construction.

use crate::json::obj;
use crate::plan::TRACE_SPANS_PER_THREAD;
use serde::Value;

/// The call sites the harness wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanName {
    /// One delivered chunk, from the call that obtained it to the end of
    /// its recycle; parent of the three below.
    Chunk,
    /// `LiveConsumer::try_chunk` that returned a chunk.
    TryChunk,
    /// `view()` + the benchmark's handler over every packet.
    Handler,
    /// `LiveConsumer::recycle`.
    Recycle,
    /// The closure a `ConsumerPool` worker runs per chunk.
    PoolHandler,
    /// `LiveNic::inject` of one paced packet.
    Inject,
}

const NAMES: [(&str, Option<SpanName>); 6] = [
    ("chunk", None),
    ("try_chunk", Some(SpanName::Chunk)),
    ("handler", Some(SpanName::Chunk)),
    ("recycle", Some(SpanName::Chunk)),
    ("pool_handler", None),
    ("inject", None),
];

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct SpanRec {
    name: SpanName,
    start_ns: u64,
    end_ns: u64,
    /// Home queue and seal-order sequence of the chunk it worked on
    /// (`u32::MAX` home for spans not tied to a chunk).
    home: u32,
    seq: u64,
}

/// Totals over every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanAgg {
    /// Spans recorded.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
}

impl SpanAgg {
    /// Mean duration in nanoseconds; 0.0 when no span was recorded.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct SpanBuf {
    tid: u64,
    recs: Vec<SpanRec>,
    agg: [SpanAgg; NAMES.len()],
}

impl SpanBuf {
    /// A recorder for harness thread `tid`, with its excerpt buffer
    /// allocated up front.
    pub fn new(tid: u64) -> Self {
        SpanBuf {
            tid,
            recs: Vec::with_capacity(TRACE_SPANS_PER_THREAD),
            agg: [SpanAgg::default(); NAMES.len()],
        }
    }

    /// Records one span.
    #[inline]
    pub fn record(&mut self, name: SpanName, start_ns: u64, end_ns: u64, home: u32, seq: u64) {
        let dur = end_ns.saturating_sub(start_ns);
        let a = &mut self.agg[name as usize];
        a.count += 1;
        a.total_ns += dur;
        if self.recs.len() < TRACE_SPANS_PER_THREAD {
            self.recs.push(SpanRec {
                name,
                start_ns,
                end_ns,
                home,
                seq,
            });
        }
    }

    /// Totals for `name`.
    pub fn agg(&self, name: SpanName) -> SpanAgg {
        self.agg[name as usize]
    }

    /// Totals for `name` over every thread's recorder.
    pub fn total(bufs: &[SpanBuf], name: SpanName) -> SpanAgg {
        bufs.iter().fold(SpanAgg::default(), |mut t, b| {
            let a = b.agg(name);
            t.count += a.count;
            t.total_ns += a.total_ns;
            t
        })
    }

    /// The excerpt as Chrome trace events (`pid` 3 = the harness, one
    /// track per harness thread), in the format `/trace.json` uses:
    /// complete events, microsecond timestamps on the engine's clock.
    pub fn trace_events(&self) -> Vec<Value> {
        let mut events = vec![obj(vec![
            ("ph", Value::Str("M".into())),
            ("ts", Value::F64(0.0)),
            ("pid", Value::U64(3)),
            ("tid", Value::U64(self.tid)),
            ("name", Value::Str("thread_name".into())),
            (
                "args",
                obj(vec![("name", Value::Str(format!("harness {}", self.tid)))]),
            ),
        ])];
        events.extend(self.recs.iter().map(|r| {
            let (name, parent) = NAMES[r.name as usize];
            let mut args = vec![("seq", Value::U64(r.seq))];
            if r.home != u32::MAX {
                args.push(("home", Value::U64(u64::from(r.home))));
            }
            if let Some(p) = parent {
                args.push(("parent", Value::Str(NAMES[p as usize].0.into())));
            }
            obj(vec![
                ("ph", Value::Str("X".into())),
                ("ts", Value::F64(r.start_ns as f64 / 1000.0)),
                (
                    "dur",
                    Value::F64(r.end_ns.saturating_sub(r.start_ns).max(1) as f64 / 1000.0),
                ),
                ("pid", Value::U64(3)),
                ("tid", Value::U64(self.tid)),
                ("name", Value::Str(name.into())),
                ("cat", Value::Str("harness".into())),
                ("args", obj(args)),
            ])
        }));
        events
    }
}

/// The `"M"` event that names the harness process track.
pub fn process_name_event() -> Value {
    obj(vec![
        ("ph", Value::Str("M".into())),
        ("ts", Value::F64(0.0)),
        ("pid", Value::U64(3)),
        ("tid", Value::U64(0)),
        ("name", Value::Str("process_name".into())),
        (
            "args",
            obj(vec![("name", Value::Str("wcbench harness".into()))]),
        ),
    ])
}
