//! The metric catalogue (the names every later claim uses) and the
//! rendering of a run into them.
//!
//! `BENCHMARK.json` lists exactly [`END_TO_END`] and [`PER_LAYER`]; a test
//! keeps the two in step.

use crate::hist::{mad, median};
use crate::json::obj;
use crate::probes::Probed;
use crate::spans::{SpanBuf, SpanName};
use crate::sys;
use crate::workloads::RunOutcome;
use serde::Value;

/// `(name, unit, better)` of one metric.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// What a user of the engine sees. Reported for every workload by the
/// untraced run. Loss is not in this list because it is 0 on every
/// healthy run and a bound is a share of the parent's value: it is the
/// result line's `failed / attempted`, and `driver.loss_frac` per layer.
/// Nor is the 90th-percentile latency: under saturation it follows which
/// side of the pipeline happens to be ahead and swings 18–35 % between
/// identical runs, so it is `driver.lat_p90_us` per layer, unbounded.
pub const END_TO_END: [MetricDef; 4] = [
    ("delivered_mpps", "Mpackets/s", "higher"),
    ("lat_p50_us", "us", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// One layer each. Reported by the traced run and the probes; no bounds.
pub const PER_LAYER: [MetricDef; 65] = [
    ("wire.poll_ns_per_pkt", "ns", "lower"),
    ("arena.write_ns_per_pkt_64", "ns", "lower"),
    ("arena.write_ns_per_pkt_1518", "ns", "lower"),
    ("arena.seal_release_ns_per_chunk", "ns", "lower"),
    ("arena.view_iter_ns_per_pkt", "ns", "lower"),
    ("spsc.hop_ns_per_chunk", "ns", "lower"),
    ("spsc.hop_xthread_ns_per_chunk", "ns", "lower"),
    ("live.try_chunk_ns_per_chunk", "ns", "lower"),
    ("live.recycle_ns_per_chunk", "ns", "lower"),
    ("live.try_chunk_empty_frac", "fraction", "lower"),
    ("live.chunk_fill_frac", "fraction", "higher"),
    ("live.partial_chunk_frac", "fraction", "lower"),
    ("live.capture_queue_watermark", "count", "lower"),
    ("live.capture_drop_frac", "fraction", "lower"),
    ("live.capture_cpu_frac", "fraction", "lower"),
    ("live.stage_backend_p50_ns", "ns", "lower"),
    ("live.stage_queue_wait_p50_ns", "ns", "lower"),
    ("live.stage_queue_wait_p99_ns", "ns", "lower"),
    ("live.stage_deliver_p50_ns", "ns", "lower"),
    ("live.latency_p50_ns", "ns", "lower"),
    ("live.latency_p99_ns", "ns", "lower"),
    ("nicsim.inject_ns_per_pkt", "ns", "lower"),
    ("nicsim.poll_ns_per_pkt", "ns", "lower"),
    ("nicsim.handoff_mpps", "Mpackets/s", "higher"),
    ("shmring.handoff_mpps", "Mpackets/s", "higher"),
    ("nicsim.loop_mpps", "Mpackets/s", "higher"),
    ("shmring.loop_mpps", "Mpackets/s", "higher"),
    ("shmring.inject_ns_per_pkt", "ns", "lower"),
    ("shmring.produce_ns_per_pkt", "ns", "lower"),
    ("shmring.poll_ns_per_pkt", "ns", "lower"),
    ("buddy.place_ns_per_call", "ns", "lower"),
    ("buddy.offload_frac", "fraction", "higher"),
    ("steal.deque_push_pop_ns_per_chunk", "ns", "lower"),
    ("claim.publish_claim_ns_per_chunk", "ns", "lower"),
    ("steal.stolen_frac", "fraction", "higher"),
    ("steal.parks_per_kchunk", "1/kchunk", "lower"),
    ("claim.contention_per_kchunk", "1/kchunk", "lower"),
    ("steal.worker_imbalance", "ratio", "lower"),
    ("steal.worker_deliver_frac", "fraction", "higher"),
    ("steal.worker_park_frac", "fraction", "lower"),
    ("steal.worker_spin_yield_frac", "fraction", "lower"),
    ("steal.worker_steal_frac", "fraction", "lower"),
    ("driver.handler_ns_per_pkt", "ns", "lower"),
    ("driver.idle_frac", "fraction", "higher"),
    ("driver.loss_frac", "fraction", "lower"),
    ("driver.lat_p90_us", "us", "lower"),
    ("driver.lat_p99_us", "us", "lower"),
    ("driver.lat_p999_us", "us", "lower"),
    ("driver.gen_late_p99_us", "us", "lower"),
    ("driver.gen_late_max_us", "us", "lower"),
    ("driver.discarded_runs", "count", "lower"),
    ("telemetry.snapshot_us", "us", "lower"),
    ("telemetry.counter_add_ns", "ns", "lower"),
    ("telemetry.hist_record_ns", "ns", "lower"),
    ("capdisk.encode_ns_per_pkt", "ns", "lower"),
    ("capdisk.write_ns_per_pkt", "ns", "lower"),
    ("capdisk.bytes_per_write", "bytes", "higher"),
    ("netproto.parse_ns_per_pkt", "ns", "lower"),
    ("bpf.filter_ns_per_pkt", "ns", "lower"),
    ("flowstat.record_ns_per_pkt", "ns", "lower"),
    ("ladder.capture_side_ns_per_pkt", "ns", "lower"),
    ("ladder.deliver_side_ns_per_pkt", "ns", "lower"),
    ("ladder.wall_ns_per_pkt", "ns", "lower"),
    ("ladder.explained_frac", "fraction", "higher"),
    ("trace.overhead_frac", "fraction", "lower"),
];

/// One reported value with what is known about its dispersion.
#[derive(Debug, Clone)]
pub struct Reported {
    /// Catalogue name.
    pub name: &'static str,
    /// The value that goes on the result line.
    pub value: f64,
    /// The samples it summarises (rounds, set-ups); empty for a single
    /// reading.
    pub samples: Vec<f64>,
    /// Things counted to get it (latency samples, packets); 0 if none.
    pub count: u64,
}

impl Reported {
    /// A single reading.
    pub fn single(name: &'static str, value: f64) -> Self {
        Reported {
            name,
            value,
            samples: Vec::new(),
            count: 0,
        }
    }

    /// The median of `samples`, which are kept for the spread.
    pub fn median_of(name: &'static str, samples: Vec<f64>, count: u64) -> Self {
        Reported {
            name,
            value: median(&samples),
            samples,
            count,
        }
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(run: &RunOutcome) -> Vec<Reported> {
    let lat = run.lat();
    let q = |p: f64| run.rounds.iter().map(|r| r.lat.quantile(p) / 1e3).collect();
    vec![
        Reported::median_of(
            "delivered_mpps",
            run.rounds.iter().map(|r| r.mpps()).collect(),
            run.rounds.iter().map(|r| r.packets).sum(),
        ),
        // Median over the rounds of each round's quantile, like the rate:
        // a round a hypervisor stall fell into does not set the value.
        Reported::median_of("lat_p50_us", q(0.50), lat.count()),
        // The fastest set-up, not the median one. Scheduling on a shared
        // machine only ever adds to a process start: over three sets of
        // ten runs the median of 15 starts moved by up to 32 % between
        // sets with the machine's mood, the minimum by 2 % (19 % where
        // set-up is mostly the CPU work of building a 6 MB table).
        Reported {
            name: "setup_s",
            value: run.setup_s.iter().copied().fold(f64::MAX, f64::min),
            samples: run.setup_s.clone(),
            count: 0,
        },
        Reported::single("peak_rss_mb", sys::peak_rss_mb()),
    ]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics of a traced invocation: `reference` are its
/// short untraced runs (before and after), `traced` the repeat with
/// spans on, `probes` the isolated rungs.
pub fn per_layer(reference: &[RunOutcome], traced: &RunOutcome, probes: &Probed) -> Vec<Reported> {
    let ref_mean = |f: fn(&RunOutcome) -> f64| {
        reference.iter().map(f).sum::<f64>() / reference.len().max(1) as f64
    };
    let t = traced.snapshot.total();
    let m = traced.workload.m() as f64;
    let probe = |name: &str| probes.iter().find(|(n, _)| *n == name).map_or(0.0, |p| p.1);

    let try_chunk = SpanBuf::total(&traced.spans, SpanName::TryChunk);
    let recycle = SpanBuf::total(&traced.spans, SpanName::Recycle);
    let handler = SpanBuf::total(&traced.spans, SpanName::Handler);
    let pool_handler = SpanBuf::total(&traced.spans, SpanName::PoolHandler);
    let handled = handler.total_ns + pool_handler.total_ns;
    let handler_ns_per_pkt = handled as f64 / traced.delivered.max(1) as f64;

    let workers = &traced.snapshot.workers;
    let sum = |f: fn(&telemetry::WorkerTelemetry) -> u64| workers.iter().map(f).sum::<u64>();
    let (deliver, park, steal) = (
        sum(|w| w.deliver_ns),
        sum(|w| w.park_ns),
        sum(|w| w.steal_ns),
    );
    let spin_yield = sum(|w| w.spin_ns + w.yield_ns);
    let worker_ns = deliver + park + steal + spin_yield + sum(|w| w.claim_ns);
    let per_worker: Vec<u64> = traced.pool_reports.iter().map(|r| r.packets).collect();
    let imbalance = match (per_worker.iter().max(), per_worker.iter().min()) {
        (Some(&hi), Some(&lo)) if lo > 0 => hi as f64 / lo as f64,
        _ => 0.0,
    };
    // Pool workers idle inside the engine, where the harness cannot see:
    // their own time-state profile says how much.
    let idle_frac = if workers.is_empty() {
        ref_mean(|r| r.idle_frac)
    } else {
        ratio(park + spin_yield, worker_ns)
    };

    let ref_rounds: Vec<f64> = reference
        .iter()
        .flat_map(|r| r.rounds.iter().map(|round| round.mpps()))
        .collect();
    let ref_mpps = median(&ref_rounds);
    let traced_mpps = median(&traced.rounds.iter().map(|r| r.mpps()).collect::<Vec<_>>());
    // The arena-write rung at this workload's frame length: the copy is
    // linear in bytes between the two lengths that are probed.
    let (w64, w1518) = (
        probe("arena.write_ns_per_pkt_64"),
        probe("arena.write_ns_per_pkt_1518"),
    );
    let arena_write =
        w64 + (w1518 - w64) * (traced.workload.frame_len() as f64 - 64.0) / (1518.0 - 64.0);
    let capture_side = probe("wire.poll_ns_per_pkt")
        + arena_write
        + (probe("arena.seal_release_ns_per_chunk") + probe("spsc.hop_ns_per_chunk")) / m;
    let deliver_side = (try_chunk.mean_ns() + recycle.mean_ns()) / m
        + probe("arena.view_iter_ns_per_pkt")
        + handler_ns_per_pkt;
    let wall = 1e3 / ref_mpps;
    let lat = traced.lat();

    let from_run = [
        ("live.try_chunk_ns_per_chunk", try_chunk.mean_ns()),
        ("live.recycle_ns_per_chunk", recycle.mean_ns()),
        (
            "live.try_chunk_empty_frac",
            ratio(traced.empty_calls, traced.calls),
        ),
        (
            "live.chunk_fill_frac",
            ratio(
                t.captured_packets,
                t.sealed_chunks * traced.workload.m() as u64,
            ),
        ),
        (
            "live.partial_chunk_frac",
            ratio(t.partial_chunks, t.sealed_chunks),
        ),
        (
            "live.capture_queue_watermark",
            traced
                .snapshot
                .queues
                .iter()
                .map(|q| q.capture_queue_watermark)
                .max()
                .unwrap_or(0) as f64,
        ),
        (
            "live.capture_drop_frac",
            ratio(t.capture_drop_packets, t.offered_packets),
        ),
        ("live.capture_cpu_frac", ref_mean(|r| r.capture_cpu_frac)),
        (
            "live.stage_backend_p50_ns",
            t.stage_backend_ns.quantile(0.5) as f64,
        ),
        (
            "live.stage_queue_wait_p50_ns",
            t.stage_queue_wait_ns.quantile(0.5) as f64,
        ),
        (
            "live.stage_queue_wait_p99_ns",
            t.stage_queue_wait_ns.quantile(0.99) as f64,
        ),
        (
            "live.stage_deliver_p50_ns",
            t.stage_deliver_ns.quantile(0.5) as f64,
        ),
        ("live.latency_p50_ns", t.latency_ns.quantile(0.5) as f64),
        ("live.latency_p99_ns", t.latency_ns.quantile(0.99) as f64),
        (
            "buddy.offload_frac",
            ratio(t.offloaded_out_chunks, t.sealed_chunks),
        ),
        (
            "steal.stolen_frac",
            ratio(t.steal_in_chunks, t.sealed_chunks),
        ),
        (
            "steal.parks_per_kchunk",
            1e3 * ratio(t.worker_parks, t.sealed_chunks),
        ),
        (
            "claim.contention_per_kchunk",
            1e3 * ratio(t.claim_contention, t.sealed_chunks),
        ),
        ("steal.worker_imbalance", imbalance),
        ("steal.worker_deliver_frac", ratio(deliver, worker_ns)),
        ("steal.worker_park_frac", ratio(park, worker_ns)),
        ("steal.worker_spin_yield_frac", ratio(spin_yield, worker_ns)),
        ("steal.worker_steal_frac", ratio(steal, worker_ns)),
        ("driver.handler_ns_per_pkt", handler_ns_per_pkt),
        ("driver.idle_frac", idle_frac),
        ("driver.loss_frac", ref_mean(RunOutcome::loss_frac)),
        ("driver.lat_p90_us", lat.quantile(0.90) / 1e3),
        ("driver.lat_p99_us", lat.quantile(0.99) / 1e3),
        ("driver.lat_p999_us", lat.quantile(0.999) / 1e3),
        (
            "driver.gen_late_p99_us",
            traced.gen_late.quantile(0.99) / 1e3,
        ),
        ("driver.gen_late_max_us", traced.gen_late.max() as f64 / 1e3),
        (
            "driver.discarded_runs",
            ref_mean(|r| f64::from(r.discarded_runs)) * reference.len() as f64
                + f64::from(traced.discarded_runs),
        ),
        ("ladder.capture_side_ns_per_pkt", capture_side),
        ("ladder.deliver_side_ns_per_pkt", deliver_side),
        ("ladder.wall_ns_per_pkt", wall),
        (
            "ladder.explained_frac",
            capture_side.max(deliver_side) / wall,
        ),
        ("trace.overhead_frac", 1.0 - traced_mpps / ref_mpps),
    ];
    PER_LAYER
        .iter()
        .map(|&(name, _, _)| {
            let value = from_run
                .iter()
                .chain(probes.iter())
                .find(|(n, _)| *n == name)
                .map_or(0.0, |p| p.1);
            Reported::single(name, value)
        })
        .collect()
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.0 == name)
        .map_or("", |d| d.1)
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics` (name → value + unit).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Reported]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name,
                obj(vec![
                    ("value", Value::F64(m.value)),
                    ("unit", Value::Str(unit_of(m.name).into())),
                ]),
            )
        })
        .collect();
    serde_json::to_string(&obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(attempted)),
        ("failed", Value::U64(failed)),
        ("metrics", obj(metrics)),
    ]))
    .expect("measured values are finite")
}

/// The richer record the suite collects per run: every metric with its
/// samples, their min/max/MAD and the count behind it.
pub fn detail(attempted: u64, failed: u64, metrics: &[Reported]) -> Value {
    let metrics = metrics
        .iter()
        .map(|m| {
            let mut fields = vec![
                ("value", Value::F64(m.value)),
                ("unit", Value::Str(unit_of(m.name).into())),
            ];
            if !m.samples.is_empty() {
                let lo = m.samples.iter().copied().fold(f64::MAX, f64::min);
                let hi = m.samples.iter().copied().fold(f64::MIN, f64::max);
                fields.extend([
                    ("min", Value::F64(lo)),
                    ("max", Value::F64(hi)),
                    ("mad", Value::F64(mad(&m.samples))),
                    (
                        "samples",
                        Value::Arr(m.samples.iter().map(|&s| Value::F64(s)).collect()),
                    ),
                ]);
            }
            if m.count > 0 {
                fields.push(("count", Value::U64(m.count)));
            }
            (m.name, obj(fields))
        })
        .collect();
    obj(vec![
        ("attempted", Value::U64(attempted)),
        ("failed", Value::U64(failed)),
        ("metrics", obj(metrics)),
    ])
}

/// `name value unit`, one metric per line.
pub fn print_lines(prefix: &str, metrics: &[Reported]) {
    for m in metrics {
        println!("{prefix}{} {} {}", m.name, m.value, unit_of(m.name));
    }
}
