//! `fig_scaling` — multi-core delivery scaling: consumer pools vs. the
//! one-consumer-per-queue baseline (DESIGN.md §4.11, EXPERIMENTS.md).
//!
//! Sweeps worker counts × queue counts over the skewed single-flow
//! workload of [`bench::scaling`] and reports aggregate delivered pps.
//! The per-queue baseline pins delivery to exactly one thread per
//! queue (idle ones busy-yield); the pooled rows run a
//! [`wirecap::ConsumerPool`] with chunk stealing and adaptive parking
//! over the same queues. Conservation is asserted inside every data
//! point before its rate is reported.
//!
//! A second sweep targets the pool's residual weak spot: *all* load on
//! one queue. Work stealing still funnels every sealed chunk through
//! the hot queue's owning worker before a thief can take it; the
//! COREC-style concurrent claim mode (DESIGN.md §4.12) lets every
//! worker claim chunks straight off the same queue. That sweep (1
//! queue, workers ∈ {1, 2, 4}) is written separately as
//! `fig_scaling_hotq.{json,txt}`.
//!
//! `--small` runs the single 2-queue/2-worker point plus its baseline
//! and a reduced hot-queue sweep (the CI smoke configuration
//! `scripts/check.sh` uses).
//!
//! Both headline ratios are gated here, at either scale: after every
//! output is written the binary exits non-zero unless `pool_speedup`
//! and `hotq_speedup` are each ≥ [`MIN_SPEEDUP`].

use bench::scaling::{
    baseline_point, concurrent_point, pooled_point, ScalingPoint, FRAME, WORK_PASSES,
};
use bench::{gate, write_json, write_table, Opts};
use serde::Serialize;

/// What pooling (over per-queue consumers) and claim-mode workers (over
/// one) must each buy on this workload's blocking per-chunk stage.
const MIN_SPEEDUP: f64 = 1.5;

#[derive(Serialize)]
struct HotqDoc {
    benchmark: String,
    frame_bytes: usize,
    work_passes: usize,
    packets_per_point: u64,
    points: Vec<ScalingPoint>,
    /// Concurrent 1q/maxw pps over concurrent 1q/1w pps — whether N
    /// claim-mode workers actually multiply a single hot queue's
    /// delivery rate (gated at ≥ [`MIN_SPEEDUP`] before `main` returns).
    hotq_speedup: f64,
    speedup_workers: usize,
}

#[derive(Serialize)]
struct Doc {
    benchmark: String,
    frame_bytes: usize,
    work_passes: usize,
    packets_per_point: u64,
    points: Vec<ScalingPoint>,
    /// Pooled pps at the largest queues/workers point divided by the
    /// same-queue-count per-queue baseline — the headline number
    /// (gated at ≥ [`MIN_SPEEDUP`] before `main` returns).
    pool_speedup: f64,
    speedup_queues: usize,
    speedup_workers: usize,
}

fn main() -> Result<(), String> {
    let opts = Opts::parse();
    let packets: u64 = if opts.small { 60_000 } else { 400_000 };
    let (queue_counts, worker_counts): (Vec<usize>, Vec<usize>) = if opts.small {
        (vec![2], vec![2])
    } else {
        (vec![1, 2, 4], vec![1, 2, 4])
    };

    let mut points: Vec<ScalingPoint> = Vec::new();
    for &q in &queue_counts {
        eprintln!("fig_scaling: per-queue baseline, {q} queue(s), {packets} packets");
        points.push(baseline_point(q, packets));
        for &w in &worker_counts {
            eprintln!("fig_scaling: pooled, {q} queue(s) x {w} worker(s), {packets} packets");
            points.push(pooled_point(q, w, packets));
        }
    }

    let gate_q = *queue_counts.last().expect("non-empty sweep");
    let gate_w = *worker_counts.last().expect("non-empty sweep");
    let baseline_pps = points
        .iter()
        .find(|p| p.mode == "per_queue" && p.queues == gate_q)
        .expect("baseline point present")
        .pps;
    let pooled_pps = points
        .iter()
        .find(|p| p.mode == "pooled" && p.queues == gate_q && p.workers == gate_w)
        .expect("pooled point present")
        .pps;
    let pool_speedup = pooled_pps / baseline_pps;

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.mode.to_string(),
                p.queues.to_string(),
                p.workers.to_string(),
                format!("{:.0}", p.pps),
                format!("{:.3}", p.elapsed_s),
                p.stolen_chunks.to_string(),
                p.worker_parks.to_string(),
            ]
        })
        .collect();
    write_table(
        &opts.out,
        "fig_scaling",
        &format!(
            "Aggregate delivered pps, skewed single-flow traffic \
             ({packets} packets, {FRAME}B frames, work x{WORK_PASSES}); \
             pooled {gate_q}q/{gate_w}w vs per-queue baseline: {pool_speedup:.2}x"
        ),
        &[
            "mode", "queues", "workers", "pps", "seconds", "stolen", "parks",
        ],
        &rows,
    );
    write_json(
        &opts.out,
        "fig_scaling",
        &Doc {
            benchmark: "multi-core delivery scaling: consumer pool vs per-queue consumers".into(),
            frame_bytes: FRAME,
            work_passes: WORK_PASSES,
            packets_per_point: packets,
            points,
            pool_speedup,
            speedup_queues: gate_q,
            speedup_workers: gate_w,
        },
    );

    // Single-hot-queue sweep: 1 queue, claim-mode workers overlapping
    // the blocking per-chunk stage.
    let hotq_packets: u64 = if opts.small { 40_000 } else { 200_000 };
    let hotq_workers: Vec<usize> = vec![1, 2, 4];
    let mut hotq: Vec<ScalingPoint> = Vec::new();
    for &w in &hotq_workers {
        eprintln!(
            "fig_scaling: concurrent hot queue, 1 queue x {w} worker(s), {hotq_packets} packets"
        );
        hotq.push(concurrent_point(1, w, hotq_packets));
    }
    let max_w = *hotq_workers.last().expect("non-empty hotq sweep");
    let one_w_pps = hotq[0].pps;
    let max_w_pps = hotq[hotq_workers.len() - 1].pps;
    let hotq_speedup = max_w_pps / one_w_pps;

    let hotq_rows: Vec<Vec<String>> = hotq
        .iter()
        .map(|p| {
            vec![
                p.mode.to_string(),
                p.workers.to_string(),
                format!("{:.0}", p.pps),
                format!("{:.3}", p.elapsed_s),
                p.claim_contention.to_string(),
                p.worker_parks.to_string(),
            ]
        })
        .collect();
    write_table(
        &opts.out,
        "fig_scaling_hotq",
        &format!(
            "Single hot queue, concurrent claim mode \
             ({hotq_packets} packets, {FRAME}B frames, work x{WORK_PASSES}); \
             1q/{max_w}w vs 1q/1w: {hotq_speedup:.2}x"
        ),
        &["mode", "workers", "pps", "seconds", "contention", "parks"],
        &hotq_rows,
    );
    write_json(
        &opts.out,
        "fig_scaling_hotq",
        &HotqDoc {
            benchmark: "single-hot-queue scaling: concurrent claim-mode workers".into(),
            frame_bytes: FRAME,
            work_passes: WORK_PASSES,
            packets_per_point: hotq_packets,
            points: hotq,
            hotq_speedup,
            speedup_workers: max_w,
        },
    );

    gate("pool_speedup", pool_speedup, MIN_SPEEDUP)?;
    gate("hotq_speedup", hotq_speedup, MIN_SPEEDUP)
}
