//! `fig_latency` — capture-to-delivery tail latency: pool size ×
//! offered load (DESIGN.md §4.16, EXPERIMENTS.md).
//!
//! Each point runs the live engine over nicsim with a one-worker
//! consumer pool and a deterministic blocking per-chunk stage, then
//! reports the p50/p99/p99.9 of the engine's own `latency_ns`
//! histogram (sub-bucket interpolated) beside the point's capture and
//! delivery drops and the injections the NIC refused (backpressure the
//! injector retries). The sweep shows bufferbloat in chunk units: whenever
//! offered load presses the delivery rate, the pool queues up to R
//! chunks behind the consumer, and p99.9 grows with the backlog the
//! pool permits. R is the only lever on that tail.
//!
//! Conservation is asserted inside every data point before its
//! quantiles are reported. `--small` runs the reduced sweep
//! `scripts/check.sh` uses.
//!
//! The bufferbloat statement is gated here, at either scale: after the
//! outputs are written the binary exits non-zero unless saturating
//! p99.9 at the largest pool is at least p99.9 at the smallest.

use bench::latency::{latency_point, LatencyPoint, CHUNK_IO_US, M};
use bench::scaling::FRAME;
use bench::{gate, write_json, write_table, Opts};
use serde::Serialize;

#[derive(Serialize)]
struct Doc {
    benchmark: String,
    frame_bytes: usize,
    cells_per_chunk: usize,
    chunk_io_us: u64,
    packets_per_point: u64,
    points: Vec<LatencyPoint>,
    /// Saturating p99.9 at the smallest and the largest pool — the
    /// pair the gate at the end of `main` checks (`tail_reduction` =
    /// largest / smallest ≥ 1); the points are the sweep behind it.
    small_pool_p999_ns: u64,
    large_pool_p999_ns: u64,
    tail_reduction: f64,
}

fn main() -> Result<(), String> {
    let opts = Opts::parse();
    let packets: u64 = if opts.small { 120_000 } else { 600_000 };
    // Nominal delivery capacity of the one-worker consumer: one chunk
    // (M packets) per blocking stage.
    let capacity_pps = M as u64 * 1_000_000 / CHUNK_IO_US;
    let pool_sizes: Vec<usize> = if opts.small {
        vec![32, 256]
    } else {
        vec![32, 64, 256, 512]
    };
    // Offered loads: comfortably below delivered capacity (the
    // nominal M/io rate is optimistic — sleep granularity and the
    // payload fold push the real rate well under it, so /8 is the
    // safely-subcritical point), then saturating (0 = inject as fast
    // as the ring accepts).
    let loads: Vec<u64> = vec![capacity_pps / 8, 0];

    let mut points: Vec<LatencyPoint> = Vec::new();
    for &r in &pool_sizes {
        for &load in &loads {
            let load_desc = if load == 0 {
                "saturating".to_string()
            } else {
                format!("{load} pps")
            };
            eprintln!("fig_latency: R={r}, load {load_desc}, {packets} packets");
            let p = latency_point(r, load, packets);
            eprintln!(
                "fig_latency:   p50={}us p99={}us p99.9={}us",
                p.p50_ns / 1_000,
                p.p99_ns / 1_000,
                p.p999_ns / 1_000
            );
            points.push(p);
        }
    }

    // The headline pair: smallest vs largest pool, saturating load.
    let saturating = |r: usize| {
        points
            .iter()
            .find(|p| p.pool_chunks == r && p.offered_pps == 0)
            .expect("headline point present")
    };
    let min_r = pool_sizes[0];
    let max_r = *pool_sizes.last().expect("non-empty sweep");
    let small = saturating(min_r);
    let large = saturating(max_r);
    let tail_reduction = large.p999_ns as f64 / small.p999_ns.max(1) as f64;

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.pool_chunks.to_string(),
                if p.offered_pps == 0 {
                    "saturating".into()
                } else {
                    p.offered_pps.to_string()
                },
                format!("{:.0}", p.pps),
                (p.p50_ns / 1_000).to_string(),
                (p.p99_ns / 1_000).to_string(),
                (p.p999_ns / 1_000).to_string(),
                p.capture_drops.to_string(),
                p.delivery_drops.to_string(),
                p.nic_refusals.to_string(),
            ]
        })
        .collect();
    write_table(
        &opts.out,
        "fig_latency",
        &format!(
            "Capture-to-delivery latency quantiles (us), pool size x load \
             ({packets} packets/point, {FRAME}B frames, M={M}, {CHUNK_IO_US}us/chunk I/O); \
             saturating p99.9: R={max_r} {}us vs R={min_r} {}us ({tail_reduction:.1}x)",
            large.p999_ns / 1_000,
            small.p999_ns / 1_000
        ),
        &[
            "R",
            "offered_pps",
            "pps",
            "p50_us",
            "p99_us",
            "p999_us",
            "cap_drops",
            "dlv_drops",
            "nic_refusals",
        ],
        &rows,
    );
    write_json(
        &opts.out,
        "fig_latency",
        &Doc {
            benchmark: "tail latency: pool size x offered load".into(),
            frame_bytes: FRAME,
            cells_per_chunk: M,
            chunk_io_us: CHUNK_IO_US,
            packets_per_point: packets,
            small_pool_p999_ns: small.p999_ns,
            large_pool_p999_ns: large.p999_ns,
            tail_reduction,
            points,
        },
    );

    // Largest-pool p99.9 over smallest-pool p99.9, computed above.
    gate("tail_reduction", tail_reduction, 1.0)
}
