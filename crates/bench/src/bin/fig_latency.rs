//! `fig_latency` — capture-to-delivery tail latency: pool size ×
//! offered load × tuning mode (DESIGN.md §4.16, EXPERIMENTS.md).
//!
//! The cache-resident fast path's headline experiment. Each point runs
//! the live engine over nicsim with a one-worker consumer pool and a
//! deterministic blocking per-chunk stage, then reports the
//! p50/p99/p99.9 of the engine's own `latency_ns` histogram
//! (sub-bucket interpolated). The sweep shows the bufferbloat story in
//! chunk units: whenever offered load presses the delivery rate, a
//! `Throughput`-tuned pool queues R chunks deep and p99.9 grows with
//! the backlog the pool permits — while
//! `CacheResident` caps the pool (and the consumer's backlog, via the
//! fast-recycle depth bound) so the tail stays structural.
//!
//! Conservation is asserted inside every data point before its
//! quantiles are reported. `--small` runs the reduced sweep
//! `scripts/check.sh` uses.
//!
//! The tail-latency SLO is gated here, at either scale: after the
//! outputs are written the binary exits non-zero if the headline pair
//! reads `cache_resident_p999_ns > throughput_p999_ns`.

use bench::latency::{latency_point, LatencyPoint, CHUNK_IO_US, M};
use bench::scaling::FRAME;
use bench::{gate, write_json, write_table, Opts};
use serde::Serialize;
use wirecap::config::TuningMode;

#[derive(Serialize)]
struct Doc {
    benchmark: String,
    frame_bytes: usize,
    cells_per_chunk: usize,
    chunk_io_us: u64,
    packets_per_point: u64,
    points: Vec<LatencyPoint>,
    /// p99.9 at the largest pool, saturating load: `Throughput` vs
    /// `CacheResident` — the pair the SLO gate at the end of `main`
    /// checks (`tail_reduction` ≥ 1); the points are the sweep behind it.
    throughput_p999_ns: u64,
    cache_resident_p999_ns: u64,
    tail_reduction: f64,
}

fn main() -> Result<(), String> {
    let opts = Opts::parse();
    let packets: u64 = if opts.small { 120_000 } else { 600_000 };
    // Nominal delivery capacity of the one-worker consumer: one chunk
    // (M packets) per blocking stage.
    let capacity_pps = M as u64 * 1_000_000 / CHUNK_IO_US;
    let pool_sizes: Vec<usize> = if opts.small {
        vec![64, 256]
    } else {
        vec![64, 256, 512]
    };
    // Offered loads: comfortably below delivered capacity (the
    // nominal M/io rate is optimistic — sleep granularity and the
    // payload fold push the real rate well under it, so /8 is the
    // safely-subcritical point), then saturating (0 = inject as fast
    // as the ring accepts).
    let loads: Vec<u64> = vec![capacity_pps / 8, 0];
    let llc_bytes: u64 = 4 << 20;

    let mut points: Vec<LatencyPoint> = Vec::new();
    for &r in &pool_sizes {
        for &load in &loads {
            for tuning in [
                TuningMode::Throughput,
                TuningMode::CacheResident { llc_bytes },
            ] {
                let mode = match tuning {
                    TuningMode::Throughput => "throughput",
                    TuningMode::CacheResident { .. } => "cache_resident",
                };
                let load_desc = if load == 0 {
                    "saturating".to_string()
                } else {
                    format!("{load} pps")
                };
                eprintln!("fig_latency: R={r}, load {load_desc}, {mode}, {packets} packets");
                let p = latency_point(tuning, r, load, packets);
                eprintln!(
                    "fig_latency:   r_eff={} depth={} p50={}us p99={}us p99.9={}us",
                    p.r_effective,
                    p.recycle_depth,
                    p.p50_ns / 1_000,
                    p.p99_ns / 1_000,
                    p.p999_ns / 1_000
                );
                points.push(p);
            }
        }
    }

    // The headline pair: largest pool, saturating load.
    let max_r = *pool_sizes.last().expect("non-empty sweep");
    let find = |mode: &str| {
        points
            .iter()
            .find(|p| p.mode == mode && p.pool_chunks == max_r && p.offered_pps == 0)
            .expect("headline point present")
    };
    let thr = find("throughput");
    let cache = find("cache_resident");
    let tail_reduction = thr.p999_ns as f64 / cache.p999_ns.max(1) as f64;

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.mode.to_string(),
                p.pool_chunks.to_string(),
                p.r_effective.to_string(),
                p.recycle_depth.to_string(),
                if p.offered_pps == 0 {
                    "saturating".into()
                } else {
                    p.offered_pps.to_string()
                },
                format!("{:.0}", p.pps),
                (p.p50_ns / 1_000).to_string(),
                (p.p99_ns / 1_000).to_string(),
                (p.p999_ns / 1_000).to_string(),
            ]
        })
        .collect();
    write_table(
        &opts.out,
        "fig_latency",
        &format!(
            "Capture-to-delivery latency quantiles (us), pool size x load x tuning \
             ({packets} packets/point, {FRAME}B frames, M={M}, {CHUNK_IO_US}us/chunk I/O); \
             saturating R={max_r} p99.9: throughput {}us vs cache_resident {}us ({tail_reduction:.1}x)",
            thr.p999_ns / 1_000,
            cache.p999_ns / 1_000
        ),
        &[
            "mode",
            "R_cfg",
            "R_eff",
            "depth",
            "offered_pps",
            "pps",
            "p50_us",
            "p99_us",
            "p999_us",
        ],
        &rows,
    );
    write_json(
        &opts.out,
        "fig_latency",
        &Doc {
            benchmark: "tail latency: pool size x offered load x tuning mode".into(),
            frame_bytes: FRAME,
            cells_per_chunk: M,
            chunk_io_us: CHUNK_IO_US,
            packets_per_point: packets,
            throughput_p999_ns: thr.p999_ns,
            cache_resident_p999_ns: cache.p999_ns,
            tail_reduction,
            points,
        },
    );

    // throughput p99.9 over cache-resident p99.9, computed above.
    gate("tail_reduction", tail_reduction, 1.0)
}
