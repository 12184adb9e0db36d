//! # bench — figure and table regeneration harness
//!
//! One binary per table/figure of the paper's evaluation (§2.2 and §4):
//!
//! | binary  | reproduces |
//! |---------|------------|
//! | `fig3`  | Fig. 3 — per-queue 10 ms load time series (load imbalance) |
//! | `tab1`  | Table 1 — capture/delivery drop rates at the hot and cold queues |
//! | `fig8`  | Fig. 8 — basic-mode capture at wire rate, x = 0 |
//! | `fig9`  | Fig. 9 — basic-mode capture under heavy load, x = 300 |
//! | `fig10` | Fig. 10 — R·M invariance |
//! | `fig11` | Fig. 11 — advanced mode vs. every baseline |
//! | `fig12` | Fig. 12 — offloading threshold sweep |
//! | `fig13` | Fig. 13 — packet forwarding |
//! | `fig14` | Fig. 14 — two-NIC scalability under bus saturation |
//! | `tab2`  | Table 2 — qualitative engine comparison |
//! | `fig_all` | everything above, writing `results/` |
//!
//! Beyond the paper (live engine on real threads unless noted):
//!
//! | binary  | measures |
//! |---------|----------|
//! | `fig_scaling` | pooled vs. per-queue delivery scaling, single-hot-queue claim mode (DESIGN.md §4.11–4.12); gates `pool_speedup` and `hotq_speedup` ≥ 1.5 |
//! | `fig_latency` | capture-to-delivery tail latency, pool size × load (DESIGN.md §4.16); gates saturated p99.9 at the largest pool ≥ at the smallest |
//! | `fig_flows` | online flow analytics: throughput and top-K accuracy vs. flow count (DESIGN.md §4.15) |
//! | `fig_capture_save` | capture-and-save to rotated pcapng under a throttled disk (DESIGN.md §4.10) |
//! | `ablations` | simulator: one WireCAP mechanism switched off at a time |
//! | `study_40gbe` | simulator: the 40/100 GbE projection of the paper's §7 |
//! | `study_dpdk` | simulator: WireCAP vs. DPDK with and without application-layer offload (§6, §7) |
//! | `study_latency` | simulator: delivery latency vs. chunk size M and timeout (§5c) |
//! | `study_timestamps` | simulator: timestamp accuracy vs. overhead (§5c) |
//! | `replay_pcap` | replays a pcap savefile through every engine |
//!
//! The two gating binaries exit non-zero through [`gate`] after writing
//! their outputs. The engine's own end-to-end and per-layer numbers are
//! `wcbench`'s (`benchmark/`, `BENCHMARK.json`), not this crate's.
//!
//! Every binary prints the same rows/series the paper reports and writes
//! machine-readable JSON plus a plain-text table under `results/`. Runs
//! are deterministic: fixed seeds, virtual time.
//!
//! Scale: by default the trace-driven experiments use the full 5-million
//! packet synthetic border trace (as in the paper) and the sweeps go to
//! P = 10⁷. Pass `--small` to any binary for a ~100× faster smoke run
//! with the same qualitative shapes (used by CI and the integration
//! tests).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use serde::Serialize;
use std::io::Write;
use std::path::{Path, PathBuf};

pub mod experiments;
pub mod fig14_model;
pub mod latency;
pub mod scaling;

/// Command-line options shared by all figure binaries.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Run the reduced-scale variant.
    pub small: bool,
    /// Output directory (default `results/`).
    pub out: PathBuf,
}

impl Opts {
    /// Parses `--small` and `--out DIR` from `std::env::args`.
    pub fn parse() -> Self {
        let mut opts = Opts {
            small: false,
            out: PathBuf::from("results"),
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--small" => opts.small = true,
                "--out" => opts.out = PathBuf::from(args.next().expect("--out needs a directory")),
                "--help" | "-h" => {
                    eprintln!("usage: [--small] [--out DIR]");
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown argument {other:?} (try --help)");
                    std::process::exit(2);
                }
            }
        }
        opts
    }

    /// The border-trace configuration at the selected scale.
    pub fn trace_config(&self) -> traffic::BorderTraceConfig {
        if self.small {
            traffic::BorderTraceConfig::small()
        } else {
            traffic::BorderTraceConfig::default()
        }
    }

    /// Scales a full-size packet count down in small mode.
    pub fn scale(&self, n: u64) -> u64 {
        if self.small {
            (n / 100).max(1_000)
        } else {
            n
        }
    }
}

/// Writes `value` as pretty JSON to `<out>/<name>.json`.
pub fn write_json<T: Serialize>(out: &Path, name: &str, value: &T) {
    std::fs::create_dir_all(out).expect("creating results directory");
    let path = out.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serializing results");
    std::fs::write(&path, json).expect("writing results JSON");
    eprintln!("wrote {}", path.display());
}

/// Renders an aligned text table, echoes it to stdout, and writes it to
/// `<out>/<name>.txt`.
pub fn write_table(out: &Path, name: &str, title: &str, header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut text = String::new();
    text.push_str(title);
    text.push('\n');
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    text.push_str(&fmt_row(&header_cells));
    text.push('\n');
    text.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    text.push('\n');
    for row in rows {
        text.push_str(&fmt_row(row));
        text.push('\n');
    }
    print!("{text}");
    std::io::stdout().flush().ok();

    std::fs::create_dir_all(out).expect("creating results directory");
    let path = out.join(format!("{name}.txt"));
    std::fs::write(&path, &text).expect("writing results table");
    eprintln!("wrote {}", path.display());
}

/// A gate on a number a figure binary has just measured: `Ok` when
/// `value` is at least `min`, otherwise (including `NaN`) an `Err`
/// naming the quantity and both numbers, which the binary returns from
/// `main` after writing its outputs — a non-zero exit.
pub fn gate(name: &str, value: f64, min: f64) -> Result<(), String> {
    if value >= min {
        Ok(())
    } else {
        Err(format!(
            "gate failed: {name} = {value:.3}, required >= {min:.3}"
        ))
    }
}

/// Formats a fraction as the paper prints drop rates (`46.5%`).
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// An ASCII sparkline for quick visual inspection of a time series.
pub fn sparkline(counts: &[u64], buckets: usize) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if counts.is_empty() {
        return String::new();
    }
    let chunk = counts.len().div_ceil(buckets);
    let sums: Vec<u64> = counts
        .chunks(chunk)
        .map(|c| c.iter().sum::<u64>())
        .collect();
    let max = sums.iter().copied().max().unwrap_or(1).max(1);
    sums.iter()
        .map(|&s| GLYPHS[((s * 7) / max) as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_like_the_paper() {
        assert_eq!(pct(0.465), "46.5%");
        assert_eq!(pct(0.0), "0.0%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn gate_passes_at_or_above_the_bound_and_fails_below_it() {
        assert_eq!(gate("pool_speedup", 1.91, 1.5), Ok(()));
        assert_eq!(gate("pool_speedup", 1.5, 1.5), Ok(()));
        assert!(gate("pool_speedup", 1.49, 1.5).is_err());
        assert!(gate("pool_speedup", f64::NAN, 1.5).is_err());
    }

    #[test]
    fn gate_failure_names_the_quantity_and_both_numbers() {
        let msg = gate("hotq_speedup", 1.234, 1.5).unwrap_err();
        assert!(msg.contains("hotq_speedup"), "{msg}");
        assert!(msg.contains("1.234"), "{msg}");
        assert!(msg.contains("1.500"), "{msg}");
    }

    #[test]
    fn sparkline_scales_to_buckets() {
        let s = sparkline(&[0, 0, 0, 0, 10, 10, 10, 10], 4);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
    }

    #[test]
    fn tables_render_aligned() {
        let dir = std::env::temp_dir().join("wirecap-bench-test");
        write_table(
            &dir,
            "t",
            "Test",
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()]],
        );
        let text = std::fs::read_to_string(dir.join("t.txt")).unwrap();
        assert!(text.contains("a  bbbb"));
        assert!(text.contains("1     2"));
    }
}
