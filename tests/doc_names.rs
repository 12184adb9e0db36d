//! Docs that point at benchmark rows or knobs must not rot silently.
//!
//! The retired mirror bench's numbers now live in `BENCHMARK.json` rows
//! and figure binaries, and the documentation cites those by name. Two
//! checks keep that vocabulary honest: no current source or document
//! still mentions a retired name (the bench, its artifact, the poller's
//! deleted spin stage and its knob, the deleted pool-tuning layer, the
//! merged pool loop, the deleted snapshot dump and its variables, the
//! deleted in-order delivery mode, the deleted sampler and everything
//! it fed), and
//! every name the EXPERIMENTS.md disposition table sends a reader to
//! exists.

use serde::Value;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The ten entries of the retired artifact; the table must place each.
const RETIRED_ENTRIES: [&str; 10] = [
    "seed_pps",
    "telemetry_overhead",
    "latency_overhead",
    "span_tracing_overhead",
    "disk_writer_overhead",
    "backend_dispatch_overhead",
    "flow_tracking_overhead",
    "pool_speedup",
    "hotq_speedup",
    "latency_slo",
];

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `*.md`, `*.rs`, `*.sh` and `*.toml` in the checkout, build
/// outputs aside.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !matches!(name, ".git" | "target" | ".bench_build") {
                sources(&path, out);
            }
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("md" | "rs" | "sh" | "toml")
        ) {
            out.push(path);
        }
    }
}

#[test]
fn nothing_current_cites_a_retired_name() {
    // Assembled so this file does not cite them either. CHANGES.md and
    // ROADMAP.md are history; ISSUE.md is the task in flight.
    let needles = [
        // The mirror bench and its artifact.
        concat!("BENCH_", "hotpath"),
        concat!("--bench ", "hotpath"),
        // The adaptive poller's deleted busy-spin stage and its knob.
        concat!("spin_", "iters"),
        concat!("IdleStep::", "Spun"),
        // The deleted LLC-budget tuning layer.
        concat!("Tuning", "Mode"),
        concat!("Tuning", "Plan"),
        concat!("tuning_", "plan"),
        // The pool's second worker loop, merged into the one loop.
        concat!("concurrent_", "worker_loop"),
        // The deleted SIGUSR1 / shutdown snapshot dump and its variables.
        concat!("WIRECAP_TELEMETRY_", "DUMP"),
        concat!("WIRECAP_TELEMETRY_", "FORMAT"),
        concat!("take_", "dump_request"),
        concat!("install_", "sigusr1"),
        // The deleted in-order delivery mode, its test file and wrappers.
        concat!("Reorder", "Buffer"),
        concat!("InOrder", "RequiresConcurrent"),
        concat!("take_", "stranded"),
        concat!("concurrent_", "ordered"),
        concat!("inorder_", "conservation"),
        concat!("run_", "concurrent_flows"),
        // The deleted push-model telemetry: sampler thread, time series,
        // anomaly detector, flight recorder, their variables and knob.
        concat!("WIRECAP_TELEMETRY_SAMPLE", "_MS"),
        concat!("WIRECAP_TELEMETRY_FLIGHT", "_DIR"),
        concat!("Telemetry", "Pipeline"),
        concat!("Pipeline", "Config"),
        concat!("Sampler", "Core"),
        concat!("TimeSeries", "Ring"),
        concat!("Anomaly", "Detector"),
        concat!("Flight", "Record"),
        concat!("series", ".json"),
        concat!("latency_slo", "_ns"),
        concat!("timeseries", "_props"),
    ];
    let history = ["CHANGES.md", "ROADMAP.md", "ISSUE.md"].map(|f| repo().join(f));

    let mut files = Vec::new();
    sources(repo(), &mut files);

    let stale: Vec<String> = files
        .iter()
        .filter(|p| !history.contains(p))
        .filter(|p| {
            let text = fs::read_to_string(p).unwrap_or_default();
            needles.iter().any(|n| text.contains(n))
        })
        .map(|p| p.display().to_string())
        .collect();
    assert!(stale.is_empty(), "still citing a retired name: {stale:?}");
}

/// The `name` of every object in `doc[section]`.
fn names(doc: &Value, section: &str, into: &mut BTreeSet<String>) {
    let Some(Value::Arr(items)) = doc.field(section) else {
        panic!("BENCHMARK.json has no {section} array");
    };
    for item in items {
        match item.field("name") {
            Some(Value::Str(name)) => into.insert(name.clone()),
            other => panic!("{section} entry without a name: {other:?}"),
        };
    }
}

/// The backticked spans of one markdown table cell.
fn backticked(cell: &str) -> Vec<&str> {
    cell.split('`').skip(1).step_by(2).collect()
}

#[test]
fn disposition_table_names_exist() {
    let json = fs::read_to_string(repo().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc: Value = serde_json::from_str(&json).expect("BENCHMARK.json parses");
    let mut known = BTreeSet::new();
    for section in ["workloads", "end_to_end", "per_layer"] {
        names(&doc, section, &mut known);
    }

    let experiments = fs::read_to_string(repo().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let rows: Vec<Vec<&str>> = experiments
        .lines()
        .skip_while(|l| !l.starts_with("<!-- disposition-table"))
        .skip(1)
        .take_while(|l| l.starts_with('|'))
        .skip(2) // header, separator
        .map(|l| l.trim_matches('|').split('|').collect())
        .collect();
    assert_eq!(rows.len(), RETIRED_ENTRIES.len(), "one row per entry");

    for (row, entry) in rows.iter().zip(RETIRED_ENTRIES) {
        assert_eq!(row.len(), 3, "three columns: {row:?}");
        assert_eq!(backticked(row[0]).first(), Some(&entry), "row order");
        let cited = backticked(row[2]);
        assert!(!cited.is_empty(), "{entry}: no destination named");
        for name in cited {
            let binary = repo().join(format!("crates/bench/src/bin/{name}.rs"));
            assert!(
                known.contains(name) || binary.is_file(),
                "{entry}: `{name}` is neither a BENCHMARK.json workload / metric \
                 nor a figure binary"
            );
        }
    }
}
