//! `wcbench suite`: the whole benchmark in one command. Every workload
//! runs in its own `wcbench run` process (so `peak_rss_mb` and `setup_s`
//! are per workload), once untraced and once traced; the isolated probes
//! run once and are handed to the traced runs.

use crate::json::{num, obj, read_json};
use crate::plan;
use crate::report::{self, Reported, END_TO_END};
use crate::sys;
use crate::workloads::Workload;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Runs one child `wcbench` to completion; its result goes to `detail`.
fn child(exe: &Path, args: &[&str], detail: &Path) -> Result<Value, String> {
    let status = Command::new(exe)
        .args(args)
        .arg("--detail")
        .arg(detail)
        // The child's own lines are for a human running it alone; the
        // suite prints everything once, at the end.
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("starting wcbench {}: {e}", args.join(" ")))?;
    if !status.success() {
        return Err(format!("wcbench {} failed ({status})", args.join(" ")));
    }
    read_json(detail)
}

fn print_metrics(prefix: &str, detail: &Value) {
    if let Some(Value::Obj(metrics)) = detail.field("metrics") {
        for (name, m) in metrics {
            if let (Some(value), Some(Value::Str(unit))) = (m.field("value"), m.field("unit")) {
                let value = serde_json::to_string(value).unwrap_or_default();
                println!("{prefix}{name} {value} {unit}");
            }
        }
    }
}

/// Several untraced runs of one workload as one record: per metric the
/// median over the runs, with the runs' values as its samples — what the
/// acceptance check compares between two sets.
fn median_of_runs(runs: &[Value]) -> Value {
    let total = |key: &str| {
        let sum: f64 = runs.iter().filter_map(|r| r.field(key).and_then(num)).sum();
        sum as u64
    };
    let metrics: Vec<Reported> = END_TO_END
        .iter()
        .map(|&(name, _, _)| {
            let values = runs
                .iter()
                .filter_map(|r| num(r.field("metrics")?.field(name)?.field("value")?))
                .collect();
            Reported::median_of(name, values, 0)
        })
        .collect();
    report::detail(total("attempted"), total("failed"), &metrics)
}

/// Runs everything and writes `<out>/results.json`. With `runs > 1` every
/// workload's untraced run is repeated with seeds `seed..seed + runs`.
pub fn suite(seed: u64, quick: bool, runs: u64, out: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating wcbench: {e}"))?;
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let seconds = if quick { 1 } else { 10 };
    let (seed_s, seconds_s) = (seed.to_string(), seconds.to_string());
    let out_s = out.to_string_lossy().into_owned();
    let common = ["--seed", &seed_s, "--seconds", &seconds_s, "--out", &out_s];
    let timing = ["--seconds", &seconds_s, "--out", &out_s];
    let file = |name: String| -> PathBuf { out.join(name) };

    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let mut details = Vec::new();
        for run in 0..runs.max(1) {
            eprintln!("wcbench: {} untraced, run {}", w.name(), run + 1);
            let run_seed = (seed + run).to_string();
            let mut args = vec!["run", "--workload", w.name(), "--trace", "0"];
            args.extend(timing);
            args.extend(["--seed", &run_seed]);
            let detail = file(format!("detail-{}-e2e-{run}.json", w.name()));
            details.push(child(&exe, &args, &detail)?);
        }
        let e2e = match details.len() {
            1 => details.remove(0),
            _ => median_of_runs(&details),
        };
        workloads.push((w, e2e));
    }
    eprintln!("wcbench: probes");
    let probes_file = file("probes.json".into());
    let mut args = vec!["probes"];
    args.extend(common);
    child(&exe, &args, &probes_file)?;
    let probes_s = probes_file.to_string_lossy().into_owned();
    let mut results = Vec::new();
    for (w, e2e) in workloads {
        eprintln!("wcbench: {} traced", w.name());
        let mut args = vec!["run", "--workload", w.name(), "--trace", "1"];
        args.extend(common);
        args.extend(["--probes", &probes_s]);
        let layers = child(
            &exe,
            &args,
            &file(format!("detail-{}-layers.json", w.name())),
        )?;
        print_metrics(&format!("{}/", w.name()), &e2e);
        print_metrics(&format!("{}/", w.name()), &layers);
        results.push((
            w.name(),
            obj(vec![("end_to_end", e2e), ("per_layer", layers)]),
        ));
    }

    let meta = obj(vec![
        (
            "commit",
            Value::Str(sys::command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("nproc", Value::U64(sys::nproc() as u64)),
        ("cpu_model", Value::Str(sys::cpu_model())),
        ("rustc", Value::Str(sys::command_line("rustc", &["-V"]))),
        ("seed", Value::U64(seed)),
        ("untraced_runs", Value::U64(runs.max(1))),
        ("run_seconds", Value::U64(seconds)),
        ("rounds", Value::U64(plan::ROUNDS as u64)),
        ("setup_reps", Value::U64(plan::SETUP_REPS as u64)),
        ("probe_reps", Value::U64(plan::PROBE_REPS as u64)),
        ("paced_pps", Value::U64(plan::PACED_PPS)),
        ("skew_cold_pps", Value::U64(plan::SKEW_COLD_PPS)),
    ]);
    let doc = obj(vec![("meta", meta), ("workloads", obj(results))]);
    let path = out.join("results.json");
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wcbench: wrote {}", path.display());
    Ok(())
}
