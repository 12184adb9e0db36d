//! `wcbench` command line.
//!
//! ```text
//! wcbench run --workload W --seed N --seconds S --trace 0|1
//!             [--out DIR] [--detail FILE] [--probes FILE] [--setup-only]
//! wcbench probes --seed N --seconds S [--out DIR] [--detail FILE]
//! wcbench suite [--seed N] [--quick] [--runs R] [--out DIR]
//! wcbench compare A.json B.json [--benchmark BENCHMARK.json]
//! ```
//!
//! `run` is what `BENCHMARK.json`'s command reaches: its last line of
//! standard output is the result object the driver reads.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use wcbench::frames::FrameTable;
use wcbench::json::{num, read_json};
use wcbench::plan::Plan;
use wcbench::probes::{self, Probed};
use wcbench::report::{self, Reported, PER_LAYER};
use wcbench::spans::process_name_event;
use wcbench::suite::suite;
use wcbench::workloads::{self, RunOutcome, Workload};

/// The options every subcommand draws from.
struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    detail: Option<PathBuf>,
    probes: Option<PathBuf>,
    benchmark: PathBuf,
    setup_only: bool,
    quick: bool,
    runs: u64,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        positional: Vec::new(),
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        detail: None,
        probes: None,
        benchmark: PathBuf::from("BENCHMARK.json"),
        setup_only: false,
        quick: false,
        runs: 1,
    };
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{arg} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{arg}: not a number: {v}"))
        };
        match arg.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = number(value()?)?,
            "--seconds" => a.seconds = number(value()?)?.clamp(1, 60),
            "--trace" => a.trace = number(value()?)? != 0,
            "--out" => a.out = value()?.into(),
            "--detail" => a.detail = Some(value()?.into()),
            "--probes" => a.probes = Some(value()?.into()),
            "--benchmark" => a.benchmark = value()?.into(),
            "--setup-only" => a.setup_only = true,
            "--quick" => a.quick = true,
            "--runs" => a.runs = number(value()?)?,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => a.positional.push(arg),
        }
    }
    Ok(a)
}

fn write_detail(path: Option<&Path>, doc: &Value) -> Result<(), String> {
    let Some(path) = path else { return Ok(()) };
    let text = serde_json::to_string_pretty(doc).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Probe values from a `wcbench probes --detail` file.
fn load_probes(path: &Path) -> Result<Probed, String> {
    let doc = read_json(path)?;
    let metrics = doc.field("metrics").ok_or("probe file without metrics")?;
    Ok(PER_LAYER
        .iter()
        .filter_map(|&(name, _, _)| Some((name, num(metrics.field(name)?.field("value")?)?)))
        .collect())
}

/// Writes the traced run as Chrome trace events: the engine's own
/// sampled spans (what `/trace.json` serves) plus the harness spans, on
/// one clock.
fn write_trace(path: &Path, run: &RunOutcome) -> Result<(), String> {
    let engine = telemetry::chrome_trace_json(&run.engine_spans, &run.snapshot.workers);
    let mut events = match serde_json::from_str::<Value>(&engine) {
        Ok(Value::Arr(events)) => events,
        _ => return Err("the engine's trace is not an event array".into()),
    };
    events.push(process_name_event());
    run.spans
        .iter()
        .for_each(|s| events.extend(s.trace_events()));
    let text = serde_json::to_string(&Value::Arr(events)).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_probes(a: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let table = Arc::new(FrameTable::new(a.seed, 64));
    let scratch = a.out.join(format!("capdisk-probe-{}", std::process::id()));
    let probed = probes::run_all(&table, a.seed, &Plan::traced(a.seconds), &scratch)?;
    let metrics: Vec<Reported> = probed
        .iter()
        .map(|&(name, value)| Reported::single(name, value))
        .collect();
    report::print_lines("", &metrics);
    write_detail(a.detail.as_deref(), &report::detail(0, 0, &metrics))
}

fn cmd_run(a: &Args) -> Result<(), String> {
    let name = a.workload.as_deref().ok_or("run needs --workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name}"))?;
    if a.setup_only {
        return workloads::setup_only(workload, a.seed);
    }
    let (outcome, metrics) = if a.trace {
        std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
        // Untraced reference, traced repeat, reference again: the machine's
        // rate drifts by 10–20 % over seconds, and a reference on both
        // sides keeps that out of `trace.overhead_frac`.
        let plan = Plan::traced(a.seconds);
        let before = workloads::run(workload, a.seed, &plan, false)?;
        let traced = workloads::run(workload, a.seed, &plan, true)?;
        let after = workloads::run(workload, a.seed, &plan, false)?;
        let reference = [before, after];
        write_trace(&a.out.join(format!("trace-{name}.json")), &traced)?;
        let probed = match &a.probes {
            Some(file) => load_probes(file)?,
            None => {
                let table = Arc::new(FrameTable::new(a.seed, workload.frame_len()));
                let scratch = a.out.join(format!("capdisk-probe-{}", std::process::id()));
                probes::run_all(&table, a.seed, &plan, &scratch)?
            }
        };
        let metrics = report::per_layer(&reference, &traced, &probed);
        (traced, metrics)
    } else {
        let outcome = workloads::run(workload, a.seed, &Plan::untraced(a.seconds), false)?;
        let metrics = report::end_to_end(&outcome);
        (outcome, metrics)
    };
    // A run that reaches this point passed every check: a failed one
    // returned an error above and prints no result.
    let failed = outcome.offered - outcome.delivered;
    report::print_lines("", &metrics);
    write_detail(
        a.detail.as_deref(),
        &report::detail(outcome.offered, failed, &metrics),
    )?;
    println!(
        "{}",
        report::result_line(true, outcome.offered, failed, &metrics)
    );
    Ok(())
}

fn cmd_compare(a: &Args) -> Result<bool, String> {
    let [_, set_a, set_b] = a.positional.as_slice() else {
        return Err("usage: wcbench compare A.json B.json [--benchmark BENCHMARK.json]".into());
    };
    let (table, regressed) = wcbench::compare::compare(
        &read_json(&a.benchmark)?,
        &read_json(Path::new(set_a))?,
        &read_json(Path::new(set_b))?,
    )?;
    print!("{table}");
    Ok(regressed)
}

fn main() -> ExitCode {
    let result = parse(std::env::args().skip(1)).and_then(|a| {
        match a.positional.first().map(String::as_str) {
            Some("run") => cmd_run(&a).map(|()| false),
            Some("probes") => cmd_probes(&a).map(|()| false),
            Some("suite") => suite(a.seed, a.quick, a.runs, &a.out).map(|()| false),
            Some("compare") => cmd_compare(&a),
            _ => {
                Err("usage: wcbench run|probes|suite|compare ... (see benchmark/README.md)".into())
            }
        }
    });
    match result {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(2),
        Err(e) => {
            eprintln!("wcbench: {e}");
            ExitCode::FAILURE
        }
    }
}
