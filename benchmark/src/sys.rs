//! What the benchmark reads from the operating system: memory high-water
//! mark, CPU time of the engine's capture threads, and the machine
//! description recorded with every result set.

use std::fs;

/// `USER_HZ`: the unit of the CPU times in `/proc/<pid>/stat`. It is 100
/// on every Linux ABI; reading it properly needs `sysconf`, i.e. libc.
const TICKS_PER_S: f64 = 100.0;

/// Peak resident set of this process in MiB (`VmHWM`); 0.0 where
/// `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) consumed so far by this process's threads
/// whose name starts with `prefix`, and how many such threads there are.
/// The engine names its capture threads `wirecap-capture-<q>`; `comm`
/// truncates that to 15 bytes, hence a prefix match.
pub fn thread_cpu_s(prefix: &str) -> (f64, usize) {
    let mut ticks = 0u64;
    let mut threads = 0;
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return (0.0, 0);
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let comm = fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if !comm.starts_with(prefix) {
            continue;
        }
        let stat = fs::read_to_string(dir.join("stat")).unwrap_or_default();
        // Fields after the parenthesised comm: state is the 1st, utime
        // and stime the 12th and 13th.
        let Some((_, rest)) = stat.rsplit_once(')') else {
            continue;
        };
        let mut fields = rest.split_whitespace().skip(11);
        let utime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
        let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
        ticks += utime + stime;
        threads += 1;
    }
    (ticks as f64 / TICKS_PER_S, threads)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU's model name, or "unknown".
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string())
}

/// First line of a command's standard output, or "unknown" if it cannot
/// be run (the driver's checkout is not a git repository, for one).
pub fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}
