//! `wcbench compare A.json B.json`: is result set B worse than A by more
//! than the bounds `BENCHMARK.json` fixes?
//!
//! One row per (end-to-end metric, workload):
//!
//! * `within` — B's value is no worse than A's by more than the bound;
//! * `regressed` — it is worse by more than the bound, and every sample
//!   of B (round, set-up) is worse than every sample of A;
//! * `unresolved` — worse by more than the bound, but the two sets' own
//!   spreads overlap, so these runs cannot tell.

use crate::json::num;
use serde::Value;

/// `setup_s` may always move by this much: a fifth of a few milliseconds
/// is below what a process start repeats to.
const SETUP_FLOOR_S: f64 = 0.02;

/// Verdict of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse by more than the bound.
    Within,
    /// Worse by more than the bound; spreads do not overlap.
    Regressed,
    /// Worse by more than the bound; spreads overlap.
    Unresolved,
}

/// One side's reading of a metric: its value and the range of the
/// samples behind it (degenerate when there is only the value).
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// Reported value.
    pub value: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

/// Decides one row. `higher_is_better` and `bound` come from
/// `BENCHMARK.json`; `floor` is an absolute change always tolerated.
pub fn verdict(a: Reading, b: Reading, higher_is_better: bool, bound: f64, floor: f64) -> Verdict {
    let worse_by = if higher_is_better {
        a.value - b.value
    } else {
        b.value - a.value
    };
    if worse_by <= bound * a.value.abs() || worse_by <= floor {
        return Verdict::Within;
    }
    let disjoint = if higher_is_better {
        b.max < a.min
    } else {
        b.min > a.max
    };
    if disjoint {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    }
}

fn reading(set: &Value, workload: &str, metric: &str) -> Option<Reading> {
    let m = set
        .field("workloads")?
        .field(workload)?
        .field("end_to_end")?
        .field("metrics")?
        .field(metric)?;
    let value = num(m.field("value")?)?;
    Some(Reading {
        value,
        min: m.field("min").and_then(num).unwrap_or(value),
        max: m.field("max").and_then(num).unwrap_or(value),
    })
}

fn text<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    match v.field(key) {
        Some(Value::Str(s)) => Ok(s),
        _ => Err(format!("BENCHMARK.json: missing string `{key}`")),
    }
}

/// Compares two result sets; returns the table and whether any row
/// regressed.
pub fn compare(benchmark: &Value, a: &Value, b: &Value) -> Result<(String, bool), String> {
    let list = |key: &str| match benchmark.field(key) {
        Some(Value::Arr(items)) => Ok(items),
        _ => Err(format!("BENCHMARK.json: missing list `{key}`")),
    };
    let mut table = format!(
        "{:<16} {:<12} {:>12} {:>12} {:>8} {:>6}  verdict\n",
        "metric", "workload", "A", "B", "change", "bound"
    );
    let mut regressed = false;
    for metric in list("end_to_end")? {
        let name = text(metric, "name")?;
        let higher = text(metric, "better")? == "higher";
        let bound = metric
            .field("bound")
            .and_then(num)
            .ok_or("BENCHMARK.json: metric without a bound")?;
        let floor = if name == "setup_s" {
            SETUP_FLOOR_S
        } else {
            0.0
        };
        for workload in list("workloads")? {
            let w = text(workload, "name")?;
            let (ra, rb) = match (reading(a, w, name), reading(b, w, name)) {
                (Some(ra), Some(rb)) => (ra, rb),
                _ => return Err(format!("{name} on {w} is missing from a result set")),
            };
            let v = verdict(ra, rb, higher, bound, floor);
            regressed |= v == Verdict::Regressed;
            table.push_str(&format!(
                "{:<16} {:<12} {:>12.4} {:>12.4} {:>+7.1}% {:>5.0}%  {}\n",
                name,
                w,
                ra.value,
                rb.value,
                100.0 * (rb.value - ra.value) / ra.value,
                100.0 * bound,
                match v {
                    Verdict::Within => "within",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            ));
        }
    }
    Ok((table, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(value: f64, min: f64, max: f64) -> Reading {
        Reading { value, min, max }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        // Higher is better, 10 % bound.
        assert_eq!(
            verdict(r(10.0, 9.5, 10.5), r(9.2, 9.0, 9.4), true, 0.1, 0.0),
            Verdict::Within
        );
        assert_eq!(
            verdict(r(10.0, 9.5, 10.5), r(8.0, 7.8, 8.2), true, 0.1, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(r(10.0, 7.9, 10.5), r(8.0, 7.8, 8.2), true, 0.1, 0.0),
            Verdict::Unresolved
        );
        // An improvement is never a regression.
        assert_eq!(
            verdict(r(10.0, 10.0, 10.0), r(20.0, 20.0, 20.0), true, 0.1, 0.0),
            Verdict::Within
        );
        // Lower is better; the absolute floor absorbs a tiny set-up change.
        assert_eq!(
            verdict(
                r(0.010, 0.010, 0.010),
                r(0.020, 0.020, 0.020),
                false,
                0.2,
                0.02
            ),
            Verdict::Within
        );
        assert_eq!(
            verdict(
                r(100.0, 99.0, 101.0),
                r(130.0, 125.0, 131.0),
                false,
                0.2,
                0.0
            ),
            Verdict::Regressed
        );
    }
}
