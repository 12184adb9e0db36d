//! Process-wide monotonic nanosecond clock.
//!
//! Latency stamping needs a monotonic timestamp that fits in a `u64`
//! and can be compared across threads. [`mono_ns`] measures nanoseconds
//! since a process-wide epoch (the first call), so stamps taken on the
//! capture thread and read on the consumer thread subtract directly.
//!
//! Cost model: one `Instant::now()` (a `clock_gettime(CLOCK_MONOTONIC)`
//! vDSO call on Linux, ~20 ns) per invocation. The live engine pays it
//! once per *chunk* seal — amortized over M packets — never per packet.
//! Every packet of the benchmark's `wire64` workload (`BENCHMARK.json`)
//! is delivered with these stamps taken.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide epoch (the first call from any
/// thread). Monotonic and thread-consistent; starts near zero so the
/// values stay far from `u64` overflow.
#[inline]
pub fn mono_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

/// Pre-touches the epoch so the first hot-path caller does not pay the
/// one-time initialization. Engines call this at start.
pub fn init() {
    let _ = mono_ns();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mono_ns_is_monotonic() {
        init();
        let a = mono_ns();
        let b = mono_ns();
        assert!(b >= a);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let c = mono_ns();
        assert!(c > b + 1_000_000, "sleep(2ms) must advance the clock");
    }
}
