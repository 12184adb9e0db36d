//! Every duration, rate and size the benchmark uses, in one place, so a
//! result file can record them and two runs can be known to be
//! comparable.

use std::time::Duration;

/// Frames in the pre-built table the traffic sources cycle through.
pub const TABLE_FRAMES: usize = 4096;
/// Distinct UDP flows the table's frames are drawn from.
pub const FLOWS: usize = 64;
/// Every packet whose sequence number is a multiple of this is
/// byte-compared against the table (a prime, so the checked packets
/// walk every cell position of a 64-cell chunk).
pub const PAYLOAD_CHECK_STRIDE: u64 = 61;
/// Measured rounds per closed-loop run; the reported rate is the median.
pub const ROUNDS: usize = 5;
/// Fresh-process set-ups per run; `setup_s` is the fastest.
pub const SETUP_REPS: usize = 25;
/// Fixed schedule of the open-loop workload.
pub const PACED_PPS: u64 = 300_000;
/// Rate of the cold queue in the two skew workloads.
pub const SKEW_COLD_PPS: u64 = 100_000;
/// A paced run whose generator was ever later than this is a hypervisor
/// stall, not a measurement: it is discarded and repeated.
pub const MAX_LATE_NS: u64 = 5_000_000;
/// Attempts before a paced run gives up with "machine too noisy".
pub const MAX_ATTEMPTS: u32 = 8;
/// Ring depth of the nicsim / shmring backends in the probes (the
/// examples' default).
pub const RING_DEPTH: usize = 4096;
/// Ring depth of `paced300k`'s nicsim: 109 ms of traffic, so that the
/// ~50 ms hypervisor stalls this kind of VM shows every half minute are
/// ridden out and a refused `inject` means the engine fell behind, not
/// that the machine stopped (at 4096, one run in ten lost packets to a
/// stall of the capture thread's core that no lateness check can see).
pub const PACED_RING_DEPTH: usize = 32_768;
/// In a measured run the consumers attach this long after the engine
/// starts, so the capture threads first fill — and touch — their whole
/// pools. `peak_rss_mb` then counts the pool every run, instead of only
/// on runs where a stall happened to back the queue up (paced300k read
/// 9 to 34 MiB without it).
pub const ATTACH_DELAY: Duration = Duration::from_millis(100);
/// Repetitions of every isolated probe; the reported value is the median.
pub const PROBE_REPS: usize = 5;
/// Harness spans kept per thread for the trace file (aggregates cover
/// every span; the file is an excerpt).
pub const TRACE_SPANS_PER_THREAD: usize = 8192;

/// The durations of one `wcbench run`, all derived from `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// `--seconds`: the measured window of an untraced run.
    pub seconds: u64,
    /// Unmeasured lead-in so caches fill and the pool reaches steady state.
    pub warmup: Duration,
    /// One measured round (`seconds / ROUNDS`).
    pub round: Duration,
    /// Measured rounds.
    pub rounds: usize,
    /// Fresh-process set-ups timed for `setup_s` before the engine that
    /// is measured starts.
    pub setup_reps: usize,
}

impl Plan {
    /// The untraced run: a warm-up of a fifth of the window, then
    /// [`ROUNDS`] rounds. The warm-up is that long because a freshly
    /// started engine was seen to spend up to its first second at a third
    /// of its capacity on the 2-core box (capture thread at 25 % CPU, as
    /// if it shared a core with the spinning consumer until the scheduler
    /// separated them).
    pub fn untraced(seconds: u64) -> Self {
        let window = Duration::from_secs(seconds);
        Plan {
            seconds,
            warmup: window / 5,
            round: window / ROUNDS as u32,
            rounds: ROUNDS,
            setup_reps: SETUP_REPS,
        }
    }

    /// Each short run of a traced invocation (untraced reference, traced
    /// repeat, reference again): two rounds of a tenth of the window
    /// each, so one disturbed round does not set the per-layer numbers.
    pub fn traced(seconds: u64) -> Self {
        let window = Duration::from_secs(seconds);
        Plan {
            seconds,
            warmup: window / 10,
            round: window / 10,
            rounds: 2,
            setup_reps: 0,
        }
    }

    /// One round of the ungated loopback loops (three rounds each).
    pub fn loop_round(&self) -> Duration {
        Duration::from_secs(self.seconds) / 10
    }

    /// Iterations of a probe whose full-length count is `base`.
    pub fn probe_iters(&self, base: u64) -> u64 {
        (base * self.seconds / 10).max(1)
    }
}
