//! WireCAP configuration.

use engines::AppModel;
use sim::CpuModel;
use std::fmt;

/// Bytes per cell in the current implementation: "a cell is two Kbytes"
/// (§5a). One cell holds one packet.
pub const CELL_BYTES: usize = 2048;

/// Configuration of a WireCAP engine instance.
///
/// The paper's naming convention: `WireCAP-B-(M, R)` is the basic mode
/// with descriptor-segment size `M` and pool size `R` chunks;
/// `WireCAP-A-(M, R, T)` adds the buddy-group offloading threshold `T`.
#[derive(Debug, Clone, Copy)]
pub struct WireCapConfig {
    /// Descriptor-segment size M: cells per chunk (a divisor of the ring
    /// size; the paper evaluates 64–256).
    pub m: usize,
    /// Pool size R: chunks per receive queue (the paper evaluates
    /// 100–500). Must exceed `ring_size / m` so spare chunks exist.
    pub r: usize,
    /// Offloading threshold T as a fraction of the capture-queue
    /// capacity; `None` = basic mode (no offloading).
    pub threshold: Option<f64>,
    /// Receive-ring size N in descriptors.
    pub ring_size: usize,
    /// The capture operation's blocking timeout (§3.2.1): when it expires
    /// with a partially filled chunk, the filled cells are *copied* to a
    /// free chunk and delivered, so packets never linger in the ring.
    pub capture_timeout_ns: u64,
    /// CPU-efficiency factor applied to packets processed on a non-home
    /// core after offloading ("a degraded CPU efficiency caused by a loss
    /// of the core affinity", §5b). 1.0 = no penalty.
    pub offload_penalty: f64,
    /// Adaptive polling (live engine): idle rounds a capture or pool
    /// worker thread spends yielding its core before it parks on a
    /// wakeup gate. There is no busy-spin stage (DESIGN.md §4.11).
    pub yield_iters: u32,
    /// Adaptive polling: upper bound on one parked wait, in
    /// nanoseconds. Parks are always timeout-bounded so a missed
    /// wakeup costs at most this long.
    pub park_timeout_ns: u64,
    /// Pin live capture threads (core = queue index) and pool workers
    /// (cores after the capture threads) with `sched_setaffinity`.
    /// A no-op on platforms without it.
    pub pin_threads: bool,
    /// COREC-style concurrent single-queue consumption (DESIGN.md
    /// §4.12): sealed chunks are published to lock-free per-queue
    /// claim queues and any `ConsumerPool` worker may claim from any
    /// member queue, so one scorching queue is drained by many cores.
    /// Incompatible with per-queue [`LiveConsumer`] handles; delivery
    /// order within a queue is unspecified. A per-queue
    /// [`LiveConsumer`] delivers its queue in seal order.
    ///
    /// [`LiveConsumer`]: ../live/struct.LiveConsumer.html
    pub concurrent_queue: bool,
    /// Span-tracing sample rate: 1-in-N chunks per queue get a full
    /// lifecycle span (seal → publish → claim → deliver → recycle,
    /// DESIGN.md §4.14). `0` disables span tracing entirely — no
    /// clock reads, no per-stage histograms, no worker time-state
    /// profiling. `1` traces every chunk.
    pub span_sample_n: u32,
    /// The application model (one `pkt_handler` thread per queue).
    pub app: AppModel,
}

impl WireCapConfig {
    /// `WireCAP-B-(M, R)` with the paper's standard environment
    /// (2.4 GHz cores, ring size 1024).
    pub fn basic(m: usize, r: usize, x: u32) -> Self {
        WireCapConfig {
            m,
            r,
            threshold: None,
            ring_size: 1024,
            // 10 ms: long enough that queues receiving above M/timeout
            // ≈ 25 k p/s fill whole chunks (zero-copy path), short enough
            // that packets never linger in the ring at quiet queues.
            capture_timeout_ns: 10_000_000,
            offload_penalty: 0.97,
            // Adaptive-polling ladder: a few yields, which hand the core
            // to co-scheduled threads yet return at once on an idle
            // core, then 1 ms bounded parks.
            yield_iters: 64,
            park_timeout_ns: 1_000_000,
            pin_threads: false,
            concurrent_queue: false,
            span_sample_n: 0,
            app: AppModel {
                cpu: CpuModel::default(),
                x,
                forward: false,
            },
        }
    }

    /// `WireCAP-A-(M, R, T)` — advanced mode.
    pub fn advanced(m: usize, r: usize, t: f64, x: u32) -> Self {
        WireCapConfig {
            threshold: Some(t),
            ..Self::basic(m, r, x)
        }
    }

    /// A validating builder starting from the paper's standard
    /// environment (see [`WireCapConfigBuilder`]).
    pub fn builder() -> WireCapConfigBuilder {
        WireCapConfigBuilder::new()
    }

    /// Enables packet forwarding in the application model.
    pub fn forwarding(mut self) -> Self {
        self.app.forward = true;
        self
    }

    /// Validates the structural constraints of §3.2.1.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.m == 0 || self.ring_size == 0 || !self.ring_size.is_multiple_of(self.m) {
            return Err(ConfigError::InvalidSegmentSize {
                m: self.m,
                ring_size: self.ring_size,
            });
        }
        let segments = self.ring_size / self.m;
        if self.r <= segments {
            return Err(ConfigError::PoolTooSmall {
                r: self.r,
                segments,
            });
        }
        if let Some(t) = self.threshold {
            if !(0.0..=1.0).contains(&t) {
                return Err(ConfigError::InvalidThreshold(t));
            }
        }
        if !(0.0..=1.0).contains(&self.offload_penalty) || self.offload_penalty == 0.0 {
            return Err(ConfigError::InvalidPenalty(self.offload_penalty));
        }
        Ok(())
    }

    /// Number of descriptor segments (chunks attached at any instant).
    pub fn segments(&self) -> usize {
        self.ring_size / self.m
    }

    /// Capture-queue capacity in chunks: the pool minus the chunks pinned
    /// to descriptor segments — the most that can ever be outstanding in
    /// user space. The offloading threshold T is a fraction of this
    /// reachable capacity (a threshold above `R - N/M` chunks could never
    /// fire).
    pub fn capture_queue_capacity(&self) -> usize {
        self.r - self.segments()
    }

    /// Pool buffering capacity in packets: R × M (§3.2.2a).
    pub fn pool_packets(&self) -> u64 {
        (self.r * self.m) as u64
    }

    /// Kernel memory one pool consumes: R × M × 2 KiB (§5a).
    pub fn pool_bytes(&self) -> u64 {
        self.pool_packets() * CELL_BYTES as u64
    }

    /// The paper's basic-mode loss bound: the largest burst (at `pin`
    /// packets/s against processing rate `pp`) absorbed without loss,
    /// `Pin · (R·M) / (Pin − Pp)` (§3.2.2a).
    pub fn max_lossless_burst(&self, pin_pps: f64, pp_pps: f64) -> f64 {
        if pin_pps <= pp_pps {
            return f64::INFINITY;
        }
        pin_pps * self.pool_packets() as f64 / (pin_pps - pp_pps)
    }

    /// Display name in the paper's convention.
    pub fn name(&self) -> String {
        match self.threshold {
            Some(t) => format!("WireCAP-A-({}, {}, {:.0}%)", self.m, self.r, t * 100.0),
            None => format!("WireCAP-B-({}, {})", self.m, self.r),
        }
    }
}

/// Why a [`WireCapConfig`] is structurally invalid (§3.2.1
/// constraints). Returned by [`WireCapConfig::validate`] and
/// [`WireCapConfigBuilder::build`] so callers get an error value
/// instead of a panic on zero-sized pools and the like.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// M must be a non-zero divisor of the non-zero ring size, so the
    /// ring partitions into whole descriptor segments.
    InvalidSegmentSize {
        /// The offending cells-per-chunk value.
        m: usize,
        /// The ring size it fails to divide.
        ring_size: usize,
    },
    /// R must exceed N/M: a pool with no spare chunks beyond the ones
    /// pinned to descriptor segments can never seal a chunk.
    PoolTooSmall {
        /// The offending pool size in chunks.
        r: usize,
        /// The number of descriptor segments N/M it must exceed.
        segments: usize,
    },
    /// The offloading threshold T is a fraction of the capture-queue
    /// capacity and must lie in [0, 1].
    InvalidThreshold(f64),
    /// The offload CPU-efficiency penalty must lie in (0, 1].
    InvalidPenalty(f64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::InvalidSegmentSize { m, ring_size } => write!(
                f,
                "M = {m} must be a non-zero divisor of the ring size {ring_size}"
            ),
            ConfigError::PoolTooSmall { r, segments } => write!(
                f,
                "R = {r} must exceed N/M = {segments} so the pool has spare chunks"
            ),
            ConfigError::InvalidThreshold(t) => {
                write!(f, "offloading threshold {t} must be in [0, 1]")
            }
            ConfigError::InvalidPenalty(p) => {
                write!(f, "offload penalty {p} must be in (0, 1]")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builds a validated [`WireCapConfig`].
///
/// Starts from the paper's standard environment (the same defaults as
/// [`WireCapConfig::basic`]: M = 256, R = 100, ring size 1024, 10 ms
/// capture timeout, x = 0) and validates on [`build`], returning a
/// [`ConfigError`] instead of panicking on zero-sized pools or other
/// structural violations:
///
/// ```
/// use wirecap::WireCapConfig;
///
/// let cfg = WireCapConfig::builder()
///     .chunks(200)
///     .cells(128)
///     .threshold(0.6)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(cfg.name(), "WireCAP-A-(128, 200, 60%)");
/// assert!(WireCapConfig::builder().chunks(0).build().is_err());
/// ```
///
/// [`build`]: WireCapConfigBuilder::build
#[derive(Debug, Clone, Copy)]
pub struct WireCapConfigBuilder {
    cfg: WireCapConfig,
}

impl WireCapConfigBuilder {
    /// Starts from the paper's standard basic-mode configuration.
    pub fn new() -> Self {
        WireCapConfigBuilder {
            cfg: WireCapConfig::basic(256, 100, 0),
        }
    }

    /// Cells per chunk M (a divisor of the ring size).
    pub fn cells(mut self, m: usize) -> Self {
        self.cfg.m = m;
        self
    }

    /// Pool size R in chunks.
    pub fn chunks(mut self, r: usize) -> Self {
        self.cfg.r = r;
        self
    }

    /// Offloading threshold T in [0, 1] — selects advanced mode.
    pub fn threshold(mut self, t: f64) -> Self {
        self.cfg.threshold = Some(t);
        self
    }

    /// Receive-ring size N in descriptors.
    pub fn ring_size(mut self, n: usize) -> Self {
        self.cfg.ring_size = n;
        self
    }

    /// The capture operation's blocking timeout in nanoseconds.
    pub fn capture_timeout_ns(mut self, ns: u64) -> Self {
        self.cfg.capture_timeout_ns = ns;
        self
    }

    /// CPU-efficiency factor for offloaded processing, in (0, 1].
    pub fn offload_penalty(mut self, p: f64) -> Self {
        self.cfg.offload_penalty = p;
        self
    }

    /// Idle rounds of yielding before the adaptive poller parks (live
    /// capture + pool worker threads).
    pub fn yield_iters(mut self, iters: u32) -> Self {
        self.cfg.yield_iters = iters;
        self
    }

    /// Upper bound on one parked wait, in nanoseconds.
    pub fn park_timeout_ns(mut self, ns: u64) -> Self {
        self.cfg.park_timeout_ns = ns;
        self
    }

    /// Pin capture threads and pool workers to cores
    /// (`sched_setaffinity`; no-op where unavailable).
    pub fn pin_threads(mut self, pin: bool) -> Self {
        self.cfg.pin_threads = pin;
        self
    }

    /// COREC-style concurrent single-queue consumption: pool workers
    /// claim sealed chunks from lock-free per-queue claim queues
    /// instead of each queue having one drainer (DESIGN.md §4.12).
    pub fn concurrent_queue(mut self, on: bool) -> Self {
        self.cfg.concurrent_queue = on;
        self
    }

    /// Span-tracing sample rate: trace the full lifecycle of 1-in-`n`
    /// chunks per queue (0 = off, the default; 1 = every chunk). Sampled
    /// spans feed the per-stage latency histograms, the worker
    /// time-state profiler and the `/trace.json` Chrome-trace export.
    pub fn span_sample_n(mut self, n: u32) -> Self {
        self.cfg.span_sample_n = n;
        self
    }

    /// BPF repetitions x per packet in the application model.
    pub fn bpf_repetitions(mut self, x: u32) -> Self {
        self.cfg.app.x = x;
        self
    }

    /// Enables packet forwarding in the application model.
    pub fn forwarding(mut self) -> Self {
        self.cfg.app.forward = true;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<WireCapConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

impl Default for WireCapConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_validate() {
        for (m, r) in [
            (64, 100),
            (128, 100),
            (256, 100),
            (256, 500),
            (64, 400),
            (128, 200),
        ] {
            WireCapConfig::basic(m, r, 300).validate().unwrap();
        }
        WireCapConfig::advanced(256, 100, 0.6, 300)
            .validate()
            .unwrap();
    }

    #[test]
    fn m_must_divide_ring() {
        assert!(WireCapConfig::basic(100, 200, 0).validate().is_err());
        assert!(WireCapConfig::basic(0, 200, 0).validate().is_err());
    }

    #[test]
    fn r_must_exceed_segments() {
        // N/M = 1024/256 = 4; R = 4 leaves no spare chunks.
        assert!(WireCapConfig::basic(256, 4, 0).validate().is_err());
        assert!(WireCapConfig::basic(256, 5, 0).validate().is_ok());
    }

    #[test]
    fn capacity_arithmetic() {
        let cfg = WireCapConfig::basic(256, 100, 300);
        assert_eq!(cfg.segments(), 4);
        assert_eq!(cfg.pool_packets(), 25_600);
        assert_eq!(cfg.pool_bytes(), 25_600 * 2048);
    }

    #[test]
    fn loss_bound_formula() {
        let cfg = WireCapConfig::basic(256, 100, 300);
        // Pin = 14.88 Mp/s, Pp = 38 844 p/s: bound ≈ R·M (Pp negligible).
        let b = cfg.max_lossless_burst(14_880_952.0, 38_844.0);
        assert!((b - 25_667.0).abs() < 10.0, "bound = {b}");
        // Pin ≤ Pp: never drops.
        assert!(cfg.max_lossless_burst(10_000.0, 38_844.0).is_infinite());
    }

    #[test]
    fn builder_validates_instead_of_panicking() {
        let cfg = WireCapConfig::builder()
            .cells(128)
            .chunks(200)
            .threshold(0.6)
            .bpf_repetitions(300)
            .build()
            .unwrap();
        assert_eq!(cfg.m, 128);
        assert_eq!(cfg.r, 200);
        assert_eq!(cfg.threshold, Some(0.6));
        assert_eq!(cfg.app.x, 300);

        assert_eq!(
            WireCapConfig::builder().chunks(0).build().unwrap_err(),
            ConfigError::PoolTooSmall { r: 0, segments: 4 }
        );
        assert_eq!(
            WireCapConfig::builder().cells(0).build().unwrap_err(),
            ConfigError::InvalidSegmentSize {
                m: 0,
                ring_size: 1024
            }
        );
        assert_eq!(
            WireCapConfig::builder().threshold(1.5).build().unwrap_err(),
            ConfigError::InvalidThreshold(1.5)
        );
        assert_eq!(
            WireCapConfig::builder()
                .offload_penalty(0.0)
                .build()
                .unwrap_err(),
            ConfigError::InvalidPenalty(0.0)
        );
        // advanced() with an out-of-range T no longer panics; it fails
        // validation instead.
        assert!(WireCapConfig::advanced(256, 100, 2.0, 0)
            .validate()
            .is_err());
    }

    #[test]
    fn builder_matches_basic_defaults() {
        let b = WireCapConfig::builder().build().unwrap();
        let basic = WireCapConfig::basic(256, 100, 0);
        assert_eq!(b.m, basic.m);
        assert_eq!(b.r, basic.r);
        assert_eq!(b.ring_size, basic.ring_size);
        assert_eq!(b.capture_timeout_ns, basic.capture_timeout_ns);
        assert_eq!(b.yield_iters, basic.yield_iters);
        assert_eq!(b.park_timeout_ns, basic.park_timeout_ns);
        assert_eq!(b.pin_threads, basic.pin_threads);
        assert_eq!(b.name(), basic.name());
    }

    #[test]
    fn builder_sets_polling_and_pinning() {
        let cfg = WireCapConfig::builder()
            .yield_iters(5)
            .park_timeout_ns(500_000)
            .pin_threads(true)
            .build()
            .unwrap();
        assert_eq!(cfg.yield_iters, 5);
        assert_eq!(cfg.park_timeout_ns, 500_000);
        assert!(cfg.pin_threads);
        let basic = WireCapConfig::basic(64, 32, 0);
        assert!(!basic.pin_threads);
    }

    #[test]
    fn concurrent_queue_knobs() {
        let cfg = WireCapConfig::builder()
            .concurrent_queue(true)
            .build()
            .unwrap();
        assert!(cfg.concurrent_queue);
        assert_eq!(cfg.span_sample_n, 0, "span tracing defaults off");
        assert_eq!(
            WireCapConfig::builder()
                .span_sample_n(64)
                .build()
                .unwrap()
                .span_sample_n,
            64
        );
        assert!(!WireCapConfig::basic(64, 32, 0).concurrent_queue);
    }

    #[test]
    fn naming_convention() {
        assert_eq!(
            WireCapConfig::basic(256, 100, 300).name(),
            "WireCAP-B-(256, 100)"
        );
        assert_eq!(
            WireCapConfig::advanced(256, 500, 0.6, 300).name(),
            "WireCAP-A-(256, 500, 60%)"
        );
    }
}
