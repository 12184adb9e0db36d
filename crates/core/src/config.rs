//! WireCAP configuration.

use engines::AppModel;
use sim::CpuModel;
use std::fmt;

/// Bytes per cell in the current implementation: "a cell is two Kbytes"
/// (§5a). One cell holds one packet.
pub const CELL_BYTES: usize = 2048;

/// Estimated hot bytes per pool chunk *beyond* its arena cells: the
/// SPSC ring slot the sealed chunk is published through (~64 B with
/// padding) plus its recycle-queue slot (~16 B). Concurrent claiming
/// adds a cache-padded ticket word per slot; in-order delivery adds a
/// reorder-buffer slot. Used by the [`TuningMode::CacheResident`]
/// sizing pass (DESIGN.md §4.16).
const CHUNK_RING_SLOT_BYTES: usize = 64;
const CHUNK_RECYCLE_SLOT_BYTES: usize = 16;
const CHUNK_CLAIM_SLOT_BYTES: usize = 128;
const CHUNK_REORDER_SLOT_BYTES: usize = 64;

/// How the engine sizes its per-queue pool and recycle cadence
/// (DESIGN.md §4.16).
///
/// The paper's design treats R purely as loss tolerance: more chunks
/// absorb longer consumer stalls (§3.2.2a). But per "From RDMA to
/// RDCA" (PAPERS.md), at high rates the capture hot path is a
/// *cache-working-set* problem — once the in-flight pool outgrows the
/// LLC, every seal, delivery and recycle round-trips to DRAM and tail
/// latency explodes. `CacheResident` trades loss tolerance for
/// residency: it shrinks R (and, when necessary, the chunk size M) so
/// the hot working set fits an LLC budget, and bounds the
/// sealed-but-unrecycled backlog per queue so cells return to the NIC
/// while still cache-warm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuningMode {
    /// Size for loss tolerance (the paper's default): keep M and R as
    /// configured and recycle lazily, at the consumer's own cadence.
    Throughput,
    /// Size the hot working set to fit a last-level-cache budget:
    /// derive R (and M) from `llc_bytes`, and recycle eagerly at the
    /// derived depth bound instead of lazily at refill.
    CacheResident {
        /// Target LLC budget in bytes for the whole engine (split
        /// evenly across queues by the sizing pass).
        llc_bytes: u64,
    },
}

/// The resolved output of the tuning sizing pass: the effective pool
/// geometry an engine actually runs with, plus the working-set
/// estimate it was derived from. Logged into the engine snapshot
/// (`tuning` block) so a capture's cache budget is auditable after the
/// fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuningPlan {
    /// The mode the plan was derived for.
    pub mode: TuningMode,
    /// Queue count the budget was split across.
    pub queues: usize,
    /// Effective cells per chunk (≤ configured M; only
    /// `CacheResident` ever shrinks it, halving while the chunk alone
    /// would crowd out the per-queue budget).
    pub m: usize,
    /// Effective pool chunks per queue (≤ configured R, ≥ N/M + 1).
    pub r: usize,
    /// Max sealed-but-unrecycled chunks per queue before consumers
    /// prioritize recycling over claiming new work. 0 = unbounded
    /// (`Throughput` mode's lazy recycle).
    pub recycle_depth: usize,
    /// Estimated per-queue hot working set at (`m`, `r`): arena
    /// cells plus ring, recycle, claim-ticket and reorder slots where
    /// configured.
    pub working_set_bytes: u64,
}

impl TuningPlan {
    /// Hot bytes one chunk pins: its cells plus per-slot structures.
    fn chunk_bytes(m: usize, concurrent: bool, in_order: bool) -> u64 {
        let mut b = m * CELL_BYTES + CHUNK_RING_SLOT_BYTES + CHUNK_RECYCLE_SLOT_BYTES;
        if concurrent {
            b += CHUNK_CLAIM_SLOT_BYTES;
        }
        if in_order {
            b += CHUNK_REORDER_SLOT_BYTES;
        }
        b as u64
    }

    /// Applies the plan to a configuration: the effective geometry the
    /// engine should construct its pools with.
    pub fn apply(&self, mut cfg: WireCapConfig) -> WireCapConfig {
        cfg.m = self.m;
        cfg.r = self.r;
        cfg
    }

    /// True when the derived working set still exceeds the budget —
    /// the structural floor (one spare chunk past the descriptor
    /// segments) won: the LLC budget is smaller than the ring itself.
    pub fn over_budget(&self) -> bool {
        match self.mode {
            TuningMode::Throughput => false,
            TuningMode::CacheResident { llc_bytes } => {
                self.working_set_bytes * self.queues as u64 > llc_bytes
            }
        }
    }
}

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
    /// order within a queue is unspecified unless `in_order` is set.
    ///
    /// [`LiveConsumer`]: ../live/struct.LiveConsumer.html
    pub concurrent_queue: bool,
    /// In-order delivery for concurrent consumption: chunks are
    /// sequence-stamped at seal time and a fixed-capacity per-queue
    /// reorder buffer re-serializes delivery in strictly increasing
    /// sequence order. Requires `concurrent_queue`.
    pub in_order: bool,
    /// Span-tracing sample rate: 1-in-N chunks per queue get a full
    /// lifecycle span (seal → publish → claim → deliver → recycle,
    /// DESIGN.md §4.14). `0` disables span tracing entirely — no
    /// clock reads, no per-stage histograms, no worker time-state
    /// profiling. `1` traces every chunk.
    pub span_sample_n: u32,
    /// Pool/working-set tuning mode (DESIGN.md §4.16): `Throughput`
    /// keeps the configured geometry; `CacheResident` re-derives M, R
    /// and a recycle-depth bound at engine start so the hot working
    /// set fits an LLC budget.
    pub tuning: TuningMode,
    /// Tail-latency SLO in nanoseconds: when set, the telemetry
    /// sampler's anomaly detector fires (and freezes a flight record)
    /// on sustained engine-wide p99.9 capture-to-delivery latency
    /// above this bound. `None` disables the rule.
    pub latency_slo_ns: Option<u64>,
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
            in_order: false,
            span_sample_n: 0,
            tuning: TuningMode::Throughput,
            latency_slo_ns: None,
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
        if self.in_order && !self.concurrent_queue {
            return Err(ConfigError::InOrderRequiresConcurrent);
        }
        if let TuningMode::CacheResident { llc_bytes } = self.tuning {
            if llc_bytes == 0 {
                return Err(ConfigError::InvalidLlcBudget);
            }
        }
        Ok(())
    }

    /// Runs the tuning sizing pass for `queues` receive queues
    /// (DESIGN.md §4.16), returning the effective pool geometry.
    ///
    /// `Throughput` is the identity: configured M and R, unbounded
    /// (lazy) recycle. `CacheResident { llc_bytes }` splits the budget
    /// evenly across queues and solves for the geometry whose hot
    /// working set — arena cells plus the per-chunk slot structures —
    /// fits it:
    ///
    /// 1. **M**: halved (it keeps dividing the ring size) while a
    ///    single chunk would crowd out more than a quarter of the
    ///    per-queue budget, so at least ~4 chunks can cycle inside the
    ///    budget; never below 16 cells or the configured M.
    /// 2. **R**: `budget / chunk_bytes`, clamped to the structural
    ///    floor `N/M + 1` at the derived M (the pool must outnumber
    ///    the descriptor segments) and capped at the configured R — a
    ///    cache budget only ever shrinks the pool's memory. (When M
    ///    was halved the chunk *count* floor can exceed the configured
    ///    R, but the floor's memory, `N + M` cells, never exceeds the
    ///    configured `R·M ≥ N + M`.)
    /// 3. **Recycle depth**: a quarter of the spare (non-segment)
    ///    chunks, at least 1 — consumers recycle eagerly at this bound
    ///    so cells return to the NIC while still cache-warm, instead
    ///    of lazily at the next refill.
    pub fn tuning_plan(&self, queues: usize) -> TuningPlan {
        let queues = queues.max(1);
        match self.tuning {
            TuningMode::Throughput => TuningPlan {
                mode: self.tuning,
                queues,
                m: self.m,
                r: self.r,
                recycle_depth: 0,
                working_set_bytes: TuningPlan::chunk_bytes(
                    self.m,
                    self.concurrent_queue,
                    self.in_order,
                ) * self.r as u64,
            },
            TuningMode::CacheResident { llc_bytes } => {
                let budget = (llc_bytes / queues as u64).max(1);
                let mut m = self.m;
                while m > 16
                    && m.is_multiple_of(2)
                    && TuningPlan::chunk_bytes(m, self.concurrent_queue, self.in_order) > budget / 4
                {
                    m /= 2;
                }
                let chunk = TuningPlan::chunk_bytes(m, self.concurrent_queue, self.in_order);
                let segments = self.ring_size / m;
                let floor = segments + 1;
                let r = usize::try_from(budget / chunk)
                    .unwrap_or(usize::MAX)
                    .clamp(floor, self.r.max(floor));
                let spare = r - segments;
                let recycle_depth = (spare / 4).max(1);
                TuningPlan {
                    mode: self.tuning,
                    queues,
                    m,
                    r,
                    recycle_depth,
                    working_set_bytes: chunk * r as u64,
                }
            }
        }
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
    /// In-order delivery re-serializes the concurrent claim stream, so
    /// it is meaningless without `concurrent_queue`.
    InOrderRequiresConcurrent,
    /// A `CacheResident` LLC budget of zero bytes can fit no pool.
    InvalidLlcBudget,
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
            ConfigError::InOrderRequiresConcurrent => {
                write!(f, "in_order delivery requires concurrent_queue")
            }
            ConfigError::InvalidLlcBudget => {
                write!(f, "CacheResident llc_bytes must be non-zero")
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

    /// In-order delivery for concurrent consumption (requires
    /// [`concurrent_queue`](Self::concurrent_queue); validated at
    /// [`build`](Self::build)).
    pub fn in_order(mut self, on: bool) -> Self {
        self.cfg.in_order = on;
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

    /// Pool/working-set tuning mode: [`TuningMode::CacheResident`]
    /// re-derives M, R and the recycle-depth bound at engine start so
    /// the hot working set fits the given LLC budget (DESIGN.md
    /// §4.16). Defaults to [`TuningMode::Throughput`].
    pub fn tuning(mut self, mode: TuningMode) -> Self {
        self.cfg.tuning = mode;
        self
    }

    /// Tail-latency SLO: the sampler's anomaly detector fires (and
    /// freezes a flight record) on sustained engine-wide p99.9
    /// capture-to-delivery latency above `ns`.
    pub fn latency_slo_ns(mut self, ns: u64) -> Self {
        self.cfg.latency_slo_ns = Some(ns);
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
        assert!(!WireCapConfig::basic(64, 32, 0).pin_threads);
    }

    #[test]
    fn concurrent_queue_knobs() {
        let cfg = WireCapConfig::builder()
            .concurrent_queue(true)
            .in_order(true)
            .build()
            .unwrap();
        assert!(cfg.concurrent_queue);
        assert!(cfg.in_order);
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
        assert!(!WireCapConfig::basic(64, 32, 0).in_order);
        // In-order without concurrent claiming is meaningless.
        assert_eq!(
            WireCapConfig::builder().in_order(true).build().unwrap_err(),
            ConfigError::InOrderRequiresConcurrent
        );
    }

    #[test]
    fn throughput_plan_is_identity() {
        let cfg = WireCapConfig::basic(256, 100, 0);
        let plan = cfg.tuning_plan(4);
        assert_eq!(plan.m, 256);
        assert_eq!(plan.r, 100);
        assert_eq!(plan.recycle_depth, 0, "lazy recycle: unbounded");
        assert_eq!(plan.queues, 4);
        assert!(!plan.over_budget());
        let applied = plan.apply(cfg);
        assert_eq!(applied.m, cfg.m);
        assert_eq!(applied.r, cfg.r);
        // Working set: R chunks of M cells + ring/recycle slots each.
        assert_eq!(plan.working_set_bytes, 100 * (256 * 2048 + 64 + 16));
    }

    #[test]
    fn cache_resident_plan_fits_budget() {
        // 8 MiB across 2 queues = 4 MiB/queue. At M = 64 a chunk pins
        // 64·2048 + 80 = 131 152 B → R = 31; segments = 16, floor 17.
        let mut cfg = WireCapConfig::basic(64, 400, 0);
        cfg.tuning = TuningMode::CacheResident { llc_bytes: 8 << 20 };
        cfg.validate().unwrap();
        let plan = cfg.tuning_plan(2);
        assert_eq!(plan.m, 64, "M untouched when chunks are small");
        assert_eq!(plan.r, 31);
        assert!(plan.r > cfg.segments(), "stays structurally valid");
        assert!(plan.working_set_bytes <= 4 << 20, "fits per-queue budget");
        assert!(!plan.over_budget());
        // Recycle depth: a quarter of the spare chunks, ≥ 1.
        assert_eq!(plan.recycle_depth, (31 - 16) / 4);
        let applied = plan.apply(cfg);
        assert_eq!(applied.r, 31);
        applied.validate().unwrap();
    }

    #[test]
    fn cache_resident_never_grows_the_pool() {
        let mut cfg = WireCapConfig::basic(64, 40, 0);
        cfg.tuning = TuningMode::CacheResident {
            llc_bytes: 1 << 30, // 1 GiB: budget dwarfs the pool
        };
        let plan = cfg.tuning_plan(1);
        assert_eq!(plan.r, 40, "budget surplus never grows R");
        assert_eq!(plan.m, 64);
    }

    #[test]
    fn cache_resident_halves_m_for_tiny_budgets() {
        // 512 KiB/queue: a 256-cell chunk (512 KiB) is itself the whole
        // budget, so M halves until a chunk takes ≤ a quarter of it —
        // 256 → 128 → 64 → 32 (32·2048 + 80 ≈ 64 KiB ≤ 128 KiB).
        let mut cfg = WireCapConfig::basic(256, 100, 0);
        cfg.tuning = TuningMode::CacheResident {
            llc_bytes: 512 << 10,
        };
        let plan = cfg.tuning_plan(1);
        assert_eq!(plan.m, 32, "M shrinks when one chunk crowds the budget");
        assert!(cfg.ring_size.is_multiple_of(plan.m), "M keeps dividing N");
        // The floor (segments + 1 at the derived M) won: working set is
        // ring-bound and the plan reports the budget overshoot.
        assert_eq!(plan.r, 1024 / 32 + 1);
        assert!(plan.over_budget());
        plan.apply(cfg).validate().unwrap();
    }

    #[test]
    fn cache_resident_r_is_monotone_in_budget() {
        let mut prev = 0usize;
        for mib in [1u64, 2, 4, 8, 16, 32, 64] {
            let mut cfg = WireCapConfig::basic(64, 4096, 0);
            cfg.tuning = TuningMode::CacheResident {
                llc_bytes: mib << 20,
            };
            let plan = cfg.tuning_plan(1);
            assert!(plan.r >= prev, "R shrank as the budget grew");
            assert!(plan.recycle_depth >= 1);
            assert!(plan.recycle_depth <= plan.r - cfg.ring_size / plan.m);
            prev = plan.r;
        }
    }

    #[test]
    fn tuning_knobs_validate_and_build() {
        let cfg = WireCapConfig::builder()
            .tuning(TuningMode::CacheResident {
                llc_bytes: 16 << 20,
            })
            .latency_slo_ns(2_000_000)
            .build()
            .unwrap();
        assert_eq!(
            cfg.tuning,
            TuningMode::CacheResident {
                llc_bytes: 16 << 20
            }
        );
        assert_eq!(cfg.latency_slo_ns, Some(2_000_000));
        assert_eq!(
            WireCapConfig::builder()
                .tuning(TuningMode::CacheResident { llc_bytes: 0 })
                .build()
                .unwrap_err(),
            ConfigError::InvalidLlcBudget
        );
        let basic = WireCapConfig::basic(64, 32, 0);
        assert_eq!(basic.tuning, TuningMode::Throughput);
        assert_eq!(basic.latency_slo_ns, None);
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
