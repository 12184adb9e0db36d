//! The common capture-engine interface and application model.

use sim::stats::CopyMeter;
use sim::{CpuModel, DropStats, SimTime};
use telemetry::{EngineSnapshot, QueueTelemetry};

/// Extra per-packet CPU cycles when the application forwards each
/// processed packet. Attaching is a metadata-only operation (descriptor
/// write + amortized doorbell), so the cost is small — calibrated so that
/// an x = 0 forwarding core sustains ~12 Mp/s, consistent with the
/// paper's Fig. 14 where one core forwards 100-byte wire rate
/// (10.4 Mp/s) without loss.
pub const FORWARD_CYCLES: f64 = 100.0;

/// The application consuming captured packets, reduced — as the paper
/// itself reduces it — to a deterministic per-packet service rate: a
/// `pkt_handler` applying its BPF filter `x` times, optionally forwarding
/// the processed packet.
#[derive(Debug, Clone, Copy)]
pub struct AppModel {
    /// CPU the application thread runs on.
    pub cpu: CpuModel,
    /// BPF repetitions per packet (the paper uses x = 0 and x = 300).
    pub x: u32,
    /// Whether processed packets are forwarded (Fig. 13/14).
    pub forward: bool,
}

impl AppModel {
    /// Packet-processing rate in packets/s.
    pub fn rate_pps(&self) -> f64 {
        let base_ns = self.cpu.pkt_handler_ns(self.x);
        let fwd_ns = if self.forward {
            FORWARD_CYCLES / self.cpu.freq_ghz
        } else {
            0.0
        };
        1e9 / (base_ns + fwd_ns)
    }
}

/// Configuration shared by every engine.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// The application model (one thread per queue, as in Fig. 1).
    pub app: AppModel,
    /// Receive-ring size in descriptors (the paper evaluates with 1024).
    pub ring_size: usize,
}

impl EngineConfig {
    /// The paper's standard configuration: 2.4 GHz cores, ring size 1024.
    pub fn paper(x: u32) -> Self {
        EngineConfig {
            app: AppModel {
                cpu: CpuModel::default(),
                x,
                forward: false,
            },
            ring_size: 1024,
        }
    }

    /// Same, with forwarding enabled.
    pub fn paper_forwarding(x: u32) -> Self {
        let mut cfg = Self::paper(x);
        cfg.app.forward = true;
        cfg
    }
}

/// A packet capture engine under simulation.
///
/// The harness feeds time-ordered wire arrivals per queue; the engine
/// integrates its internal processes (DMA, kernel copy threads, capture
/// threads, application consumption) between events and accounts drops in
/// the paper's taxonomy (capture vs. delivery).
pub trait CaptureEngine {
    /// Engine display name (e.g. `WireCAP-A-(256,100,60%)`).
    fn name(&self) -> String;

    /// Number of receive queues this engine instance manages.
    fn queues(&self) -> usize;

    /// A packet of `len` bytes (FCS included) arrives for `queue` at `now`.
    fn on_arrival(&mut self, now: SimTime, queue: usize, len: u16);

    /// Integrates all internal processes up to `now` (no new arrivals).
    fn advance(&mut self, now: SimTime);

    /// Runs every internal process to quiescence after the last arrival;
    /// returns the simulated time at which the engine drained.
    fn finish(&mut self, after: SimTime) -> SimTime;

    /// Full telemetry snapshot for one queue: the unified schema every
    /// engine (simulated, baseline, and the live threaded path) reports
    /// through. See `telemetry::QueueTelemetry` for the naming scheme.
    fn telemetry(&self, queue: usize) -> QueueTelemetry;

    /// Accounting for one queue in the figure-code vocabulary, derived
    /// from [`telemetry`](Self::telemetry) via the `DropStats` bridge.
    fn queue_stats(&self, queue: usize) -> DropStats {
        DropStats::from(&self.telemetry(queue))
    }

    /// Full engine snapshot: per-queue telemetry plus the engine-wide
    /// copy and latency meters, serializable to JSON and Prometheus.
    fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            engine: self.name(),
            tuning: self.tuning(),
            queues: (0..self.queues()).map(|q| self.telemetry(q)).collect(),
            workers: Vec::new(),
            copies: self.copies(),
            latency: self.latency(),
        }
    }

    /// The pool geometry (R, M, pool bytes) for engines built on a
    /// chunk pool, reported in the snapshot's `tuning` block. Engines
    /// without one report `None`.
    fn tuning(&self) -> Option<telemetry::TuningTelemetry> {
        None
    }

    /// Packet-byte copies performed on the capture/delivery path.
    fn copies(&self) -> CopyMeter;

    /// Capture-to-delivery latency samples, when the engine meters them
    /// (the §5c batching side effect). Engines without latency metering
    /// return empty statistics.
    fn latency(&self) -> sim::stats::LatencyStats {
        sim::stats::LatencyStats::new()
    }

    /// Aggregate accounting across queues.
    fn total_stats(&self) -> DropStats {
        let mut total = DropStats::default();
        for q in 0..self.queues() {
            total.merge(&self.queue_stats(q));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_rate_matches_paper_without_forwarding() {
        let app = AppModel {
            cpu: CpuModel::default(),
            x: 300,
            forward: false,
        };
        assert!((app.rate_pps() - 38_844.0).abs() < 1.0);
    }

    #[test]
    fn forwarding_reduces_rate() {
        let plain = AppModel {
            cpu: CpuModel::default(),
            x: 300,
            forward: false,
        };
        let fwd = AppModel {
            forward: true,
            ..plain
        };
        assert!(fwd.rate_pps() < plain.rate_pps());
        // but only slightly: the attach is a metadata operation.
        assert!(fwd.rate_pps() > 0.99 * plain.rate_pps());
    }

    #[test]
    fn paper_config_defaults() {
        let cfg = EngineConfig::paper(300);
        assert_eq!(cfg.ring_size, 1024);
        assert!(!cfg.app.forward);
        assert!(EngineConfig::paper_forwarding(0).app.forward);
    }
}
