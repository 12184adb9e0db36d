//! The experiment harness: workload → RSS → engine → drop rates.

use engines::{
    CaptureEngine, DpdkEngine, EngineConfig, PfPacketEngine, PfRingEngine, PsioeEngine,
    Type2Engine, Type2Kind,
};
use nicsim::rss::Rss;
use serde::{Deserialize, Serialize};
use sim::stats::CopyMeter;
use sim::{DropStats, SimTime};
use std::sync::{Arc, Mutex};
use telemetry::{EngineSnapshot, Observable, ScrapeServer};
use traffic::TrafficSource;
use wirecap::{WireCapConfig, WireCapEngine};

/// Which engine to instantiate for an experiment.
#[derive(Debug, Clone, Copy)]
pub enum EngineKind {
    /// ntop DNA (Type II).
    Dna,
    /// netmap (Type II).
    Netmap,
    /// PF_RING mode 2 (Type I).
    PfRing,
    /// Stock kernel raw sockets.
    PfPacket,
    /// PacketShader I/O engine.
    Psioe,
    /// Intel DPDK (deep user-space mempools, no offloading) — §6.
    Dpdk,
    /// DPDK with application-layer offloading at the given threshold —
    /// the paper's §7 future-work comparison.
    DpdkAppOffload(f64),
    /// WireCAP with the given configuration (basic or advanced mode).
    WireCap(WireCapConfig),
}

impl EngineKind {
    /// Builds the engine over `queues` receive queues.
    pub fn build(&self, queues: usize, cfg: EngineConfig) -> Box<dyn CaptureEngine> {
        match *self {
            EngineKind::Dna => Box::new(Type2Engine::new(Type2Kind::Dna, queues, cfg)),
            EngineKind::Netmap => Box::new(Type2Engine::new(Type2Kind::Netmap, queues, cfg)),
            EngineKind::PfRing => Box::new(PfRingEngine::new(queues, cfg)),
            EngineKind::PfPacket => Box::new(PfPacketEngine::new(queues, cfg)),
            EngineKind::Psioe => Box::new(PsioeEngine::new(queues, cfg)),
            EngineKind::Dpdk => Box::new(DpdkEngine::new(queues, cfg)),
            EngineKind::DpdkAppOffload(t) => Box::new(DpdkEngine::with_app_offload(queues, cfg, t)),
            EngineKind::WireCap(mut wc) => {
                wc.app = cfg.app;
                wc.ring_size = cfg.ring_size;
                Box::new(WireCapEngine::new(queues, wc))
            }
        }
    }

    /// Display name (matches the paper's legends).
    pub fn name(&self) -> String {
        match self {
            EngineKind::Dna => "DNA".into(),
            EngineKind::Netmap => "NETMAP".into(),
            EngineKind::PfRing => "PF_RING".into(),
            EngineKind::PfPacket => "PF_PACKET".into(),
            EngineKind::Psioe => "PSIOE".into(),
            EngineKind::Dpdk => "DPDK".into(),
            EngineKind::DpdkAppOffload(t) => format!("DPDK+app-offload({:.0}%)", t * 100.0),
            EngineKind::WireCap(wc) => wc.name(),
        }
    }
}

/// Everything an experiment run measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Engine display name.
    pub engine: String,
    /// Per-queue accounting.
    pub per_queue: Vec<DropStats>,
    /// Aggregate accounting.
    pub total: DropStats,
    /// Packet-byte copies on the capture path.
    pub copies: CopyMeter,
    /// Capture-to-delivery latency samples (engines that meter them).
    pub latency: sim::stats::LatencyStats,
    /// Simulated time at which the engine drained, seconds.
    pub drained_at_s: f64,
    /// Full unified telemetry snapshot (per-queue counters, gauges and
    /// histograms in the schema every engine shares).
    pub telemetry: EngineSnapshot,
}

impl ExperimentResult {
    /// Overall drop rate — the paper's headline metric.
    pub fn drop_rate(&self) -> f64 {
        self.total.overall_drop_rate()
    }
}

/// Arrivals pulled from the traffic source per batch.
const ARRIVAL_BATCH: usize = 256;

/// A published snapshot cell: the simulation loop refreshes it at
/// wall-clock intervals and the scrape endpoint reads it from its own
/// threads. Simulated engines are single-threaded, so this is how their
/// state becomes observable live — the live engine's counters are
/// shared directly instead.
struct SnapshotCell(Mutex<EngineSnapshot>);

impl Observable for SnapshotCell {
    fn snapshot(&self) -> EngineSnapshot {
        self.0.lock().expect("snapshot cell poisoned").clone()
    }
}

/// Telemetry attachment for one harness run, driven by the same env
/// variable the live engine reads (`WIRECAP_TELEMETRY_LISTEN`). It
/// exists only while an endpoint is serving, so a run without one
/// refreshes no snapshot cell.
struct HarnessTelemetry {
    cell: Arc<SnapshotCell>,
    server: ScrapeServer,
    refreshed: std::time::Instant,
}

impl HarnessTelemetry {
    /// Publish interval for the snapshot cell; finer granularity would
    /// only burn simulation throughput on clones nobody scrapes.
    const REFRESH: std::time::Duration = std::time::Duration::from_millis(10);

    fn start_from_env(engine: &dyn CaptureEngine) -> Option<Self> {
        let cell = Arc::new(SnapshotCell(Mutex::new(engine.snapshot())));
        let server =
            ScrapeServer::from_env(&engine.name(), Arc::clone(&cell) as Arc<dyn Observable>)?;
        Some(HarnessTelemetry {
            cell,
            server,
            refreshed: std::time::Instant::now(),
        })
    }

    /// Refreshes the published snapshot, rate-limited to [`Self::REFRESH`].
    fn maybe_refresh(&mut self, engine: &dyn CaptureEngine) {
        if self.refreshed.elapsed() >= Self::REFRESH {
            self.publish(engine.snapshot());
        }
    }

    fn publish(&mut self, snap: EngineSnapshot) {
        *self.cell.0.lock().expect("snapshot cell poisoned") = snap;
        self.refreshed = std::time::Instant::now();
    }

    fn finish(mut self, snap: EngineSnapshot) {
        self.publish(snap);
        self.server.stop();
    }
}

/// Runs a workload through RSS steering into an engine and returns the
/// measurements. Arrival timestamps must be non-decreasing.
pub fn run_experiment(
    engine: &mut dyn CaptureEngine,
    source: &mut dyn TrafficSource,
) -> ExperimentResult {
    let queues = engine.queues();
    let rss = Rss::new(queues);
    // Per-flow steering decisions are cached: the hash depends only on
    // the 5-tuple (this is exactly why RSS skews — every packet of a
    // flow lands on the same queue).
    let steering: Vec<usize> = source.flows().iter().map(|f| rss.steer(f)).collect();

    // Live observability rides along when the telemetry env asks for it
    // (a scrape endpoint over a periodically published snapshot).
    let mut live_view = HarnessTelemetry::start_from_env(engine);

    // Arrivals are pulled in batches (sources backed by contiguous
    // records emit whole slices per call) and fed to the engine.
    let mut last = SimTime::ZERO;
    let mut debug_prev = 0u64;
    let mut batch: Vec<traffic::Arrival> = Vec::with_capacity(ARRIVAL_BATCH);
    loop {
        batch.clear();
        if source.next_batch(&mut batch, ARRIVAL_BATCH) == 0 {
            break;
        }
        for a in &batch {
            debug_assert!(a.ts_ns >= debug_prev, "arrivals must be time-ordered");
            debug_prev = a.ts_ns;
            last = SimTime(a.ts_ns);
            engine.on_arrival(last, steering[a.flow as usize], a.len);
        }
        if let Some(view) = live_view.as_mut() {
            view.maybe_refresh(engine);
        }
    }
    let drained = engine.finish(last);

    let snapshot = engine.snapshot();
    if let Some(view) = live_view.take() {
        view.finish(snapshot.clone());
    }
    let per_queue: Vec<DropStats> = snapshot.queues.iter().map(DropStats::from).collect();
    let mut total = DropStats::default();
    for s in &per_queue {
        debug_assert!(s.is_consistent(), "inconsistent stats: {s:?}");
        total.merge(s);
    }
    ExperimentResult {
        engine: engine.name(),
        per_queue,
        total,
        copies: snapshot.copies,
        latency: snapshot.latency.clone(),
        drained_at_s: drained.as_secs_f64(),
        telemetry: snapshot,
    }
}

/// Convenience: build an engine, run the workload, return the result.
pub fn run(
    kind: EngineKind,
    queues: usize,
    cfg: EngineConfig,
    source: &mut dyn TrafficSource,
) -> ExperimentResult {
    let mut engine = kind.build(queues, cfg);
    run_experiment(engine.as_mut(), source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::WireRateGen;

    #[test]
    fn wirecap_vs_dna_on_the_paper_burst() {
        // Fig. 9's qualitative claim at P = 20 000 with x = 300: DNA
        // drops most of the burst, WireCAP-B-(256,100) none of it.
        let cfg = EngineConfig::paper(300);
        let mut g = WireRateGen::paper_burst(20_000);
        let dna = run(EngineKind::Dna, 1, cfg, &mut g);
        let mut g = WireRateGen::paper_burst(20_000);
        let wc = run(
            EngineKind::WireCap(WireCapConfig::basic(256, 100, 300)),
            1,
            cfg,
            &mut g,
        );
        assert!(dna.drop_rate() > 0.8, "dna = {}", dna.drop_rate());
        assert_eq!(wc.total.capture_drops, 0, "wirecap = {:?}", wc.total);
        // The only copies are the timeout-delivered trailing partial
        // chunk (20 000 mod 256 = 32 packets).
        assert!(wc.copies.packets < 256, "copies = {:?}", wc.copies);
    }

    #[test]
    fn engine_names_round_trip() {
        assert_eq!(EngineKind::Dna.name(), "DNA");
        assert_eq!(
            EngineKind::WireCap(WireCapConfig::advanced(256, 100, 0.6, 300)).name(),
            "WireCAP-A-(256, 100, 60%)"
        );
    }

    #[test]
    fn multi_queue_steering_spreads_flows() {
        let cfg = EngineConfig::paper(0);
        let mut g = WireRateGen::new(10_000, 64, 1e6, 64);
        let res = run(EngineKind::Dna, 4, cfg, &mut g);
        let active = res.per_queue.iter().filter(|q| q.offered > 0).count();
        assert!(active >= 3, "only {active} queues saw traffic");
        assert_eq!(res.total.offered, 10_000);
        assert_eq!(res.drop_rate(), 0.0);
    }

    #[test]
    fn result_serializes() {
        let cfg = EngineConfig::paper(0);
        let mut g = WireRateGen::paper_burst(1_000);
        let res = run(EngineKind::Netmap, 1, cfg, &mut g);
        let json = serde_json::to_string(&res).unwrap();
        let back: ExperimentResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.total, res.total);
    }
}
