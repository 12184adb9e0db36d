//! The periodic telemetry sampler thread.
//!
//! One [`Sampler`] per observed engine: every
//! [`SamplerConfig::interval`] it takes an [`EngineSnapshot`] through
//! the engine's [`Observable`] handle, condenses it into a
//! [`SeriesSample`], pushes it into the fixed-capacity
//! [`TimeSeriesRing`], derives [`Rates`] for the new interval, and
//! feeds them to the [`AnomalyDetector`]. A fired anomaly freezes a
//! [`crate::flight::FlightRecord`] (time-series window + rates +
//! event-tracer ring + full snapshot) to disk.
//!
//! Everything the sampler does is reader-side: engines pay nothing for
//! being observed beyond the relaxed counter loads a snapshot already
//! costs.

use crate::anomaly::{AnomalyConfig, AnomalyDetector};
use crate::clock;
use crate::flight::{write_flight_record, FlightEvent, FlightRecord};
use crate::snapshot::EngineSnapshot;
use crate::spans::SpanRecord;
use crate::timeseries::{rates_between, Rates, SeriesSample, TimeSeriesRing};
use crate::trace::TraceEvent;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A telemetry-observable engine: anything that can produce the
/// unified snapshot (and, optionally, its event-tracer ring) on
/// demand, from any thread.
pub trait Observable: Send + Sync {
    /// A full point-in-time snapshot.
    fn snapshot(&self) -> EngineSnapshot;

    /// The retained event-tracer ring, oldest first. Engines without a
    /// tracer (or with it disabled) return an empty vector.
    fn trace_events(&self) -> Vec<TraceEvent> {
        Vec::new()
    }

    /// The retained completed-span ring (sampled chunk lifecycles),
    /// oldest first. Engines without span tracing (or with
    /// `span_sample_n == 0`) return an empty vector.
    fn spans(&self) -> Vec<SpanRecord> {
        Vec::new()
    }
}

/// Sampler configuration.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Sampling interval.
    pub interval: Duration,
    /// Time-series ring capacity (samples retained).
    pub capacity: usize,
    /// Anomaly thresholds; `None` disables detection entirely.
    pub anomaly: Option<AnomalyConfig>,
    /// Where flight records are written; `None` counts anomalies but
    /// writes nothing.
    pub flight_dir: Option<PathBuf>,
    /// Samples included in a flight record's series window.
    pub flight_window: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            interval: Duration::from_millis(100),
            capacity: 600,
            anomaly: Some(AnomalyConfig::default()),
            flight_dir: None,
            flight_window: 64,
        }
    }
}

/// State shared between the sampler thread and readers (scrape
/// endpoint, tests, the engine's own accessors).
#[derive(Debug)]
pub struct SamplerCore {
    ring: Mutex<TimeSeriesRing>,
    samples: AtomicU64,
    anomalies: AtomicU64,
    flights: Mutex<Vec<PathBuf>>,
}

impl SamplerCore {
    fn new(capacity: usize) -> Self {
        SamplerCore {
            ring: Mutex::new(TimeSeriesRing::with_capacity(capacity)),
            samples: AtomicU64::new(0),
            anomalies: AtomicU64::new(0),
            flights: Mutex::new(Vec::new()),
        }
    }

    /// The retained samples, oldest first.
    pub fn series(&self) -> Vec<SeriesSample> {
        self.ring.lock().expect("sampler ring poisoned").window()
    }

    /// Rates over every retained consecutive sample pair.
    pub fn rates(&self) -> Vec<Rates> {
        self.ring.lock().expect("sampler ring poisoned").rates()
    }

    /// Rates over the most recent interval.
    pub fn last_rates(&self) -> Option<Rates> {
        self.ring
            .lock()
            .expect("sampler ring poisoned")
            .last_rates()
    }

    /// Samples taken so far.
    pub fn samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    /// Anomalies fired so far (episodes, not violating samples).
    pub fn anomalies(&self) -> u64 {
        self.anomalies.load(Ordering::Relaxed)
    }

    /// Flight-record files written so far.
    pub fn flight_records(&self) -> Vec<PathBuf> {
        self.flights.lock().expect("flight list poisoned").clone()
    }
}

/// The per-tick sampling logic, separated from the thread so tests
/// (and single-threaded harnesses) can drive it synchronously.
pub struct SamplerState {
    observer: Arc<dyn Observable>,
    cfg: SamplerConfig,
    core: Arc<SamplerCore>,
    detector: Option<AnomalyDetector>,
}

impl SamplerState {
    /// Creates sampler state over `observer`.
    pub fn new(observer: Arc<dyn Observable>, cfg: SamplerConfig) -> Self {
        clock::init();
        let core = Arc::new(SamplerCore::new(cfg.capacity));
        SamplerState {
            detector: cfg.anomaly.map(AnomalyDetector::new),
            observer,
            cfg,
            core,
        }
    }

    /// The shared reader-side state.
    pub fn core(&self) -> Arc<SamplerCore> {
        Arc::clone(&self.core)
    }

    /// Takes one sample: snapshot → series push → rates → anomaly
    /// check → flight record. Called from the sampler thread every
    /// interval, or directly by tests.
    pub fn tick(&mut self) {
        let snap = self.observer.snapshot();
        let ts_ns = clock::mono_ns();
        let sample = SeriesSample::from_snapshot(ts_ns, &snap);
        let rates = {
            let mut ring = self.core.ring.lock().expect("sampler ring poisoned");
            let prev = ring.latest().copied();
            ring.push(sample);
            prev.and_then(|p| rates_between(&p, &sample))
        };
        self.core.samples.fetch_add(1, Ordering::Relaxed);
        let (Some(det), Some(r)) = (self.detector.as_mut(), rates.as_ref()) else {
            return;
        };
        let Some(anomaly) = det.observe(r) else {
            return;
        };
        self.core.anomalies.fetch_add(1, Ordering::Relaxed);
        let Some(dir) = self.cfg.flight_dir.as_deref() else {
            return;
        };
        let series = {
            let ring = self.core.ring.lock().expect("sampler ring poisoned");
            ring.tail(self.cfg.flight_window)
        };
        let rates_window = series
            .windows(2)
            .filter_map(|p| rates_between(&p[0], &p[1]))
            .collect();
        let record = FlightRecord {
            engine: snap.engine.clone(),
            reason: anomaly.to_string(),
            triggered_ts_ns: ts_ns,
            series,
            rates: rates_window,
            events: self
                .observer
                .trace_events()
                .iter()
                .map(FlightEvent::from)
                .collect(),
            spans: self.observer.spans(),
            snapshot: snap,
        };
        match write_flight_record(dir, &record) {
            Ok(path) => {
                eprintln!(
                    "wirecap telemetry: anomaly ({}) — flight record {}",
                    record.reason,
                    path.display()
                );
                self.core
                    .flights
                    .lock()
                    .expect("flight list poisoned")
                    .push(path);
            }
            Err(e) => eprintln!("wirecap telemetry: writing flight record: {e}"),
        }
    }
}

/// Handle to a running sampler thread. Dropping (or calling
/// [`Sampler::stop`]) joins the thread.
pub struct Sampler {
    core: Arc<SamplerCore>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sampler")
            .field("samples", &self.core.samples())
            .field("anomalies", &self.core.anomalies())
            .finish()
    }
}

impl Sampler {
    /// Spawns the sampler thread over `observer`.
    pub fn start(observer: Arc<dyn Observable>, cfg: SamplerConfig) -> Self {
        let interval = cfg.interval.max(Duration::from_millis(1));
        let mut state = SamplerState::new(observer, cfg);
        let core = state.core();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("wirecap-sampler".into())
            .spawn(move || {
                let mut next = Instant::now() + interval;
                loop {
                    state.tick();
                    loop {
                        if stop_flag.load(Ordering::Relaxed) {
                            // Final tick so shutdown-adjacent counts are
                            // visible in the series.
                            state.tick();
                            return;
                        }
                        let now = Instant::now();
                        if now >= next {
                            break;
                        }
                        std::thread::sleep((next - now).min(Duration::from_millis(2)));
                    }
                    next = Instant::now().max(next + interval);
                }
            })
            .expect("spawning sampler thread");
        Sampler {
            core,
            stop,
            thread: Some(thread),
        }
    }

    /// The shared reader-side state (series, rates, counts).
    pub fn core(&self) -> Arc<SamplerCore> {
        Arc::clone(&self.core)
    }

    /// Stops and joins the sampler thread (idempotent).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.join().expect("sampler thread panicked");
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anomaly::AnomalyConfig;
    use crate::snapshot::QueueTelemetry;
    use std::sync::atomic::AtomicU64;

    /// A scripted engine: each snapshot advances counters by the
    /// configured step, with an optional drop step after a trigger
    /// point.
    struct FakeEngine {
        calls: AtomicU64,
        drop_from: u64,
    }

    impl Observable for FakeEngine {
        fn snapshot(&self) -> EngineSnapshot {
            let n = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
            let mut q = QueueTelemetry::empty(0);
            q.captured_packets = n * 1_000;
            q.delivered_packets = n * 1_000;
            if n >= self.drop_from {
                q.capture_drop_packets = (n - self.drop_from + 1) * 500;
            }
            EngineSnapshot {
                engine: "fake".into(),
                tuning: None,
                queues: vec![q],
                workers: Vec::new(),
                copies: sim::stats::CopyMeter::default(),
                latency: sim::stats::LatencyStats::new(),
            }
        }

        fn trace_events(&self) -> Vec<TraceEvent> {
            vec![TraceEvent {
                seq: 7,
                ts_ns: 1,
                queue: 0,
                kind: crate::trace::kind::CAPTURE,
                chunk: 3,
                target: 0,
                info: 64,
            }]
        }

        fn spans(&self) -> Vec<SpanRecord> {
            vec![SpanRecord {
                queue: 0,
                seq: 11,
                stage_deliver_ns: 500,
                ..Default::default()
            }]
        }
    }

    fn ticked_state(cfg: SamplerConfig, drop_from: u64, ticks: u32) -> SamplerState {
        let mut st = SamplerState::new(
            Arc::new(FakeEngine {
                calls: AtomicU64::new(0),
                drop_from,
            }),
            cfg,
        );
        for _ in 0..ticks {
            st.tick();
            // Distinct mono_ns timestamps between ticks.
            std::thread::sleep(Duration::from_millis(1));
        }
        st
    }

    #[test]
    fn sampler_builds_series_and_rates() {
        let cfg = SamplerConfig {
            anomaly: None,
            capacity: 8,
            ..Default::default()
        };
        let st = ticked_state(cfg, u64::MAX, 5);
        let core = st.core();
        assert_eq!(core.samples(), 5);
        assert_eq!(core.series().len(), 5);
        let rates = core.rates();
        assert_eq!(rates.len(), 4);
        for r in &rates {
            assert!(r.captured_pps > 0.0, "counters advanced every tick");
            assert_eq!(r.drop_rate, 0.0);
        }
    }

    #[test]
    fn anomaly_writes_exactly_one_flight_record() {
        let dir = std::env::temp_dir().join(format!("wirecap-sampler-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = SamplerConfig {
            anomaly: Some(AnomalyConfig {
                drop_rate_spike: Some(0.05),
                queue_depth_limit: None,
                offload_storm_cps: None,
                disk_drop_pps: None,
                tail_latency_ns: None,
                sustain_samples: 2,
                clear_samples: 2,
            }),
            flight_dir: Some(dir.clone()),
            flight_window: 16,
            ..Default::default()
        };
        // Drops start at snapshot 4 and persist: one sustained episode.
        let st = ticked_state(cfg, 4, 10);
        let core = st.core();
        assert_eq!(core.anomalies(), 1, "one episode, one anomaly");
        let records = core.flight_records();
        assert_eq!(records.len(), 1, "one episode, one file");
        let body = std::fs::read_to_string(&records[0]).unwrap();
        let record: FlightRecord = serde_json::from_str(&body).unwrap();
        assert!(
            record.reason.contains("drop-rate spike"),
            "{}",
            record.reason
        );
        assert!(!record.series.is_empty());
        assert!(!record.rates.is_empty());
        assert_eq!(record.events.len(), 1, "tracer ring frozen into record");
        assert_eq!(record.events[0].kind, "capture");
        assert_eq!(record.spans.len(), 1, "span ring frozen into record");
        assert_eq!(record.spans[0].seq, 11);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sampler_thread_runs_and_stops() {
        let mut sampler = Sampler::start(
            Arc::new(FakeEngine {
                calls: AtomicU64::new(0),
                drop_from: u64::MAX,
            }),
            SamplerConfig {
                interval: Duration::from_millis(2),
                anomaly: None,
                ..Default::default()
            },
        );
        let core = sampler.core();
        let deadline = Instant::now() + Duration::from_secs(5);
        while core.samples() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        sampler.stop();
        assert!(core.samples() >= 3, "sampler ticked while running");
        let after = core.samples();
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(core.samples(), after, "no ticks after stop");
    }
}
