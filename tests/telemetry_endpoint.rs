//! Tier-1 smoke: the live scrape endpoint end to end.
//!
//! A real (threaded) engine run with `WIRECAP_TELEMETRY_LISTEN` set to
//! an ephemeral port, scraped over a plain [`TcpStream`] while traffic
//! flows: `/metrics` must render valid Prometheus text exposition and
//! `/snapshot.json` the unified snapshot schema, both carrying the
//! run's real counters. Observation is pull-only: with no telemetry env
//! an engine starts its capture threads and nothing else.
//!
//! The engine reads its telemetry configuration from the environment at
//! start, so the env-touching tests serialize on one lock (integration
//! tests in this binary share a process).

use netproto::{FlowKey, PacketBuilder};
use nicsim::livenic::LiveNic;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use wirecap::buddy::BuddyGroups;
use wirecap::live::LiveWireCap;
use wirecap::NicSimBackend;
use wirecap::WireCapConfig;

/// Serializes tests that mutate the `WIRECAP_TELEMETRY_LISTEN` environment
/// (and so also the engines whose threads one test counts).
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Scoped environment override: sets on construction, restores on drop
/// (even on panic), so one test's env never leaks into another's.
struct EnvGuard {
    key: &'static str,
    prior: Option<std::ffi::OsString>,
}

impl EnvGuard {
    fn set(key: &'static str, value: &str) -> Self {
        let prior = std::env::var_os(key);
        std::env::set_var(key, value);
        EnvGuard { key, prior }
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        match self.prior.take() {
            Some(v) => std::env::set_var(self.key, v),
            None => std::env::remove_var(self.key),
        }
    }
}

fn inject_flows(nic: &Arc<LiveNic>, n: u16) {
    let mut b = PacketBuilder::new();
    for i in 0..n {
        let flow = FlowKey::udp(
            Ipv4Addr::new(131, 225, 2, (i % 200) as u8 + 1),
            9_000 + i,
            Ipv4Addr::new(10, 0, 0, 1),
            443,
        );
        let pkt = b.build_packet(u64::from(i), &flow, 128).unwrap();
        nic.inject(pkt).unwrap();
    }
}

/// One HTTP/1.1 GET over a fresh connection; returns (status line, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connecting to scrape endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("reading reply");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("headers/body separator");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

#[test]
fn scrape_endpoint_serves_a_live_run() {
    let _env = ENV_LOCK.lock().unwrap();
    let _listen = EnvGuard::set("WIRECAP_TELEMETRY_LISTEN", "127.0.0.1:0");

    let nic = LiveNic::new(1, 4096);
    let mut cfg = WireCapConfig::basic(64, 32, 0);
    cfg.capture_timeout_ns = 1_500_000;
    let engine = LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(&nic)))
        .config(cfg)
        .groups(BuddyGroups::isolated(1))
        .start();
    let addr = engine
        .telemetry_addr()
        .expect("WIRECAP_TELEMETRY_LISTEN was set");

    let consumer = {
        let mut c = engine.consumer(0);
        std::thread::spawn(move || {
            let mut n = 0u64;
            while let Some(chunk) = c.next_chunk() {
                n += chunk.len() as u64;
                c.recycle(chunk);
            }
            n
        })
    };
    inject_flows(&nic, 4_000);

    // Scrape mid-run: both documents must be well-formed whenever they
    // are fetched, not only at shutdown.
    let (status, _) = http_get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");

    nic.stop();
    let consumed = consumer.join().unwrap();
    assert_eq!(consumed, 4_000, "endpoint must not perturb capture");

    // Post-drain scrape: the counters now cover the whole run.
    let (status, prom) = http_get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    // Prometheus text exposition: every exposed family carries # HELP /
    // # TYPE headers and per-queue sample lines.
    for family in [
        "wirecap_captured_packets_total",
        "wirecap_delivered_packets_total",
        "wirecap_capture_queue_watermark",
        "wirecap_latency_ns",
    ] {
        assert!(
            prom.contains(&format!("# TYPE {family} ")),
            "{family}:\n{prom}"
        );
    }
    assert!(
        prom.lines()
            .any(|l| l.starts_with("wirecap_captured_packets_total{") && l.ends_with("} 4000")),
        "whole-run counter:\n{prom}"
    );
    assert!(
        prom.contains("wirecap_latency_ns_bucket{"),
        "latency histogram exposed per queue:\n{prom}"
    );

    let (status, body) = http_get(addr, "/snapshot.json");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let snap: telemetry::EngineSnapshot =
        serde_json::from_str(&body).expect("snapshot.json parses into the schema");
    let total = snap.total();
    assert_eq!(total.captured_packets, 4_000);
    assert_eq!(total.delivered_packets, 4_000);
    assert!(
        total.latency_ns.count > 0,
        "latency histogram populated by the run"
    );

    let (status, _) = http_get(addr, "/nope");
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    engine.shutdown();
    // The endpoint dies with the engine.
    assert!(TcpStream::connect(addr).is_err(), "endpoint must stop");
}

#[test]
fn trace_json_serves_chrome_trace_events_from_a_live_run() {
    let _env = ENV_LOCK.lock().unwrap();
    let _listen = EnvGuard::set("WIRECAP_TELEMETRY_LISTEN", "127.0.0.1:0");

    let nic = LiveNic::new(1, 4096);
    let cfg = WireCapConfig::builder()
        .cells(64)
        .chunks(32)
        .capture_timeout_ns(1_500_000)
        .span_sample_n(1) // trace every chunk
        .build()
        .unwrap();
    let engine = LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(&nic)))
        .config(cfg)
        .groups(BuddyGroups::isolated(1))
        .start();
    let addr = engine.telemetry_addr().expect("endpoint requested");

    let consumer = {
        let mut c = engine.consumer(0);
        std::thread::spawn(move || {
            let mut n = 0u64;
            while let Some(chunk) = c.next_chunk() {
                n += chunk.len() as u64;
                c.recycle(chunk);
            }
            n
        })
    };
    inject_flows(&nic, 2_000);
    nic.stop();
    assert_eq!(consumer.join().unwrap(), 2_000);

    let (status, trace) = http_get(addr, "/trace.json");
    assert_eq!(status, "HTTP/1.1 200 OK");
    // Chrome trace-event JSON: an array of objects, every one carrying
    // ph/ts/pid/tid — the contract chrome://tracing / Perfetto loads.
    let parsed: serde::Value = serde_json::from_str(trace.trim()).expect("trace.json parses");
    let events = match parsed {
        serde::Value::Arr(evs) => evs,
        other => panic!("trace.json must be an array, got {other:?}"),
    };
    let mut complete_events = 0usize;
    for e in &events {
        for key in ["ph", "ts", "pid", "tid"] {
            assert!(e.field(key).is_some(), "missing {key}: {e:?}");
        }
        if matches!(e.field("ph"), Some(serde::Value::Str(ph)) if ph == "X") {
            complete_events += 1;
            assert!(e.field("dur").is_some(), "complete event without dur");
        }
    }
    assert!(
        complete_events > 0,
        "a fully sampled run must emit span events; got {} events",
        events.len()
    );

    // The snapshot decomposes the same run per stage.
    let (status, body) = http_get(addr, "/snapshot.json");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let snap: telemetry::EngineSnapshot = serde_json::from_str(&body).unwrap();
    let total = snap.total();
    assert!(
        total.stage_deliver_ns.count > 0,
        "per-stage histograms populated when span tracing is on"
    );
    assert_eq!(
        total.latency_ns.count, total.stage_deliver_ns.count,
        "sample_n = 1 stages every latency sample"
    );

    // Leave the scraped document where scripts/check.sh validates it
    // with an external JSON parser.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/check-trace.json");
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(&out, &trace).ok();

    engine.shutdown();
}

#[test]
fn sampler_escape_hatch_still_captures_and_serves() {
    // An endpoint-only engine end to end: nothing samples in the
    // background, yet every route a scraper reads serves the run.
    let _env = ENV_LOCK.lock().unwrap();
    let _listen = EnvGuard::set("WIRECAP_TELEMETRY_LISTEN", "127.0.0.1:0");

    let nic = LiveNic::new(1, 4096);
    let mut cfg = WireCapConfig::basic(64, 32, 0);
    cfg.capture_timeout_ns = 1_500_000;
    let engine = LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(&nic)))
        .config(cfg)
        .groups(BuddyGroups::isolated(1))
        .start();
    let addr = engine.telemetry_addr().expect("endpoint requested");

    let consumer = {
        let mut c = engine.consumer(0);
        std::thread::spawn(move || {
            let mut n = 0u64;
            while let Some(chunk) = c.next_chunk() {
                n += chunk.len() as u64;
                c.recycle(chunk);
            }
            n
        })
    };
    inject_flows(&nic, 1_000);
    nic.stop();
    assert_eq!(consumer.join().unwrap(), 1_000, "endpoint on, capture on");

    // Pulled on demand: two scrapes, and the counters they read are the
    // run's, so a scraper can difference them into rates itself.
    let (status, prom) = http_get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(
        prom.lines()
            .any(|l| l.starts_with("wirecap_delivered_packets_total{") && l.ends_with("} 1000")),
        "whole-run counter:\n{prom}"
    );
    let (status, body) = http_get(addr, "/snapshot.json");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let snap: telemetry::EngineSnapshot = serde_json::from_str(&body).unwrap();
    assert_eq!(snap.total().captured_packets, 1_000);
    assert_eq!(snap.total().delivered_packets, 1_000);
    let (status, _) = http_get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");

    engine.shutdown();
}

/// The names (`comm`, truncated by the kernel to 15 bytes) of every
/// thread of this process.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("reading /proc/self/task")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|c| c.trim_end().to_string())
        .collect()
}

#[test]
fn no_telemetry_env_means_no_endpoint() {
    let _env = ENV_LOCK.lock().unwrap();
    let _listen = EnvGuard::set("WIRECAP_TELEMETRY_LISTEN", "");

    const QUEUES: usize = 2;
    let nic = LiveNic::new(QUEUES, 1024);
    let mut cfg = WireCapConfig::basic(64, 32, 0);
    cfg.capture_timeout_ns = 1_500_000;
    let engine = LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(&nic)))
        .config(cfg)
        .groups(BuddyGroups::isolated(QUEUES))
        .start();
    assert!(engine.telemetry_addr().is_none(), "inert env, no endpoint");

    // One capture thread per queue and nothing more: no sampler, no
    // scrape workers. Every other engine in this binary is started and
    // shut down under the same lock, so these are this engine's threads.
    // A new thread names itself once it runs, so wait for the names.
    let capturing = |names: &[String]| {
        names
            .iter()
            .filter(|n| n.starts_with("wirecap-capture"))
            .count()
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut names = thread_names();
    while capturing(&names) < QUEUES && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
        names = thread_names();
    }
    assert_eq!(capturing(&names), QUEUES, "threads: {names:?}");
    assert!(
        !names
            .iter()
            .any(|n| n == "wirecap-sampler" || n.starts_with("wirecap-scrape")),
        "threads: {names:?}"
    );
    nic.stop();
    engine.shutdown();
}
