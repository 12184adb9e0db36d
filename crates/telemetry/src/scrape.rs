//! The scrape endpoint: a dependency-free HTTP server for live
//! telemetry.
//!
//! Serves a running engine without stopping it:
//!
//! * `GET /metrics` — Prometheus text exposition
//!   ([`crate::EngineSnapshot::to_prometheus`]);
//! * `GET /snapshot.json` — the unified snapshot JSON;
//! * `GET /trace.json` — the completed-span ring plus worker
//!   time-state totals as Chrome trace-event JSON, loadable directly
//!   in `chrome://tracing` / Perfetto (an empty event array when span
//!   tracing is off);
//! * `GET /healthz` — liveness probe.
//!
//! Built on nothing but `std::net::TcpListener`: one acceptor thread,
//! non-blocking accept with a short sleep so shutdown is prompt, one
//! snapshot per request. Accepted connections go through a bounded
//! queue to a **fixed pool** of worker threads ([`WORKER_THREADS`] of
//! them), so a stalled or slow client only ties up one worker — never
//! the accept loop — and a burst of N clients costs N queue slots, not
//! N thread spawns. When the queue is full the connection is dropped
//! and counted ([`ScrapeServer::rejected`]): shedding scrapes is
//! always preferable to unbounded thread growth next to a capture hot
//! path. Scrapes are reader-side only — the hot path never notices
//! them. This is deliberately *not* a general HTTP server: requests
//! beyond a line + headers are ignored, keep-alive is not offered, and
//! responses close the connection.
//!
//! Observation is pull-only: the endpoint takes a snapshot when a
//! client asks for one, and nothing samples on a timer. A scraper that
//! wants rates computes them from two `/metrics` readings.
//!
//! [`ScrapeServer::from_env`] is how engines and harnesses attach it:
//! `WIRECAP_TELEMETRY_LISTEN` names the bind address (e.g.
//! `127.0.0.1:9184`; port `0` for ephemeral). Unset or empty: no
//! endpoint and no thread.

use crate::snapshot::EngineSnapshot;
use crate::spans::SpanRecord;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A telemetry-observable engine: anything that can produce the
/// unified snapshot (and, optionally, its completed-span ring) on
/// demand, from any thread.
pub trait Observable: Send + Sync {
    /// A full point-in-time snapshot.
    fn snapshot(&self) -> EngineSnapshot;

    /// The retained completed-span ring (sampled chunk lifecycles),
    /// oldest first. Engines without span tracing (or with
    /// `span_sample_n == 0`) return an empty vector.
    fn spans(&self) -> Vec<SpanRecord> {
        Vec::new()
    }
}

/// Fixed number of connection-serving worker threads. Sized so a
/// handful of stalled clients (each parked inside its 500 ms read
/// timeout) still leaves free workers for a liveness probe.
pub const WORKER_THREADS: usize = 6;

/// Accepted connections waiting for a worker. Beyond this the acceptor
/// sheds new connections instead of queueing them.
const CONN_QUEUE_LIMIT: usize = 128;

/// The acceptor→worker handoff: a bounded FIFO of accepted streams.
struct ConnQueue {
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
}

/// A running scrape endpoint. Dropping (or [`ScrapeServer::stop`])
/// shuts the acceptor and worker pool down and joins them.
pub struct ScrapeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    served: Arc<AtomicU64>,
    rejected: Arc<AtomicU64>,
    peak_active: Arc<AtomicU64>,
    conns: Arc<ConnQueue>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ScrapeServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScrapeServer")
            .field("addr", &self.addr)
            .field("served", &self.served.load(Ordering::Relaxed))
            .field("rejected", &self.rejected.load(Ordering::Relaxed))
            .finish()
    }
}

impl ScrapeServer {
    /// Serves `observer` on `WIRECAP_TELEMETRY_LISTEN` when it is set
    /// and non-empty. `None` — and no thread started — when it is
    /// unset, the common case, or when the bind fails (logged).
    pub fn from_env(engine: &str, observer: Arc<dyn Observable>) -> Option<ScrapeServer> {
        let addr = std::env::var("WIRECAP_TELEMETRY_LISTEN")
            .ok()
            .filter(|s| !s.is_empty())?;
        match ScrapeServer::bind(&addr, observer) {
            Ok(s) => {
                eprintln!(
                    "wirecap telemetry: {engine}: serving http://{}/metrics",
                    s.addr()
                );
                Some(s)
            }
            Err(e) => {
                eprintln!("wirecap telemetry: {engine}: binding {addr}: {e}");
                None
            }
        }
    }

    /// Binds `addr` (e.g. `127.0.0.1:9184`; port `0` picks an
    /// ephemeral port — read it back with [`ScrapeServer::addr`]) and
    /// starts serving `observer`.
    pub fn bind(addr: &str, observer: Arc<dyn Observable>) -> std::io::Result<ScrapeServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let rejected = Arc::new(AtomicU64::new(0));
        let peak_active = Arc::new(AtomicU64::new(0));
        let active = Arc::new(AtomicU64::new(0));
        let conns = Arc::new(ConnQueue {
            queue: Mutex::new(VecDeque::with_capacity(CONN_QUEUE_LIMIT)),
            available: Condvar::new(),
        });
        let mut threads = Vec::with_capacity(WORKER_THREADS + 1);

        // The fixed worker pool: each thread loops pop → serve. The
        // pool size never changes, no matter how many clients connect.
        for w in 0..WORKER_THREADS {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let observer = Arc::clone(&observer);
            let served = Arc::clone(&served);
            let active = Arc::clone(&active);
            let peak_active = Arc::clone(&peak_active);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("wirecap-scrape-{w}"))
                    .spawn(move || loop {
                        let stream = {
                            let mut q = conns.queue.lock().expect("scrape queue poisoned");
                            loop {
                                if stop.load(Ordering::Relaxed) {
                                    return;
                                }
                                if let Some(s) = q.pop_front() {
                                    break s;
                                }
                                // Timeout-bounded wait so a missed
                                // notification can never strand the
                                // worker past shutdown.
                                let (guard, _) = conns
                                    .available
                                    .wait_timeout(q, Duration::from_millis(50))
                                    .expect("scrape queue poisoned");
                                q = guard;
                            }
                        };
                        let now = active.fetch_add(1, Ordering::Relaxed) + 1;
                        peak_active.fetch_max(now, Ordering::Relaxed);
                        if serve_one(stream, observer.as_ref()).is_ok() {
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                        active.fetch_sub(1, Ordering::Relaxed);
                    })
                    .expect("spawning scrape worker thread"),
            );
        }

        let stop_flag = Arc::clone(&stop);
        let conns_in = Arc::clone(&conns);
        let rejected_ctr = Arc::clone(&rejected);
        threads.push(
            std::thread::Builder::new()
                .name("wirecap-scrape".into())
                .spawn(move || {
                    while !stop_flag.load(Ordering::Relaxed) {
                        match listener.accept() {
                            Ok((stream, _peer)) => {
                                let mut q = conns_in.queue.lock().expect("scrape queue poisoned");
                                if q.len() >= CONN_QUEUE_LIMIT {
                                    // Shed: dropping the stream resets
                                    // the connection. Better a failed
                                    // scrape than unbounded backlog.
                                    rejected_ctr.fetch_add(1, Ordering::Relaxed);
                                } else {
                                    q.push_back(stream);
                                    conns_in.available.notify_one();
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(5));
                            }
                            Err(e) => {
                                eprintln!("wirecap telemetry: scrape accept: {e}");
                                std::thread::sleep(Duration::from_millis(50));
                            }
                        }
                    }
                })
                .expect("spawning scrape thread"),
        );
        Ok(ScrapeServer {
            addr,
            stop,
            served,
            rejected,
            peak_active,
            conns,
            threads,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests answered so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Connections shed because the bounded queue was full.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Size of the fixed worker pool — the hard cap on threads serving
    /// connections, regardless of client count.
    pub fn worker_threads(&self) -> usize {
        WORKER_THREADS
    }

    /// High-water mark of connections being served at once. Can never
    /// exceed [`ScrapeServer::worker_threads`].
    pub fn peak_active(&self) -> u64 {
        self.peak_active.load(Ordering::Relaxed)
    }

    /// Stops and joins the acceptor and worker threads (idempotent).
    /// An in-flight request finishes on its own worker first, bounded
    /// by the per-connection timeouts; queued-but-unserved connections
    /// are dropped.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.conns.available.notify_all();
        for t in self.threads.drain(..) {
            // A panicking thread must not take the engine down with it
            // from Drop — log and move on.
            if t.join().is_err() {
                eprintln!("wirecap telemetry: scrape thread panicked");
            }
        }
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Reads one request, routes it, writes one response, closes.
fn serve_one(mut stream: TcpStream, observer: &dyn Observable) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let path = match read_request_path(&mut stream) {
        Some(p) => p,
        None => {
            write_response(&mut stream, 400, "text/plain", "bad request\n")?;
            return Ok(());
        }
    };
    match path.as_str() {
        "/metrics" => {
            let body = observer.snapshot().to_prometheus();
            write_response(&mut stream, 200, "text/plain; version=0.0.4", &body)
        }
        "/snapshot.json" => {
            let body = observer.snapshot().to_json() + "\n";
            write_response(&mut stream, 200, "application/json", &body)
        }
        "/trace.json" => {
            // Always a well-formed Chrome trace-event array — empty
            // (metadata-only) when span tracing is off — so tooling can
            // probe the route without knowing the engine's config.
            let snap = observer.snapshot();
            let body = crate::spans::chrome_trace_json(&observer.spans(), &snap.workers) + "\n";
            write_response(&mut stream, 200, "application/json", &body)
        }
        "/healthz" => write_response(&mut stream, 200, "text/plain", "ok\n"),
        _ => write_response(&mut stream, 404, "text/plain", "not found\n"),
    }
}

/// Parses the request line (`GET <path> HTTP/1.x`) from the stream.
/// Reads until the header terminator or 4 KiB, whichever comes first.
fn read_request_path(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= 4096 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&buf);
    let line = text.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    if method != "GET" {
        return None;
    }
    // Strip any query string; routes take no parameters.
    Some(path.split('?').next().unwrap_or(path).to_string())
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        _ => "Not Found",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{EngineSnapshot, QueueTelemetry};

    struct Fixed;

    impl Observable for Fixed {
        fn snapshot(&self) -> EngineSnapshot {
            let mut q = QueueTelemetry::empty(0);
            q.captured_packets = 42;
            EngineSnapshot {
                engine: "scrape-test".into(),
                tuning: None,
                queues: vec![q],
                workers: Vec::new(),
                copies: sim::stats::CopyMeter::default(),
                latency: sim::stats::LatencyStats::new(),
            }
        }
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut body = String::new();
        s.read_to_string(&mut body).unwrap();
        let status: u16 = body
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let payload = body
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, payload)
    }

    #[test]
    fn serves_metrics_snapshot_and_404() {
        let mut server = ScrapeServer::bind("127.0.0.1:0", Arc::new(Fixed)).unwrap();
        let addr = server.addr();
        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(metrics
            .contains("wirecap_captured_packets_total{engine=\"scrape-test\",queue=\"0\"} 42"));
        let (status, snap) = get(addr, "/snapshot.json");
        assert_eq!(status, 200);
        let parsed: EngineSnapshot = serde_json::from_str(&snap).unwrap();
        assert_eq!(parsed.engine, "scrape-test");
        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);
        let (status, trace) = get(addr, "/trace.json");
        assert_eq!(status, 200);
        let parsed: serde::Value = serde_json::from_str(trace.trim()).unwrap();
        match parsed {
            serde::Value::Arr(evs) => {
                for e in &evs {
                    for key in ["ph", "ts", "pid", "tid"] {
                        assert!(e.field(key).is_some(), "missing {key}: {e:?}");
                    }
                }
            }
            other => panic!("trace.json must be an array, got {other:?}"),
        }
        let (status, ok) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(ok, "ok\n");
        assert!(server.served() >= 5);
        server.stop();
    }

    #[test]
    fn slow_client_does_not_delay_healthz() {
        let mut server = ScrapeServer::bind("127.0.0.1:0", Arc::new(Fixed)).unwrap();
        let addr = server.addr();
        // A deliberately slow client: connects, sends nothing, and
        // holds the connection open. Before per-connection workers,
        // this parked the single accept loop inside serve_one's 500 ms
        // read timeout and every other request queued behind it.
        let stalled: Vec<TcpStream> = (0..4).map(|_| TcpStream::connect(addr).unwrap()).collect();
        // Give the acceptor a beat to accept the stalled connections
        // so they are genuinely in-flight, not still in the backlog.
        std::thread::sleep(Duration::from_millis(30));
        let t0 = std::time::Instant::now();
        let (status, ok) = get(addr, "/healthz");
        let elapsed = t0.elapsed();
        assert_eq!(status, 200);
        assert_eq!(ok, "ok\n");
        assert!(
            elapsed < Duration::from_millis(50),
            "healthz took {elapsed:?} behind stalled clients"
        );
        drop(stalled);
        server.stop();
    }

    #[test]
    fn client_burst_is_bounded_by_the_worker_pool() {
        // 64 simultaneous clients must not mean 64 serving threads:
        // the fixed pool serves them from the bounded queue, and the
        // high-water mark of concurrent serving can never exceed the
        // pool size.
        let mut server = ScrapeServer::bind("127.0.0.1:0", Arc::new(Fixed)).unwrap();
        let addr = server.addr();
        let clients: Vec<_> = (0..64)
            .map(|_| std::thread::spawn(move || get(addr, "/healthz")))
            .collect();
        for c in clients {
            let (status, body) = c.join().unwrap();
            assert_eq!(status, 200);
            assert_eq!(body, "ok\n");
        }
        assert_eq!(server.worker_threads(), WORKER_THREADS);
        assert!(
            server.peak_active() <= WORKER_THREADS as u64,
            "{} connections served concurrently with a {WORKER_THREADS}-thread pool",
            server.peak_active()
        );
        // A client unblocks when `serve_one` finishes writing its
        // response, just before the worker bumps `served` — so the last
        // increments can still be in flight when the joins above
        // return. Give the counters a bounded beat to settle.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while server.served() < 64 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(server.served(), 64);
        assert_eq!(server.rejected(), 0, "the queue holds a 64-client burst");
        server.stop();
    }
}
