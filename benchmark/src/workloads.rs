//! The five workloads: the real `LiveWireCap` on real threads, driven and
//! checked from outside through public functions only.
//!
//! | workload | source | delivery |
//! |---|---|---|
//! | `wire64`, `wire1518` | wire, 1 saturating queue | the driver thread is a null `LiveConsumer` |
//! | `paced300k` | `LiveNic` behind `NicSimBackend`, fed at 300 kpps by the driver | the same driver thread drains `try_chunk` |
//! | `pool_skew` | wire, q0 saturating + q1 at 100 kpps | `consumer_pool` of 2 workers, xor-fold handler |
//! | `buddy_skew` | same | buddy offload (T = 0.6) + one `LiveConsumer` thread per queue |
//!
//! Never more runnable harness threads than cores: the single-queue
//! workloads run capture thread + driver; the skew workloads run 2
//! capture + 2 delivery threads while the driver sleeps between round
//! boundaries.

use crate::check::{check_ledger, QueueCheck, SeqAcc, SeqMap};
use crate::frames::{FrameTable, Schedule};
use crate::hist::LatHist;
use crate::plan::{
    Plan, ATTACH_DELAY, MAX_ATTEMPTS, MAX_LATE_NS, PACED_PPS, PACED_RING_DEPTH, SKEW_COLD_PPS,
};
use crate::spans::{SpanBuf, SpanName};
use crate::sys;
use crate::wire::{WireMode, WireQueue, WireSource};
use netproto::Packet;
use nicsim::livenic::LiveNic;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use telemetry::clock::mono_ns;
use telemetry::{EngineSnapshot, SpanRecord};
use wirecap::buddy::BuddyGroups;
use wirecap::{
    BuddyGroup, CaptureBackend, ChunkView, ConsumerPool, LiveConsumer, LiveWireCap, NicSimBackend,
    PoolWorkerReport, WireCapConfig,
};

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Saturating 64 B frames, null consumer: per-packet engine cost.
    Wire64,
    /// Saturating 1518 B frames, null consumer: the arena copy.
    Wire1518,
    /// 300 kpps open loop through nicsim: latency when lightly loaded.
    Paced300k,
    /// Hot + cold queue, work-stealing consumer pool.
    PoolSkew,
    /// Hot + cold queue, buddy offload and per-queue consumers.
    BuddySkew,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::Wire64,
        Workload::Wire1518,
        Workload::Paced300k,
        Workload::PoolSkew,
        Workload::BuddySkew,
    ];

    /// The name used on the command line and in every result.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Wire64 => "wire64",
            Workload::Wire1518 => "wire1518",
            Workload::Paced300k => "paced300k",
            Workload::PoolSkew => "pool_skew",
            Workload::BuddySkew => "buddy_skew",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Frame length on the wire.
    pub fn frame_len(self) -> usize {
        match self {
            Workload::Wire64 => 64,
            Workload::Wire1518 => 1518,
            Workload::Paced300k | Workload::PoolSkew | Workload::BuddySkew => 128,
        }
    }

    /// Closed loop (saturating source) as opposed to the fixed schedule.
    pub fn closed_loop(self) -> bool {
        self != Workload::Paced300k
    }

    /// Whether engine and delivery threads are pinned to cores (see
    /// `config`).
    fn pinned(self) -> bool {
        matches!(self, Workload::PoolSkew | Workload::BuddySkew)
    }

    /// Cells per chunk (M) of the workload's configuration.
    pub fn m(self) -> usize {
        64
    }

    /// Every value not set here is the shipping default.
    fn config(self, traced: bool) -> WireCapConfig {
        let mut cfg = match self {
            Workload::Wire64 | Workload::Wire1518 | Workload::Paced300k => {
                WireCapConfig::basic(self.m(), 256, 0)
            }
            Workload::PoolSkew => WireCapConfig::basic(self.m(), 128, 0),
            Workload::BuddySkew => WireCapConfig::advanced(self.m(), 128, 0.6, 0),
        };
        if traced {
            cfg.span_sample_n = 1;
        }
        // The one departure from the shipping defaults: four busy threads
        // on two cores, left to the scheduler, settle per engine instance
        // into one of three placements (buddy_skew: 4.6, 6.0 or 8.0 Mpps,
        // steady within a run, 38 % apart between runs). Pinned, capture
        // thread q and delivery thread q share core q every time.
        cfg.pin_threads = self.pinned();
        cfg
    }
}

/// Four dependent passes over the payload: heavy enough that delivery,
/// not capture, bounds the skew workloads, and benchmark-owned so no
/// change to application crates can move those rows.
#[inline]
fn fold4(data: &[u8]) -> u64 {
    let mut acc = data.len() as u64;
    for pass in 1..=4u32 {
        for word in data.chunks_exact(8) {
            let w = u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
            acc = acc.rotate_left(pass) ^ w;
        }
    }
    acc
}

/// Where a home queue's packets come from: decides how `ts_ns` maps to a
/// sequence number and what a latency sample is measured from.
enum Origin {
    /// Saturating wire queue: latency runs from when the frame was lent.
    Lent(Arc<WireQueue>),
    /// Scheduled source: latency runs from when the packet was due.
    Due,
}

struct Home {
    check: QueueCheck,
    origin: Origin,
}

/// Everything one delivery thread keeps: the correctness checks, the
/// latency samples of the current round, and its counters.
pub struct Delivery {
    table: Arc<FrameTable>,
    homes: Vec<Home>,
    /// Packets handed to the handler.
    pub packets: u64,
    /// Chunks handed to the handler.
    pub chunks: u64,
    /// Latency samples since the driver last collected them.
    pub lat: LatHist,
    /// Time spent with nothing to deliver.
    pub idle_ns: u64,
    /// `try_chunk` calls, and how many returned nothing.
    pub calls: u64,
    /// Of `calls`, those that returned `None`.
    pub empty_calls: u64,
    /// Harness spans (traced runs only).
    pub spans: Option<SpanBuf>,
    sink: u64,
}

impl Delivery {
    fn new(table: &Arc<FrameTable>, source: &Source, tid: u64, traced: bool) -> Self {
        let homes = match source {
            Source::Wire(w) => (0..w.queue_count())
                .map(|q| {
                    let wq = w.wire_queue(q);
                    match wq.mode() {
                        WireMode::Saturating => Home {
                            check: QueueCheck::new(SeqMap::Direct),
                            origin: Origin::Lent(wq),
                        },
                        WireMode::Rate(s) => Home {
                            check: QueueCheck::new(SeqMap::Scheduled(s)),
                            origin: Origin::Due,
                        },
                    }
                })
                .collect(),
            Source::Nic { sched, .. } => vec![Home {
                check: QueueCheck::new(SeqMap::Scheduled(*sched)),
                origin: Origin::Due,
            }],
        };
        Delivery {
            table: Arc::clone(table),
            homes,
            packets: 0,
            chunks: 0,
            lat: LatHist::new(),
            idle_ns: 0,
            calls: 0,
            empty_calls: 0,
            spans: traced.then(|| SpanBuf::new(tid)),
            sink: 0,
        }
    }

    /// The handler: checks every packet, takes the latency samples, and
    /// does the workload's per-packet work (`HEAVY`: the xor-fold; else
    /// the null consumer's `wire_len` sum). `now` is when the chunk was
    /// handed over.
    #[inline]
    fn chunk<const HEAVY: bool>(&mut self, now: u64, home: usize, view: ChunkView<'_>) {
        let h = &mut self.homes[home];
        let n = view.len() as u64;
        let mut sink = 0u64;
        let mut work = |data: &[u8], wire_len: u32| {
            sink = sink.wrapping_add(if HEAVY {
                fold4(data)
            } else {
                u64::from(wire_len)
            });
        };
        match &h.origin {
            Origin::Lent(wq) => {
                let mut first = None;
                for p in view.iter() {
                    let seq = h.check.packet(&self.table, p.ts_ns, p.wire_len, p.data);
                    first = first.or(seq);
                    work(p.data, p.wire_len);
                }
                // One sample per chunk, weighted by its packets: a poll
                // batch is lent at one instant, so they share an origin.
                if let Some(seq) = first {
                    self.lat.record_n(now.saturating_sub(wq.lent_at(seq)), n);
                }
            }
            Origin::Due => {
                for p in view.iter() {
                    h.check.packet(&self.table, p.ts_ns, p.wire_len, p.data);
                    self.lat.record(now.saturating_sub(p.ts_ns));
                    work(p.data, p.wire_len);
                }
            }
        }
        self.sink = self.sink.wrapping_add(sink);
        self.packets += n;
        self.chunks += 1;
    }
}

/// The traffic source of a rig.
enum Source {
    Wire(Arc<WireSource>),
    Nic {
        nic: Arc<LiveNic>,
        packets: Vec<Packet>,
        sched: Schedule,
    },
}

impl Source {
    fn stop(&self) {
        match self {
            Source::Wire(w) => w.stop().expect("the wire source's stop cannot fail"),
            Source::Nic { nic, .. } => nic.stop(),
        }
    }
}

/// Workers of `pool_skew`'s consumer pool: one per queue, as `buddy_skew`
/// has one consumer per queue.
const POOL_WORKERS: usize = 2;

type Slots = Arc<Vec<Mutex<Delivery>>>;

fn lock(slot: &Mutex<Delivery>) -> std::sync::MutexGuard<'_, Delivery> {
    slot.lock()
        .expect("a delivery thread panicked holding its stats")
}

/// Who consumes.
enum Consumers {
    /// The driver thread itself.
    Inline(Box<LiveConsumer>, Box<Delivery>),
    /// A `ConsumerPool`; its handler owns the slots.
    Pool(ConsumerPool, Slots),
    /// One `LiveConsumer` thread per queue.
    Threads(Vec<JoinHandle<()>>, Slots),
}

/// One started engine with its source and consumers attached.
struct Rig {
    workload: Workload,
    traced: bool,
    /// The inline consumer leaves its queue alone until then (the
    /// attach delay of an open-loop run, whose generator must keep
    /// running meanwhile).
    drain_from_ns: u64,
    engine: LiveWireCap,
    source: Source,
    consumers: Consumers,
}

/// Starts the workload's engine and attaches its consumers, `attach_delay`
/// after the capture threads started (see [`ATTACH_DELAY`]).
fn start_rig(workload: Workload, seed: u64, traced: bool, attach_delay: Duration) -> Rig {
    let table = Arc::new(FrameTable::new(seed, workload.frame_len()));
    let cfg = workload.config(traced);
    let (mut source, backend, queues): (Source, Arc<dyn CaptureBackend>, usize) = match workload {
        Workload::Wire64 | Workload::Wire1518 => {
            let w = WireSource::new(Arc::clone(&table), &[WireMode::Saturating]);
            (Source::Wire(Arc::clone(&w)), w, 1)
        }
        Workload::PoolSkew | Workload::BuddySkew => {
            let cold = Schedule {
                start_ns: mono_ns(),
                pps: SKEW_COLD_PPS,
            };
            let w = WireSource::new(
                Arc::clone(&table),
                &[WireMode::Saturating, WireMode::Rate(cold)],
            );
            (Source::Wire(Arc::clone(&w)), w, 2)
        }
        Workload::Paced300k => {
            let nic = LiveNic::new(1, PACED_RING_DEPTH);
            let source = Source::Nic {
                nic: Arc::clone(&nic),
                packets: table.packets(),
                // Packet 0 is due as the driver loop starts.
                sched: Schedule {
                    start_ns: 0,
                    pps: PACED_PPS,
                },
            };
            (source, NicSimBackend::new(nic), 1)
        }
    };
    let groups = match workload {
        Workload::PoolSkew | Workload::BuddySkew => BuddyGroups::single(queues),
        _ => BuddyGroups::isolated(queues),
    };
    let engine = LiveWireCap::builder()
        .backend(backend)
        .config(cfg)
        .groups(groups)
        .start();
    let mut drain_from_ns = 0;
    match &mut source {
        Source::Nic { sched, .. } => {
            sched.start_ns = mono_ns();
            drain_from_ns = sched.start_ns + attach_delay.as_nanos() as u64;
        }
        Source::Wire(_) => std::thread::sleep(attach_delay),
    }
    let delivery = |tid: u64| Delivery::new(&table, &source, tid, traced);
    let consumers = match workload {
        Workload::Wire64 | Workload::Wire1518 | Workload::Paced300k => {
            Consumers::Inline(Box::new(engine.consumer(0)), Box::new(delivery(0)))
        }
        Workload::PoolSkew => {
            let slots: Slots = Arc::new(
                (0..POOL_WORKERS)
                    .map(|w| Mutex::new(delivery(w as u64)))
                    .collect(),
            );
            let handler_slots = Arc::clone(&slots);
            let pool = engine.consumer_pool(&BuddyGroup::all(queues), POOL_WORKERS, move |d| {
                let start = mono_ns();
                let mut s = lock(&handler_slots[d.worker()]);
                s.chunk::<true>(start, d.home(), *d.view());
                if let Some(spans) = s.spans.as_mut() {
                    spans.record(
                        SpanName::PoolHandler,
                        start,
                        mono_ns(),
                        d.home() as u32,
                        d.seq(),
                    );
                }
            });
            Consumers::Pool(pool, slots)
        }
        Workload::BuddySkew => {
            let slots: Slots = Arc::new(
                (0..queues)
                    .map(|q| Mutex::new(delivery(q as u64)))
                    .collect(),
            );
            let threads = (0..queues)
                .map(|q| {
                    let consumer = engine.consumer(q);
                    let slots = Arc::clone(&slots);
                    std::thread::Builder::new()
                        .name(format!("wcbench-consumer-{q}"))
                        .spawn(move || {
                            // Where the engine would put pool worker q.
                            wirecap::pin_to_core((queues + q) % sys::nproc());
                            consumer_thread(consumer, &slots[q], traced)
                        })
                        .expect("spawning a consumer thread")
                })
                .collect();
            Consumers::Threads(threads, slots)
        }
    };
    Rig {
        workload,
        traced,
        drain_from_ns,
        engine,
        source,
        consumers,
    }
}

/// A per-queue consumer of `buddy_skew`: `try_chunk` while chunks are
/// ready (so the call can be timed without the wait), the blocking
/// `next_chunk` when not (the wait is idle time; its `None` is the end
/// of the stream).
fn consumer_thread(mut consumer: LiveConsumer, slot: &Mutex<Delivery>, traced: bool) {
    loop {
        let t0 = if traced { mono_ns() } else { 0 };
        let (chunk, waited_ns) = match consumer.try_chunk() {
            Some(chunk) => (chunk, None),
            None => {
                let idle_from = mono_ns();
                match consumer.next_chunk() {
                    Some(chunk) => (chunk, Some(mono_ns() - idle_from)),
                    None => return,
                }
            }
        };
        let now = mono_ns();
        let mut s = lock(slot);
        s.calls += 1;
        if let Some(w) = waited_ns {
            s.empty_calls += 1;
            s.idle_ns += w;
        }
        s.chunk::<true>(now, chunk.home(), consumer.view(&chunk));
        let (home, seq) = (chunk.home() as u32, chunk.seq());
        let t2 = if traced { mono_ns() } else { 0 };
        consumer.recycle(chunk);
        if let Some(spans) = s.spans.as_mut() {
            let t3 = mono_ns();
            // A call that had to wait says nothing about `try_chunk`.
            let began = if waited_ns.is_some() { now } else { t0 };
            if waited_ns.is_none() {
                spans.record(SpanName::TryChunk, t0, now, home, seq);
            }
            spans.record(SpanName::Handler, now, t2, home, seq);
            spans.record(SpanName::Recycle, t2, t3, home, seq);
            spans.record(SpanName::Chunk, began, t3, home, seq);
        }
    }
}

/// What the driver saw at one round boundary.
struct Mark {
    t_ns: u64,
    packets: u64,
    idle_ns: u64,
    capture_cpu_s: f64,
    lat: LatHist,
}

/// One measured round.
#[derive(Clone)]
pub struct Round {
    /// Length of the round in seconds (as measured, not as planned).
    pub secs: f64,
    /// Packets delivered in it.
    pub packets: u64,
    /// Latency samples taken in it.
    pub lat: LatHist,
}

impl Round {
    /// Delivered packets per second, in millions.
    pub fn mpps(&self) -> f64 {
        self.packets as f64 / self.secs / 1e6
    }
}

/// The open-loop generator's own record.
#[derive(Default)]
struct Generator {
    sent: SeqAcc,
    next: u64,
    late: LatHist,
}

/// Drives an inline rig (the driver thread consumes) until the last
/// boundary has passed, or — with no boundaries — until the first chunk.
fn drive_inline<const TRACED: bool>(rig: &mut Rig, boundaries: &[u64]) -> (Vec<Mark>, Generator) {
    let Consumers::Inline(consumer, d) = &mut rig.consumers else {
        unreachable!("drive_inline is only called on inline rigs");
    };
    let paced = match &rig.source {
        Source::Nic {
            nic,
            packets,
            sched,
        } => Some((nic, packets, *sched)),
        Source::Wire(_) => None,
    };
    // The generator stops at the last boundary.
    let paced_total = boundaries
        .last()
        .zip(paced.as_ref())
        .map(|(&end, (_, _, s))| s.due_by(end));
    let mut gen = Generator::default();
    let mut marks: Vec<Mark> = Vec::with_capacity(boundaries.len());
    let mut idle_since: Option<u64> = None;
    let mut empty_polls = 0u32;
    loop {
        if let Some((nic, packets, sched)) = &paced {
            let now = mono_ns();
            let due = paced_total.unwrap_or(u64::MAX).min(sched.due_by(now));
            while gen.next < due {
                let mut pkt = packets[gen.next as usize & (packets.len() - 1)].clone();
                pkt.ts_ns = sched.due(gen.next);
                // Lateness counts from the end of the warm-up: the attach
                // delay ends in a burst (the parked capture thread wakes
                // onto this core) that says nothing about the window.
                if boundaries.first().is_some_and(|&b| pkt.ts_ns >= b) {
                    let late = now.saturating_sub(pkt.ts_ns);
                    gen.late.record(late);
                    if late > MAX_LATE_NS {
                        // The machine stalled: this run is void, so stop
                        // now and leave the time to its repeat.
                        return (marks, gen);
                    }
                }
                let t0 = if TRACED { mono_ns() } else { 0 };
                // A refused inject is a counted loss, never retried: the
                // schedule does not wait for the system under test.
                if nic.inject(pkt).is_some() {
                    gen.sent.add(gen.next);
                }
                if TRACED {
                    if let Some(spans) = d.spans.as_mut() {
                        spans.record(SpanName::Inject, t0, mono_ns(), u32::MAX, gen.next);
                    }
                }
                gen.next += 1;
            }
        }
        if rig.drain_from_ns > 0 {
            if mono_ns() < rig.drain_from_ns {
                continue;
            }
            rig.drain_from_ns = 0;
        }
        let t0 = if TRACED { mono_ns() } else { 0 };
        d.calls += 1;
        let now = match consumer.try_chunk() {
            Some(chunk) => {
                let now = mono_ns();
                if let Some(since) = idle_since.take() {
                    d.idle_ns += now - since;
                }
                d.chunk::<false>(now, chunk.home(), consumer.view(&chunk));
                let (home, seq) = (chunk.home() as u32, chunk.seq());
                let t2 = if TRACED { mono_ns() } else { 0 };
                consumer.recycle(chunk);
                if TRACED {
                    if let Some(spans) = d.spans.as_mut() {
                        let t3 = mono_ns();
                        spans.record(SpanName::TryChunk, t0, now, home, seq);
                        spans.record(SpanName::Handler, now, t2, home, seq);
                        spans.record(SpanName::Recycle, t2, t3, home, seq);
                        spans.record(SpanName::Chunk, t0, t3, home, seq);
                    }
                }
                if boundaries.is_empty() {
                    return (marks, gen);
                }
                now
            }
            None => {
                d.empty_calls += 1;
                std::hint::spin_loop();
                // The clock is only needed here to notice a boundary
                // while starved, so read it rarely.
                empty_polls = empty_polls.wrapping_add(1);
                if idle_since.is_some() && !empty_polls.is_multiple_of(1024) {
                    continue;
                }
                let now = mono_ns();
                idle_since.get_or_insert(now);
                now
            }
        };
        if boundaries.get(marks.len()).is_some_and(|&b| now >= b) {
            let idle_ns = d.idle_ns + idle_since.map_or(0, |s| now - s);
            marks.push(Mark {
                t_ns: now,
                packets: d.packets,
                idle_ns,
                capture_cpu_s: sys::thread_cpu_s("wirecap-capture").0,
                lat: std::mem::take(&mut d.lat),
            });
            if marks.len() == boundaries.len() {
                return (marks, gen);
            }
        }
    }
}

/// Drives a rig whose consumers are their own threads: the driver sleeps
/// to each boundary and reads the slots there.
fn drive_threads(slots: &Slots, boundaries: &[u64]) -> Vec<Mark> {
    if boundaries.is_empty() {
        while slots.iter().all(|s| lock(s).chunks == 0) {
            std::thread::sleep(Duration::from_micros(50));
        }
        return Vec::new();
    }
    boundaries
        .iter()
        .map(|&b| {
            std::thread::sleep(Duration::from_nanos(b.saturating_sub(mono_ns())));
            let mut mark = Mark {
                t_ns: 0,
                packets: 0,
                idle_ns: 0,
                capture_cpu_s: sys::thread_cpu_s("wirecap-capture").0,
                lat: LatHist::new(),
            };
            for slot in slots.iter() {
                let mut s = lock(slot);
                mark.packets += s.packets;
                mark.idle_ns += s.idle_ns;
                mark.lat.merge(&s.lat);
                s.lat = LatHist::new();
            }
            mark.t_ns = mono_ns();
            mark
        })
        .collect()
}

/// Everything one engine run produced.
pub struct RunOutcome {
    /// The workload that ran.
    pub workload: Workload,
    /// Process start → first delivered chunk of every set-up child, in
    /// seconds.
    pub setup_s: Vec<f64>,
    /// The measured rounds.
    pub rounds: Vec<Round>,
    /// Frames the source offered over the engine's whole life.
    pub offered: u64,
    /// Packets handed to the harness over the engine's whole life.
    pub delivered: u64,
    /// Share of the measured window the delivery threads had nothing to
    /// do (not known from outside for pool workers: see `snapshot.workers`).
    pub idle_frac: f64,
    /// CPU time of the capture threads over the measured window, as a
    /// share of `wall × capture threads`.
    pub capture_cpu_frac: f64,
    /// The engine's final snapshot, taken after shutdown.
    pub snapshot: EngineSnapshot,
    /// The engine's own sampled spans (traced runs).
    pub engine_spans: Vec<SpanRecord>,
    /// What each pool worker did (`pool_skew`).
    pub pool_reports: Vec<PoolWorkerReport>,
    /// Harness spans, one recorder per delivery thread (traced runs).
    pub spans: Vec<SpanBuf>,
    /// `try_chunk` calls made by the harness.
    pub calls: u64,
    /// Of those, calls that found nothing.
    pub empty_calls: u64,
    /// How late the open-loop generator sent each packet.
    pub gen_late: LatHist,
    /// Runs discarded by the noise guard before this one.
    pub discarded_runs: u32,
}

impl RunOutcome {
    /// Every latency sample of the measured window.
    pub fn lat(&self) -> LatHist {
        let mut all = LatHist::new();
        self.rounds.iter().for_each(|r| all.merge(&r.lat));
        all
    }

    /// Share of offered packets that were not delivered.
    pub fn loss_frac(&self) -> f64 {
        (self.offered - self.delivered) as f64 / self.offered.max(1) as f64
    }
}

/// Drives `rig` through `boundaries` (warm-up end, then each round end);
/// with no boundaries, until its first delivered chunk.
fn drive(rig: &mut Rig, boundaries: &[u64]) -> (Vec<Mark>, Generator) {
    match &rig.consumers {
        Consumers::Inline(..) => {
            if rig.traced {
                drive_inline::<true>(rig, boundaries)
            } else {
                drive_inline::<false>(rig, boundaries)
            }
        }
        Consumers::Pool(_, slots) | Consumers::Threads(_, slots) => {
            (drive_threads(slots, boundaries), Generator::default())
        }
    }
}

/// Shuts a driven rig down and checks the run.
fn finish(rig: Rig, (marks, gen): (Vec<Mark>, Generator)) -> Result<RunOutcome, String> {
    let Rig {
        workload,
        traced,
        engine,
        source,
        consumers,
        ..
    } = rig;

    // Stop the source, let the pipeline drain to end-of-stream, and only
    // then read the counters: the ledger is exact once nothing moves.
    source.stop();
    let observer = engine.observer();
    let mut pool_reports = Vec::new();
    let deliveries: Vec<Delivery> = match consumers {
        Consumers::Inline(mut consumer, mut d) => {
            while let Some(chunk) = consumer.next_chunk() {
                d.chunk::<false>(mono_ns(), chunk.home(), consumer.view(&chunk));
                consumer.recycle(chunk);
            }
            drop(consumer);
            vec![*d]
        }
        Consumers::Pool(pool, slots) => {
            pool_reports = pool.join();
            unwrap_slots(slots)
        }
        Consumers::Threads(threads, slots) => {
            for t in threads {
                t.join().map_err(|_| "a consumer thread panicked")?;
            }
            unwrap_slots(slots)
        }
    };
    engine.shutdown();
    let snapshot = observer.snapshot();
    let engine_spans = if traced { observer.spans() } else { Vec::new() };

    // Correctness: sequence + payload per home queue, then the ledger.
    let ordered = deliveries.len() == 1;
    let homes = deliveries[0].homes.len();
    for q in 0..homes {
        let mut check = deliveries[0].homes[q].check.clone();
        deliveries[1..]
            .iter()
            .for_each(|d| check.merge(&d.homes[q].check));
        let expected = match &source {
            Source::Wire(w) => SeqAcc::range(w.wire_queue(q).polled()),
            Source::Nic { .. } => gen.sent,
        };
        check.verdict(q, &expected, ordered)?;
    }
    let delivered: u64 = deliveries.iter().map(|d| d.packets).sum();
    check_ledger(&snapshot, delivered)?;
    let offered = snapshot.total().offered_packets;
    if workload.closed_loop() && offered != delivered {
        return Err(format!(
            "closed-loop workload lost packets: offered {offered}, delivered {delivered}"
        ));
    }
    black_box(deliveries.iter().fold(0u64, |a, d| a ^ d.sink));

    if delivered == 0 {
        return Err("no packet was ever delivered".into());
    }
    let capture_threads = snapshot.queues.len() as f64;
    let delivery_threads = deliveries.len() as f64;
    let window = marks.first().zip(marks.last()).map(|(a, b)| {
        let wall_s = (b.t_ns - a.t_ns) as f64 / 1e9;
        (
            (b.idle_ns - a.idle_ns) as f64 / 1e9 / (wall_s * delivery_threads),
            (b.capture_cpu_s - a.capture_cpu_s) / (wall_s * capture_threads),
        )
    });
    let rounds = marks
        .windows(2)
        .map(|w| Round {
            secs: (w[1].t_ns - w[0].t_ns) as f64 / 1e9,
            packets: w[1].packets - w[0].packets,
            lat: w[1].lat.clone(),
        })
        .collect();
    let mut spans = Vec::new();
    let (mut calls, mut empty_calls) = (0, 0);
    for d in deliveries {
        calls += d.calls;
        empty_calls += d.empty_calls;
        spans.extend(d.spans);
    }
    Ok(RunOutcome {
        workload,
        setup_s: Vec::new(),
        rounds,
        offered,
        delivered,
        idle_frac: window.map_or(0.0, |w| w.0),
        capture_cpu_frac: window.map_or(0.0, |w| w.1),
        snapshot,
        engine_spans,
        pool_reports,
        spans,
        calls,
        empty_calls,
        gen_late: gen.late,
        discarded_runs: 0,
    })
}

fn unwrap_slots(slots: Slots) -> Vec<Delivery> {
    let slots = Arc::try_unwrap(slots)
        .unwrap_or_else(|_| unreachable!("every delivery thread has been joined"));
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("a delivery thread panicked holding its stats")
        })
        .collect()
}

/// The child side of the set-up measurement: starts the workload's
/// engine, says `ready` on standard output the moment the first chunk is
/// delivered, then drains, shuts down and checks like any other run.
pub fn setup_only(workload: Workload, seed: u64) -> Result<(), String> {
    use std::io::Write;
    let mut rig = start_rig(workload, seed, false, Duration::ZERO);
    let driven = drive(&mut rig, &[]);
    let mut out = std::io::stdout();
    writeln!(out, "ready")
        .and_then(|()| out.flush())
        .map_err(|e| format!("reporting readiness: {e}"))?;
    finish(rig, driven).map(|_| ())
}

/// `setup_s`, as the issue defines it: process start → first delivered
/// chunk. Measured on fresh processes, because a second set-up inside one
/// process reuses the allocator's already-faulted pages and reads several
/// times faster than any real start. One child at a time; each is waited
/// for and must pass its own checks.
fn measure_setup(workload: Workload, seed: u64, reps: usize) -> Result<Vec<f64>, String> {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};
    let exe = std::env::current_exe().map_err(|e| format!("locating wcbench: {e}"))?;
    (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            let mut child = Command::new(&exe)
                .args(["run", "--setup-only", "--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("starting a set-up child: {e}"))?;
            let mut line = String::new();
            let read =
                BufReader::new(child.stdout.take().expect("stdout is piped")).read_line(&mut line);
            let secs = t.elapsed().as_secs_f64();
            let status = child
                .wait()
                .map_err(|e| format!("waiting for a set-up child: {e}"))?;
            match read {
                Ok(_) if status.success() && line.trim() == "ready" => Ok(secs),
                _ => Err(format!("set-up child failed ({status})")),
            }
        })
        .collect()
}

/// Runs `workload` once according to `plan`: the set-up measurement
/// first, then one engine through warm-up and the measured rounds.
///
/// A paced run whose generator was ever more than [`MAX_LATE_NS`] late
/// measured a machine stall, not the engine: it is discarded and
/// repeated, at most [`MAX_ATTEMPTS`] times.
pub fn run(workload: Workload, seed: u64, plan: &Plan, traced: bool) -> Result<RunOutcome, String> {
    let setup_s = measure_setup(workload, seed, plan.setup_reps)?;
    for attempt in 0..MAX_ATTEMPTS {
        let mut rig = start_rig(workload, seed, traced, ATTACH_DELAY);
        let t0 = mono_ns();
        let boundaries: Vec<u64> = (0..=plan.rounds as u32)
            .map(|r| t0 + (plan.warmup + plan.round * r).as_nanos() as u64)
            .collect();
        let driven = drive(&mut rig, &boundaries);
        let mut outcome = finish(rig, driven)?;
        if outcome.gen_late.max() > MAX_LATE_NS {
            eprintln!(
                "wcbench: {} attempt {}: generator was {:.1} ms late, run discarded",
                workload.name(),
                attempt + 1,
                outcome.gen_late.max() as f64 / 1e6
            );
            continue;
        }
        outcome.discarded_runs = attempt;
        outcome.setup_s = setup_s;
        return Ok(outcome);
    }
    Err(format!(
        "machine too noisy: the {} generator ran more than {} ms late in {MAX_ATTEMPTS} attempts",
        workload.name(),
        MAX_LATE_NS / 1_000_000
    ))
}
