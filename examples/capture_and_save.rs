//! Capture-to-disk with rotation and exact drop accounting.
//!
//! The capture-and-save workload of §4: a live multi-queue engine
//! streams every captured packet into rotating pcapng files through the
//! `capdisk` sink. The sink's bounded handoff means a slow disk can
//! never stall capture — it sheds packets from the disk leg instead,
//! and every shed packet is counted (`disk_drop_packets`), so
//! `delivered == written + disk_drop` holds exactly. This example
//! verifies all of it: conservation, rotation into multiple
//! self-contained files, and that every file parses.
//!
//! Run with:
//! ```sh
//! cargo run --release --example capture_and_save
//! ```
//!
//! Watch it live: `WIRECAP_TELEMETRY_LISTEN=127.0.0.1:9184` exposes the
//! `disk_written_packets` / `disk_drop_packets` counters on `/metrics`;
//! a climbing `disk_drop_packets` between two scrapes is the writer
//! falling behind.

use capdisk::{read_pcapng, DiskSinkConfig, RotationPolicy, SinkMode};
use netproto::{FlowKey, PacketBuilder};
use nicsim::livenic::LiveNic;
use std::net::Ipv4Addr;
use std::sync::Arc;
use wirecap::WireCapConfig;

const QUEUES: usize = 3;

fn main() {
    let dir = std::env::temp_dir().join("wirecap_capture_and_save");
    std::fs::remove_dir_all(&dir).ok();

    let nic = LiveNic::new(QUEUES, 4096);
    let mut cfg = WireCapConfig::basic(64, 48, 0);
    cfg.capture_timeout_ns = 2_000_000;

    let mut sink = DiskSinkConfig::new(&dir);
    sink.prefix = "save".to_string();
    // Rotate aggressively so the run demonstrates a multi-file set.
    sink.rotation = RotationPolicy {
        max_file_bytes: 128 << 10,
        max_file_duration: None,
    };

    // The harness owns the engine + sink threads; we own injection.
    let total = 10_000u64;
    let injector = {
        let nic = Arc::clone(&nic);
        std::thread::spawn(move || {
            let mut builder = PacketBuilder::new();
            for i in 0..total {
                let flow = FlowKey::udp(
                    Ipv4Addr::new(131, 225, 2, (i % 200) as u8 + 1),
                    (9_000 + i % 2_000) as u16,
                    Ipv4Addr::new(8, 8, 8, 8),
                    53,
                );
                let pkt = builder.build_packet(i * 5_000, &flow, 300).unwrap();
                while nic.inject(pkt.clone()).is_none() {
                    std::thread::yield_now();
                }
            }
            nic.stop();
        })
    };
    let out = apps::save::run(Arc::clone(&nic), cfg, SinkMode::Disk(sink));
    injector.join().unwrap();

    let report = out.disk.as_ref().expect("disk mode");
    println!(
        "delivered {} packets; wrote {} ({} bytes) across {} files; disk dropped {}",
        out.delivered_packets,
        report.written_packets(),
        report.written_bytes(),
        report.files().len(),
        report.dropped_packets(),
    );
    for q in &report.queues {
        println!(
            "  queue {}: {} written + {} dropped = {} delivered, {} files",
            q.queue,
            q.written_packets,
            q.dropped_packets,
            q.delivered_packets,
            q.files.len()
        );
    }

    // Zero unaccounted packets: in == written + disk_drop, exactly.
    assert!(out.is_conserved(), "conservation violated: {report:?}");
    assert_eq!(out.delivered_packets, total);
    assert_eq!(report.written_packets() + report.dropped_packets(), total);

    // The rotation policy split the stream, and every file is a
    // self-contained, parseable pcapng.
    let files = report.files();
    assert!(files.len() > QUEUES, "expected rotation splits: {files:?}");
    let mut parsed = 0u64;
    for f in &files {
        let pf = read_pcapng(&std::fs::read(f).expect("reading capture file back"))
            .unwrap_or_else(|e| panic!("{}: {e}", f.display()));
        assert_eq!(pf.tsresol, 9, "nanosecond timestamps");
        parsed += pf.packets.len() as u64;
    }
    assert_eq!(parsed, report.written_packets());
    println!(
        "read back {} packets from {} pcapng files under {}",
        parsed,
        files.len(),
        dir.display()
    );

    std::fs::remove_dir_all(&dir).ok();
    println!("capture_and_save OK");
}
