//! Live multi-queue capture to a pcap savefile.
//!
//! A tcpdump-shaped tool on top of the live engine: capture from every
//! queue of a live NIC, merge the streams, and write a standard pcap
//! savefile that any packet-analysis tool can read back (we read it back
//! ourselves to verify). Demonstrates the `multi_pkt_handler` threading
//! model of §4 plus the savefile layer.
//!
//! Run with:
//! ```sh
//! cargo run --release --example live_capture
//! ```
//!
//! Watch it live: `WIRECAP_TELEMETRY_LISTEN=127.0.0.1:9184` serves
//! `/metrics`, `/snapshot.json` and `/trace.json` over HTTP for the
//! duration of the run (DESIGN.md §4.9). Each request takes one
//! snapshot; nothing samples the engine in the background.

use netproto::{FlowKey, Packet, PacketBuilder};
use nicsim::livenic::LiveNic;
use pcap::savefile::{self, Precision};
use std::net::Ipv4Addr;
use std::sync::mpsc;
use std::sync::Arc;
use wirecap::buddy::BuddyGroups;
use wirecap::live::LiveWireCap;
use wirecap::NicSimBackend;
use wirecap::WireCapConfig;

const QUEUES: usize = 3;

fn main() {
    let nic = LiveNic::new(QUEUES, 4096);
    let mut cfg = WireCapConfig::basic(64, 48, 0);
    cfg.capture_timeout_ns = 2_000_000;
    let engine = LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(&nic)))
        .config(cfg)
        .groups(BuddyGroups::isolated(QUEUES))
        .start();

    // One consumer thread per queue, all feeding a single writer.
    let (tx, rx) = mpsc::channel::<Packet>();
    let consumers: Vec<_> = (0..QUEUES)
        .map(|q| {
            let mut c = engine.consumer(q);
            let tx = tx.clone();
            std::thread::spawn(move || {
                let mut n = 0u64;
                while let Some(chunk) = c.next_chunk() {
                    // The savefile writer outlives the chunk, so each
                    // frame is copied out of the arena into an owned
                    // packet — the price of keeping bytes past recycle.
                    for pkt in c.view(&chunk).iter() {
                        let owned = Packet {
                            ts_ns: pkt.ts_ns,
                            wire_len: pkt.wire_len,
                            data: bytes::Bytes::copy_from_slice(pkt.data),
                        };
                        tx.send(owned).expect("writer alive");
                        n += 1;
                    }
                    c.recycle(chunk);
                }
                n
            })
        })
        .collect();
    drop(tx);

    // Inject a mixed workload.
    let mut builder = PacketBuilder::new();
    let total = 4_000u64;
    for i in 0..total {
        let flow = if i % 3 == 0 {
            FlowKey::udp(
                Ipv4Addr::new(131, 225, 2, (i % 200) as u8 + 1),
                (9_000 + i % 2_000) as u16,
                Ipv4Addr::new(8, 8, 8, 8),
                53,
            )
        } else {
            FlowKey::tcp(
                Ipv4Addr::new(10, 7, (i >> 8) as u8, (i & 0xff) as u8 | 1),
                (20_000 + i % 10_000) as u16,
                Ipv4Addr::new(131, 225, 160, 11),
                443,
            )
        };
        let pkt = builder.build_packet(i * 5_000, &flow, 200).unwrap();
        while nic.inject(pkt.clone()).is_none() {
            std::thread::yield_now();
        }
    }
    nic.stop();

    // Collect, sort by timestamp (streams interleave), and write pcap.
    let mut packets: Vec<Packet> = rx.iter().collect();
    let captured: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
    engine.shutdown();
    packets.sort_by_key(|p| p.ts_ns);

    let path = std::env::temp_dir().join("wirecap_live_capture.pcap");
    let file = std::fs::File::create(&path).expect("creating savefile");
    savefile::write_file(
        std::io::BufWriter::new(file),
        &packets,
        Precision::Nanos,
        65_535,
    )
    .expect("writing savefile");

    // Read it back and verify.
    let data = std::fs::read(&path).expect("reading savefile back");
    let sf = savefile::read_file(&data[..]).expect("parsing savefile");

    println!("captured {captured} of {total} injected packets across {QUEUES} queues");
    println!(
        "wrote {} ({} packets, {} bytes) and read it back intact",
        path.display(),
        sf.packets.len(),
        data.len()
    );
    assert_eq!(captured, total);
    assert_eq!(sf.packets.len(), packets.len());
    assert!(sf.packets.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    println!("live_capture OK");
}
