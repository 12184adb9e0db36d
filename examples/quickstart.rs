//! Quickstart: capture packets with WireCAP through the
//! Libpcap-compatible interface.
//!
//! This is the "hello world" of the library: bring up a live in-memory
//! NIC, start the live WireCAP engine on it, inject some traffic, and
//! read the captured packets back through a `pcap`-style capture handle
//! with a BPF filter installed — exactly how a libpcap application would
//! use the real WireCAP.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Like every engine run, it serves live telemetry when
//! `WIRECAP_TELEMETRY_LISTEN` is set (DESIGN.md §4.9); without it the
//! engine runs its capture thread and nothing else.

use netproto::{FlowKey, PacketBuilder};
use nicsim::livenic::LiveNic;
use pcap::capture::Capture;
use pcap::PacketSource as _;
use std::net::Ipv4Addr;
use std::sync::Arc;
use wirecap::buddy::BuddyGroups;
use wirecap::live::LiveWireCap;
use wirecap::NicSimBackend;
use wirecap::WireCapConfig;

fn main() {
    // 1. A live NIC with one receive queue, and a WireCAP engine in
    // basic mode: chunks of M = 64 cells, a pool of R = 32 chunks.
    let nic = LiveNic::new(1, 4096);
    let mut cfg = WireCapConfig::basic(64, 32, 0);
    cfg.capture_timeout_ns = 2_000_000; // flush partial chunks after 2 ms
    let engine = LiveWireCap::builder()
        .backend(NicSimBackend::new(Arc::clone(&nic)))
        .config(cfg)
        .groups(BuddyGroups::isolated(1))
        .start();

    // 2. The application side: a pcap capture over the queue-0 consumer,
    // filtered with the paper's own expression.
    let consumer = engine.consumer(0);
    let reader = std::thread::spawn(move || {
        let mut cap = Capture::new(consumer);
        cap.set_filter_expr("131.225.2 and udp")
            .expect("filter compiles");
        let mut matched = 0u64;
        let mut bytes = 0u64;
        loop {
            let n = cap.dispatch(64, |pkt| {
                matched += 1;
                bytes += pkt.data.len() as u64;
            });
            if n == 0 && cap.source_mut().is_done() {
                return (matched, bytes, cap.stats());
            }
        }
    });

    // 3. The wire side: 1 000 UDP packets to the monitored prefix and
    // 500 TCP packets elsewhere.
    let mut builder = PacketBuilder::new();
    let mut ts = 0u64;
    for i in 0..1_000u16 {
        let flow = FlowKey::udp(
            Ipv4Addr::new(131, 225, 2, (i % 250 + 1) as u8),
            32_000 + i,
            Ipv4Addr::new(198, 51, 100, 7),
            53,
        );
        ts += 1_000;
        inject(&nic, builder.build_packet(ts, &flow, 128).unwrap());
    }
    for i in 0..500u16 {
        let flow = FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, (i % 250 + 1) as u8),
            40_000 + i,
            Ipv4Addr::new(131, 225, 9, 1),
            443,
        );
        ts += 1_000;
        inject(&nic, builder.build_packet(ts, &flow, 256).unwrap());
    }
    nic.stop();

    let (matched, bytes, stats) = reader.join().expect("reader thread");
    engine.shutdown();

    println!("injected : 1500 packets (1000 UDP to 131.225.2/24, 500 TCP)");
    println!("seen     : {} packets pre-filter", stats.received);
    println!("matched  : {matched} packets, {bytes} bytes");
    println!("filtered : {} packets rejected by BPF", stats.filtered_out);
    assert_eq!(matched, 1_000);
    assert_eq!(stats.filtered_out, 500);
    println!("quickstart OK: zero-loss capture and filtering through WireCAP");
}

fn inject(nic: &Arc<LiveNic>, pkt: netproto::Packet) {
    while nic.inject(pkt.clone()).is_none() {
        std::thread::yield_now();
    }
}
