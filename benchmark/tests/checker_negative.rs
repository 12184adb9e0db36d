//! The checker must fail when the engine misbehaves: a duplicated
//! sequence number, a skipped chunk, a corrupted payload byte, a ledger
//! that does not balance.

use telemetry::{EngineSnapshot, QueueTelemetry};
use wcbench::check::{check_ledger, QueueCheck, SeqAcc, SeqMap};
use wcbench::frames::{FrameTable, Schedule};
use wcbench::plan::PAYLOAD_CHECK_STRIDE;

const N: u64 = 64 * 40;

/// Feeds `seqs` through a fresh check, as a consumer would see them.
fn deliver(table: &FrameTable, seqs: impl Iterator<Item = u64>) -> QueueCheck {
    let mut check = QueueCheck::new(SeqMap::Direct);
    for seq in seqs {
        check.packet(table, seq, 64, table.frame(seq));
    }
    check
}

#[test]
fn a_faithful_delivery_passes() {
    let table = FrameTable::new(1, 64);
    let check = deliver(&table, 0..N);
    assert_eq!(check.verdict(0, &SeqAcc::range(N), true), Ok(()));
    assert_eq!(check.payload_checked, N.div_ceil(PAYLOAD_CHECK_STRIDE));
}

#[test]
fn a_duplicated_sequence_number_fails() {
    let table = FrameTable::new(1, 64);
    // Packet 100 twice, in place of 101: the count still matches.
    let check = deliver(&table, (0..N).map(|s| if s == 101 { 100 } else { s }));
    assert_eq!(check.acc.count, N);
    let err = check.verdict(0, &SeqAcc::range(N), false).unwrap_err();
    assert!(err.contains("lost, duplicated or invented"), "{err}");
    // And on top of everything that was sent.
    let check = deliver(&table, (0..N).chain([100]));
    assert!(check.verdict(0, &SeqAcc::range(N), false).is_err());
}

#[test]
fn a_skipped_chunk_fails() {
    let table = FrameTable::new(1, 64);
    let check = deliver(&table, (0..N).filter(|s| s / 64 != 7));
    let err = check.verdict(0, &SeqAcc::range(N), true).unwrap_err();
    assert!(err.contains("lost, duplicated or invented"), "{err}");
}

#[test]
fn two_swapped_chunks_fail_only_where_order_is_promised() {
    let table = FrameTable::new(1, 64);
    let order = (0..N).map(|s| match s / 64 {
        3 => s + 64,
        4 => s - 64,
        _ => s,
    });
    let check = deliver(&table, order);
    assert_eq!(check.verdict(0, &SeqAcc::range(N), false), Ok(()));
    let err = check.verdict(0, &SeqAcc::range(N), true).unwrap_err();
    assert!(err.contains("out of order"), "{err}");
}

#[test]
fn a_corrupted_payload_byte_fails() {
    let table = FrameTable::new(1, 64);
    let victim = 3 * PAYLOAD_CHECK_STRIDE;
    let mut check = QueueCheck::new(SeqMap::Direct);
    for seq in 0..N {
        let mut bytes = table.frame(seq).to_vec();
        if seq == victim {
            bytes[50] ^= 0x01;
        }
        check.packet(&table, seq, 64, &bytes);
    }
    let err = check.verdict(0, &SeqAcc::range(N), true).unwrap_err();
    assert!(err.contains("differ from the frame table"), "{err}");
    assert_eq!(check.payload_mismatch, 1);

    // A wrong wire_len on a compared packet is a mismatch too.
    let mut check = QueueCheck::new(SeqMap::Direct);
    for seq in 0..N {
        let wire_len = if seq == victim { 65 } else { 64 };
        check.packet(&table, seq, wire_len, table.frame(seq));
    }
    assert!(check.verdict(0, &SeqAcc::range(N), true).is_err());
}

#[test]
fn a_timestamp_the_schedule_never_sent_fails() {
    let table = FrameTable::new(1, 64);
    let sched = Schedule {
        start_ns: 1_000,
        pps: 300_000,
    };
    let mut check = QueueCheck::new(SeqMap::Scheduled(sched));
    for seq in 0..N {
        check.packet(&table, sched.due(seq), 64, table.frame(seq));
    }
    assert_eq!(check.verdict(0, &SeqAcc::range(N), true), Ok(()));
    check.packet(&table, sched.due(N) + 1, 64, table.frame(N));
    let err = check.verdict(0, &SeqAcc::range(N), true).unwrap_err();
    assert!(err.contains("never sent"), "{err}");
}

fn snapshot(edit: impl FnOnce(&mut QueueTelemetry)) -> EngineSnapshot {
    let mut q = QueueTelemetry {
        offered_packets: 1000,
        captured_packets: 990,
        capture_drop_packets: 4,
        nic_drop_packets: 6,
        delivered_packets: 980,
        delivery_drop_packets: 10,
        sealed_chunks: 16,
        recycled_chunks: 16,
        steal_in_chunks: 3,
        steal_out_chunks: 3,
        ..QueueTelemetry::default()
    };
    edit(&mut q);
    EngineSnapshot {
        engine: "test".into(),
        tuning: None,
        queues: vec![q],
        workers: Vec::new(),
        copies: Default::default(),
        latency: Default::default(),
    }
}

#[test]
fn the_ledger_check_catches_every_broken_law() {
    assert_eq!(check_ledger(&snapshot(|_| {}), 980), Ok(()));
    assert!(
        check_ledger(&snapshot(|_| {}), 979).is_err(),
        "harness count"
    );
    assert!(check_ledger(&snapshot(|q| q.capture_drop_packets = 3), 980).is_err());
    assert!(check_ledger(&snapshot(|q| q.delivery_drop_packets = 9), 980).is_err());
    assert!(check_ledger(&snapshot(|q| q.recycled_chunks = 15), 980).is_err());
    assert!(check_ledger(&snapshot(|q| q.steal_out_chunks = 2), 980).is_err());
}
