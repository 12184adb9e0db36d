//! The wire source against the documented `BackendQueue` contract.

use std::sync::Arc;
use telemetry::clock::mono_ns;
use telemetry::QueueTelemetry;
use wcbench::frames::{FrameTable, Schedule};
use wcbench::wire::{WireMode, WireSource};
use wirecap::backend::{BackendError, CaptureBackend};

fn table() -> Arc<FrameTable> {
    Arc::new(FrameTable::new(7, 64))
}

#[test]
fn saturating_queue_lends_the_table_in_sequence() {
    let table = table();
    let source = WireSource::new(Arc::clone(&table), &[WireMode::Saturating]);
    let q = source.queue(0);
    let mut next = 0u64;
    for max in [1usize, 63, 64, 256, 5000] {
        let n = q
            .poll_batch(max, &mut |f| {
                assert_eq!(f.ts_ns, next, "ts_ns carries the sequence number");
                assert_eq!(f.data, table.frame(next));
                assert_eq!(f.wire_len, 64);
                next += 1;
            })
            .unwrap();
        assert_eq!(n, max, "a saturating queue always lends max frames");
        q.recycle(n).unwrap();
    }
    assert_eq!(source.wire_queue(0).polled(), next);
}

#[test]
fn an_error_lends_nothing_and_changes_nothing() {
    let source = WireSource::new(table(), &[WireMode::Saturating]);
    let q = source.queue(0);
    assert_eq!(
        q.poll_batch(0, &mut |_| panic!("max = 0 lends nothing")),
        Ok(0)
    );
    assert_eq!(q.poll_batch(10, &mut |_| {}), Ok(10));
    // Over-recycling is the wire's one error: the ownership rule.
    assert!(matches!(q.recycle(11), Err(BackendError::Corrupt(_))));
    // The failed call took nothing: the 10 frames are still recyclable
    // and the sequence continues where it stopped.
    assert_eq!(q.recycle(10), Ok(()));
    let mut first = None;
    q.poll_batch(1, &mut |f| first = Some(f.ts_ns)).unwrap();
    assert_eq!(first, Some(10));
}

#[test]
fn offered_is_received_plus_dropped() {
    let source = WireSource::new(table(), &[WireMode::Saturating]);
    let q = source.queue(0);
    let polled = q.poll_batch(300, &mut |_| {}).unwrap() as u64;
    let a = q.accounting();
    assert_eq!(a.received + a.dropped, polled);
    let mut t = QueueTelemetry::default();
    q.fill_telemetry(&mut t);
    assert_eq!(t.offered_packets, polled);
    assert_eq!(t.nic_drop_packets, 0);
}

#[test]
fn stop_is_end_of_stream() {
    let source = WireSource::new(table(), &[WireMode::Saturating]);
    let q = source.queue(0);
    assert!(q.depth() > 0, "a live saturating ring is never empty");
    assert!(!source.is_stopped());
    source.stop().unwrap();
    source.stop().unwrap(); // idempotent
    assert!(source.is_stopped());
    assert_eq!(q.depth(), 0);
    assert_eq!(q.poll_batch(256, &mut |_| panic!("lent after stop")), Ok(0));
    assert_eq!(q.accounting().ring_used, 0);
}

#[test]
fn rate_queue_never_lends_a_frame_before_it_is_due() {
    let pps = 100_000;
    // Not yet started: nothing is due.
    let future = Schedule {
        start_ns: mono_ns() + 60_000_000_000,
        pps,
    };
    let source = WireSource::new(table(), &[WireMode::Rate(future)]);
    assert_eq!(source.queue(0).depth(), 0);
    assert_eq!(
        source
            .queue(0)
            .poll_batch(256, &mut |_| panic!("lent early")),
        Ok(0)
    );

    // 5 ms into a schedule 500 frames are due, and exactly the due ones
    // come. (The clock starts at its first reading, so "5 ms ago" may not
    // exist yet: let the time pass instead.)
    let sched = Schedule {
        start_ns: mono_ns(),
        pps,
    };
    while mono_ns() < sched.start_ns + 5_000_000 {
        std::hint::spin_loop();
    }
    let source = WireSource::new(table(), &[WireMode::Rate(sched)]);
    let q = source.queue(0);
    let mut lent = 0u64;
    loop {
        let before = mono_ns();
        let n = q
            .poll_batch(256, &mut |f| {
                assert_eq!(sched.index(f.ts_ns), Some(lent), "ts_ns is the due time");
                lent += 1;
            })
            .unwrap();
        let after = mono_ns();
        assert!(
            lent <= sched.due_by(after),
            "a frame was lent before it was due"
        );
        q.recycle(n).unwrap();
        if n < 256 {
            assert!(lent >= sched.due_by(before), "a due frame was held back");
            break;
        }
    }
    assert!(lent >= 500);
}

#[test]
fn schedule_inverts_exactly() {
    for pps in [1, 3, 100_000, 300_000, 999_983, 14_880_952] {
        let s = Schedule {
            start_ns: 123_456_789,
            pps,
        };
        for i in (0..2_000).chain([1_000_003, 29_999_999]) {
            let due = s.due(i);
            assert_eq!(s.index(due), Some(i), "pps {pps}, packet {i}");
            assert!(s.due_by(due) > i);
            assert!(due == s.start_ns || s.due_by(due - 1) <= i);
        }
        assert_eq!(s.due_by(s.start_ns - 1), 0);
        assert_eq!(s.index(s.start_ns - 1), None);
    }
    // A time between two due times is nobody's.
    let s = Schedule {
        start_ns: 0,
        pps: 300_000,
    };
    assert_eq!(s.index(s.due(1) + 1), None);
}
