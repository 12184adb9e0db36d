//! Correctness checks, run on every benchmark run.
//!
//! 1. Per home queue the delivered sequence numbers are exactly the ones
//!    the source put on the wire, each once: count, sum and xor agree
//!    (and, where one consumer sees a whole queue, they strictly
//!    increase). Every [`PAYLOAD_CHECK_STRIDE`]th packet is byte-compared
//!    against the frame table.
//! 2. The engine's own ledger balances ([`check_ledger`]).

use crate::frames::{FrameTable, Schedule};
use crate::plan::PAYLOAD_CHECK_STRIDE;
use telemetry::EngineSnapshot;

/// Count, wrapping sum and xor of a set of sequence numbers: equal for
/// two multisets only if (for all practical purposes) they are the same.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeqAcc {
    /// Sequence numbers folded in.
    pub count: u64,
    /// Their wrapping sum.
    pub sum: u64,
    /// Their xor.
    pub xor: u64,
}

impl SeqAcc {
    /// Folds one sequence number in.
    #[inline]
    pub fn add(&mut self, seq: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(seq);
        self.xor ^= seq;
    }

    /// Folds another accumulator in.
    pub fn merge(&mut self, other: &SeqAcc) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.xor ^= other.xor;
    }

    /// The accumulator of `0..n`, in closed form.
    pub fn range(n: u64) -> SeqAcc {
        let sum = (u128::from(n) * u128::from(n.saturating_sub(1)) / 2) as u64;
        // xor of 0..=m cycles with period 4.
        let xor = match n.checked_sub(1) {
            None => 0,
            Some(m) => match m % 4 {
                0 => m,
                1 => 1,
                2 => m + 1,
                _ => 0,
            },
        };
        SeqAcc { count: n, sum, xor }
    }
}

/// How a packet's `ts_ns` encodes its sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqMap {
    /// `ts_ns` is the sequence number (saturating wire queue).
    Direct,
    /// `ts_ns` is the due time of this schedule (rate and paced sources).
    Scheduled(Schedule),
}

/// The running check of one home queue as seen by one consumer.
#[derive(Debug, Clone)]
pub struct QueueCheck {
    map: SeqMap,
    /// What was delivered.
    pub acc: SeqAcc,
    last: Option<u64>,
    /// Packets that did not come after their predecessor.
    pub out_of_order: u64,
    /// Packets whose `ts_ns` is not a sequence number of the source.
    pub unmapped: u64,
    /// Packets byte-compared against the table, and how many differed.
    pub payload_checked: u64,
    /// Of those, how many differed in bytes or `wire_len`.
    pub payload_mismatch: u64,
}

impl QueueCheck {
    /// A fresh check for a queue whose packets map to sequence numbers
    /// through `map`.
    pub fn new(map: SeqMap) -> Self {
        QueueCheck {
            map,
            acc: SeqAcc::default(),
            last: None,
            out_of_order: 0,
            unmapped: 0,
            payload_checked: 0,
            payload_mismatch: 0,
        }
    }

    /// Checks one delivered packet; returns its sequence number.
    #[inline]
    pub fn packet(
        &mut self,
        table: &FrameTable,
        ts_ns: u64,
        wire_len: u32,
        data: &[u8],
    ) -> Option<u64> {
        let seq = match self.map {
            SeqMap::Direct => ts_ns,
            SeqMap::Scheduled(s) => match s.index(ts_ns) {
                Some(i) => i,
                None => {
                    self.unmapped += 1;
                    return None;
                }
            },
        };
        self.acc.add(seq);
        if self.last.is_some_and(|l| seq <= l) {
            self.out_of_order += 1;
        }
        self.last = Some(seq);
        if seq % PAYLOAD_CHECK_STRIDE == 0 {
            self.payload_checked += 1;
            if data != table.frame(seq) || wire_len as usize != table.frame_len() {
                self.payload_mismatch += 1;
            }
        }
        Some(seq)
    }

    /// Folds the check another consumer kept for the same home queue in.
    /// Order across consumers means nothing, so `out_of_order` only adds.
    pub fn merge(&mut self, other: &QueueCheck) {
        self.acc.merge(&other.acc);
        self.out_of_order += other.out_of_order;
        self.unmapped += other.unmapped;
        self.payload_checked += other.payload_checked;
        self.payload_mismatch += other.payload_mismatch;
    }

    /// Verdict for this home queue against what the source says it put
    /// on the wire. `ordered` demands strictly increasing delivery (one
    /// consumer saw the whole queue).
    pub fn verdict(&self, queue: usize, expected: &SeqAcc, ordered: bool) -> Result<(), String> {
        if self.unmapped > 0 {
            return Err(format!(
                "queue {queue}: {} packets carry a ts_ns the source never sent",
                self.unmapped
            ));
        }
        if self.acc != *expected {
            return Err(format!(
                "queue {queue}: delivered sequence {:?} is not the sent sequence {:?} \
                 (a packet was lost, duplicated or invented)",
                self.acc, expected
            ));
        }
        if ordered && self.out_of_order > 0 {
            return Err(format!(
                "queue {queue}: {} packets delivered out of order",
                self.out_of_order
            ));
        }
        if self.payload_mismatch > 0 {
            return Err(format!(
                "queue {queue}: {} of {} byte-compared packets differ from the frame table",
                self.payload_mismatch, self.payload_checked
            ));
        }
        Ok(())
    }
}

/// The conservation ledger of a final [`EngineSnapshot`] (taken after
/// shutdown, so every counter has settled), plus the harness's own count
/// of what it was handed.
pub fn check_ledger(snap: &EngineSnapshot, harness_delivered: u64) -> Result<(), String> {
    let t = snap.total();
    let laws = [
        (
            "offered == captured + capture_drop + nic_drop",
            t.offered_packets,
            t.captured_packets + t.capture_drop_packets + t.nic_drop_packets,
        ),
        (
            "captured == delivered + delivery_drop",
            t.captured_packets,
            t.delivered_packets + t.delivery_drop_packets,
        ),
        (
            "sealed_chunks == recycled_chunks",
            t.sealed_chunks,
            t.recycled_chunks,
        ),
        (
            "steal_in == steal_out",
            t.steal_in_chunks,
            t.steal_out_chunks,
        ),
        (
            "harness deliveries == delivered_packets",
            harness_delivered,
            t.delivered_packets,
        ),
    ];
    for (law, lhs, rhs) in laws {
        if lhs != rhs {
            return Err(format!("ledger: {law} violated: {lhs} != {rhs}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_matches_folding() {
        for n in [0u64, 1, 2, 3, 4, 5, 63, 64, 65, 1000, 4097] {
            let mut acc = SeqAcc::default();
            (0..n).for_each(|s| acc.add(s));
            assert_eq!(SeqAcc::range(n), acc, "n = {n}");
        }
    }
}
