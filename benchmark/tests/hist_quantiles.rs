//! The harness histogram against a sorted reference.

use wcbench::frames::Rng;
use wcbench::hist::{mad, median, LatHist};

/// The exact order statistic the histogram's rank rule targets.
fn reference(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[test]
fn quantiles_are_within_one_bucket_of_the_sorted_reference() {
    let mut rng = Rng::new(42);
    // Log-uniform over 100 ns … 100 ms: every octave the latencies span.
    let mut samples: Vec<u64> = (0..200_000)
        .map(|_| {
            let r = rng.next_u64();
            let octave = 7 + r % 20;
            (1u64 << octave) + (r >> 8) % (1u64 << octave)
        })
        .collect();
    let mut h = LatHist::new();
    samples.iter().for_each(|&s| h.record(s));
    samples.sort_unstable();
    assert_eq!(h.count(), samples.len() as u64);
    assert_eq!(h.max(), *samples.last().unwrap());
    for q in [0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
        let want = reference(&samples, q) as f64;
        let got = h.quantile(q);
        let err = (got - want).abs() / want;
        assert!(
            err <= 1.0 / 64.0 + 1e-9,
            "q = {q}: got {got}, want {want}, err {err}"
        );
    }
}

#[test]
fn small_values_are_exact() {
    let mut h = LatHist::new();
    (0..128u64).for_each(|v| h.record(v));
    for v in 0..128u64 {
        let q = (v + 1) as f64 / 128.0;
        // Interpolation inside a one-wide bucket lands on its upper edge.
        assert!((h.quantile(q) - v as f64).abs() <= 1.0, "q = {q}");
    }
    assert_eq!(LatHist::new().quantile(0.5), 0.0);
}

#[test]
fn merge_and_record_n_equal_recording_one_by_one() {
    let mut rng = Rng::new(9);
    let values: Vec<u64> = (0..10_000).map(|_| rng.next_u64() % 5_000_000).collect();
    let mut whole = LatHist::new();
    let (mut a, mut b) = (LatHist::new(), LatHist::new());
    for (i, &v) in values.iter().enumerate() {
        whole.record(v);
        whole.record(v);
        if i % 2 == 0 {
            a.record_n(v, 2);
        } else {
            b.record_n(v, 2);
        }
    }
    a.merge(&b);
    assert_eq!(a.count(), whole.count());
    assert_eq!(a.max(), whole.max());
    for q in [0.1, 0.5, 0.9, 0.99] {
        assert_eq!(a.quantile(q), whole.quantile(q));
    }
}

#[test]
fn median_and_mad() {
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
}
