//! The harness's latency histogram: log-linear buckets (64 per octave,
//! so a bucket is at most 1.6 % wide), exact below 128 ns, constant
//! memory, one increment per sample.
//!
//! The engine's own `Log2Histogram` has one bucket per octave — right
//! for a hot path, too coarse to put a 10 % bound on a median — so the
//! benchmark measures with its own and reports the engine's beside it.

/// Sub-buckets per octave, as a shift.
const SUB_SHIFT: u32 = 6;
const SUB: u64 = 1 << SUB_SHIFT;
/// Values at or above 2^40 ns (18 minutes) land in the last bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_SHIFT) as usize + 2) * SUB as usize;

/// A latency histogram over nanosecond samples.
#[derive(Clone)]
pub struct LatHist {
    counts: Box<[u64]>,
    count: u64,
    max: u64,
}

impl Default for LatHist {
    fn default() -> Self {
        LatHist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            count: 0,
            max: 0,
        }
    }
}

/// Bucket of `v`: values below `2·SUB` map to themselves; above, the top
/// `SUB_SHIFT + 1` bits select the bucket.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // ≥ SUB_SHIFT + 1
    let sub = (v >> (exp - SUB_SHIFT)) - SUB;
    let b = ((exp - SUB_SHIFT) as u64 * SUB + SUB + sub) as usize;
    b.min(BUCKETS - 1)
}

/// Inclusive lower and exclusive upper edge of bucket `b`.
fn edges(b: usize) -> (u64, u64) {
    let b = b as u64;
    if b < 2 * SUB {
        return (b, b + 1);
    }
    let octave = b / SUB - 1; // 1 for the first log bucket row
    let sub = b % SUB;
    let lo = (SUB + sub) << octave;
    (lo, lo + (1 << octave))
}

impl LatHist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.record_n(ns, 1);
    }

    /// Records the same sample `n` times.
    #[inline]
    pub fn record_n(&mut self, ns: u64, n: u64) {
        self.counts[bucket_of(ns)] += n;
        self.count += n;
        self.max = self.max.max(ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample recorded (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LatHist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) in nanoseconds, interpolated
    /// linearly by rank inside the bucket that holds it; 0.0 when empty.
    /// Within one bucket width (≤ 1.6 %) of the exact order statistic.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64)
            .ceil()
            .clamp(1.0, self.count as f64) as u64;
        let mut seen = 0u64;
        for (b, &n) in self.counts.iter().enumerate() {
            if n > 0 && seen + n >= rank {
                let (lo, hi) = edges(b);
                let hi = hi.min(self.max + 1);
                let frac = (rank - seen) as f64 / n as f64;
                return lo as f64 + (hi.saturating_sub(lo)) as f64 * frac;
            }
            seen += n;
        }
        self.max as f64
    }
}

/// Median of `values` (mean of the middle two for an even count);
/// 0.0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median absolute deviation of `values` from their median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&dev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut expect_lo = 0u64;
        for b in 0..BUCKETS {
            let (lo, hi) = edges(b);
            assert_eq!(
                lo,
                expect_lo,
                "bucket {b} starts where {} ended",
                b.max(1) - 1
            );
            assert!(hi > lo);
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(hi - 1), b);
            expect_lo = hi;
        }
        assert_eq!(expect_lo, 1 << (MAX_EXP + 1));
    }
}
