//! A fixed-size latency histogram for `serve stats`.
//!
//! Buckets are log-linear over microseconds: one bucket per microsecond
//! below 16 µs, then 16 equal sub-buckets per power of two up to 2^41 µs
//! (about 25 days; anything longer lands in the last bucket). A bucket is
//! at most 1/16 of its lower bound wide, so a percentile reported as its
//! bucket's midpoint is within 1/32 (3.2%) of the exact nearest-rank
//! sample above 16 µs, and within 0.5 µs below. Memory is 608 counters
//! however many requests are recorded, and recording takes no lock.

use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the sub-buckets per power of two.
const SUB_BITS: u32 = 4;
/// Sub-buckets per power of two, and the width of the linear range.
const SUB: u64 = 1 << SUB_BITS;
/// The highest power of two with its own sub-buckets.
const TOP_BIT: u32 = 40;
/// Linear buckets, then `SUB` per power of two from 2^SUB_BITS to 2^TOP_BIT.
const BUCKETS: usize = (SUB + (TOP_BIT - SUB_BITS + 1) as u64 * SUB) as usize;

/// The bucket holding a sample of `micros`.
fn bucket(micros: u64) -> usize {
    if micros < SUB {
        return micros as usize;
    }
    let top = 63 - micros.leading_zeros();
    if top > TOP_BIT {
        return BUCKETS - 1;
    }
    let octave = top - SUB_BITS;
    let sub = (micros >> octave) - SUB;
    (SUB + u64::from(octave) * SUB + sub) as usize
}

/// The `[low, low + width)` microsecond range of bucket `index`.
fn bounds(index: usize) -> (u64, u64) {
    let index = index as u64;
    if index < SUB {
        return (index, 1);
    }
    let octave = (index - SUB) / SUB;
    let sub = (index - SUB) % SUB;
    ((SUB + sub) << octave, 1 << octave)
}

fn micros(millis: f64) -> u64 {
    // Saturating: negative and NaN samples count as 0 µs.
    (millis * 1_000.0) as u64
}

/// Request latencies in fixed log-linear buckets, plus the exact maximum.
#[derive(Debug)]
pub(crate) struct LatencyHistogram {
    counts: Box<[AtomicU64]>,
    /// Bits of the largest sample; non-negative floats order as their bits.
    max_bits: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            max_bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl LatencyHistogram {
    /// Records one latency, in milliseconds.
    pub(crate) fn record(&self, millis: f64) {
        self.counts[bucket(micros(millis))].fetch_add(1, Ordering::Relaxed);
        self.max_bits
            .fetch_max(millis.max(0.0).to_bits(), Ordering::Relaxed);
    }

    /// Samples recorded.
    pub(crate) fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// The largest sample, exactly; 0 when empty.
    pub(crate) fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// The nearest-rank `q`-quantile, in milliseconds: the midpoint of the
    /// bucket holding the sample of that rank, capped at the maximum; 0
    /// when empty.
    pub(crate) fn percentile(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        let index = counts
            .iter()
            .position(|&n| {
                seen += n;
                seen >= rank
            })
            .expect("the ranks sum to the total");
        let (low, width) = bounds(index);
        ((low as f64 + width as f64 / 2.0) / 1_000.0).min(self.max())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest-rank percentile over an already-sorted sample.
    fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    #[test]
    fn buckets_tile_the_range() {
        let mut next = 0;
        for index in 0..BUCKETS {
            let (low, width) = bounds(index);
            assert_eq!(
                low,
                next,
                "bucket {index} starts where {} ends",
                index.wrapping_sub(1)
            );
            assert_eq!(bucket(low), index);
            assert_eq!(bucket(low + width - 1), index);
            assert!(
                index < SUB as usize || width * SUB <= low,
                "bucket {index} too wide"
            );
            next = low + width;
        }
        assert_eq!(next, 1 << (TOP_BIT + 1));
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_stay_within_one_bucket_of_nearest_rank() {
        // xorshift64*: deterministic samples spread log-uniformly from
        // 1 µs to 100 s.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let unit =
                (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64;
            10f64.powf(-3.0 + 8.0 * unit)
        };
        for size in [1, 2, 3, 10, 99, 1_000, 20_000] {
            let histogram = LatencyHistogram::default();
            let mut samples: Vec<f64> = (0..size).map(|_| draw()).collect();
            for &s in &samples {
                histogram.record(s);
            }
            samples.sort_by(f64::total_cmp);
            assert_eq!(histogram.count(), size as u64);
            assert_eq!(histogram.max(), *samples.last().expect("nonempty"));
            for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
                let exact = nearest_rank(&samples, q);
                let approx = histogram.percentile(q);
                let (b_exact, b_approx) = (bucket(micros(exact)), bucket(micros(approx)));
                assert!(
                    b_exact.abs_diff(b_approx) <= 1,
                    "size {size}, q {q}: {approx} ms (bucket {b_approx}) vs nearest-rank \
                     {exact} ms (bucket {b_exact})"
                );
                assert!(approx <= histogram.max());
            }
        }
    }

    #[test]
    fn empty_and_single_samples() {
        let histogram = LatencyHistogram::default();
        assert_eq!(
            (
                histogram.count(),
                histogram.percentile(0.5),
                histogram.max()
            ),
            (0, 0.0, 0.0)
        );
        histogram.record(7.0);
        assert_eq!(histogram.percentile(0.99), 7.0, "capped at the exact max");
        assert_eq!(histogram.max(), 7.0);
    }
}
