//! A log-linear latency histogram with fixed memory.
//!
//! Values below 128 are counted exactly. Above that, each power of two
//! `[2^k, 2^(k+1))` is split into 64 equal sub-buckets, so a bucket is
//! at most 1/64 of its lower edge wide. Quantiles report the bucket
//! midpoint, which is within 0.8% of every value in the bucket — well
//! inside the 2% relative-error budget. The whole `u64` range fits in
//! 3,776 counters (about 30 KB), whatever the sample count.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const EXACT: u64 = 2 * SUB;
const BUCKETS: usize = (EXACT + (63 - SUB_BITS as u64) * SUB) as usize;

/// Counts of values (nanoseconds, by convention) in log-linear buckets.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn index_of(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as u64;
    let shift = msb - SUB_BITS as u64;
    let mantissa = (v >> shift) - SUB;
    (EXACT + (shift - 1) * SUB + mantissa) as usize
}

/// The `[low, high)` value range of bucket `i`.
fn range_of(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < EXACT {
        return (i, i + 1);
    }
    let shift = (i - EXACT) / SUB + 1;
    let mantissa = (i - EXACT) % SUB + SUB;
    (mantissa << shift, (mantissa + 1) << shift)
}

impl Histogram {
    /// Count one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index_of(v)] += 1;
        self.total += 1;
    }

    /// Add every count of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Values counted.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (0 < q ≤ 1): the midpoint of the bucket holding
    /// the value of rank `ceil(q · count)`. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = range_of(i);
                return (lo as f64 + hi as f64 - 1.0) / 2.0;
            }
        }
        unreachable!("rank {rank} beyond {} counted values", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        for i in 0..BUCKETS - 1 {
            let (lo, hi) = range_of(i);
            assert_eq!(index_of(lo), i);
            assert_eq!(index_of(hi - 1), i);
            assert_eq!(range_of(i + 1).0, hi, "gap after bucket {i}");
        }
        assert_eq!(index_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_stay_within_two_percent() {
        let mut v = 1u64;
        while v < 1 << 50 {
            let mut h = Histogram::default();
            h.record(v);
            let got = h.quantile(0.5);
            assert!(
                (got - v as f64).abs() <= 0.02 * v as f64,
                "{v} read back as {got}"
            );
            v = v * 17 / 16 + 1;
        }
    }

    #[test]
    fn quantile_ranks() {
        let mut h = Histogram::default();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.99), 99.0);
        assert_eq!(h.quantile(1.0), 100.0);
    }
}
