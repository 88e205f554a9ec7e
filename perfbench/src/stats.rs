//! Sample bookkeeping: named sample lists reported as medians, a latency
//! histogram with interpolated quantiles, and a content hash.

use std::collections::BTreeMap;

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty slice.
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

/// Observations per metric name, reported as the median with its count.
#[derive(Debug, Default, Clone)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.0.entry(name.into()).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn median(&self, name: &str) -> f64 {
        median(self.get(name))
    }
}

/// Values below this are counted in 1 ns buckets.
const LINEAR: u64 = 1 << 10;
/// Above `LINEAR`, each power of two is split into `1 << SUB_BITS`
/// buckets (1.6% relative width).
const SUB_BITS: u32 = 6;
/// Covers values up to 2^40 ns (~18 minutes).
const BUCKETS: usize = LINEAR as usize + (40 - 10) * (1 << SUB_BITS);

/// A log-linear histogram of nanosecond latencies: exact below 1 µs,
/// 1.6% buckets above. Quantiles interpolate linearly inside the
/// bucket holding the requested rank.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn bucket(v: u64) -> usize {
    if v < LINEAR {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) & ((1 << SUB_BITS) - 1);
    (LINEAR as usize + ((e - 10) as usize) * (1 << SUB_BITS) + sub as usize).min(BUCKETS - 1)
}

/// `[lo, hi)` of bucket `i`.
fn bucket_bounds(i: usize) -> (f64, f64) {
    if i < LINEAR as usize {
        return (i as f64, i as f64 + 1.0);
    }
    let j = i - LINEAR as usize;
    let e = 10 + (j >> SUB_BITS) as u32;
    let width = (1u64 << (e - SUB_BITS)) as f64;
    let lo = (1u64 << e) as f64 + (j & ((1 << SUB_BITS) - 1)) as f64 * width;
    (lo, lo + width)
}

impl LatencyHist {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q` quantile in nanoseconds; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (seen + c) as f64 > rank {
                let (lo, hi) = bucket_bounds(i);
                return lo + (hi - lo) * (rank - seen as f64 + 0.5) / c as f64;
            }
            seen += c;
        }
        bucket_bounds(BUCKETS - 1).1
    }
}

/// 64-bit FNV-1a: the content hash for reports, checkpoints and answers.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn buckets_are_contiguous() {
        for i in 0..BUCKETS - 1 {
            assert_eq!(bucket_bounds(i).1, bucket_bounds(i + 1).0, "bucket {i}");
        }
        for v in [0, 1, 1023, 1024, 1500, 35_000, 1 << 30] {
            let (lo, hi) = bucket_bounds(bucket(v));
            assert!(lo <= v as f64 && (v as f64) < hi, "{v} in [{lo}, {hi})");
        }
    }

    #[test]
    fn quantiles_track_the_distribution() {
        let mut h = LatencyHist::default();
        for v in 1..=1000u64 {
            h.record(v * 100);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 / 50_000.0 - 1.0).abs() < 0.02, "p50 {p50}");
        assert!((p99 / 99_000.0 - 1.0).abs() < 0.02, "p99 {p99}");
    }
}
