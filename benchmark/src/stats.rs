//! Order statistics used by every reported metric.
//!
//! A shared 2-vCPU host only ever *subtracts* throughput and *adds* latency,
//! and an interference burst lasts seconds. The estimators here are therefore
//! near-best ones (p90 of per-segment throughput, p10 of set-up time) next to
//! the plain median; see README.md, "Why near-best".

/// The `q`-quantile (`0.0 ..= 1.0`) of `values` with linear interpolation
/// between the two closest ranks. Returns `None` for an empty input.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// [`percentile`] of a non-empty sample; panics on an empty one (a harness
/// bug: every caller measures at least one segment / op / repeat).
pub fn pct(values: &[f64], q: f64) -> f64 {
    percentile(values, q).expect("percentile of an empty sample")
}

/// Interquartile range as a percentage of the median.
pub fn iqr_pct(values: &[f64]) -> f64 {
    let median = pct(values, 0.5);
    if median == 0.0 {
        return 0.0;
    }
    (pct(values, 0.75) - pct(values, 0.25)) / median * 100.0
}

/// Throughput estimate over per-segment rates (ops per second of each
/// segment): the near-best segment (p90) and the median beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentEstimate {
    /// p90 of the per-segment rates: the uncontended-machine estimate.
    pub near_best: f64,
    /// Median of the per-segment rates: what the host actually delivered.
    pub median: f64,
    /// Interquartile range of the rates, as a percentage of the median.
    pub iqr_pct: f64,
}

impl SegmentEstimate {
    /// Estimate from per-segment rates (at least one).
    pub fn from_rates(rates: &[f64]) -> Self {
        SegmentEstimate {
            near_best: pct(rates, 0.9),
            median: pct(rates, 0.5),
            iqr_pct: iqr_pct(rates),
        }
    }

    /// The interference flag: the host delivered less than 80 % of the
    /// near-best segment in its median segment.
    pub fn contended(&self) -> bool {
        self.median < 0.8 * self.near_best
    }
}

/// Sub-buckets per power of two of a [`Histogram`]: 128 gives buckets 0.8 %
/// wide, and interpolation inside the bucket does better than that.
const SUB_BUCKETS: u64 = 128;

/// A log-linear histogram of nanosecond values (the HdrHistogram layout).
///
/// Per-op latencies go here instead of into a vector so that the memory the
/// harness itself uses does not grow with the number of ops a run completes
/// (`peak_rss_mib` would otherwise report the harness, and a faster library
/// would look like a fatter one).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// One row of values below 128, then one row of 128 sub-buckets per
    /// power of two up to 2^63: 58 rows cover every `u64`.
    counts: Vec<u32>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; (58 * SUB_BUCKETS) as usize],
            total: 0,
        }
    }
}

impl Histogram {
    /// Bucket index of `v`, and the bucket's `[low, low + width)` range.
    fn bucket(v: u64) -> (usize, u64, u64) {
        if v < SUB_BUCKETS {
            return (v as usize, v, 1);
        }
        // Keep the top 8 bits: the leading one plus 7 bits of mantissa.
        let shift = 63 - v.leading_zeros() as u64 - 7;
        let row = shift + 1;
        let sub = (v >> shift) - SUB_BUCKETS;
        let index = (row * SUB_BUCKETS + sub) as usize;
        (index, (v >> shift) << shift, 1 << shift)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns).0] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile in nanoseconds, interpolated inside its bucket.
    /// `None` when nothing was recorded.
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut below = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            if count > 0 && rank < (below + count as u64) as f64 {
                let (low, width) = Self::range_of(index);
                let inside = (rank - below as f64 + 0.5) / count as f64;
                return Some(low as f64 + width as f64 * inside);
            }
            below += count as u64;
        }
        unreachable!("rank {rank} is below the total {}", self.total)
    }

    /// The `[low, low + width)` range of bucket `index`.
    fn range_of(index: usize) -> (u64, u64) {
        let (row, sub) = (index as u64 / SUB_BUCKETS, index as u64 % SUB_BUCKETS);
        if row == 0 {
            (sub, 1)
        } else {
            let shift = row - 1;
            ((SUB_BUCKETS + sub) << shift, 1 << shift)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_tile_the_integers() {
        for v in [
            0,
            1,
            127,
            128,
            129,
            255,
            256,
            257,
            1000,
            65_535,
            65_536,
            1 << 40,
            u64::MAX,
        ] {
            let (index, low, width) = Histogram::bucket(v);
            assert!(low <= v && v - low < width, "{v} not in [{low}, +{width})");
            assert_eq!(Histogram::range_of(index), (low, width), "{v}");
            assert!(width as f64 <= (low.max(1) as f64) / 127.0 + 1.0);
        }
        let (a, _, _) = Histogram::bucket(255);
        let (b, _, _) = Histogram::bucket(256);
        assert_eq!(a + 1, b, "rows are contiguous");
    }

    #[test]
    fn histogram_quantiles_are_within_a_percent() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile_ns(0.5), None);
        let values: Vec<u64> = (0..10_000).map(|i| 50_000 + 37 * i).collect();
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.len(), 10_000);
        let exact: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let (got, want) = (h.quantile_ns(q).unwrap(), pct(&exact, q));
            assert!((got - want).abs() / want < 0.01, "q{q}: {got} vs {want}");
        }
    }

    #[test]
    fn percentile_interpolates_between_closest_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(percentile(&v, 0.5), Some(2.5));
        assert!((pct(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
    }

    #[test]
    fn iqr_is_relative_to_the_median() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert!((iqr_pct(&v) - (40.0 - 20.0) / 30.0 * 100.0).abs() < 1e-9);
        assert_eq!(iqr_pct(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn segment_estimate_ignores_interference_dips() {
        // 18 clean segments at ~100 op/s and 2 that lost the core.
        let mut rates = vec![100.0; 18];
        rates.extend([40.0, 55.0]);
        let e = SegmentEstimate::from_rates(&rates);
        assert_eq!(e.near_best, 100.0);
        assert_eq!(e.median, 100.0);
        assert!(!e.contended());
        // More than half the segments contended: the median drops, the
        // near-best segment does not, and the run is flagged.
        let mut rates = vec![50.0; 12];
        rates.extend([100.0; 8]);
        let e = SegmentEstimate::from_rates(&rates);
        assert_eq!(e.near_best, 100.0);
        assert_eq!(e.median, 50.0);
        assert!(e.contended());
    }
}
