//! Order statistics over measured samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted`, linearly interpolated
/// between order statistics, so the value keeps every digit measured.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The `q`-quantile of `samples` (sorted in place).
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    quantile_sorted(samples, q)
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Request latencies in log-linear buckets: exact below 128 ns, then
/// 128 buckets per power of two (under 0.8% wide) up to 2^26 ns (67 ms),
/// the last bucket holding everything slower. Memory stays at one 10 KiB
/// array however many requests are recorded.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    buckets: Vec<u32>,
    count: u64,
    sum_ns: u128,
}

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const MAX_NS: u64 = (1 << 26) - 1;

/// The bucket of `ns` and, inversely, the `[start, start + width)` range
/// of a bucket.
fn bucket_of(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let shift = 63 - ns.leading_zeros() - SUB_BITS;
    (SUB + u64::from(shift) * SUB + ((ns >> shift) - SUB)) as usize
}

fn bucket_range(b: usize) -> (f64, f64) {
    let b = b as u64;
    if b < SUB {
        return (b as f64, 1.0);
    }
    let shift = (b - SUB) / SUB;
    let sub = (b - SUB) % SUB;
    (((SUB + sub) << shift) as f64, (1u64 << shift) as f64)
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self {
            buckets: vec![0; bucket_of(MAX_NS) + 1],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl LatencyHist {
    pub fn record(&mut self, ns: u64) {
        self.buckets[bucket_of(ns.min(MAX_NS))] += 1;
        self.count += 1;
        self.sum_ns += u128::from(ns);
    }

    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean_ns(&self) -> f64 {
        self.sum_ns as f64 / self.count.max(1) as f64
    }

    /// The `q`-quantile in ns, interpolated by rank within its bucket.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let target = q * self.count as f64;
        let mut below = 0.0;
        for (b, &n) in self.buckets.iter().enumerate() {
            let n = f64::from(n);
            if n > 0.0 && below + n >= target {
                let (start, width) = bucket_range(b);
                return start + width * (target - below) / n;
            }
            below += n;
        }
        0.0
    }
}

/// The indices of a run's units (windows, passes or runs) at least as
/// calm as its calmest quarter: those during which the hypervisor stole
/// no more host CPU than the quarter least stolen from. Run-level figures
/// are taken over these, so a neighbour's burst on the host moves them
/// less, while a change that slows every unit still shows. On a quiet
/// host most units tie at no steal and all of them count.
pub fn calmest_quarter(steal: &[f64]) -> Vec<usize> {
    let mut sorted = steal.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(&limit) = sorted.get(steal.len().div_ceil(4).saturating_sub(1)) else {
        return Vec::new();
    };
    (0..steal.len()).filter(|&i| steal[i] <= limit).collect()
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The `q`-quantile of an integer-valued distribution given as
/// `(value, count)` in increasing value order, treating each value `v`
/// as the interval `[v - 0.5, v + 0.5)` (the grouped-data percentile).
/// Unlike the nearest-rank value it moves with the shape inside the
/// quantile's bucket, not only when the bucket changes.
pub fn grouped_quantile(hist: impl IntoIterator<Item = (u64, u64)>, total: u64, q: f64) -> f64 {
    let target = q * total as f64;
    let mut below = 0.0;
    let mut last = 0.0;
    for (value, count) in hist {
        let count = count as f64;
        if below + count >= target && count > 0.0 {
            return value as f64 - 0.5 + (target - below) / count;
        }
        below += count;
        last = value as f64 + 0.5;
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
    }

    #[test]
    fn latency_buckets_cover_their_values() {
        for ns in [
            0,
            1,
            127,
            128,
            129,
            255,
            256,
            1_000,
            46_123,
            5_000_000,
            1 << 40,
        ] {
            let (start, width) = bucket_range(bucket_of(ns));
            assert!(
                start <= ns as f64 && (ns as f64) < start + width.max(1.0),
                "{ns}"
            );
            assert!(width <= (ns as f64 / SUB as f64).max(1.0), "{ns}");
        }
    }

    #[test]
    fn latency_hist_quantiles() {
        let mut h = LatencyHist::default();
        for ns in [1_000, 1_000, 5_000_000] {
            h.record(ns);
        }
        let p50 = h.quantile_ns(0.5);
        assert!((992.0..=1_008.0).contains(&p50), "{p50}");
        let max = h.quantile_ns(1.0);
        assert!((4_960_000.0..=5_040_000.0).contains(&max), "{max}");
        assert_eq!(h.mean_ns(), 5_002_000.0 / 3.0);
        // Slower than the last bucket: counted there.
        h.record(1 << 40);
        assert!(h.quantile_ns(1.0) <= (MAX_NS + 1) as f64);
    }

    #[test]
    fn calmest_quarter_keeps_the_least_stolen_units() {
        let steal = [0.3, 0.0, 0.2, 0.1, 0.5, 0.6, 0.7, 0.8];
        assert_eq!(calmest_quarter(&steal), vec![1, 3]);
        assert_eq!(calmest_quarter(&[0.4]), vec![0]);
        assert_eq!(calmest_quarter(&[0.1, 0.1, 0.1, 0.2]), vec![0, 1, 2]);
    }

    #[test]
    fn grouped_quantile_spreads_within_a_bucket() {
        // 10 observations of 5: the median sits mid-bucket.
        assert_eq!(grouped_quantile([(5, 10)], 10, 0.5), 5.0);
        // 2 of 1 and 2 of 3: the median is the top of the 1-bucket.
        assert_eq!(grouped_quantile([(1, 2), (3, 2)], 4, 0.5), 1.5);
    }
}
