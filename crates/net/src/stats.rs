//! Simulation statistics: hop counts, latency, link loads, and the
//! [`ExactHistogram`] backing the `--metrics` report.

use std::collections::BTreeMap;
use std::fmt;

/// An exact-value histogram over unsigned tick/count quantities.
///
/// The observed quantities (per-hop latencies, queue waits, queue
/// depths, hop counts) are small integers, so the histogram keeps one
/// bucket per distinct value in a `BTreeMap` — no binning, no loss.
/// Recording is `O(log distinct)`; all summary statistics are exact.
///
/// # Examples
///
/// ```
/// use debruijn_net::ExactHistogram;
///
/// let mut h = ExactHistogram::new();
/// for v in [1, 2, 2, 3] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.mean(), 2.0);
/// assert_eq!(h.percentile(50.0), Some(2));
/// assert_eq!(h.max(), Some(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExactHistogram {
    buckets: BTreeMap<u64, u64>,
    count: u64,
    sum: u128,
}

impl ExactHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn record(&mut self, value: u64) {
        *self.buckets.entry(value).or_insert(0) += 1;
        self.count += 1;
        self.sum += u128::from(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Smallest observation, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        self.buckets.keys().next().copied()
    }

    /// Largest observation, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        self.buckets.keys().next_back().copied()
    }

    /// Nearest-rank percentile: the smallest recorded value `v` such
    /// that at least `p`% of observations are `≤ v`. `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!(
            (0.0..=100.0).contains(&p),
            "percentile must lie in [0, 100]"
        );
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (&value, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(value);
            }
        }
        self.max()
    }

    /// Population variance (exact, over the recorded multiset).
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mean = self.mean();
        let acc: f64 = self
            .buckets
            .iter()
            .map(|(&v, &n)| n as f64 * (v as f64 - mean).powi(2))
            .sum();
        acc / self.count as f64
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Iterates `(value, count)` in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().map(|(&v, &n)| (v, n))
    }
}

impl fmt::Display for ExactHistogram {
    /// Renders one `value  count  bar` row per bucket, bar scaled to
    /// the fullest bucket; empty histograms render as `(empty)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return writeln!(f, "  (empty)");
        }
        const BAR: usize = 40;
        let fullest = self.buckets.values().copied().max().expect("non-empty");
        for (&value, &n) in &self.buckets {
            let len = ((n as f64 / fullest as f64) * BAR as f64).ceil() as usize;
            writeln!(f, "  {value:>6}  {n:>8}  {}", "#".repeat(len))?;
        }
        Ok(())
    }
}

/// Aggregate result of one simulation run.
///
/// Produced by [`crate::ShardedSimulation::run`]. All times are in simulator
/// ticks; link keys are `(from_rank, to_rank)` word ranks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SimReport {
    /// Messages injected (including ones dropped at the source).
    pub injected: usize,
    /// Messages accepted at their destination.
    pub delivered: usize,
    /// Messages lost to faults (at the source, in transit, or at a faulty
    /// destination).
    pub dropped: usize,
    /// Losses broken out by [`DropReason::name`](crate::DropReason::name)
    /// (kebab-case); the values sum to `dropped`.
    pub dropped_by_reason: BTreeMap<&'static str, u64>,
    /// `hops → number of delivered messages with that hop count`.
    pub hop_histogram: BTreeMap<usize, usize>,
    /// Total hops over all delivered messages.
    pub total_hops: u64,
    /// Sum of delivery latencies (delivery time − injection time).
    pub latency_total: u64,
    /// Maximum delivery latency.
    pub latency_max: u64,
    /// Time of the last delivery.
    pub makespan: u64,
    /// Messages carried per directed link.
    pub link_loads: BTreeMap<(u128, u128), u64>,
    /// Number of directed links the network offers (0 if unknown, e.g.
    /// when the space is too large to enumerate).
    pub total_links: usize,
    /// Longest time any message waited for a busy link.
    pub max_queue_wait: u64,
    /// Sum of all per-hop waiting times (queueing delay in the latency).
    pub total_queue_wait: u64,
}

/// Summary statistics of the per-link load distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkLoadSummary {
    /// Links that carried at least one message.
    pub links_used: usize,
    /// Heaviest per-link load.
    pub max: u64,
    /// Mean load over all network links (unused links count as 0); over
    /// used links when the network size is unknown.
    pub mean: f64,
    /// Standard deviation on the same population as `mean`.
    pub std_dev: f64,
}

impl SimReport {
    /// Mean hops per delivered message.
    pub fn mean_hops(&self) -> f64 {
        if self.delivered == 0 {
            return 0.0;
        }
        self.total_hops as f64 / self.delivered as f64
    }

    /// Mean delivery latency in ticks.
    pub fn mean_latency(&self) -> f64 {
        if self.delivered == 0 {
            return 0.0;
        }
        self.latency_total as f64 / self.delivered as f64
    }

    /// Delivered fraction of injected messages.
    pub fn delivery_rate(&self) -> f64 {
        if self.injected == 0 {
            return 1.0;
        }
        self.delivered as f64 / self.injected as f64
    }

    /// Largest hop count among delivered messages.
    pub fn max_hops(&self) -> usize {
        self.hop_histogram.keys().copied().max().unwrap_or(0)
    }

    /// Summarizes the link-load distribution (the E7 balance metric).
    pub fn link_load_summary(&self) -> LinkLoadSummary {
        let links_used = self.link_loads.len();
        let max = self.link_loads.values().copied().max().unwrap_or(0);
        let population = if self.total_links > 0 {
            self.total_links
        } else {
            links_used.max(1)
        };
        let sum: u64 = self.link_loads.values().sum();
        let mean = sum as f64 / population as f64;
        let mut var_acc: f64 = self
            .link_loads
            .values()
            .map(|&v| (v as f64 - mean).powi(2))
            .sum();
        // Unused links contribute (0 − mean)² each.
        let zeros = population.saturating_sub(links_used);
        var_acc += zeros as f64 * mean * mean;
        let std_dev = (var_acc / population as f64).sqrt();
        LinkLoadSummary {
            links_used,
            max,
            mean,
            std_dev,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_has_sane_defaults() {
        let r = SimReport::default();
        assert_eq!(r.mean_hops(), 0.0);
        assert_eq!(r.mean_latency(), 0.0);
        assert_eq!(r.delivery_rate(), 1.0);
        assert_eq!(r.max_hops(), 0);
        let s = r.link_load_summary();
        assert_eq!(s.max, 0);
        assert_eq!(s.links_used, 0);
    }

    #[test]
    fn means_divide_by_delivered() {
        let r = SimReport {
            injected: 4,
            delivered: 2,
            dropped: 2,
            total_hops: 6,
            latency_total: 10,
            ..SimReport::default()
        };
        assert_eq!(r.mean_hops(), 3.0);
        assert_eq!(r.mean_latency(), 5.0);
        assert_eq!(r.delivery_rate(), 0.5);
    }

    #[test]
    fn link_summary_accounts_for_unused_links() {
        let mut r = SimReport {
            total_links: 4,
            ..SimReport::default()
        };
        r.link_loads.insert((0, 1), 4);
        r.link_loads.insert((1, 2), 4);
        let s = r.link_load_summary();
        assert_eq!(s.links_used, 2);
        assert_eq!(s.max, 4);
        assert!((s.mean - 2.0).abs() < 1e-12);
        // loads are [4, 4, 0, 0] → variance 4, std 2.
        assert!((s.std_dev - 2.0).abs() < 1e-12);
    }
}
