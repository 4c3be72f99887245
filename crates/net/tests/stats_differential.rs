//! Differential tests for both histogram implementations.
//!
//! A deliberately naive reference — keep every sample in a sorted
//! `Vec` — pins down what `percentile`, `variance` and `std_dev` must
//! mean. The [`ExactHistogram`] must agree with it bit for bit; the
//! log-bucketed [`LogHistogram`] must agree within its documented
//! error bound (and the 2% bound the telemetry layer promises) on a
//! million-sample run.

use debruijn_core::rng::SplitMix64;
use debruijn_net::telemetry::LogHistogram;
use debruijn_net::ExactHistogram;

/// The reference semantics, spelled out on a plain sorted vector.
struct Naive {
    sorted: Vec<u64>,
}

impl Naive {
    fn new(mut values: Vec<u64>) -> Self {
        values.sort_unstable();
        Self { sorted: values }
    }

    /// Nearest rank: smallest value with at least `⌈p/100·n⌉` samples
    /// at or below it.
    fn percentile(&self, p: f64) -> Option<u64> {
        if self.sorted.is_empty() {
            return None;
        }
        let rank = ((p / 100.0) * self.sorted.len() as f64).ceil().max(1.0) as usize;
        Some(self.sorted[rank - 1])
    }

    fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let sum: u128 = self.sorted.iter().map(|&v| u128::from(v)).sum();
        sum as f64 / self.sorted.len() as f64
    }

    fn variance(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let mean = self.mean();
        self.sorted
            .iter()
            .map(|&v| (v as f64 - mean).powi(2))
            .sum::<f64>()
            / self.sorted.len() as f64
    }
}

/// A named sample generator.
type Distribution = (&'static str, Box<dyn Fn(&mut SplitMix64) -> u64>);

/// Named sample generators covering the shapes the simulator produces
/// (small dense counters, latencies, heavy tails) plus adversarial
/// ones (constants, full-range uniform).
fn distributions() -> Vec<Distribution> {
    vec![
        (
            "small-dense",
            Box::new(|r: &mut SplitMix64| r.below_u64(64)),
        ),
        (
            "latency-like",
            Box::new(|r: &mut SplitMix64| r.below_u64(5_000)),
        ),
        ("constant", Box::new(|_: &mut SplitMix64| 42)),
        (
            "heavy-tail",
            Box::new(|r: &mut SplitMix64| {
                let e = r.below_u64(50) as u32;
                (1u64 << e) + r.below_u64(1 + (1u64 << e))
            }),
        ),
        ("full-range", Box::new(|r: &mut SplitMix64| r.next_u64())),
    ]
}

const PERCENTILES: [f64; 9] = [0.0, 0.1, 1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0];

#[test]
fn exact_histogram_matches_naive_reference() {
    for (name, gen) in distributions() {
        for seed in [1u64, 7, 0xDEAD] {
            let mut rng = SplitMix64::new(seed);
            let mut h = ExactHistogram::new();
            let mut values = Vec::new();
            for _ in 0..3000 {
                let v = gen(&mut rng);
                h.record(v);
                values.push(v);
            }
            let naive = Naive::new(values);
            for p in PERCENTILES {
                assert_eq!(
                    h.percentile(p),
                    naive.percentile(p),
                    "{name} seed {seed} p{p}"
                );
            }
            assert_eq!(h.min(), naive.sorted.first().copied(), "{name} min");
            assert_eq!(h.max(), naive.sorted.last().copied(), "{name} max");
            let scale = naive.variance().max(1.0);
            assert!(
                (h.variance() - naive.variance()).abs() / scale < 1e-9,
                "{name} seed {seed}: variance {} vs {}",
                h.variance(),
                naive.variance()
            );
            assert!(
                (h.std_dev() - naive.variance().sqrt()).abs() / scale.sqrt() < 1e-9,
                "{name} seed {seed} std_dev"
            );
        }
    }
}

#[test]
fn exact_histogram_percentile_edges() {
    let mut h = ExactHistogram::new();
    for v in [10u64, 20, 30] {
        h.record(v);
    }
    // p0 and anything below one rank land on the minimum; p100 on the
    // maximum — mirroring the naive rank formula.
    assert_eq!(h.percentile(0.0), Some(10));
    assert_eq!(h.percentile(100.0), Some(30));
    assert_eq!(h.percentile(33.4), Some(20));
    assert!(ExactHistogram::new().percentile(50.0).is_none());
}

/// The acceptance bound the telemetry layer documents for quantiles.
const QUANTILE_BOUND: f64 = 0.02;

#[test]
fn log_histogram_tracks_naive_within_error_bound_on_a_million_samples() {
    let mut rng = SplitMix64::new(0xB0B);
    let mut log = LogHistogram::new();
    let mut values = Vec::with_capacity(1_000_000);
    for _ in 0..1_000_000 {
        // Mixture: mostly latency-scale values with a heavy tail, like
        // a congested run.
        let v = if rng.below_u64(10) == 0 {
            1u64 << (10 + rng.below_u64(30) as u32)
        } else {
            rng.below_u64(10_000)
        };
        log.record(v);
        values.push(v);
    }
    let naive = Naive::new(values);
    assert_eq!(log.count(), 1_000_000);
    assert_eq!(log.min(), naive.sorted.first().copied());
    assert_eq!(log.max(), naive.sorted.last().copied());
    // Sum is tracked exactly, so the mean is exact.
    assert_eq!(log.mean(), naive.mean());
    for p in [50.0, 90.0, 99.0] {
        let exact = naive.percentile(p).unwrap() as f64;
        let approx = log.percentile(p).unwrap() as f64;
        let err = (approx - exact).abs() / exact.max(1.0);
        assert!(
            err <= LogHistogram::MAX_RELATIVE_ERROR,
            "p{p}: {approx} vs {exact} (err {err:.5})"
        );
        assert!(err <= QUANTILE_BOUND, "p{p} outside 2%: {err:.5}");
    }
    // Variance over bucket midpoints stays within the same relative
    // band (values are at most 1/128 off, so the deviation squares to
    // well under 2%).
    let scale = naive.variance();
    assert!(
        (log.variance() - scale).abs() / scale <= QUANTILE_BOUND,
        "variance {} vs {}",
        log.variance(),
        scale
    );
    assert!((log.std_dev() - scale.sqrt()).abs() / scale.sqrt() <= QUANTILE_BOUND);
}

#[test]
fn log_histogram_percentile_edges_are_exact() {
    let mut rng = SplitMix64::new(3);
    let mut log = LogHistogram::new();
    let mut values = Vec::new();
    for _ in 0..10_000 {
        let v = rng.next_u64() >> (rng.below_u64(60) as u32);
        log.record(v);
        values.push(v);
    }
    let naive = Naive::new(values);
    // p0 and p100 snap to the exactly-tracked extremes, whatever the
    // bucket midpoints say.
    assert_eq!(log.percentile(0.0), naive.percentile(0.0));
    assert_eq!(log.percentile(100.0), naive.percentile(100.0));
}

/// 10^5 mixed-magnitude samples: a blend of every distribution above,
/// switching shape per sample so shard boundaries never align with
/// distribution boundaries.
fn mixed_magnitude_samples(seed: u64, n: usize) -> Vec<u64> {
    let shapes = distributions();
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let shape = rng.below_u64(shapes.len() as u64) as usize;
            (shapes[shape].1)(&mut rng)
        })
        .collect()
}

#[test]
fn log_histogram_merge_is_exact_across_shard_counts() {
    // `merge` adds bucket counts and folds min/max/sum exactly, so a
    // histogram assembled from *any* sharding of a sample stream must
    // be byte-identical to the single-stream histogram — same
    // quantiles, same summary line, equal by `PartialEq`. This is the
    // property the sharded trace replay (`metrics::replay_sharded`)
    // leans on for thread-count-independent output.
    const N: usize = 100_000;
    for seed in [0xA11CE, 0x5EED] {
        let values = mixed_magnitude_samples(seed, N);
        let mut single = LogHistogram::new();
        for &v in &values {
            single.record(v);
        }
        for shards in [1usize, 2, 3, 7, 16, 64] {
            let chunk = N.div_ceil(shards);
            let mut merged = LogHistogram::new();
            for part in values.chunks(chunk) {
                let mut shard = LogHistogram::new();
                for &v in part {
                    shard.record(v);
                }
                merged.merge(&shard);
            }
            assert_eq!(merged, single, "seed {seed:#x}, {shards} shards");
            for p in PERCENTILES {
                assert_eq!(
                    merged.percentile(p),
                    single.percentile(p),
                    "seed {seed:#x}, {shards} shards, p{p}"
                );
            }
            assert_eq!(merged.summary(), single.summary());
        }
    }
}

#[test]
fn log_histogram_merge_matches_naive_reference_within_bound() {
    // Sharded-then-merged quantiles inherit the single-stream accuracy
    // guarantee against the ground-truth sorted vector.
    let values = mixed_magnitude_samples(0xFACADE, 100_000);
    let mut merged = LogHistogram::new();
    for part in values.chunks(9_973) {
        let mut shard = LogHistogram::new();
        for &v in part {
            shard.record(v);
        }
        merged.merge(&shard);
    }
    let naive = Naive::new(values);
    assert_eq!(merged.count(), 100_000);
    assert_eq!(merged.min(), naive.sorted.first().copied());
    assert_eq!(merged.max(), naive.sorted.last().copied());
    assert_eq!(merged.mean(), naive.mean());
    for p in [25.0, 50.0, 90.0, 99.0] {
        let exact = naive.percentile(p).unwrap() as f64;
        let approx = merged.percentile(p).unwrap() as f64;
        let err = (approx - exact).abs() / exact.max(1.0);
        assert!(
            err <= LogHistogram::MAX_RELATIVE_ERROR,
            "p{p}: merged {approx} vs naive {exact} (err {err:.5})"
        );
    }
}

#[test]
fn log_histogram_merge_identities() {
    let values = mixed_magnitude_samples(7, 1_000);
    let mut h = LogHistogram::new();
    for &v in &values {
        h.record(v);
    }
    // Merging an empty histogram in either direction is the identity.
    let mut left = h.clone();
    left.merge(&LogHistogram::new());
    assert_eq!(left, h);
    let mut right = LogHistogram::new();
    right.merge(&h);
    assert_eq!(right, h);
    // Self-merge doubles every bucket, keeping quantiles fixed.
    let mut doubled = h.clone();
    doubled.merge(&h.clone());
    assert_eq!(doubled.count(), 2 * h.count());
    assert_eq!(doubled.percentile(50.0), h.percentile(50.0));
    assert_eq!(doubled.min(), h.min());
    assert_eq!(doubled.max(), h.max());
}
