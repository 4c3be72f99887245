//! Reproducible traffic patterns for the simulator.

use debruijn_core::rng::SplitMix64;
use debruijn_core::{DeBruijn, Word};

use crate::config::Injection;

fn word_at(space: DeBruijn, rank: usize) -> Word {
    space
        .word_from_rank(rank as u128)
        .expect("rank drawn below order")
}

fn order(space: DeBruijn) -> usize {
    space
        .order_usize()
        .expect("workload generation requires an enumerable space")
}

/// `n` messages with uniformly random distinct endpoints, injected one per
/// tick. Deterministic for a fixed seed.
///
/// # Panics
///
/// Panics if the space has fewer than two vertices or is too large to
/// enumerate.
pub fn uniform_random(space: DeBruijn, n: usize, seed: u64) -> Vec<Injection> {
    let order = order(space);
    assert!(order >= 2, "need at least two vertices");
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            let s = rng.below_usize(order);
            let mut t = rng.below_usize(order - 1);
            if t >= s {
                t += 1;
            }
            Injection {
                time: i as u64,
                source: word_at(space, s),
                destination: word_at(space, t),
            }
        })
        .collect()
}

/// Like [`uniform_random`], but all `n` messages are injected at tick 0
/// — a saturating burst that keeps every node busy from the first tick.
/// This is the workload the scaling benchmarks use: one message per tick
/// leaves parallel shards idle, a burst exposes the real per-tick
/// parallelism. Deterministic for a fixed seed, and endpoint-identical
/// to [`uniform_random`] with the same seed.
///
/// # Panics
///
/// Panics if the space has fewer than two vertices or is too large to
/// enumerate.
pub fn uniform_burst(space: DeBruijn, n: usize, seed: u64) -> Vec<Injection> {
    let mut traffic = uniform_random(space, n, seed);
    for inj in &mut traffic {
        inj.time = 0;
    }
    traffic
}

/// A random derangement workload: every node sends exactly one message to
/// its image under a fixed-point-free random permutation, all injected at
/// tick 0. The classical stress pattern for interconnection networks.
///
/// # Panics
///
/// Panics if the space has fewer than two vertices or is too large to
/// enumerate.
pub fn permutation(space: DeBruijn, seed: u64) -> Vec<Injection> {
    let order = order(space);
    assert!(order >= 2, "need at least two vertices");
    let mut rng = SplitMix64::new(seed);
    let mut image: Vec<usize> = (0..order).collect();
    // Fisher–Yates, then remove fixed points by cycling them among
    // themselves (or with a neighbor when only one remains).
    rng.shuffle(&mut image);
    let fixed: Vec<usize> = (0..order).filter(|&i| image[i] == i).collect();
    match fixed.len() {
        0 => {}
        1 => {
            let i = fixed[0];
            let j = (i + 1) % order;
            image.swap(i, j);
        }
        _ => {
            for m in 0..fixed.len() {
                image[fixed[m]] = fixed[(m + 1) % fixed.len()];
            }
        }
    }
    (0..order)
        .map(|i| Injection {
            time: 0,
            source: word_at(space, i),
            destination: word_at(space, image[i]),
        })
        .collect()
}

/// Hotspot traffic: each of `n` messages goes to `hot` with probability
/// `hot_fraction`, otherwise to a uniform destination. Sources are
/// uniform. Injected one per tick.
///
/// # Panics
///
/// Panics if `hot` is not a vertex of `space`, `hot_fraction` is outside
/// `[0, 1]`, or the space is too small/large.
pub fn hotspot(
    space: DeBruijn,
    n: usize,
    hot: &Word,
    hot_fraction: f64,
    seed: u64,
) -> Vec<Injection> {
    assert!(space.contains(hot), "hotspot must be a vertex of the space");
    assert!(
        (0.0..=1.0).contains(&hot_fraction),
        "hot_fraction must lie in [0, 1]"
    );
    let order = order(space);
    assert!(order >= 2, "need at least two vertices");
    let hot_rank = hot.rank() as usize;
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            let dst_rank = if rng.next_bool(hot_fraction) {
                hot_rank
            } else {
                rng.below_usize(order)
            };
            let mut src = rng.below_usize(order - 1);
            if src >= dst_rank {
                src += 1;
            }
            Injection {
                time: i as u64,
                source: word_at(space, src),
                destination: word_at(space, dst_rank),
            }
        })
        .collect()
}

/// Zipf-skewed burst traffic: all `n` messages are injected at tick 0,
/// destinations drawn with probability proportional to
/// `1 / (rank + 1)^exponent`, sources uniform among the other nodes.
///
/// `exponent = 0` degenerates to [`uniform_burst`]-style uniformity;
/// `exponent ≈ 1` is the classic web/content skew. Because ranks are
/// hot in *numeric* order, the hottest destinations are contiguous —
/// they pile into the lowest shard of the sharded simulator, which is
/// exactly the mailbox/cache skew this workload exists to exercise
/// (see `docs/SCALING.md`). Deterministic for a fixed seed via
/// [`SplitMix64`]; `O(d^k)` memory for the cumulative weight table.
///
/// # Panics
///
/// Panics if the space has fewer than two vertices or is too large to
/// enumerate, or if `exponent` is negative or non-finite.
///
/// # Examples
///
/// ```
/// use debruijn_core::DeBruijn;
/// use debruijn_net::workload;
///
/// let space = DeBruijn::new(2, 6)?;
/// let traffic = workload::zipf(space, 1000, 1.0, 7);
/// assert_eq!(traffic.len(), 1000);
/// // Rank 0 is the hottest destination by construction.
/// let hot = traffic
///     .iter()
///     .filter(|inj| inj.destination.rank() == 0)
///     .count();
/// assert!(hot > 1000 / 64, "skewed well above the uniform share");
/// # Ok::<(), debruijn_core::Error>(())
/// ```
pub fn zipf(space: DeBruijn, n: usize, exponent: f64, seed: u64) -> Vec<Injection> {
    assert!(
        exponent >= 0.0 && exponent.is_finite(),
        "exponent must be finite and non-negative"
    );
    let order = order(space);
    assert!(order >= 2, "need at least two vertices");
    // Cumulative weights once, then one binary search per draw.
    let mut cumulative = Vec::with_capacity(order);
    let mut total = 0.0f64;
    for rank in 0..order {
        total += 1.0 / ((rank + 1) as f64).powf(exponent);
        cumulative.push(total);
    }
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let u = rng.next_f64() * total;
            let dst = cumulative.partition_point(|&c| c <= u).min(order - 1);
            let mut src = rng.below_usize(order - 1);
            if src >= dst {
                src += 1;
            }
            Injection {
                time: 0,
                source: word_at(space, src),
                destination: word_at(space, dst),
            }
        })
        .collect()
}

/// Every ordered pair `(x, y)` with `x != y`, all injected at tick 0.
/// Used to measure exact hop-count averages (experiment E6).
///
/// # Panics
///
/// Panics if the space is too large to enumerate.
pub fn all_pairs(space: DeBruijn) -> Vec<Injection> {
    let mut out = Vec::new();
    for x in space.vertices() {
        for y in space.vertices() {
            if x != y {
                out.push(Injection {
                    time: 0,
                    source: x.clone(),
                    destination: y,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space(d: u8, k: usize) -> DeBruijn {
        DeBruijn::new(d, k).unwrap()
    }

    #[test]
    fn uniform_random_has_distinct_endpoints() {
        let t = uniform_random(space(2, 3), 500, 1);
        assert_eq!(t.len(), 500);
        for inj in &t {
            assert_ne!(inj.source, inj.destination);
        }
    }

    #[test]
    fn uniform_random_is_deterministic_per_seed() {
        assert_eq!(
            uniform_random(space(2, 4), 50, 7),
            uniform_random(space(2, 4), 50, 7)
        );
        assert_ne!(
            uniform_random(space(2, 4), 50, 7),
            uniform_random(space(2, 4), 50, 8)
        );
    }

    #[test]
    fn permutation_is_a_derangement() {
        for seed in 0..20u64 {
            let t = permutation(space(2, 4), seed);
            assert_eq!(t.len(), 16, "every node sends exactly once");
            let mut sources: Vec<u128> = t.iter().map(|i| i.source.rank()).collect();
            sources.sort_unstable();
            sources.dedup();
            assert_eq!(sources.len(), 16, "duplicate sources (seed {seed})");
            let mut dests: Vec<u128> = t.iter().map(|i| i.destination.rank()).collect();
            dests.sort_unstable();
            dests.dedup();
            assert_eq!(dests.len(), 16, "not a permutation (seed {seed})");
            for inj in &t {
                assert_ne!(inj.source, inj.destination, "fixed point (seed {seed})");
                assert_eq!(inj.time, 0);
            }
        }
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let sp = space(2, 4);
        let hot = sp.word_from_rank(6).unwrap();
        let t = hotspot(sp, 1000, &hot, 0.8, 5);
        let to_hot = t.iter().filter(|i| i.destination == hot).count();
        assert!(to_hot > 700, "only {to_hot} of 1000 went to the hotspot");
        for inj in &t {
            assert_ne!(inj.source, inj.destination);
        }
    }

    #[test]
    fn hotspot_validates_arguments() {
        let sp = space(2, 3);
        let hot = sp.word_from_rank(0).unwrap();
        let result = std::panic::catch_unwind(|| hotspot(sp, 10, &hot, 1.5, 0));
        assert!(result.is_err());
    }

    #[test]
    fn zipf_is_deterministic_and_shaped_like_a_power_law() {
        let sp = space(2, 5);
        let a = zipf(sp, 20_000, 1.0, 11);
        assert_eq!(a, zipf(sp, 20_000, 1.0, 11));
        assert_ne!(a, zipf(sp, 20_000, 1.0, 12));
        for inj in &a {
            assert_ne!(inj.source, inj.destination);
            assert_eq!(inj.time, 0, "zipf is a burst workload");
        }
        // Frequency of rank r should scale like 1/(r+1): rank 0 roughly
        // twice as popular as rank 1, four times rank 3. Wide tolerances
        // keep the check statistical rather than exact.
        let count = |r: u128| a.iter().filter(|i| i.destination.rank() == r).count() as f64;
        let (c0, c1, c3) = (count(0), count(1), count(3));
        assert!(c0 / c1 > 1.5 && c0 / c1 < 2.5, "c0/c1 = {}", c0 / c1);
        assert!(c0 / c3 > 3.0 && c0 / c3 < 5.0, "c0/c3 = {}", c0 / c3);
    }

    #[test]
    fn zipf_exponent_zero_is_uniform_and_bad_exponents_panic() {
        let sp = space(2, 4);
        let t = zipf(sp, 16_000, 0.0, 3);
        for rank in 0..16u128 {
            let c = t.iter().filter(|i| i.destination.rank() == rank).count();
            assert!((700..1300).contains(&c), "rank {rank} drew {c} of 16000");
        }
        assert!(std::panic::catch_unwind(|| zipf(sp, 10, -1.0, 0)).is_err());
        assert!(std::panic::catch_unwind(|| zipf(sp, 10, f64::NAN, 0)).is_err());
    }

    #[test]
    fn all_pairs_counts_n_times_n_minus_one() {
        let t = all_pairs(space(3, 2));
        assert_eq!(t.len(), 9 * 8);
    }
}
