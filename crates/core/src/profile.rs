//! Process-global profiling counters for the routing hot paths.
//!
//! The observability layer in `debruijn-net` records *network* events
//! (hops, queues, wildcard resolutions); this module records the
//! *algorithmic* decisions underneath them, which no network event can
//! see:
//!
//! * which Theorem-2 engine actually solved each undirected distance
//!   query — including how [`Engine::Auto`](crate::distance::undirected::Engine)
//!   split its traffic between the bit-parallel and suffix-tree engines
//!   around the measured crossover (§4's remark made measurable);
//! * how well the convergecast router amortizes: preprocessing builds
//!   ([`DirectedDestinationRouter::new`](crate::routing::DirectedDestinationRouter))
//!   versus routes served from the cached failure function — a
//!   hit/miss view of Algorithm 1's `O(k)` preprocessing reuse.
//!
//! The counters are relaxed atomics: incrementing costs one uncontended
//! atomic add, so they stay on in release builds. They are process-wide
//! and monotone; callers measure an interval by taking a
//! [`snapshot`] before and after and subtracting
//! ([`ProfileSnapshot::since`]). Deltas include whatever other threads
//! did in the interval, so under concurrency treat them as lower
//! bounds; [`reset`] exists for process startup and isolated tooling.

use std::sync::atomic::{AtomicU64, Ordering};

static ENGINE_NAIVE: AtomicU64 = AtomicU64::new(0);
static ENGINE_MORRIS_PRATT: AtomicU64 = AtomicU64::new(0);
static ENGINE_SUFFIX_TREE: AtomicU64 = AtomicU64::new(0);
static ENGINE_BIT_PARALLEL: AtomicU64 = AtomicU64::new(0);
static AUTO_TO_SUFFIX_TREE: AtomicU64 = AtomicU64::new(0);
static AUTO_TO_BIT_PARALLEL: AtomicU64 = AtomicU64::new(0);
static CONVERGECAST_BUILDS: AtomicU64 = AtomicU64::new(0);
static CONVERGECAST_ROUTES: AtomicU64 = AtomicU64::new(0);
static ROUTE_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static ROUTE_CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static ROUTE_CACHE_EVICTIONS: AtomicU64 = AtomicU64::new(0);

pub(crate) fn count_engine_naive() {
    ENGINE_NAIVE.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn count_engine_morris_pratt() {
    ENGINE_MORRIS_PRATT.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn count_engine_suffix_tree() {
    ENGINE_SUFFIX_TREE.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn count_auto_to_suffix_tree() {
    AUTO_TO_SUFFIX_TREE.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn count_engine_bit_parallel() {
    ENGINE_BIT_PARALLEL.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn count_auto_to_bit_parallel() {
    AUTO_TO_BIT_PARALLEL.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn count_route_cache_hit() {
    ROUTE_CACHE_HITS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn count_route_cache_miss() {
    ROUTE_CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn count_route_cache_eviction() {
    ROUTE_CACHE_EVICTIONS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn count_convergecast_build() {
    CONVERGECAST_BUILDS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn count_convergecast_route() {
    CONVERGECAST_ROUTES.fetch_add(1, Ordering::Relaxed);
}

/// A point-in-time copy of all profiling counters.
///
/// # Examples
///
/// ```
/// use debruijn_core::distance::undirected::{distance_with, Engine};
/// use debruijn_core::{profile, Word};
///
/// let before = profile::snapshot();
/// let x = Word::parse(2, "0110")?;
/// let y = Word::parse(2, "1011")?;
/// distance_with(Engine::SuffixTree, &x, &y);
/// let used = profile::snapshot().since(&before);
/// assert!(used.engine_suffix_tree >= 1);
/// # Ok::<(), debruijn_core::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfileSnapshot {
    /// Theorem-2 solves answered by the naive `O(k⁴)` engine.
    pub engine_naive: u64,
    /// Theorem-2 solves answered by the Morris–Pratt `O(k²)` engine.
    pub engine_morris_pratt: u64,
    /// Theorem-2 solves answered by the suffix-tree `O(k)` engine.
    pub engine_suffix_tree: u64,
    /// Theorem-2 solves answered by the bit-parallel engine.
    pub engine_bit_parallel: u64,
    /// `Engine::Auto` resolutions that picked the suffix tree (beyond the
    /// bit-parallel crossover).
    pub auto_to_suffix_tree: u64,
    /// `Engine::Auto` resolutions that picked the bit-parallel engine.
    pub auto_to_bit_parallel: u64,
    /// Convergecast router constructions (failure-function builds —
    /// the "misses" of the amortization).
    pub convergecast_builds: u64,
    /// Routes served from an already-built convergecast router (the
    /// "hits").
    pub convergecast_routes: u64,
    /// Route-cache lookups answered from a cached entry.
    pub route_cache_hits: u64,
    /// Route-cache lookups that had to compute (and insert) the route.
    pub route_cache_misses: u64,
    /// Route-cache entries displaced by clock eviction at capacity.
    pub route_cache_evictions: u64,
}

impl ProfileSnapshot {
    /// Counter increments since an earlier snapshot (saturating, so a
    /// [`reset`] between the two snapshots yields zeros instead of
    /// wrapping).
    ///
    /// The underlying counters are **process-wide**: a delta attributes
    /// every increment made by *any* thread during the interval to the
    /// caller, not just the caller's own work. Single-threaded tooling
    /// can treat deltas as exact; anything running next to other
    /// threads (the parallel batch driver, concurrent test binaries, a
    /// live scrape server) must treat its own contribution as a lower
    /// bound of the delta. See the "process-wide counters" caveat in
    /// `docs/OBSERVABILITY.md`.
    pub fn since(&self, earlier: &ProfileSnapshot) -> ProfileSnapshot {
        ProfileSnapshot {
            engine_naive: self.engine_naive.saturating_sub(earlier.engine_naive),
            engine_morris_pratt: self
                .engine_morris_pratt
                .saturating_sub(earlier.engine_morris_pratt),
            engine_suffix_tree: self
                .engine_suffix_tree
                .saturating_sub(earlier.engine_suffix_tree),
            engine_bit_parallel: self
                .engine_bit_parallel
                .saturating_sub(earlier.engine_bit_parallel),
            auto_to_suffix_tree: self
                .auto_to_suffix_tree
                .saturating_sub(earlier.auto_to_suffix_tree),
            auto_to_bit_parallel: self
                .auto_to_bit_parallel
                .saturating_sub(earlier.auto_to_bit_parallel),
            convergecast_builds: self
                .convergecast_builds
                .saturating_sub(earlier.convergecast_builds),
            convergecast_routes: self
                .convergecast_routes
                .saturating_sub(earlier.convergecast_routes),
            route_cache_hits: self
                .route_cache_hits
                .saturating_sub(earlier.route_cache_hits),
            route_cache_misses: self
                .route_cache_misses
                .saturating_sub(earlier.route_cache_misses),
            route_cache_evictions: self
                .route_cache_evictions
                .saturating_sub(earlier.route_cache_evictions),
        }
    }

    /// Total Theorem-2 solves across all engines.
    pub fn engine_total(&self) -> u64 {
        self.engine_naive
            + self.engine_morris_pratt
            + self.engine_suffix_tree
            + self.engine_bit_parallel
    }

    /// Fraction of route-cache lookups served from the cache, or `None`
    /// when the cache saw no traffic.
    pub fn route_cache_hit_rate(&self) -> Option<f64> {
        let total = self.route_cache_hits + self.route_cache_misses;
        if total == 0 {
            return None;
        }
        Some(self.route_cache_hits as f64 / total as f64)
    }

    /// Fraction of convergecast lookups served from a cached build, or
    /// `None` when there was no convergecast activity at all.
    pub fn convergecast_hit_rate(&self) -> Option<f64> {
        let total = self.convergecast_builds + self.convergecast_routes;
        if total == 0 {
            return None;
        }
        Some(self.convergecast_routes as f64 / total as f64)
    }
}

/// Reads all counters. Cheap (a dozen relaxed loads) and safe to call
/// from any thread.
pub fn snapshot() -> ProfileSnapshot {
    ProfileSnapshot {
        engine_naive: ENGINE_NAIVE.load(Ordering::Relaxed),
        engine_morris_pratt: ENGINE_MORRIS_PRATT.load(Ordering::Relaxed),
        engine_suffix_tree: ENGINE_SUFFIX_TREE.load(Ordering::Relaxed),
        engine_bit_parallel: ENGINE_BIT_PARALLEL.load(Ordering::Relaxed),
        auto_to_suffix_tree: AUTO_TO_SUFFIX_TREE.load(Ordering::Relaxed),
        auto_to_bit_parallel: AUTO_TO_BIT_PARALLEL.load(Ordering::Relaxed),
        convergecast_builds: CONVERGECAST_BUILDS.load(Ordering::Relaxed),
        convergecast_routes: CONVERGECAST_ROUTES.load(Ordering::Relaxed),
        route_cache_hits: ROUTE_CACHE_HITS.load(Ordering::Relaxed),
        route_cache_misses: ROUTE_CACHE_MISSES.load(Ordering::Relaxed),
        route_cache_evictions: ROUTE_CACHE_EVICTIONS.load(Ordering::Relaxed),
    }
}

/// Zeroes all counters. Intended for process startup or test isolation;
/// prefer interval deltas via [`ProfileSnapshot::since`] elsewhere.
pub fn reset() {
    ENGINE_NAIVE.store(0, Ordering::Relaxed);
    ENGINE_MORRIS_PRATT.store(0, Ordering::Relaxed);
    ENGINE_SUFFIX_TREE.store(0, Ordering::Relaxed);
    ENGINE_BIT_PARALLEL.store(0, Ordering::Relaxed);
    AUTO_TO_SUFFIX_TREE.store(0, Ordering::Relaxed);
    AUTO_TO_BIT_PARALLEL.store(0, Ordering::Relaxed);
    CONVERGECAST_BUILDS.store(0, Ordering::Relaxed);
    CONVERGECAST_ROUTES.store(0, Ordering::Relaxed);
    ROUTE_CACHE_HITS.store(0, Ordering::Relaxed);
    ROUTE_CACHE_MISSES.store(0, Ordering::Relaxed);
    ROUTE_CACHE_EVICTIONS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::undirected::{distance_with, Engine};
    use crate::routing::DirectedDestinationRouter;
    use crate::Word;

    // Tests in this binary run concurrently against the same global
    // counters, so every assertion is a monotone `>=` on an interval
    // delta — exact equality would race.

    #[test]
    fn engine_counters_track_solves() {
        let x = Word::parse(2, "010011").unwrap();
        let y = Word::parse(2, "110100").unwrap();
        let before = snapshot();
        for _ in 0..5 {
            distance_with(Engine::Naive, &x, &y);
            distance_with(Engine::MorrisPratt, &x, &y);
            distance_with(Engine::SuffixTree, &x, &y);
        }
        let used = snapshot().since(&before);
        assert!(used.engine_naive >= 5);
        assert!(used.engine_morris_pratt >= 5);
        assert!(used.engine_suffix_tree >= 5);
        assert!(used.engine_total() >= 15);
    }

    #[test]
    fn auto_resolution_is_counted_per_side_of_the_crossover() {
        use crate::distance::undirected::auto_bitparallel_max_k;
        let before = snapshot();
        let short = Word::uniform(2, 8, 0).unwrap();
        distance_with(Engine::Auto, &short, &Word::uniform(2, 8, 1).unwrap());
        // Radix 255's 8-bit lanes put the crossover at the smallest k.
        let max_k = auto_bitparallel_max_k(255);
        for k in [max_k, max_k + 1] {
            let long = Word::uniform(255, k, 0).unwrap();
            distance_with(Engine::Auto, &long, &Word::uniform(255, k, 1).unwrap());
        }
        let used = snapshot().since(&before);
        assert!(
            used.auto_to_bit_parallel >= 2,
            "k = 8 and k at the crossover resolve to bit-parallel"
        );
        assert!(
            used.auto_to_suffix_tree >= 1,
            "k past the crossover resolves to the tree"
        );
    }

    #[test]
    fn convergecast_counters_expose_amortization() {
        let sink = Word::parse(2, "1011").unwrap();
        let before = snapshot();
        let router = DirectedDestinationRouter::new(sink);
        for rank in 0..16u128 {
            let src = Word::from_rank(2, 4, rank).unwrap();
            router.route_from(&src);
        }
        let used = snapshot().since(&before);
        assert!(used.convergecast_builds >= 1);
        assert!(used.convergecast_routes >= 16);
        let rate = used.convergecast_hit_rate().expect("activity recorded");
        assert!(rate > 0.5, "16 routes amortize one build: {rate}");
    }

    #[test]
    fn since_deltas_are_process_wide_across_threads() {
        // Four threads each perform a known number of solves while the
        // main thread holds one interval open: the single process-wide
        // delta sees the *sum* of everyone's work. This is the caveat
        // documented on `ProfileSnapshot::since` — a per-thread view
        // would report 25 for each worker, not >= 100 overall.
        const THREADS: usize = 4;
        const SOLVES: usize = 25;
        let x = Word::parse(2, "0100111").unwrap();
        let y = Word::parse(2, "1110010").unwrap();
        let before = snapshot();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..SOLVES {
                        distance_with(Engine::MorrisPratt, &x, &y);
                    }
                });
            }
        });
        let used = snapshot().since(&before);
        assert!(
            used.engine_morris_pratt >= (THREADS * SOLVES) as u64,
            "one interval attributes all threads' work: {}",
            used.engine_morris_pratt
        );
    }

    #[test]
    fn since_saturates_instead_of_wrapping() {
        let newer = ProfileSnapshot {
            engine_naive: 3,
            ..Default::default()
        };
        let older = ProfileSnapshot {
            engine_naive: 10,
            ..Default::default()
        };
        assert_eq!(newer.since(&older).engine_naive, 0);
    }

    #[test]
    fn hit_rate_is_none_without_activity() {
        assert_eq!(ProfileSnapshot::default().convergecast_hit_rate(), None);
    }
}
