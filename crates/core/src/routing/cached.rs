//! Amortized routing: per-destination preprocessing and a bounded
//! route cache.
//!
//! Algorithm 1's only preprocessing is the Morris–Pratt failure function
//! of the destination address `Y`. In convergecast patterns (many sources
//! sending to one sink — the common case for gather operations on a
//! multiprocessor) that table can be built once and reused: routing each
//! additional source then costs a single `O(k)` automaton scan with no
//! allocation beyond the emitted path.
//!
//! [`RouteCache`] generalizes the amortization to arbitrary `(X, Y)`
//! pairs: a capacity-bounded map from pair to computed route with clock
//! (second-chance) eviction, so repeated traffic between the same
//! endpoints — ubiquitous in uniform-random workloads on small networks —
//! skips Theorem 2 entirely. Each cache counts its own hits, misses and
//! evictions ([`RouteCache::stats`]).

use std::collections::HashMap;

use debruijn_strings::MpMatcher;

use crate::distance::assert_same_space;
use crate::routing::{RoutePath, Step};
use crate::word::Word;

/// A reusable Algorithm 1 router toward one fixed destination in the
/// uni-directional network.
///
/// # Examples
///
/// ```
/// use debruijn_core::routing::DirectedDestinationRouter;
/// use debruijn_core::{routing, Word};
///
/// let sink = Word::parse(2, "1011")?;
/// let router = DirectedDestinationRouter::new(sink.clone());
/// let src = Word::parse(2, "0110")?;
/// assert_eq!(router.route_from(&src), routing::algorithm1(&src, &sink));
/// # Ok::<(), debruijn_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct DirectedDestinationRouter {
    destination: Word,
    matcher: MpMatcher<u8>,
}

impl DirectedDestinationRouter {
    /// Builds the router, preprocessing the destination in `O(k)`.
    pub fn new(destination: Word) -> Self {
        let matcher = MpMatcher::new(destination.digits().to_vec());
        Self {
            destination,
            matcher,
        }
    }

    /// The fixed destination.
    pub fn destination(&self) -> &Word {
        &self.destination
    }

    /// The overlap `l` of Eq. (2) for a given source: the longest suffix
    /// of `x` that is a prefix of the destination.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not in the destination's `DG(d,k)`.
    pub fn overlap_from(&self, x: &Word) -> usize {
        assert_same_space(x, &self.destination);
        let mut state = 0usize;
        for digit in x.digits() {
            state = self.matcher.step(state, digit);
        }
        state
    }

    /// The distance from `x` to the destination (Property 1).
    ///
    /// # Panics
    ///
    /// Panics if `x` is not in the destination's `DG(d,k)`.
    pub fn distance_from(&self, x: &Word) -> usize {
        self.destination.len() - self.overlap_from(x)
    }

    /// A shortest uni-directional route from `x` (Algorithm 1, with the
    /// destination's failure function amortized across calls).
    ///
    /// # Panics
    ///
    /// Panics if `x` is not in the destination's `DG(d,k)`.
    pub fn route_from(&self, x: &Word) -> RoutePath {
        let l = self.overlap_from(x);
        (l..self.destination.len())
            .map(|i| Step::left(self.destination.digits()[i]))
            .collect()
    }
}

/// Hit/miss/eviction counts for one [`RouteCache`] instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCacheStats {
    /// Lookups answered from a cached entry.
    pub hits: u64,
    /// Lookups that computed (and inserted) the route.
    pub misses: u64,
    /// Entries displaced by clock eviction at capacity.
    pub evictions: u64,
}

impl RouteCacheStats {
    /// Fraction of lookups served from the cache, or `None` without
    /// traffic.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            return None;
        }
        Some(self.hits as f64 / total as f64)
    }

    /// Folds another cache's counts into this one — the aggregation
    /// step for sharded (per-worker) cache deployments.
    pub fn merge(&mut self, other: &RouteCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }

    /// The counts accumulated since an earlier snapshot of the same
    /// cache — what a worker publishes to a metrics registry between
    /// batches without double counting.
    pub fn since(&self, earlier: &RouteCacheStats) -> RouteCacheStats {
        RouteCacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
        }
    }
}

/// The cache shard a destination hashes to, for a pool of `shards`
/// per-worker [`RouteCache`] rings.
///
/// Deterministic across processes and runs (the hasher is keyed with
/// constants), so repeated queries for one destination always land on
/// the same worker's ring — the property that makes per-worker caches
/// as effective as one shared cache without any shared lock. Sharding
/// by *destination only* (not the pair) keeps convergecast traffic —
/// many sources, one sink — on a single shard, where Algorithm 1's
/// per-destination preprocessing amortizes best.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn destination_shard(y: &Word, shards: usize) -> usize {
    use std::hash::{Hash, Hasher};
    assert!(shards > 0, "shard count must be positive");
    let mut h = std::collections::hash_map::DefaultHasher::new();
    y.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

#[derive(Debug, Clone)]
struct CacheSlot {
    key: (Word, Word),
    route: RoutePath,
    referenced: bool,
}

/// A capacity-bounded `(source, destination) → route` cache with clock
/// (second-chance) eviction.
///
/// Unbounded memoization is a footgun on large networks (`dⁿ` pairs);
/// this cache holds at most `capacity` routes. Each hit sets the entry's
/// reference bit; at capacity the clock hand sweeps the slots, clearing
/// reference bits until it finds an unreferenced victim — recently used
/// routes survive, cold ones are displaced in `O(1)` amortized time.
///
/// A `capacity` of `0` disables caching: every lookup computes and
/// nothing is stored (counted as misses, so the telemetry still shows
/// the traffic).
///
/// # Examples
///
/// ```
/// use debruijn_core::routing::{self, RouteCache};
/// use debruijn_core::Word;
///
/// let mut cache = RouteCache::new(64);
/// let x = Word::parse(2, "0110")?;
/// let y = Word::parse(2, "1011")?;
/// let first = cache.get_or_compute(&x, &y, routing::route_bidirectional);
/// let second = cache.get_or_compute(&x, &y, routing::route_bidirectional);
/// assert_eq!(first, second);
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// # Ok::<(), debruijn_core::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct RouteCache {
    capacity: usize,
    // Pair-hash → slot index. Lookups hash the borrowed words (no clone);
    // the full key stored in the slot disambiguates hash collisions.
    map: HashMap<u64, usize>,
    slots: Vec<CacheSlot>,
    hand: usize,
    stats: RouteCacheStats,
}

fn pair_hash(x: &Word, y: &Word) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    x.hash(&mut h);
    y.hash(&mut h);
    h.finish()
}

impl RouteCache {
    /// Creates a cache holding at most `capacity` routes (0 disables).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::new(),
            slots: Vec::new(),
            hand: 0,
            stats: RouteCacheStats::default(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of routes currently cached.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache holds no routes.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// This instance's hit/miss/eviction counters.
    pub fn stats(&self) -> RouteCacheStats {
        self.stats
    }

    /// Returns the cached route for `(x, y)`, computing and inserting it
    /// via `compute` on a miss.
    ///
    /// The route is returned by clone; for shortest-path routes the clone
    /// is one `Vec` copy, far cheaper than a Theorem-2 solve.
    pub fn get_or_compute(
        &mut self,
        x: &Word,
        y: &Word,
        compute: impl FnOnce(&Word, &Word) -> RoutePath,
    ) -> RoutePath {
        if self.capacity == 0 {
            self.stats.misses += 1;
            return compute(x, y);
        }
        let h = pair_hash(x, y);
        if let Some(slot) = self.hit(h, x, y) {
            return self.slots[slot].route.clone();
        }
        self.stats.misses += 1;
        let route = compute(x, y);
        let slot = self.claim(h, x, y);
        self.slots[slot].route.clone_from(&route);
        route
    }

    /// The cached route for `(x, y)`, counting the hit and setting its
    /// reference bit; `None` counts nothing.
    ///
    /// With [`Self::get_or_insert`] this splits one
    /// [`Self::get_or_compute`] in two, so a cache shared behind a lock
    /// need not stay locked while a missed route is computed: `get`,
    /// then on `None` compute the route, then `get_or_insert` it. The
    /// counters then move as if [`Self::get_or_compute`] had run at the
    /// `get_or_insert`.
    pub fn get(&mut self, x: &Word, y: &Word) -> Option<&RoutePath> {
        if self.capacity == 0 {
            return None;
        }
        let slot = self.hit(pair_hash(x, y), x, y)?;
        Some(&self.slots[slot].route)
    }

    /// [`Self::get_or_compute`] with the route already computed: a hit
    /// (another caller cached the pair since a missed [`Self::get`])
    /// counts and keeps the cached route; a miss counts and copies
    /// `route` into the claimed slot. Every slot's buffer is sized once
    /// for `k` steps — the longest shortest route — so once the cache is
    /// full, a miss allocates nothing for the route or its key.
    pub fn get_or_insert(&mut self, x: &Word, y: &Word, route: &RoutePath) {
        if self.capacity == 0 {
            self.stats.misses += 1;
            return;
        }
        let h = pair_hash(x, y);
        if self.hit(h, x, y).is_some() {
            return;
        }
        self.stats.misses += 1;
        let slot = self.claim(h, x, y);
        let cached = &mut self.slots[slot].route;
        let steps = cached.steps_vec_mut();
        steps.clear();
        steps.reserve_exact(x.len().max(route.len()));
        cached.clone_from(route);
    }

    /// The slot caching `(x, y)` (pair hash `h`), counting the hit and
    /// setting its reference bit.
    fn hit(&mut self, h: u64, x: &Word, y: &Word) -> Option<usize> {
        let &slot = self.map.get(&h)?;
        let s = &mut self.slots[slot];
        if &s.key.0 != x || &s.key.1 != y {
            return None;
        }
        self.stats.hits += 1;
        s.referenced = true;
        Some(slot)
    }

    /// A slot for the new key `(x, y)`: a fresh one below capacity,
    /// otherwise the clock victim with its key overwritten in place. The
    /// caller fills in the route.
    fn claim(&mut self, h: u64, x: &Word, y: &Word) -> usize {
        if self.slots.len() < self.capacity {
            let slot = self.slots.len();
            self.slots.push(CacheSlot {
                key: (x.clone(), y.clone()),
                route: RoutePath::empty(),
                referenced: false,
            });
            self.map.insert(h, slot);
            return slot;
        }
        // Clock sweep: give referenced entries a second chance.
        while self.slots[self.hand].referenced {
            self.slots[self.hand].referenced = false;
            self.hand = (self.hand + 1) % self.slots.len();
        }
        let victim = self.hand;
        self.hand = (self.hand + 1) % self.slots.len();
        self.stats.evictions += 1;
        let s = &mut self.slots[victim];
        let old_hash = pair_hash(&s.key.0, &s.key.1);
        s.key.0.clone_from(x);
        s.key.1.clone_from(y);
        s.referenced = false;
        // Only unlink the old mapping if it still points at the victim
        // (a hash collision may have overwritten it already).
        if self.map.get(&old_hash) == Some(&victim) {
            self.map.remove(&old_hash);
        }
        self.map.insert(h, victim);
        victim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::directed;
    use crate::routing::algorithm1;
    use crate::space::DeBruijn;

    #[test]
    fn matches_algorithm1_exhaustively() {
        for (d, k) in [(2u8, 5usize), (3, 3)] {
            let g = DeBruijn::new(d, k).unwrap();
            for y in g.vertices() {
                let router = DirectedDestinationRouter::new(y.clone());
                for x in g.vertices() {
                    assert_eq!(router.route_from(&x), algorithm1(&x, &y), "{x}->{y}");
                    assert_eq!(
                        router.distance_from(&x),
                        directed::distance(&x, &y),
                        "{x}->{y}"
                    );
                }
            }
        }
    }

    #[test]
    fn self_route_is_empty() {
        let y = Word::parse(2, "0101").unwrap();
        let router = DirectedDestinationRouter::new(y.clone());
        assert!(router.route_from(&y).is_empty());
        assert_eq!(router.distance_from(&y), 0);
    }

    #[test]
    fn router_is_reusable_across_many_sources() {
        let y = Word::parse(3, "0210").unwrap();
        let router = DirectedDestinationRouter::new(y.clone());
        let g = DeBruijn::new(3, 4).unwrap();
        for x in g.vertices() {
            let p = router.route_from(&x);
            assert!(p.leads_to(&x, &y));
        }
    }

    #[test]
    #[should_panic(expected = "share radix and length")]
    fn rejects_foreign_sources() {
        let router = DirectedDestinationRouter::new(Word::parse(2, "0101").unwrap());
        router.route_from(&Word::parse(2, "01").unwrap());
    }

    #[test]
    fn route_cache_returns_correct_routes_under_eviction_pressure() {
        use crate::routing::route_bidirectional;
        let g = DeBruijn::new(2, 4).unwrap();
        let verts: Vec<Word> = g.vertices().collect();
        // Capacity far below the 256 pairs forces constant eviction.
        let mut cache = RouteCache::new(8);
        for _ in 0..3 {
            for x in &verts {
                for y in &verts {
                    let got = cache.get_or_compute(x, y, route_bidirectional);
                    assert_eq!(got, route_bidirectional(x, y), "{x}->{y}");
                }
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 3 * 16 * 16);
        assert!(stats.evictions > 0, "capacity 8 must evict");
        assert!(cache.len() <= 8);
    }

    #[test]
    fn route_cache_capacity_bounds_are_respected() {
        use crate::routing::trivial_route;
        let mut cache = RouteCache::new(4);
        for rank in 0..32u128 {
            let x = Word::from_rank(2, 5, rank).unwrap();
            let y = Word::from_rank(2, 5, 31 - rank).unwrap();
            cache.get_or_compute(&x, &y, |_, y| trivial_route(y));
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.capacity(), 4);
        let stats = cache.stats();
        assert_eq!(stats.misses, 32);
        assert_eq!(stats.evictions, 28);
    }

    #[test]
    fn route_cache_hits_repeat_traffic() {
        use crate::routing::route_bidirectional;
        let mut cache = RouteCache::new(16);
        let x = Word::parse(2, "0110").unwrap();
        let y = Word::parse(2, "1011").unwrap();
        for _ in 0..10 {
            cache.get_or_compute(&x, &y, route_bidirectional);
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 9);
        assert_eq!(stats.misses, 1);
        assert!(stats.hit_rate().unwrap() > 0.85);
    }

    #[test]
    fn hit_rate_is_none_without_activity() {
        assert_eq!(RouteCache::new(16).stats().hit_rate(), None);
        // Evictions alone are no lookups.
        let evicting = RouteCacheStats {
            evictions: 3,
            ..RouteCacheStats::default()
        };
        assert_eq!(evicting.hit_rate(), None);
    }

    #[test]
    fn zero_capacity_disables_caching_but_counts_traffic() {
        use crate::routing::route_bidirectional;
        let mut cache = RouteCache::new(0);
        let x = Word::parse(2, "0110").unwrap();
        let y = Word::parse(2, "1011").unwrap();
        for _ in 0..3 {
            let got = cache.get_or_compute(&x, &y, route_bidirectional);
            assert_eq!(got, route_bidirectional(&x, &y));
        }
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn destination_shard_is_deterministic_and_in_range() {
        let g = DeBruijn::new(2, 6).unwrap();
        for shards in [1usize, 2, 3, 8] {
            for y in g.vertices() {
                let s = destination_shard(&y, shards);
                assert!(s < shards, "{y} -> {s} out of range for {shards}");
                assert_eq!(s, destination_shard(&y, shards), "unstable for {y}");
            }
        }
        // One shard takes everything.
        assert_eq!(destination_shard(&Word::parse(2, "0110").unwrap(), 1), 0);
        // The hash actually spreads: 64 destinations over 4 shards
        // must not collapse onto a single one.
        let mut seen = [false; 4];
        for y in g.vertices() {
            seen[destination_shard(&y, 4)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 4 shards receive traffic");
    }

    #[test]
    fn stats_merge_and_since_compose() {
        let a = RouteCacheStats {
            hits: 10,
            misses: 4,
            evictions: 1,
        };
        let b = RouteCacheStats {
            hits: 5,
            misses: 6,
            evictions: 0,
        };
        let mut total = a;
        total.merge(&b);
        assert_eq!(
            total,
            RouteCacheStats {
                hits: 15,
                misses: 10,
                evictions: 1
            }
        );
        assert_eq!(total.since(&a), b);
        assert_eq!(total.since(&total), RouteCacheStats::default());
    }

    #[test]
    fn split_lookups_match_get_or_compute_and_counts() {
        use crate::routing::route_bidirectional;
        let g = DeBruijn::new(2, 4).unwrap();
        let verts: Vec<Word> = g.vertices().collect();
        for capacity in [0, 5, 64] {
            let mut whole = RouteCache::new(capacity);
            let mut split = RouteCache::new(capacity);
            for i in 0..600usize {
                let x = &verts[(i * 7) % verts.len()];
                let y = &verts[(i * i + 3) % 11];
                let want = whole.get_or_compute(x, y, route_bidirectional);
                let got = match split.get(x, y) {
                    Some(route) => route.clone(),
                    None => {
                        let route = route_bidirectional(x, y);
                        split.get_or_insert(x, y, &route);
                        route
                    }
                };
                assert_eq!(got, want, "{x}->{y} capacity {capacity}");
                assert_eq!(split.stats(), whole.stats());
            }
            assert_eq!(split.len(), whole.len());
        }
    }

    #[test]
    fn get_or_insert_after_a_concurrent_insert_counts_a_hit() {
        use crate::routing::route_bidirectional;
        let x = Word::parse(2, "0110").unwrap();
        let y = Word::parse(2, "1011").unwrap();
        let route = route_bidirectional(&x, &y);
        let mut cache = RouteCache::new(4);
        // Two callers miss the same pair before either stores it.
        assert!(cache.get(&x, &y).is_none());
        assert!(cache.get(&x, &y).is_none());
        cache.get_or_insert(&x, &y, &route);
        cache.get_or_insert(&x, &y, &route);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, cache.len()), (1, 1, 1));
        assert_eq!(cache.get(&x, &y), Some(&route));
    }

    #[test]
    fn clock_eviction_keeps_hot_entries() {
        use crate::routing::trivial_route;
        let mut cache = RouteCache::new(2);
        let hot_x = Word::from_rank(2, 5, 0).unwrap();
        let hot_y = Word::from_rank(2, 5, 1).unwrap();
        cache.get_or_compute(&hot_x, &hot_y, |_, y| trivial_route(y));
        for rank in 2..10u128 {
            // Re-touch the hot pair so its reference bit survives the
            // clock sweeps driven by the cold singleton inserts.
            cache.get_or_compute(&hot_x, &hot_y, |_, y| trivial_route(y));
            let x = Word::from_rank(2, 5, rank).unwrap();
            cache.get_or_compute(&x, &hot_y, |_, y| trivial_route(y));
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 8, "hot pair stays resident");
    }
}
