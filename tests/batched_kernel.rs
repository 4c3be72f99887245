//! Differential test of the destination-major batched kernel against the
//! scalar engines across the (d,k) grid.
//!
//! Sweeps every `d ∈ {2,3,4}`, `k ≤ 7`, both graph orientations, and
//! every engine selector, on shuffled batches with duplicated pairs,
//! skewed destinations, and singletons. `distance_batch_into` must
//! return the scalar distance and `route_batch_into` the byte-identical
//! scalar route (same `Display` rendering, same tie-breaks) at every
//! position — regardless of how the batch was ordered or how the kernel
//! tiered the work (shared context, BFS column, or scalar fall-through).
//! Undirected groups of every size from 1 to 33 cover both sides of the
//! kernel's sweep floor on one-word and multi-word diagonals. A final
//! case drives the service's cached batch path and checks both bodies
//! and cache counters against per-query evaluation.

use debruijn_core::distance::undirected::{distance_with, Engine};
use debruijn_core::rng::SplitMix64;
use debruijn_core::routing::{
    algorithm1, route_with_engine, RouteCache, RoutePath, RoutingScratch,
};
use debruijn_core::{
    distance, distance_batch_into, route_batch_into, BatchScratch, DeBruijn, Word,
};
use debruijn_net::service::{
    answer_batch_cached, answer_query_cached, BatchAnswerState, Query, QueryKind,
};

const ENGINES: [Engine; 5] = [
    Engine::Auto,
    Engine::Naive,
    Engine::MorrisPratt,
    Engine::SuffixTree,
    Engine::BitParallel,
];

/// A batch exercising every grouping shape: a destination-skewed block
/// (many sources aimed at few sinks), duplicated pairs, and uniform
/// singleton tails — shuffled so groups are scattered across the input.
fn mixed_batch(space: DeBruijn, seed: u64) -> Vec<(Word, Word)> {
    let words: Vec<Word> = space.vertices().collect();
    let mut rng = SplitMix64::new(seed);
    let mut pairs = Vec::new();
    // Skewed block: 3 hot destinations.
    for _ in 0..60 {
        let x = words[rng.below_usize(words.len())].clone();
        let y = words[rng.below_usize(3.min(words.len()))].clone();
        pairs.push((x, y));
    }
    // Duplicated pairs (identical (x, y) twice).
    for _ in 0..10 {
        let x = words[rng.below_usize(words.len())].clone();
        let y = words[rng.below_usize(words.len())].clone();
        pairs.push((x.clone(), y.clone()));
        pairs.push((x, y));
    }
    // Uniform tail: mostly singleton groups.
    for _ in 0..40 {
        let x = words[rng.below_usize(words.len())].clone();
        let y = words[rng.below_usize(words.len())].clone();
        pairs.push((x, y));
    }
    rng.shuffle(&mut pairs);
    pairs
}

#[test]
fn batched_distances_match_scalar_engines_across_the_grid() {
    let mut scratch = BatchScratch::new();
    let mut dists = Vec::new();
    for d in [2u8, 3, 4] {
        for k in 1..=7usize {
            let space = DeBruijn::new(d, k).unwrap();
            let pairs = mixed_batch(space, 0xD157 ^ (u64::from(d) << 8) ^ k as u64);
            for directed in [true, false] {
                for engine in ENGINES {
                    distance_batch_into(&pairs, directed, engine, &mut scratch, &mut dists);
                    assert_eq!(dists.len(), pairs.len());
                    for (i, (x, y)) in pairs.iter().enumerate() {
                        let want = if directed {
                            distance::directed::distance(x, y)
                        } else {
                            distance_with(engine, x, y)
                        };
                        assert_eq!(
                            dists[i], want,
                            "d={d} k={k} {x} {y} directed={directed} {engine:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn batched_routes_are_byte_identical_to_scalar_routes() {
    let mut scratch = BatchScratch::new();
    let mut routes = Vec::new();
    for d in [2u8, 3, 4] {
        for k in 1..=7usize {
            let space = DeBruijn::new(d, k).unwrap();
            let pairs = mixed_batch(space, 0x2007 ^ (u64::from(d) << 8) ^ k as u64);
            for directed in [true, false] {
                for engine in ENGINES {
                    route_batch_into(&pairs, directed, engine, &mut scratch, &mut routes);
                    assert_eq!(routes.len(), pairs.len());
                    for (i, (x, y)) in pairs.iter().enumerate() {
                        let want = if directed {
                            algorithm1(x, y)
                        } else {
                            route_with_engine(x, y, engine)
                        };
                        assert_eq!(
                            routes[i], want,
                            "d={d} k={k} {x} {y} directed={directed} {engine:?}"
                        );
                        // Same steps is not enough: the printed report
                        // (the CLI's batch output) must match too.
                        assert_eq!(routes[i].to_string(), want.to_string());
                        assert!(routes[i].leads_to(x, y) || x == y);
                    }
                }
            }
        }
    }
}

/// One group per size from 1 to 33, shuffled together: undirected
/// groups below the batched distance kernel's sweep floor (8 sources on
/// one-word diagonals, 4 on longer ones) take the packed sweep, larger
/// ones the suffix-automaton scan, so this covers sizes 1, floor − 1,
/// floor and floor + 1 for any floor up to 32. The shapes give one-word
/// (k·lane ≤ 64) and multi-word diagonals for every lane width.
#[test]
fn undirected_groups_around_the_sweep_floor_match_scalar_engines() {
    let mut scratch = BatchScratch::new();
    let (mut dists, mut routes) = (Vec::new(), Vec::new());
    for (d, k) in [(2u8, 64usize), (2, 130), (3, 16), (3, 17), (17, 8), (17, 9)] {
        let mut rng = SplitMix64::new(0xF100 ^ (u64::from(d) << 8) ^ k as u64);
        let word = |rng: &mut SplitMix64| {
            Word::new(d, (0..k).map(|_| rng.below_usize(d.into()) as u8).collect()).unwrap()
        };
        let mut pairs = Vec::new();
        for size in 1..=33 {
            let y = word(&mut rng);
            for s in 0..size {
                // One source of each larger group is the destination.
                let x = if s == 1 { y.clone() } else { word(&mut rng) };
                pairs.push((x, y.clone()));
            }
        }
        rng.shuffle(&mut pairs);
        // The naive and Morris–Pratt engines are too slow for every pair
        // at k ≥ 64.
        let engines: &[Engine] = if k > 20 {
            &[Engine::Auto, Engine::BitParallel]
        } else {
            &ENGINES
        };
        for &engine in engines {
            distance_batch_into(&pairs, false, engine, &mut scratch, &mut dists);
            route_batch_into(&pairs, false, engine, &mut scratch, &mut routes);
            for (i, (x, y)) in pairs.iter().enumerate() {
                let what = format!("d={d} k={k} {x} {y} {engine:?}");
                assert_eq!(dists[i], distance_with(engine, x, y), "{what}");
                let want = route_with_engine(x, y, engine);
                assert_eq!(routes[i].to_string(), want.to_string(), "{what}");
                assert_eq!(routes[i].len(), dists[i], "{what}");
            }
        }
    }
}

#[test]
fn service_batch_path_matches_per_query_evaluation_with_cache() {
    for (d, k) in [(2u8, 5usize), (3, 3)] {
        let space = DeBruijn::new(d, k).unwrap();
        let pairs = mixed_batch(space, 0x5E4C ^ u64::from(d));
        let mut rng = SplitMix64::new(0xCA11);
        let queries: Vec<Query> = pairs
            .into_iter()
            .map(|(x, y)| Query {
                kind: if rng.below_usize(2) == 0 {
                    QueryKind::Distance
                } else {
                    QueryKind::Route
                },
                x,
                y,
                directed: rng.below_usize(5) == 0,
            })
            .collect();

        // Small capacity so clock eviction runs inside the sweep.
        let mut batch_cache = RouteCache::new(16);
        let mut scalar_cache = RouteCache::new(16);
        let mut st = BatchAnswerState::new();
        let mut bodies = Vec::new();
        let mut scratch = RoutingScratch::new();
        let mut path_buf = RoutePath::empty();
        for drain in queries.chunks(24) {
            let refs: Vec<&Query> = drain.iter().collect();
            answer_batch_cached(&refs, &mut batch_cache, &mut st, &mut bodies);
            for (q, body) in drain.iter().zip(&bodies) {
                let want = answer_query_cached(q, &mut scalar_cache, &mut scratch, &mut path_buf);
                assert_eq!(*body, want, "d={d} k={k} {}->{} {:?}", q.x, q.y, q.kind);
            }
            assert_eq!(
                batch_cache.stats(),
                scalar_cache.stats(),
                "cache counters must evolve identically (d={d} k={k})"
            );
        }
        assert!(batch_cache.stats().evictions > 0, "capacity 16 must churn");
    }
}
