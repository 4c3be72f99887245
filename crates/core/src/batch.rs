//! Destination-major batched query evaluation.
//!
//! Every per-query table the scalar engines build — the failure function
//! of Algorithm 1, the packed lanes of the bit-parallel Theorem 2 sweep,
//! the suffix automatons of the family-value scan — depends only on the
//! *destination*. [`distance_batch_into`] and [`route_batch_into`]
//! therefore sort-group a batch of `(x, y)` pairs by destination, build
//! one [`DestinationContext`] per group, and answer every source in the
//! group against it; results are written back through the original
//! indices, so the output order (and every byte of every result) is
//! identical to running the scalar engines pair by pair.
//!
//! Three evaluation tiers, picked per group:
//!
//! * **singleton fall-through** — groups of one pair go straight to the
//!   scalar engines ([`routing::algorithm1_into`] /
//!   [`routing::route_with_engine_into`] / `distance_with`), so isolated
//!   queries pay no grouping overhead beyond the sort;
//! * **shared context** — larger groups amortize the `O(k)` (directed) or
//!   `O(k·d)` (undirected) destination build across the group and pay only
//!   the per-source scan: `O(k)` per source for directed overlaps and
//!   undirected distance *values*, one packed sweep for undirected
//!   *routes* (byte-identical minimizers to the scalar bit-parallel
//!   engine, see [`DestinationContext::both_family_minima`]). Undirected
//!   distance groups below `sweep_group_floor(d, k)` use that packed
//!   sweep too, since the automaton's `O(k·d)` build would not amortize
//!   over them: fewer than 24 sources at radix 2 and `4·d` beyond while
//!   a diagonal fits one `u64`, fewer than `(d + 7) / 2` (4 at radix 2)
//!   once it spans more;
//! * **distance column** — when the whole vertex set is enumerable
//!   ([`RankSpace`], at most [`COLUMN_MAX_NODES`] vertices) and the group
//!   is large enough that one reverse BFS from the destination
//!   (`O(n·d)`, the same column [`crate::routing::NextHopTable`] builds
//!   per destination) is cheaper than per-source scans, distances for the
//!   entire group are read out of one BFS column.
//!
//! Distances are plain integers, so any correct algorithm may serve them;
//! routes must match the scalar tie-breaking byte for byte, so the route
//! path reuses the exact engine sweep (with only the destination packing
//! hoisted) and falls back to the scalar engine for configurations whose
//! sweep it cannot replay (explicit non-bit-parallel engines, `Auto`
//! above the crossover).

use crate::distance::assert_same_space;
use crate::distance::undirected::{self, Engine, FamilyMinimum, Solution};
use crate::routing::{self, RoutePath, RoutingScratch, Step};
use crate::space::{DeBruijn, RankSpace};
use crate::word::Word;
use debruijn_strings::failure::overlap_with_scratch;
use debruijn_strings::{bitmatch, DestinationContext};

/// The distance-column tier is considered only for spaces with at most
/// this many vertices (the BFS allocates 4 bytes per vertex).
pub const COLUMN_MAX_NODES: u64 = 1 << 20;

/// The size from which an undirected distance group goes to the
/// suffix-automaton scan. Smaller groups are answered with the packed
/// Theorem-2 sweep ([`DestinationContext::both_family_minima`]), since the
/// automaton's two per-destination builds only pay off over larger groups.
///
/// Both tiers cost about `k` per source, and the automaton's build about
/// `k·d` per group, so the tie sits near a fixed number of sources for
/// each radix, growing with `d`, whatever `k` is. A diagonal longer than
/// one `u64` (`k·lane_bits(d) > 64`) costs the sweep several times as
/// much per source, so the tie comes far sooner there; radix 2's
/// branch-free one-word sweep is the cheapest per source, so its tie is
/// latest for its `d`. Per group, best of 9 over 32 random destinations
/// on a 2-core x86-64 VM, sweep time over automaton time (two runs;
/// docs/PERFORMANCE.md has the table), the tie lies at:
///
/// | diagonal | d | k | tie (sources) | floor |
/// |---|---|---|---|---|
/// | one word | 2 | 8, 16 | 20 (0.96–1.00×) | 24 |
/// | one word | 2 | 32, 64 | 24–32 (0.90–1.34×) | 24 |
/// | one word | 3 | 8, 16 | 12–16 | 12 |
/// | one word | 16 | 16 | 48–64 | 64 |
/// | one word | 17 | 8 | 32–48 | 68 |
/// | one word | 255 | 8 | past 128 (0.53–0.57× there) | 1020 |
/// | longer | 2 | 65, 512 | 3–4 | 4 |
/// | longer | 3 | 17, 100 | 4–5 | 5 |
/// | longer | 16 | 17, 256 | 12–20 | 11 |
/// | longer | 17 | 9, 130 | 12–16 | 12 |
/// | longer | 255 | 9, 130 | 96–128 | 131 |
fn sweep_group_floor(d: u8, k: usize) -> usize {
    let one_word = k * bitmatch::lane_bits(d) <= 64;
    let d = usize::from(d);
    match (one_word, d) {
        (true, 2) => 24,
        (true, _) => 4 * d,
        (false, _) => (d + 7) / 2,
    }
}

/// Reusable buffers for the batched kernels: the per-destination context,
/// the grouping keys, and the BFS column. One scratch per worker thread
/// (or per [`debruijn_parallel::map_chunks`] chunk) keeps the kernels
/// allocation-free after warm-up.
#[derive(Debug, Default, Clone)]
pub struct BatchScratch {
    ctx: DestinationContext,
    routing: RoutingScratch,
    fail: Vec<usize>,
    keys: Vec<(u64, u32)>,
    run: Vec<u32>,
    rest: Vec<u32>,
    grp: Vec<u32>,
    col: ColumnScratch,
}

impl BatchScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Reusable buffers for [`distance_column_into`]: the distance column and
/// the two BFS frontiers.
#[derive(Debug, Default, Clone)]
pub struct ColumnScratch {
    dist: Vec<u32>,
    frontier: Vec<u64>,
    next: Vec<u64>,
}

impl ColumnScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The distance column of the last [`distance_column_into`] call:
    /// `distances()[v]` is the hop count from vertex rank `v` to the
    /// destination.
    pub fn distances(&self) -> &[u32] {
        &self.dist
    }
}

/// Fills `scratch` with the distances from **every** vertex of the space
/// to `dst` (a vertex rank) — one reverse BFS over the rank space, the
/// column `NextHopTable` reads each destination's ports from. The
/// undirected graph's reverse moves are its own `2d` shifts; in the
/// directed graph the predecessors of `j` under `X → X⁻(a)` are its
/// right shifts `X⁺(b)`. `O(n·d)` directed, `O(2·n·d)` undirected.
pub fn distance_column_into(
    ranks: RankSpace,
    directed: bool,
    dst: u64,
    scratch: &mut ColumnScratch,
) {
    let d = ranks.space().d();
    let n = usize::try_from(ranks.order()).expect("column order must fit in usize");
    scratch.dist.clear();
    scratch.dist.resize(n, u32::MAX);
    scratch.frontier.clear();
    scratch.next.clear();

    scratch.dist[dst as usize] = 0;
    scratch.frontier.push(dst);
    let mut level: u32 = 0;
    while !scratch.frontier.is_empty() {
        level += 1;
        for &node in &scratch.frontier {
            for a in 0..d {
                let pred = ranks.shift_right(node, a);
                if scratch.dist[pred as usize] == u32::MAX {
                    scratch.dist[pred as usize] = level;
                    scratch.next.push(pred);
                }
                if !directed {
                    let pred = ranks.shift_left(node, a);
                    if scratch.dist[pred as usize] == u32::MAX {
                        scratch.dist[pred as usize] = level;
                        scratch.next.push(pred);
                    }
                }
            }
        }
        scratch.frontier.clear();
        std::mem::swap(&mut scratch.frontier, &mut scratch.next);
    }
}

/// SplitMix64-style digest of a destination's digits (length folded in),
/// used as the grouping sort key: eight digits per multiply, read as one
/// little-endian `u64`, then the last `k % 8` one at a time. Groups are
/// verified by digit comparison, so a collision costs time, never
/// correctness.
fn destination_key(y: &Word) -> u64 {
    let mix = |h: u64, v: u64| {
        let h = (h ^ v).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^ (h >> 27)
    };
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ (y.len() as u64);
    let mut chunks = y.digits().chunks_exact(8);
    for chunk in chunks.by_ref() {
        let v = u64::from_le_bytes(chunk.try_into().expect("chunks of 8"));
        h = mix(h, v);
    }
    for &b in chunks.remainder() {
        h = mix(h, u64::from(b));
    }
    h ^= h >> 31;
    h.wrapping_mul(0x94D0_49BB_1331_11EB)
}

/// Sorts pair indices by destination digest. `sort_unstable` over
/// `(digest, index)` is order-equivalent to a stable sort on the digest,
/// so groups keep their members in original batch order.
fn group_indices(pairs: &[(Word, Word)], keys: &mut Vec<(u64, u32)>) {
    keys.clear();
    keys.reserve(pairs.len());
    for (i, (x, y)) in pairs.iter().enumerate() {
        assert_same_space(x, y);
        keys.push((
            destination_key(y),
            u32::try_from(i).expect("batch too large"),
        ));
    }
    keys.sort_unstable();
}

/// Whether one reverse-BFS column beats per-source scans for a group of
/// `group_len` sources: the space must be enumerable and small, and the
/// BFS edge count must not exceed the group's aggregate scan length.
fn column_mode(y: &Word, directed: bool, group_len: usize) -> Option<RankSpace> {
    let space = DeBruijn::new(y.radix(), y.len()).ok()?;
    let ranks = RankSpace::new(space)?;
    let n = ranks.order();
    if n > COLUMN_MAX_NODES {
        return None;
    }
    let scans = group_len as u64 * y.len() as u64;
    let bfs = n * u64::from(y.radix()) * if directed { 1 } else { 2 };
    (scans >= bfs).then_some(ranks)
}

/// Batched distances: `out[i]` is the distance of `pairs[i]`, exactly as
/// the scalar engines compute it.
///
/// Pairs are grouped by destination; each group is answered by whichever
/// tier is cheapest (see the module docs). All engines agree on distance
/// values, so every tier returns the identical integer.
///
/// # Panics
///
/// Panics if any pair's words are not in the same `DG(d,k)`. Pairs from
/// *different* spaces may be mixed in one batch.
pub fn distance_batch_into(
    pairs: &[(Word, Word)],
    directed: bool,
    engine: Engine,
    scratch: &mut BatchScratch,
    out: &mut Vec<usize>,
) {
    out.clear();
    out.resize(pairs.len(), 0);
    for_each_group(pairs, scratch, |scratch, grp, pairs| {
        distance_group(pairs, grp, directed, engine, scratch, out);
    });
}

/// Allocating convenience wrapper over [`distance_batch_into`].
pub fn distance_batch(pairs: &[(Word, Word)], directed: bool, engine: Engine) -> Vec<usize> {
    let mut out = Vec::new();
    distance_batch_into(pairs, directed, engine, &mut BatchScratch::new(), &mut out);
    out
}

/// Batched routes: `out[i]` is the route of `pairs[i]`, byte-identical to
/// [`routing::algorithm1`] (directed) / [`routing::route_with_engine`]
/// (undirected) on that pair.
///
/// `out` is truncated/extended to `pairs.len()`; existing [`RoutePath`]
/// entries are rebuilt in place, so reusing one output vector across
/// batches is allocation-free after warm-up.
///
/// # Panics
///
/// Panics if any pair's words are not in the same `DG(d,k)`.
pub fn route_batch_into(
    pairs: &[(Word, Word)],
    directed: bool,
    engine: Engine,
    scratch: &mut BatchScratch,
    out: &mut Vec<RoutePath>,
) {
    out.truncate(pairs.len());
    while out.len() < pairs.len() {
        out.push(RoutePath::empty());
    }
    for_each_group(pairs, scratch, |scratch, grp, pairs| {
        route_group(pairs, grp, directed, engine, scratch, out);
    });
}

/// Allocating convenience wrapper over [`route_batch_into`].
pub fn route_batch(pairs: &[(Word, Word)], directed: bool, engine: Engine) -> Vec<RoutePath> {
    let mut out = Vec::new();
    route_batch_into(pairs, directed, engine, &mut BatchScratch::new(), &mut out);
    out
}

/// Runs `handle` once per destination group. Groups are runs of equal
/// digest sub-partitioned by actual digit equality (collision guard);
/// indices within a group stay in original batch order.
fn for_each_group(
    pairs: &[(Word, Word)],
    scratch: &mut BatchScratch,
    mut handle: impl FnMut(&mut BatchScratch, &[u32], &[(Word, Word)]),
) {
    if pairs.is_empty() {
        return;
    }
    let mut keys = std::mem::take(&mut scratch.keys);
    let mut run = std::mem::take(&mut scratch.run);
    let mut rest = std::mem::take(&mut scratch.rest);
    let mut grp = std::mem::take(&mut scratch.grp);
    group_indices(pairs, &mut keys);
    let mut start = 0;
    while start < keys.len() {
        let digest = keys[start].0;
        let mut end = start + 1;
        while end < keys.len() && keys[end].0 == digest {
            end += 1;
        }
        run.clear();
        run.extend(keys[start..end].iter().map(|&(_, i)| i));
        while !run.is_empty() {
            let head = &pairs[run[0] as usize].1;
            grp.clear();
            rest.clear();
            for &i in &run {
                if pairs[i as usize].1 == *head {
                    grp.push(i);
                } else {
                    rest.push(i);
                }
            }
            handle(scratch, &grp, pairs);
            std::mem::swap(&mut run, &mut rest);
        }
        start = end;
    }
    scratch.keys = keys;
    scratch.run = run;
    scratch.rest = rest;
    scratch.grp = grp;
}

fn distance_group(
    pairs: &[(Word, Word)],
    grp: &[u32],
    directed: bool,
    engine: Engine,
    scratch: &mut BatchScratch,
    out: &mut [usize],
) {
    let y = &pairs[grp[0] as usize].1;
    let k = y.len();
    if grp.len() == 1 {
        let i = grp[0] as usize;
        let x = &pairs[i].0;
        out[i] = if directed {
            k - overlap_with_scratch(x.digits(), y.digits(), &mut scratch.fail)
        } else {
            undirected::distance_with(engine, x, y)
        };
        return;
    }
    if let Some(ranks) = column_mode(y, directed, grp.len()) {
        distance_column_into(ranks, directed, y.rank() as u64, &mut scratch.col);
        for &i in grp {
            let i = i as usize;
            out[i] = scratch.col.dist[pairs[i].0.rank() as usize] as usize;
        }
        return;
    }
    if directed {
        scratch.ctx.set_destination(y.radix(), y.digits());
        for &i in grp {
            let i = i as usize;
            out[i] = k - scratch.ctx.overlap(pairs[i].0.digits());
        }
    } else if grp.len() < sweep_group_floor(y.radix(), k)
        && engine.resolve(y.radix(), k) == Engine::BitParallel
    {
        scratch.ctx.set_destination(y.radix(), y.digits());
        for &i in grp {
            let i = i as usize;
            let (l, r) = scratch.ctx.both_family_minima(pairs[i].0.digits());
            out[i] = (2 * k as i64 - 1 + l.value.min(r.value)) as usize;
        }
    } else if DestinationContext::supports_family_scan(y.radix(), k) {
        scratch.ctx.set_destination(y.radix(), y.digits());
        for &i in grp {
            let i = i as usize;
            let (l, r) = scratch.ctx.family_min_values(pairs[i].0.digits());
            out[i] = (2 * k as i64 - 1 + l.min(r)) as usize;
        }
    } else {
        for &i in grp {
            let i = i as usize;
            out[i] = undirected::distance_with(engine, &pairs[i].0, y);
        }
    }
}

fn route_group(
    pairs: &[(Word, Word)],
    grp: &[u32],
    directed: bool,
    engine: Engine,
    scratch: &mut BatchScratch,
    out: &mut [RoutePath],
) {
    if grp.len() == 1 {
        let i = grp[0] as usize;
        let (x, y) = &pairs[i];
        if directed {
            routing::algorithm1_into(x, y, &mut scratch.routing, &mut out[i]);
        } else {
            routing::route_with_engine_into(x, y, engine, &mut out[i]);
        }
        return;
    }
    let y = &pairs[grp[0] as usize].1;
    let k = y.len();
    if directed {
        scratch.ctx.set_destination(y.radix(), y.digits());
        for &i in grp {
            let i = i as usize;
            let x = &pairs[i].0;
            out[i].clear();
            if x == y {
                continue;
            }
            let l = scratch.ctx.overlap(x.digits());
            out[i]
                .steps_vec_mut()
                .extend((l..k).map(|j| Step::left(y.digits()[j])));
        }
        return;
    }
    if engine.resolve(y.radix(), k) != Engine::BitParallel {
        // Explicit non-bit-parallel engines (and Auto above the
        // crossover) keep their own tie-breaking; replay them scalar.
        for &i in grp {
            let i = i as usize;
            let (x, y) = &pairs[i];
            routing::route_with_engine_into(x, y, engine, &mut out[i]);
        }
        return;
    }
    scratch.ctx.set_destination(y.radix(), y.digits());
    for &i in grp {
        let i = i as usize;
        let x = &pairs[i].0;
        out[i].clear();
        if x == y {
            continue;
        }
        let (l_min, r_min_reversed) = scratch.ctx.both_family_minima(x.digits());
        // Identical Solution assembly to undirected::solve.
        let left_family = FamilyMinimum {
            steps: (2 * k as i64 - 1 + l_min.value) as usize,
            s: l_min.s,
            t: l_min.t,
            theta: l_min.theta,
        };
        let right_family = FamilyMinimum {
            steps: (2 * k as i64 - 1 + r_min_reversed.value) as usize,
            s: k + 1 - r_min_reversed.s,
            t: k + 1 - r_min_reversed.t,
            theta: r_min_reversed.theta,
        };
        let sol = Solution {
            k,
            left_family,
            right_family,
        };
        routing::route_from_solution_into(y, &sol, &mut out[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::directed;
    use crate::rng::SplitMix64;
    use crate::space::DeBruijn;

    fn engines() -> [Engine; 5] {
        [
            Engine::Naive,
            Engine::MorrisPratt,
            Engine::SuffixTree,
            Engine::BitParallel,
            Engine::Auto,
        ]
    }

    /// A deterministic mixed batch over DG(d,k): shuffled all-pairs plus
    /// duplicated and singleton entries.
    fn mixed_batch(d: u8, k: usize, seed: u64) -> Vec<(Word, Word)> {
        let g = DeBruijn::new(d, k).unwrap();
        let words: Vec<Word> = g.vertices().collect();
        let mut pairs: Vec<(Word, Word)> = Vec::new();
        for x in &words {
            for y in &words {
                pairs.push((x.clone(), y.clone()));
            }
        }
        // Duplicate a slice of pairs, then shuffle deterministically.
        let dups: Vec<_> = pairs.iter().take(words.len()).cloned().collect();
        pairs.extend(dups);
        SplitMix64::new(seed).shuffle(&mut pairs);
        pairs
    }

    #[test]
    fn distances_match_scalar_engines_on_mixed_batches() {
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        for (d, k) in [(2u8, 5usize), (3, 3), (4, 2)] {
            let pairs = mixed_batch(d, k, 0xBA7C + k as u64);
            for directed_graph in [true, false] {
                for engine in engines() {
                    distance_batch_into(&pairs, directed_graph, engine, &mut scratch, &mut out);
                    for (i, (x, y)) in pairs.iter().enumerate() {
                        let want = if directed_graph {
                            directed::distance(x, y)
                        } else {
                            undirected::distance_with(engine, x, y)
                        };
                        assert_eq!(out[i], want, "d={d} k={k} directed={directed_graph} i={i}");
                    }
                }
            }
        }
    }

    #[test]
    fn routes_match_scalar_engines_byte_for_byte() {
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        for (d, k) in [(2u8, 4usize), (3, 3)] {
            let pairs = mixed_batch(d, k, 0x2077 + k as u64);
            for directed_graph in [true, false] {
                for engine in engines() {
                    route_batch_into(&pairs, directed_graph, engine, &mut scratch, &mut out);
                    for (i, (x, y)) in pairs.iter().enumerate() {
                        let want = if directed_graph {
                            routing::algorithm1(x, y)
                        } else {
                            routing::route_with_engine(x, y, engine)
                        };
                        assert_eq!(
                            out[i], want,
                            "d={d} k={k} directed={directed_graph} engine={engine:?} i={i}"
                        );
                        assert_eq!(out[i].to_string(), want.to_string());
                    }
                }
            }
        }
    }

    #[test]
    fn column_tier_triggers_and_agrees_on_duplicated_destinations() {
        // DG(2,6): n = 64. A 200-source group comfortably clears the
        // column threshold for both graphs.
        let g = DeBruijn::new(2, 6).unwrap();
        let words: Vec<Word> = g.vertices().collect();
        let dst = words[37].clone();
        assert!(column_mode(&dst, true, 200).is_some());
        assert!(column_mode(&dst, false, 200).is_some());
        let mut rng = SplitMix64::new(0xC01);
        let pairs: Vec<(Word, Word)> = (0..200)
            .map(|_| {
                let x = words[(rng.next_u64() % words.len() as u64) as usize].clone();
                (x, dst.clone())
            })
            .collect();
        for directed_graph in [true, false] {
            let got = distance_batch(&pairs, directed_graph, Engine::Auto);
            for (i, (x, y)) in pairs.iter().enumerate() {
                let want = if directed_graph {
                    directed::distance(x, y)
                } else {
                    undirected::distance_with(Engine::Auto, x, y)
                };
                assert_eq!(got[i], want, "directed={directed_graph} i={i}");
            }
        }
    }

    #[test]
    fn column_tier_stays_off_for_small_groups_and_huge_spaces() {
        let small = Word::parse(2, "010101").unwrap();
        assert!(column_mode(&small, true, 1).is_none());
        let huge = Word::uniform(2, 64, 1).unwrap();
        assert!(column_mode(&huge, false, 1 << 30).is_none());
    }

    #[test]
    fn mixed_spaces_in_one_batch_group_correctly() {
        // Same digits, different k: must land in different groups.
        let pairs = vec![
            (
                Word::parse(2, "0101").unwrap(),
                Word::parse(2, "1100").unwrap(),
            ),
            (
                Word::parse(2, "01011").unwrap(),
                Word::parse(2, "11000").unwrap(),
            ),
            (
                Word::parse(2, "0101").unwrap(),
                Word::parse(2, "1100").unwrap(),
            ),
            (
                Word::parse(2, "11000").unwrap(),
                Word::parse(2, "11000").unwrap(),
            ),
        ];
        let got = distance_batch(&pairs, false, Engine::Auto);
        for (i, (x, y)) in pairs.iter().enumerate() {
            assert_eq!(
                got[i],
                undirected::distance_with(Engine::Auto, x, y),
                "i={i}"
            );
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        assert!(distance_batch(&[], true, Engine::Auto).is_empty());
        assert!(route_batch(&[], false, Engine::Auto).is_empty());
        let mut out = vec![7usize];
        distance_batch_into(&[], false, Engine::Auto, &mut BatchScratch::new(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn output_vectors_are_reused_across_batches() {
        let mut scratch = BatchScratch::new();
        let mut routes = Vec::new();
        let g = DeBruijn::new(2, 4).unwrap();
        let words: Vec<Word> = g.vertices().collect();
        let big: Vec<(Word, Word)> = words
            .iter()
            .map(|x| (x.clone(), words[3].clone()))
            .collect();
        route_batch_into(&big, false, Engine::Auto, &mut scratch, &mut routes);
        assert_eq!(routes.len(), big.len());
        let small = vec![(words[1].clone(), words[2].clone())];
        route_batch_into(&small, false, Engine::Auto, &mut scratch, &mut routes);
        assert_eq!(routes.len(), 1);
        assert_eq!(
            routes[0],
            routing::route_bidirectional(&words[1], &words[2])
        );
    }

    #[test]
    #[should_panic(expected = "share radix and length")]
    fn rejects_cross_space_pairs() {
        let x = Word::parse(2, "0101").unwrap();
        let y = Word::parse(2, "011").unwrap();
        distance_batch(&[(x, y)], true, Engine::Auto);
    }
}
