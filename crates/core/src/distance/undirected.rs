//! Distance in the **undirected** de Bruijn graph (Theorem 2).
//!
//! With both shift directions available, a shortest walk keeps one block of
//! `X` and rebuilds the rest of `Y` around it. Theorem 2 makes this exact:
//!
//! ```text
//! D(X,Y) = 2k − 1 + min{ min_{i,j}(i − j − l_{i,j}),  min_{i,j}(−i + j − r_{i,j}) }
//! ```
//!
//! where `l`/`r` are the matching functions of Eqs. (8–9). The two inner
//! minima (the paper's `D₁` and `D₂` of Algorithm 2) are computed here by
//! one of four interchangeable engines:
//!
//! | engine | time | reference |
//! |---|---|---|
//! | [`Engine::Naive`] | `O(k⁴)` | the definition (§4 remark: fine for small `k`) |
//! | [`Engine::MorrisPratt`] | `O(k²)` | Algorithms 2 + 3 |
//! | [`Engine::SuffixTree`] | `O(k)` | Algorithm 4 |
//! | [`Engine::BitParallel`] | `O(k²/w)` words | diagonal-run sweep, [`debruijn_strings::bitmatch`] |
//!
//! All four return not just the distance but the minimizers
//! `(s₁,t₁,θ₁)` / `(s₂,t₂,θ₂)` needed to *construct* a shortest route.

use std::cell::RefCell;

use debruijn_strings::bitmatch;
use debruijn_strings::matching::{self, MatchTerm};
use debruijn_strings::TwoStringTree;

use super::assert_same_space;
use crate::word::Word;

/// Which implementation computes the matching-function minima.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Brute-force evaluation of Eqs. (8–9); `O(k⁴)`.
    Naive,
    /// The paper's Algorithm 2 engine (failure functions); `O(k²)` time,
    /// `O(k)` space.
    MorrisPratt,
    /// The paper's Algorithm 4 engine (compact prefix/suffix trees);
    /// `O(k)` time and space.
    SuffixTree,
    /// Word-parallel diagonal sweep over packed digit lanes
    /// ([`debruijn_strings::bitmatch`]): at most `O(k²·lane_bits / 64)`
    /// word operations, with one candidate run per diagonal and the
    /// diagonals that cannot improve either family skipped;
    /// allocation-free after warm-up. The fastest engine while
    /// `k · lane_bits ≤ 8192` (see [`AUTO_BITPARALLEL_MAX_LANE_BITS`]).
    BitParallel,
    /// Picks [`Engine::BitParallel`] up to [`auto_bitparallel_max_k`]
    /// (`k ≤ 8192` for radix 2, `2048` for radix 3–16, `1024` beyond) and
    /// [`Engine::SuffixTree`] past it, the measured crossover (see
    /// `docs/PERFORMANCE.md`).
    #[default]
    Auto,
}

/// `Engine::Auto` uses [`Engine::BitParallel`] while `k` times the lane
/// width of radix `d` ([`bitmatch::lane_bits`]: 1 bit for `d = 2`, 4 for
/// `d ≤ 16`, 8 beyond) is at most this, and [`Engine::SuffixTree`]
/// beyond. The product is the length of the longest diagonal in bits,
/// which sets how many words the sweep reads per diagonal.
///
/// Pinned against the `distance_engines` series in
/// `BENCH_results.json` (`bench.sh` regenerates it), which time both
/// engines at radix 2 up to `k = 8192` and at radixes 16, 17 and 255 from
/// `k = 512` to `4096`. The sweep wins every row with
/// `k · lane_bits ≤ 8192`, and the suffix tree every row past it but
/// one. On byte lanes the sweep gets cheaper as the radix grows, so
/// radix 255 at `k = 2048` is the one benched row where Auto does not
/// pick the faster engine: the bound follows radix 17, the slowest
/// alphabet on those lanes. Radix 2 is benched no further than
/// `k = 8192`, where the sweep is still well ahead; past it Auto keeps
/// the suffix tree's `O(k)` bound without a measurement behind it (see
/// `docs/PERFORMANCE.md` for the readings).
pub const AUTO_BITPARALLEL_MAX_LANE_BITS: usize = 8192;

/// The largest `k` at which [`Engine::Auto`] picks
/// [`Engine::BitParallel`] for radix `d`
/// ([`AUTO_BITPARALLEL_MAX_LANE_BITS`] over the lane width).
#[must_use]
pub fn auto_bitparallel_max_k(d: u8) -> usize {
    AUTO_BITPARALLEL_MAX_LANE_BITS / bitmatch::lane_bits(d)
}

impl Engine {
    /// The concrete engine [`Engine::Auto`] picks for radix `d` and word
    /// length `k` (other engines resolve to themselves). Exposed so
    /// benchmarks and tests can assert the selection matches the measured
    /// winner.
    #[must_use]
    pub fn resolve(self, d: u8, k: usize) -> Engine {
        match self {
            Engine::Auto => {
                if k <= auto_bitparallel_max_k(d) {
                    Engine::BitParallel
                } else {
                    Engine::SuffixTree
                }
            }
            other => other,
        }
    }
}

/// The minimum of one matching-function family, with its minimizer.
///
/// For the `l` family, `steps = 2k − 1 + s − t − θ` (the paper's `D₁`);
/// for the `r` family, `steps = 2k − 1 − s + t − θ` (the paper's `D₂`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FamilyMinimum {
    /// Route length this family achieves (`D₁` or `D₂`).
    pub steps: usize,
    /// 1-indexed position in `X` (paper's `s₁` / `s₂`).
    pub s: usize,
    /// 1-indexed position in `Y` (paper's `t₁` / `t₂`).
    pub t: usize,
    /// Length of the matched block (paper's `θ₁` / `θ₂`).
    pub theta: usize,
}

/// The full output of Theorem 2 for one pair `(X,Y)`: both family minima.
///
/// Consumed by `routing::algorithm2` / `routing::algorithm4` to build the
/// route; `D(X,Y) = min(D₁, D₂)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Solution {
    /// The word length `k`.
    pub k: usize,
    /// Minimum over the `l` family (paper's `D₁`, `s₁`, `t₁`, `θ₁`).
    pub left_family: FamilyMinimum,
    /// Minimum over the `r` family (paper's `D₂`, `s₂`, `t₂`, `θ₂`).
    pub right_family: FamilyMinimum,
}

impl Solution {
    /// The distance `D(X,Y) = min(D₁, D₂)`.
    pub fn distance(&self) -> usize {
        self.left_family.steps.min(self.right_family.steps)
    }
}

/// Solves Theorem 2 for `(X,Y)` with the requested engine.
///
/// # Panics
///
/// Panics if the words are not in the same `DG(d,k)`.
///
/// # Examples
///
/// ```
/// use debruijn_core::distance::undirected::{solve, Engine};
/// use debruijn_core::Word;
///
/// let x = Word::parse(2, "0110")?;
/// let y = Word::parse(2, "1011")?;
/// // One right shift: 0110⁺(1) = 1011.
/// let sol = solve(&x, &y, Engine::SuffixTree);
/// assert_eq!(sol.distance(), 1);
/// # Ok::<(), debruijn_core::Error>(())
/// ```
pub fn solve(x: &Word, y: &Word, engine: Engine) -> Solution {
    assert_same_space(x, y);
    let k = x.len();
    let engine = engine.resolve(x.radix(), k);
    let (l_min, r_min_reversed) = match engine {
        Engine::Naive => (naive_min(x, y), naive_min(&x.reversed(), &y.reversed())),
        Engine::MorrisPratt => MP_SCRATCH.with(|s| {
            let (scratch, xr, yr) = &mut *s.borrow_mut();
            let l = matching::min_l_term_with_scratch(x.digits(), y.digits(), scratch);
            xr.clear();
            xr.extend(x.digits().iter().rev());
            yr.clear();
            yr.extend(y.digits().iter().rev());
            let r = matching::min_l_term_with_scratch(xr, yr, scratch);
            (l, r)
        }),
        Engine::SuffixTree => (suffix_tree_min(x, y), {
            let xr = x.reversed();
            let yr = y.reversed();
            suffix_tree_min(&xr, &yr)
        }),
        Engine::BitParallel => BIT_SCRATCH.with(|s| {
            bitmatch::both_family_minima(x.radix(), x.digits(), y.digits(), &mut s.borrow_mut())
        }),
        Engine::Auto => unreachable!("resolved above"),
    };

    // D₁ = 2k − 1 + min(i − j − l_{i,j}); the baseline candidate (l = 0 at
    // i = 1, j = k) caps it at k.
    let d1 = (2 * k as i64 - 1 + l_min.value) as usize;
    let left_family = FamilyMinimum {
        steps: d1,
        s: l_min.s,
        t: l_min.t,
        theta: l_min.theta,
    };

    // The r family on (X,Y) is the l family on the reversals:
    // r_{i,j}(X,Y) = l_{k+1−i,k+1−j}(X̄,Ȳ), and
    // −i + j − r_{i,j} = i′ − j′ − l_{i′,j′} under i′ = k+1−i, j′ = k+1−j.
    let d2 = (2 * k as i64 - 1 + r_min_reversed.value) as usize;
    let right_family = FamilyMinimum {
        steps: d2,
        s: k + 1 - r_min_reversed.s,
        t: k + 1 - r_min_reversed.t,
        theta: r_min_reversed.theta,
    };

    Solution {
        k,
        left_family,
        right_family,
    }
}

/// Distance between `X` and `Y` in the undirected `DG(d,k)` with the
/// default engine. See [`solve`] for engine selection.
///
/// # Panics
///
/// Panics if the words are not in the same `DG(d,k)`.
pub fn distance(x: &Word, y: &Word) -> usize {
    solve(x, y, Engine::Auto).distance()
}

/// Distance with an explicit engine choice.
///
/// # Panics
///
/// Panics if the words are not in the same `DG(d,k)`.
pub fn distance_with(engine: Engine, x: &Word, y: &Word) -> usize {
    solve(x, y, engine).distance()
}

thread_local! {
    // One packed-lane scratch per thread keeps the bit-parallel engine
    // allocation-free across solves without threading a buffer through
    // every caller.
    static BIT_SCRATCH: RefCell<bitmatch::BitScratch> = RefCell::new(bitmatch::BitScratch::new());

    // Row buffers plus reversed-digit buffers for the Morris–Pratt engine:
    // the r-family pass reverses both words, and reusing these vectors
    // keeps Algorithm 2's hot path free of per-solve allocations too.
    #[allow(clippy::type_complexity)]
    static MP_SCRATCH: RefCell<(matching::MatchScratch, Vec<u8>, Vec<u8>)> =
        RefCell::new((matching::MatchScratch::new(), Vec::new(), Vec::new()));
}

fn naive_min(x: &Word, y: &Word) -> MatchTerm {
    let table = matching::l_table_naive(x.digits(), y.digits());
    matching::min_l_term_from_table(&table)
}

fn suffix_tree_min(x: &Word, y: &Word) -> MatchTerm {
    let tree = TwoStringTree::new(&x.digits_u32(), &y.digits_u32());
    let m = tree.match_minimum();
    MatchTerm {
        value: m.value,
        s: m.s,
        t: m.t,
        theta: m.theta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::DeBruijn;
    use std::collections::HashMap;
    use std::collections::VecDeque;

    /// Reference BFS distance over the undirected neighbor relation.
    fn bfs_distance(g: &DeBruijn, x: &Word, y: &Word) -> usize {
        let mut dist: HashMap<Word, usize> = HashMap::new();
        let mut queue = VecDeque::new();
        dist.insert(x.clone(), 0);
        queue.push_back(x.clone());
        while let Some(v) = queue.pop_front() {
            let dv = dist[&v];
            if &v == y {
                return dv;
            }
            for n in g.undirected_neighbors(&v) {
                if !dist.contains_key(&n) {
                    dist.insert(n.clone(), dv + 1);
                    queue.push_back(n);
                }
            }
        }
        unreachable!("de Bruijn graphs are connected");
    }

    fn engines() -> [Engine; 4] {
        [
            Engine::Naive,
            Engine::MorrisPratt,
            Engine::SuffixTree,
            Engine::BitParallel,
        ]
    }

    #[test]
    fn all_engines_match_bfs_on_dg_2_3() {
        let g = DeBruijn::new(2, 3).unwrap();
        for x in g.vertices() {
            for y in g.vertices() {
                let want = bfs_distance(&g, &x, &y);
                for e in engines() {
                    assert_eq!(distance_with(e, &x, &y), want, "{x} {y} {e:?}");
                }
            }
        }
    }

    #[test]
    fn all_engines_match_bfs_on_dg_2_4() {
        let g = DeBruijn::new(2, 4).unwrap();
        for x in g.vertices() {
            for y in g.vertices() {
                let want = bfs_distance(&g, &x, &y);
                for e in engines() {
                    assert_eq!(distance_with(e, &x, &y), want, "{x} {y} {e:?}");
                }
            }
        }
    }

    #[test]
    fn all_engines_match_bfs_on_dg_3_2() {
        let g = DeBruijn::new(3, 2).unwrap();
        for x in g.vertices() {
            for y in g.vertices() {
                let want = bfs_distance(&g, &x, &y);
                for e in engines() {
                    assert_eq!(distance_with(e, &x, &y), want, "{x} {y} {e:?}");
                }
            }
        }
    }

    #[test]
    fn undirected_distance_is_symmetric() {
        let g = DeBruijn::new(2, 5).unwrap();
        for x in g.vertices() {
            for y in g.vertices() {
                assert_eq!(distance(&x, &y), distance(&y, &x), "{x} {y}");
            }
        }
    }

    #[test]
    fn undirected_is_at_most_directed() {
        use crate::distance::directed;
        let g = DeBruijn::new(2, 5).unwrap();
        for x in g.vertices() {
            for y in g.vertices() {
                assert!(distance(&x, &y) <= directed::distance(&x, &y));
            }
        }
    }

    #[test]
    fn family_minimizers_attain_their_step_counts() {
        let g = DeBruijn::new(2, 4).unwrap();
        for x in g.vertices() {
            for y in g.vertices() {
                for e in engines() {
                    let sol = solve(&x, &y, e);
                    let k = sol.k as i64;
                    let lf = sol.left_family;
                    assert_eq!(
                        lf.steps as i64,
                        2 * k - 1 + lf.s as i64 - lf.t as i64 - lf.theta as i64,
                        "L family inconsistent: {x} {y} {e:?}"
                    );
                    let rf = sol.right_family;
                    assert_eq!(
                        rf.steps as i64,
                        2 * k - 1 - rf.s as i64 + rf.t as i64 - rf.theta as i64,
                        "R family inconsistent: {x} {y} {e:?}"
                    );
                    assert!(lf.steps <= sol.k || rf.steps <= sol.k);
                }
            }
        }
    }

    #[test]
    fn distance_zero_iff_equal() {
        let g = DeBruijn::new(3, 3).unwrap();
        for x in g.vertices() {
            for y in g.vertices() {
                assert_eq!(distance(&x, &y) == 0, x == y);
            }
        }
    }

    #[test]
    fn engines_agree_on_large_random_words() {
        // Deterministic pseudo-random digits via a simple LCG: no rand
        // dependency in the library crate.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for d in [2u8, 3, 5] {
            for k in [33usize, 65, 120] {
                let digits_x: Vec<u8> = (0..k).map(|_| (next() % d as u64) as u8).collect();
                let digits_y: Vec<u8> = (0..k).map(|_| (next() % d as u64) as u8).collect();
                let x = Word::new(d, digits_x).unwrap();
                let y = Word::new(d, digits_y).unwrap();
                let mp = distance_with(Engine::MorrisPratt, &x, &y);
                let st = distance_with(Engine::SuffixTree, &x, &y);
                let bp = distance_with(Engine::BitParallel, &x, &y);
                let auto = distance(&x, &y);
                assert_eq!(mp, st, "d={d} k={k}");
                assert_eq!(mp, bp, "d={d} k={k}");
                assert_eq!(mp, auto, "d={d} k={k}");
            }
        }
    }

    #[test]
    fn diameter_pair_reaches_k() {
        // D(0…0, 1…1) = k in the undirected graph too.
        for k in 1..=8usize {
            let x = Word::uniform(2, k, 0).unwrap();
            let y = Word::uniform(2, k, 1).unwrap();
            assert_eq!(distance(&x, &y), k, "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "share radix and length")]
    fn rejects_mismatched_spaces() {
        let x = Word::parse(2, "01").unwrap();
        let y = Word::parse(3, "01").unwrap();
        distance(&x, &y);
    }

    /// Auto must pick the engine the `distance_engines` bench series
    /// (BENCH_results.json, `bench.sh` regenerates) measures as faster,
    /// at every benched radix and size but one: radix 255 at `k = 2048`,
    /// where the radixes sharing 8-bit lanes disagree and the bound
    /// follows radix 17 (see [`AUTO_BITPARALLEL_MAX_LANE_BITS`]). If the
    /// crossover drifts away from the data, this fails before a user
    /// sees the regression.
    #[test]
    fn auto_picks_the_measured_winner_at_bench_sizes() {
        let sweep_wins: [(u8, &[usize]); 4] = [
            (2, &[8, 32, 64, 128, 512, 1024, 2048, 4096, 8192]),
            (16, &[512, 1024, 2048]),
            (17, &[512, 1024]),
            (255, &[512, 1024]),
        ];
        for (d, sizes) in sweep_wins {
            for &k in sizes {
                assert_eq!(
                    Engine::Auto.resolve(d, k),
                    Engine::BitParallel,
                    "bit-parallel is the measured winner at d={d}, k={k}"
                );
            }
        }
        for (d, k) in [(16u8, 4096usize), (17, 2048), (17, 4096), (255, 4096)] {
            assert_eq!(
                Engine::Auto.resolve(d, k),
                Engine::SuffixTree,
                "suffix tree is the measured winner at d={d}, k={k}"
            );
        }
        assert_eq!(
            Engine::Auto.resolve(255, 2048),
            Engine::SuffixTree,
            "radix 255 shares radix 17's bound"
        );
        // Non-auto engines resolve to themselves at any size.
        for e in [
            Engine::Naive,
            Engine::MorrisPratt,
            Engine::SuffixTree,
            Engine::BitParallel,
        ] {
            assert_eq!(e.resolve(2, 16384), e);
        }
    }
}
