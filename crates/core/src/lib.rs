//! Optimal routing in de Bruijn networks — the core library.
//!
//! This crate reproduces the central results of Zhen Liu, *"Optimal Routing
//! in the De Bruijn Networks"* (INRIA RR-1130, 1989 / ICDCS 1990):
//!
//! * [`Word`] — a vertex of the de Bruijn graph `DG(d,k)`: a word of `k`
//!   digits over the alphabet `{0, …, d−1}`, with the two shift operations
//!   `X⁻(a)` ([`Word::shift_left`]) and `X⁺(a)` ([`Word::shift_right`]);
//! * [`DeBruijn`] — the parameter space `(d, k)` with vertex and neighbor
//!   enumeration for both the directed and the undirected graph;
//! * [`distance`] — the paper's distance functions: Property 1 for the
//!   directed graph (`D(X,Y) = k − overlap(X,Y)`) and Theorem 2 for the
//!   undirected graph, with three interchangeable engines (naive,
//!   Morris–Pratt, suffix tree);
//! * [`routing`] — the paper's Algorithms 1, 2 and 4, emitting explicit
//!   shortest routing paths as sequences of `(shift type, digit)` pairs,
//!   including the wildcard `*` digits the paper proposes for traffic
//!   balancing.
//!
//! # Quick example
//!
//! Route between two nodes of the binary de Bruijn network `DN(2,4)`:
//!
//! ```
//! use debruijn_core::{distance, routing, Word};
//!
//! let x = Word::parse(2, "0110")?;
//! let y = Word::parse(2, "1011")?;
//!
//! // Directed network: follow left shifts only.
//! assert_eq!(distance::directed::distance(&x, &y), 2);
//!
//! // Undirected network: mixing left and right shifts can be shorter.
//! let route = routing::algorithm2(&x, &y);
//! assert_eq!(route.len(), distance::undirected::distance(&x, &y));
//! assert!(route.leads_to(&x, &y));
//! # Ok::<(), debruijn_core::Error>(())
//! ```

pub mod batch;
pub mod distance;
pub mod error;
pub mod packed;
pub mod rng;
pub mod routing;
pub mod space;
pub mod word;

pub use batch::{distance_batch, distance_batch_into, route_batch, route_batch_into, BatchScratch};
pub use error::Error;
pub use routing::{Digit, RoutePath, ShiftKind, Step};
pub use space::DeBruijn;
pub use word::Word;

/// Average inter-vertex distance of the **directed** `DG(d,k)`, Eq. (5).
///
/// `δ(d,k) = Σ_{i=1..k} i·α^{k−i}·(1−α)` with `α = 1/d`, which telescopes
/// to `k − (1 − α^k)·α/(1−α)`. For `d = 2` this is `k − 1 + 2^{−k}`.
///
/// The average is taken over ordered pairs `(X,Y)` drawn uniformly
/// (including `X = Y`), matching the paper's derivation from the suffix
/// match-length distribution.
///
/// **Erratum note:** the paper's derivation treats the overlap length as
/// geometrically distributed (`P(D = i) = α^{k−i}·(1−α)`), which ignores
/// pairs whose longest match is longer than their longest *contiguous
/// chain* of matches — e.g. `X = Y = 01` overlaps at length 2 but not 1.
/// Eq. (5) therefore **overestimates** the true average: for `DG(2,2)`
/// the exact all-pairs average is `9/8`, not `10/8`, and for `d = 2` the
/// gap converges to ≈ 0.53 hops as `k` grows (it shrinks quickly with
/// `d`). The exact value is computed by `debruijn-analysis`; experiment
/// E1 quantifies the gap.
///
/// # Examples
///
/// ```
/// use debruijn_core::directed_average_distance;
///
/// let d2k3 = directed_average_distance(2, 3);
/// assert!((d2k3 - (3.0 - 1.0 + 0.125)).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if `d < 2` or `k < 1`.
pub fn directed_average_distance(d: u8, k: usize) -> f64 {
    assert!(d >= 2, "de Bruijn graphs require d >= 2");
    assert!(k >= 1, "de Bruijn graphs require k >= 1");
    let alpha = 1.0 / f64::from(d);
    let alpha_bar = 1.0 - alpha;
    k as f64 - (1.0 - alpha.powi(k as i32)) * alpha / alpha_bar
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq5_matches_paper_special_case_d2() {
        for k in 1..=20 {
            let want = k as f64 - 1.0 + 0.5f64.powi(k as i32);
            assert!(
                (directed_average_distance(2, k) - want).abs() < 1e-12,
                "k={k}"
            );
        }
    }

    #[test]
    fn eq5_matches_direct_summation() {
        for d in 2u8..=9 {
            for k in 1..=12usize {
                let alpha = 1.0 / f64::from(d);
                let direct: f64 = (1..=k)
                    .map(|i| i as f64 * alpha.powi((k - i) as i32) * (1.0 - alpha))
                    .sum();
                assert!(
                    (directed_average_distance(d, k) - direct).abs() < 1e-10,
                    "d={d} k={k}"
                );
            }
        }
    }

    #[test]
    fn average_distance_is_below_diameter() {
        for d in 2u8..=5 {
            for k in 1..=10usize {
                let avg = directed_average_distance(d, k);
                assert!(avg > 0.0 && avg < k as f64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "d >= 2")]
    fn rejects_degenerate_radix() {
        directed_average_distance(1, 3);
    }
}
