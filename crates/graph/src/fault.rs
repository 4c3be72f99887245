//! Fault-avoiding routing: the Pradhan–Reddy tolerance in practice.
//!
//! The paper's §1 cites that de Bruijn networks tolerate up to `d − 1`
//! processor failures. This module provides the routing-layer consequence:
//! given a set of faulty nodes, compute a shortest surviving route and
//! express it in the paper's `(a, b)` wire format so the simulator can
//! forward it hop by hop.

use debruijn_core::{RoutePath, Word};

use crate::adjacency::{Adjacency, DebruijnGraph, EdgeMode};
use crate::bfs;

/// A shortest route from `x` to `y` that avoids every word in `faults`,
/// or `None` if all surviving paths are cut (or an endpoint is faulty).
///
/// The route is returned in the paper's step encoding, ready to be carried
/// in a message's routing-path field. With `faults.len() < d` on the
/// undirected graph this always succeeds for non-faulty endpoints.
///
/// # Panics
///
/// Panics if `x`, `y` or any fault is not a vertex of `graph`'s space.
pub fn route_avoiding(
    graph: &DebruijnGraph,
    x: &Word,
    y: &Word,
    faults: &[Word],
) -> Option<RoutePath> {
    let src = graph.rank_of(x);
    let dst = graph.rank_of(y);
    let fault_ids: Vec<u32> = faults.iter().map(|f| graph.rank_of(f)).collect();
    let nodes = bfs::shortest_path_avoiding(graph, src, dst, &fault_ids)?;
    let words: Vec<Word> = nodes.iter().map(|&n| graph.word_of(n)).collect();
    let path =
        RoutePath::from_word_walk(&words).expect("BFS paths follow graph edges, which are shifts");
    debug_assert!(path.leads_to(x, y));
    Some(path)
}

/// A shortest surviving route on *any* adjacency view — Kautz graphs,
/// generalized de Bruijn graphs, or `DG(d,k)` itself — as a rank walk
/// (inclusive of both endpoints), or `None` when the faults cut every
/// path or claim an endpoint.
///
/// This is the label-free counterpart of [`route_avoiding`]: the other
/// members of the de Bruijn family have no `(a, b)` wire encoding, so
/// the reroute is expressed as the node sequence itself (see
/// [`Kautz::to_rank_graph`](crate::kautz::Kautz::to_rank_graph) and
/// [`Gdb::to_rank_graph`](crate::generalized::Gdb::to_rank_graph)).
///
/// # Panics
///
/// Panics if any node index is out of range.
pub fn route_avoiding_ranks(
    graph: &impl Adjacency,
    src: u32,
    dst: u32,
    faults: &[u32],
) -> Option<Vec<u32>> {
    bfs::shortest_path_avoiding(graph, src, dst, faults)
}

/// The rank-level stretch: surviving route length over fault-free
/// distance (1.0 when the faults don't matter), or `None` when no
/// surviving route exists. The rank-walk analogue of [`stretch`].
///
/// # Panics
///
/// Panics if `src == dst` or any node index is out of range.
pub fn stretch_ranks(graph: &impl Adjacency, src: u32, dst: u32, faults: &[u32]) -> Option<f64> {
    assert_ne!(src, dst, "stretch is undefined for equal endpoints");
    let detour = route_avoiding_ranks(graph, src, dst, faults)?.len() - 1;
    let direct = bfs::shortest_path(graph, src, dst)
        .expect("a surviving path implies a fault-free path")
        .len()
        - 1;
    Some(detour as f64 / direct as f64)
}

/// The stretch of fault-avoiding routing for one pair: the ratio between
/// the surviving route length and the fault-free distance (1.0 when the
/// faults don't matter). Returns `None` when no surviving route exists.
///
/// # Panics
///
/// Panics if `x == y`, or if a word is not a vertex of `graph`'s space,
/// or if `graph` is directed (stretch is an undirected-network metric
/// here, matching experiment E8).
pub fn stretch(graph: &DebruijnGraph, x: &Word, y: &Word, faults: &[Word]) -> Option<f64> {
    assert_eq!(
        graph.mode(),
        EdgeMode::Undirected,
        "stretch uses the undirected graph"
    );
    assert_ne!(x, y, "stretch is undefined for equal endpoints");
    let detour = route_avoiding(graph, x, y, faults)?.len();
    let direct = debruijn_core::distance::undirected::distance(x, y);
    Some(detour as f64 / direct as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use debruijn_core::DeBruijn;

    fn undirected(d: u8, k: usize) -> DebruijnGraph {
        DebruijnGraph::undirected(DeBruijn::new(d, k).unwrap()).unwrap()
    }

    #[test]
    fn fault_free_routing_is_optimal() {
        let g = undirected(2, 4);
        for x in g.space().vertices() {
            for y in g.space().vertices() {
                let p = route_avoiding(&g, &x, &y, &[]).expect("connected");
                assert_eq!(
                    p.len(),
                    debruijn_core::distance::undirected::distance(&x, &y)
                );
                assert!(p.leads_to(&x, &y));
            }
        }
    }

    #[test]
    fn single_fault_never_cuts_binary_networks() {
        // d = 2: one fault is always survivable.
        let g = undirected(2, 3);
        let all: Vec<Word> = g.space().vertices().collect();
        for f in &all {
            for x in &all {
                for y in &all {
                    if x == f || y == f {
                        continue;
                    }
                    let p = route_avoiding(&g, x, y, std::slice::from_ref(f));
                    let p = p.unwrap_or_else(|| panic!("{x}->{y} cut by {f}"));
                    assert!(p.leads_to(x, y));
                }
            }
        }
    }

    #[test]
    fn two_faults_never_cut_ternary_networks() {
        let g = undirected(3, 2);
        let all: Vec<Word> = g.space().vertices().collect();
        for f1 in &all {
            for f2 in &all {
                if f1 == f2 {
                    continue;
                }
                for x in &all {
                    for y in &all {
                        if [f1, f2, &x.clone()].contains(&y) || x == f1 || x == f2 {
                            continue;
                        }
                        assert!(
                            route_avoiding(&g, x, y, &[f1.clone(), f2.clone()]).is_some(),
                            "{x}->{y} cut by {f1},{f2}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn faulty_endpoint_returns_none() {
        let g = undirected(2, 3);
        let x = Word::parse(2, "000").unwrap();
        let y = Word::parse(2, "111").unwrap();
        assert!(route_avoiding(&g, &x, &y, std::slice::from_ref(&x)).is_none());
        assert!(route_avoiding(&g, &x, &y, std::slice::from_ref(&y)).is_none());
    }

    #[test]
    fn stretch_is_at_least_one() {
        let g = undirected(2, 4);
        let x = Word::parse(2, "0001").unwrap();
        let y = Word::parse(2, "1110").unwrap();
        let f = Word::parse(2, "1100").unwrap();
        if let Some(s) = stretch(&g, &x, &y, std::slice::from_ref(&f)) {
            assert!(s >= 1.0);
        }
    }

    #[test]
    fn kautz_routes_around_any_single_fault() {
        // K(2,3): 12 vertices, out-degree 2, vertex-connectivity 2 — one
        // fault never disconnects the survivors.
        let g = crate::kautz::Kautz::new(2, 3).unwrap().to_rank_graph();
        let n = g.node_count() as u32;
        for f in 0..n {
            for s in 0..n {
                for t in 0..n {
                    if s == t || s == f || t == f {
                        continue;
                    }
                    let p = route_avoiding_ranks(&g, s, t, &[f])
                        .unwrap_or_else(|| panic!("{s}->{t} cut by {f}"));
                    assert_eq!(p[0], s);
                    assert_eq!(*p.last().unwrap(), t);
                    assert!(!p.contains(&f));
                    for w in p.windows(2) {
                        assert!(g.has_edge(w[0], w[1]), "non-arc {w:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn kautz_faulty_endpoints_yield_none() {
        let g = crate::kautz::Kautz::new(2, 2).unwrap().to_rank_graph();
        assert_eq!(route_avoiding_ranks(&g, 0, 3, &[0]), None);
        assert_eq!(route_avoiding_ranks(&g, 0, 3, &[3]), None);
    }

    #[test]
    fn generalized_debruijn_detours_have_bounded_stretch() {
        // GDB(2,12) — an Imase–Itoh size with no DG(d,k) counterpart.
        let g = crate::generalized::Gdb::new(2, 12).unwrap().to_rank_graph();
        let n = g.node_count() as u32;
        for f in 0..n {
            for s in 0..n {
                for t in 0..n {
                    if s == t || s == f || t == f {
                        continue;
                    }
                    // Loop-reduction can leave vertex 0 with a single
                    // distinct out-arc, so some (s,t,f) triples are
                    // legitimately cut; every survivor must be a valid
                    // detour with stretch >= 1.
                    if let Some(stretch) = stretch_ranks(&g, s, t, &[f]) {
                        assert!(stretch >= 1.0, "{s}->{t} avoiding {f}: {stretch}");
                    }
                }
            }
        }
    }

    #[test]
    fn generalized_debruijn_fault_free_routes_match_the_label_router() {
        // The rank-level BFS reproduces the arithmetic router's distances.
        let gdb = crate::generalized::Gdb::new(3, 10).unwrap();
        let g = gdb.to_rank_graph();
        for s in 0..10u32 {
            for t in 0..10u32 {
                if s == t {
                    continue;
                }
                let walk = route_avoiding_ranks(&g, s, t, &[]).expect("connected");
                assert_eq!(walk.len() - 1, gdb.distance(u64::from(s), u64::from(t)));
            }
        }
    }

    #[test]
    fn detours_avoid_the_faults() {
        let g = undirected(2, 4);
        let x = Word::parse(2, "0000").unwrap();
        let y = Word::parse(2, "1111").unwrap();
        let f = Word::parse(2, "0111").unwrap();
        let p = route_avoiding(&g, &x, &y, std::slice::from_ref(&f)).expect("survivable");
        // Walk the route and confirm the faulty word is never visited.
        let mut cur = x.clone();
        for step in p.steps() {
            let b = match step.digit {
                debruijn_core::Digit::Exact(b) => b,
                debruijn_core::Digit::Any => 0,
            };
            cur = match step.shift {
                debruijn_core::ShiftKind::Left => cur.shift_left(b),
                debruijn_core::ShiftKind::Right => cur.shift_right(b),
            };
            assert_ne!(cur, f, "route passes through the fault");
        }
        assert_eq!(cur, y);
    }
}
