//! Breadth-first search: the classical shortest-path baseline.
//!
//! A router without the paper's label algorithms would compute shortest
//! paths by BFS over the materialized graph — `O(N·d)` per source versus
//! the paper's `O(k) = O(log_d N)` per pair. The benchmarks quantify that
//! gap; the tests use BFS as ground truth for every distance claim.

use std::collections::VecDeque;

use crate::adjacency::Adjacency;

/// Marker for unreachable nodes in [`distances`] output.
pub const UNREACHABLE: u32 = u32::MAX;

/// Single-source shortest-path distances by BFS.
///
/// Returns one entry per node; unreachable nodes hold [`UNREACHABLE`].
///
/// # Panics
///
/// Panics if `src` is out of range.
pub fn distances(graph: &impl Adjacency, src: u32) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; graph.node_count()];
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v as usize];
        for &n in graph.neighbors(v) {
            if dist[n as usize] == UNREACHABLE {
                dist[n as usize] = dv + 1;
                queue.push_back(n);
            }
        }
    }
    dist
}

/// A shortest path from `src` to `dst` as a node sequence (inclusive), or
/// `None` if unreachable.
///
/// # Panics
///
/// Panics if either node is out of range.
pub fn shortest_path(graph: &impl Adjacency, src: u32, dst: u32) -> Option<Vec<u32>> {
    shortest_path_avoiding(graph, src, dst, &[])
}

/// A shortest path that never visits a node in `faults` (the endpoints
/// must not be faulty either), or `None` if no such path exists.
///
/// This is the fault-tolerant reroute primitive: Pradhan and Reddy show
/// `DN(d,k)` tolerates up to `d − 1` node failures, i.e. this function
/// succeeds whenever `faults.len() < d` (verified in the `fault` module's
/// tests and the E8 experiment).
///
/// # Panics
///
/// Panics if any node index is out of range.
pub fn shortest_path_avoiding(
    graph: &impl Adjacency,
    src: u32,
    dst: u32,
    faults: &[u32],
) -> Option<Vec<u32>> {
    let n = graph.node_count();
    assert!(
        (src as usize) < n && (dst as usize) < n,
        "endpoint out of range"
    );
    let mut blocked = vec![false; n];
    for &f in faults {
        assert!((f as usize) < n, "fault {f} out of range");
        blocked[f as usize] = true;
    }
    if blocked[src as usize] || blocked[dst as usize] {
        return None;
    }
    let mut parent = vec![UNREACHABLE; n];
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    seen[src as usize] = true;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        if v == dst {
            let mut path = vec![dst];
            let mut cur = dst;
            while cur != src {
                cur = parent[cur as usize];
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        for &nb in graph.neighbors(v) {
            if !seen[nb as usize] && !blocked[nb as usize] {
                seen[nb as usize] = true;
                parent[nb as usize] = v;
                queue.push_back(nb);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::DebruijnGraph;
    use debruijn_core::{distance, DeBruijn};

    fn undirected(d: u8, k: usize) -> DebruijnGraph {
        DebruijnGraph::undirected(DeBruijn::new(d, k).unwrap()).unwrap()
    }

    fn directed(d: u8, k: usize) -> DebruijnGraph {
        DebruijnGraph::directed(DeBruijn::new(d, k).unwrap()).unwrap()
    }

    #[test]
    fn distances_match_property_1_directed() {
        let g = directed(2, 4);
        for src in g.nodes() {
            let dist = distances(&g, src);
            let x = g.word_of(src);
            for dst in g.nodes() {
                let y = g.word_of(dst);
                assert_eq!(
                    dist[dst as usize] as usize,
                    distance::directed::distance(&x, &y),
                    "{x} -> {y}"
                );
            }
        }
    }

    #[test]
    fn distances_match_theorem_2_undirected() {
        for (d, k) in [(2u8, 4usize), (3, 3)] {
            let g = undirected(d, k);
            for src in g.nodes() {
                let dist = distances(&g, src);
                let x = g.word_of(src);
                for dst in g.nodes() {
                    let y = g.word_of(dst);
                    assert_eq!(
                        dist[dst as usize] as usize,
                        distance::undirected::distance(&x, &y),
                        "{x} -- {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn shortest_paths_have_correct_length_and_adjacency() {
        let g = undirected(2, 3);
        for src in g.nodes() {
            let dist = distances(&g, src);
            for dst in g.nodes() {
                let path = shortest_path(&g, src, dst).expect("connected");
                assert_eq!(path.len() - 1, dist[dst as usize] as usize);
                assert_eq!(path[0], src);
                assert_eq!(*path.last().unwrap(), dst);
                for w in path.windows(2) {
                    assert!(g.has_edge(w[0], w[1]), "non-edge on path");
                }
            }
        }
    }

    #[test]
    fn avoiding_faults_still_finds_paths_below_d_failures() {
        // d = 3: any 2 faults leave the network connected.
        let g = undirected(3, 2);
        let nodes: Vec<u32> = g.nodes().collect();
        for &f1 in &nodes {
            for &f2 in &nodes {
                if f1 == f2 {
                    continue;
                }
                for &s in &nodes {
                    for &t in &nodes {
                        if [f1, f2].contains(&s) || [f1, f2].contains(&t) {
                            continue;
                        }
                        let p = shortest_path_avoiding(&g, s, t, &[f1, f2]);
                        let p = p.unwrap_or_else(|| panic!("no path {s}->{t} avoiding {f1},{f2}"));
                        assert!(!p.contains(&f1) && !p.contains(&f2));
                    }
                }
            }
        }
    }

    #[test]
    fn faulty_endpoints_yield_none() {
        let g = undirected(2, 3);
        assert_eq!(shortest_path_avoiding(&g, 0, 5, &[0]), None);
        assert_eq!(shortest_path_avoiding(&g, 0, 5, &[5]), None);
    }

    #[test]
    fn fully_isolated_source_is_unreachable() {
        let g = undirected(2, 3);
        // Fail every neighbor of node 2 (other than 2 itself): the
        // source survives but has no surviving way out.
        let faults: Vec<u32> = g
            .neighbors(2)
            .iter()
            .copied()
            .filter(|&nb| nb != 2)
            .collect();
        assert!(!faults.contains(&6));
        assert_eq!(shortest_path_avoiding(&g, 2, 6, &faults), None);
    }

    #[test]
    fn avoided_detour_is_no_shorter_than_direct() {
        let g = undirected(2, 4);
        let direct = shortest_path(&g, 1, 9).unwrap();
        // Block an interior node of the direct path.
        let mid = direct[1];
        if let Some(detour) = shortest_path_avoiding(&g, 1, 9, &[mid]) {
            assert!(detour.len() >= direct.len());
            assert!(!detour.contains(&mid));
        }
    }
}
