//! Precomputed `O(1)` next-hop forwarding for enumerable spaces.
//!
//! The paper's algorithms answer "what is a shortest route from `X` to
//! `Y`?" in `O(k)`–`O(k²)` word time. A forwarding node in a running
//! network asks a smaller question — "which of my `≤ 2d` output ports
//! moves this message closer to `Y`?" — and for spaces small enough to
//! enumerate, that answer can be precomputed once: a [`NextHopTable`]
//! stores one compact `u8` port per `(node, destination)` pair, so the
//! simulator hot loop forwards with a single indexed load and `O(1)`
//! rank arithmetic ([`RankSpace`]) instead of re-running a routing
//! algorithm per hop.
//!
//! Correctness hinges on the greedy-step property behind the paper's
//! Algorithms 1/2/4: every first step of a shortest path reduces the
//! distance by exactly one, so repeatedly following any
//! distance-reducing port yields a path of exactly `D(X,Y)` hops
//! (Theorem 2 for the undirected network, Property 1 for the directed
//! one). The table pins the *smallest* such port, which makes it a pure
//! function of `(d, k, direction)` — independent of build order, thread
//! count, or which distance engine verified it.

use crate::batch::{distance_column_into, ColumnScratch};
use crate::space::{DeBruijn, RankSpace};
use crate::ShiftKind;

/// Port meaning "source equals destination: deliver locally".
pub const PORT_SELF: u8 = u8::MAX;

/// Default memory cap for [`NextHopTable::build`]: 64 MiB of ports
/// (`d^k ≤ 8192` nodes), past which callers fall back to the word-level
/// engines.
pub const DEFAULT_TABLE_MEMORY_CAP: usize = 1 << 26;

/// A dense `(node, destination) → output port` map for `DG(d,k)`.
///
/// Ports encode one shift operation in a `u8`: port `a < d` is the left
/// shift `X⁻(a)`; port `d + a` is the right shift `X⁺(a)` (undirected
/// tables only); [`PORT_SELF`] marks `node == destination`. Entries are
/// laid out destination-major (`ports[dst · n + src]`), so one
/// destination's column — what a convergecast or a per-destination
/// sweep touches — is contiguous.
///
/// # Examples
///
/// ```
/// use debruijn_core::routing::table::NextHopTable;
/// use debruijn_core::{distance, DeBruijn, Word};
///
/// let space = DeBruijn::new(2, 4)?;
/// let table = NextHopTable::build(space, false, 1, usize::MAX).expect("16 nodes fit");
/// let x = Word::parse(2, "0110")?;
/// let y = Word::parse(2, "1011")?;
/// // Walking the table takes exactly D(X,Y) hops (Theorem 2).
/// let (mut at, dst) = (x.rank() as u64, y.rank() as u64);
/// let mut hops = 0;
/// while at != dst {
///     at = table.apply(at, table.next_hop(at, dst));
///     hops += 1;
/// }
/// assert_eq!(hops, distance::undirected::distance(&x, &y));
/// # Ok::<(), debruijn_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct NextHopTable {
    ranks: RankSpace,
    n: usize,
    d: u8,
    directed: bool,
    /// `ports[dst * n + src]`.
    ports: Vec<u8>,
}

impl NextHopTable {
    /// Builds the table for `space`, in parallel over destination
    /// columns (`threads` as in [`debruijn_parallel::map_range_with`]:
    /// `1` = inline, `0` = all cores). `directed` selects Property 1
    /// distances (left shifts only) over Theorem 2 (both shift types).
    ///
    /// Returns `None` — the caller's cue to fall back to the word-level
    /// engines — when the `d^k · d^k` port array would exceed
    /// `max_bytes` (see [`DEFAULT_TABLE_MEMORY_CAP`]), when the space
    /// is too large to enumerate, or when the `2d` ports do not fit the
    /// `u8` encoding.
    pub fn build(
        space: DeBruijn,
        directed: bool,
        threads: usize,
        max_bytes: usize,
    ) -> Option<Self> {
        let ranks = RankSpace::new(space)?;
        let n = usize::try_from(ranks.order()).ok()?;
        if usize::from(space.d()) * 2 >= usize::from(PORT_SELF) {
            return None;
        }
        let bytes = n.checked_mul(n)?;
        if bytes > max_bytes {
            return None;
        }

        // One reverse BFS per destination yields the distance of every
        // node to that destination; the column's ports follow locally.
        let columns =
            debruijn_parallel::map_range_with(threads, n, ColumnScratch::new, |scratch, dst| {
                distance_column_into(ranks, directed, dst as u64, scratch);
                column_ports(ranks, directed, dst as u64, scratch.distances())
            });

        let mut ports = Vec::with_capacity(bytes);
        for column in columns {
            ports.extend_from_slice(&column);
        }
        Some(Self {
            ranks,
            n,
            d: space.d(),
            directed,
            ports,
        })
    }

    /// The wrapped rank arithmetic.
    pub fn ranks(&self) -> RankSpace {
        self.ranks
    }

    /// Number of vertices `d^k`.
    pub fn order(&self) -> u64 {
        self.ranks.order()
    }

    /// Whether ports follow Property 1 (left shifts only).
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Bytes held by the port array.
    pub fn memory_bytes(&self) -> usize {
        self.ports.len()
    }

    /// The smallest distance-reducing output port at `src` toward
    /// `dst`, or [`PORT_SELF`] when `src == dst`.
    ///
    /// # Panics
    ///
    /// Debug-asserts both ranks are below `d^k`.
    #[inline]
    pub fn next_hop(&self, src: u64, dst: u64) -> u8 {
        debug_assert!(src < self.ranks.order() && dst < self.ranks.order());
        self.ports[dst as usize * self.n + src as usize]
    }

    /// The neighbor rank one `port` hop from `node`.
    ///
    /// # Panics
    ///
    /// Panics if `port` does not encode a shift of this table (e.g.
    /// [`PORT_SELF`], or a right shift on a directed table).
    #[inline]
    pub fn apply(&self, node: u64, port: u8) -> u64 {
        if port < self.d {
            self.ranks.shift_left(node, port)
        } else {
            assert!(!self.directed && port < 2 * self.d, "port {port} invalid");
            self.ranks.shift_right(node, port - self.d)
        }
    }

    /// Decodes a port into the shift it performs.
    ///
    /// # Panics
    ///
    /// Panics on [`PORT_SELF`] or an out-of-range port.
    pub fn decode_port(&self, port: u8) -> (ShiftKind, u8) {
        if port < self.d {
            (ShiftKind::Left, port)
        } else {
            assert!(!self.directed && port < 2 * self.d, "port {port} invalid");
            (ShiftKind::Right, port - self.d)
        }
    }

    /// The distance realized by walking the table from `src` to `dst` —
    /// exactly `D(src, dst)` of the configured network model.
    ///
    /// `O(k)` indexed loads; used where the distance is needed alongside
    /// the ports (e.g. observability) without invoking an engine.
    pub fn walk_distance(&self, src: u64, dst: u64) -> usize {
        let mut at = src;
        let mut hops = 0;
        while at != dst {
            at = self.apply(at, self.next_hop(at, dst));
            hops += 1;
            debug_assert!(hops <= 2 * self.ranks.space().k(), "walk must terminate");
        }
        hops
    }
}

/// The smallest improving port per source toward `dst`, read from
/// `dist`, the distances of every vertex to `dst`.
fn column_ports(ranks: RankSpace, directed: bool, dst: u64, dist: &[u32]) -> Vec<u8> {
    let d = ranks.space().d();
    let ports_per_node = if directed { d } else { 2 * d };
    (0..ranks.order())
        .map(|src| {
            if src == dst {
                return PORT_SELF;
            }
            let here = dist[src as usize];
            debug_assert_ne!(here, u32::MAX, "DG(d,k) is strongly connected");
            (0..ports_per_node)
                .find(|&p| {
                    let next = if p < d {
                        ranks.shift_left(src, p)
                    } else {
                        ranks.shift_right(src, p - d)
                    };
                    dist[next as usize] == here - 1
                })
                .expect("some port must reduce a positive distance")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance;
    use crate::word::Word;

    fn word(space: DeBruijn, rank: u64) -> Word {
        space.word_from_rank(u128::from(rank)).unwrap()
    }

    /// The satellite differential test: for d ∈ {2,3} and k ≤ 6, every
    /// (src, dst) port begins a path whose length equals the Theorem 2
    /// (undirected) or Property 1 (directed) distance computed by the
    /// existing word-level engines.
    #[test]
    fn table_walks_match_engine_distances() {
        for d in [2u8, 3] {
            // Bounded so the d = 3 sweep (n² pairs, one engine solve
            // each) stays fast in debug builds.
            let max_k = if d == 2 { 6 } else { 4 };
            for k in 1..=max_k {
                let space = DeBruijn::new(d, k).unwrap();
                for directed in [false, true] {
                    let table = NextHopTable::build(space, directed, 1, usize::MAX).unwrap();
                    let n = table.order();
                    for src in 0..n {
                        let x = word(space, src);
                        for dst in 0..n {
                            let y = word(space, dst);
                            let want = if directed {
                                distance::directed::distance(&x, &y)
                            } else {
                                distance::undirected::distance(&x, &y)
                            };
                            assert_eq!(
                                table.walk_distance(src, dst),
                                want,
                                "d={d} k={k} directed={directed} {x} -> {y}"
                            );
                            if src == dst {
                                assert_eq!(table.next_hop(src, dst), PORT_SELF);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn d3_k6_spot_checks_against_engines() {
        // The full d = 3, k ≤ 6 sweep is quadratic in n = 729; sample
        // pairs pseudo-randomly instead of enumerating all 531k.
        let space = DeBruijn::new(3, 6).unwrap();
        let undirected = NextHopTable::build(space, false, 0, usize::MAX).unwrap();
        let directed = NextHopTable::build(space, true, 0, usize::MAX).unwrap();
        let n = undirected.order();
        let mut rng = crate::rng::SplitMix64::new(0xD3_06);
        for _ in 0..2000 {
            let src = rng.below_usize(n as usize) as u64;
            let dst = rng.below_usize(n as usize) as u64;
            let x = word(space, src);
            let y = word(space, dst);
            assert_eq!(
                undirected.walk_distance(src, dst),
                distance::undirected::distance(&x, &y),
                "undirected {x} -> {y}"
            );
            assert_eq!(
                directed.walk_distance(src, dst),
                distance::directed::distance(&x, &y),
                "directed {x} -> {y}"
            );
        }
    }

    #[test]
    fn build_is_thread_count_invariant() {
        let space = DeBruijn::new(2, 5).unwrap();
        for directed in [false, true] {
            let one = NextHopTable::build(space, directed, 1, usize::MAX).unwrap();
            for threads in [2, 4, 0] {
                let t = NextHopTable::build(space, directed, threads, usize::MAX).unwrap();
                assert_eq!(one.ports, t.ports, "threads={threads}");
            }
        }
    }

    #[test]
    fn memory_cap_refuses_oversized_tables() {
        let space = DeBruijn::new(2, 6).unwrap();
        assert!(NextHopTable::build(space, false, 1, 64 * 64 - 1).is_none());
        let table = NextHopTable::build(space, false, 1, 64 * 64).unwrap();
        assert_eq!(table.memory_bytes(), 64 * 64);
    }

    #[test]
    fn ports_prefer_the_smallest_improving_move() {
        // 000 → 001 in DG(2,3): the left shift X⁻(1) reaches it in one
        // hop, and port 1 is the smallest improving port.
        let space = DeBruijn::new(2, 3).unwrap();
        let table = NextHopTable::build(space, false, 1, usize::MAX).unwrap();
        let src = 0b000;
        let dst = 0b001;
        assert_eq!(table.next_hop(src, dst), 1);
        assert_eq!(table.decode_port(1), (ShiftKind::Left, 1));
    }
}
