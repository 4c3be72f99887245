//! The de Bruijn parameter space `DG(d,k)` and neighborhood structure.

use crate::error::Error;
use crate::word::Word;

/// The de Bruijn graph parameters `(d, k)`: `d^k` vertices, diameter `k`.
///
/// `DeBruijn` is a lightweight descriptor; it owns no adjacency. Vertex
/// enumeration and neighbor generation operate on [`Word`]s directly,
/// which is what makes routing `O(k)` rather than `O(d^k)`. Materialized
/// adjacency (for BFS baselines and structural censuses) lives in the
/// `debruijn-graph` crate.
///
/// # Examples
///
/// ```
/// use debruijn_core::DeBruijn;
///
/// let g = DeBruijn::new(2, 3)?;
/// assert_eq!(g.order(), Some(8));
/// assert_eq!(g.diameter(), 3);
/// assert_eq!(g.vertices().count(), 8);
/// # Ok::<(), debruijn_core::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeBruijn {
    d: u8,
    k: usize,
}

impl DeBruijn {
    /// Creates the parameter space for `DG(d,k)`.
    ///
    /// # Errors
    ///
    /// Returns an error if `d < 2` or `k < 1`.
    pub fn new(d: u8, k: usize) -> Result<Self, Error> {
        if d < 2 {
            return Err(Error::RadixTooSmall { d });
        }
        if k < 1 {
            return Err(Error::LengthTooSmall);
        }
        Ok(Self { d, k })
    }

    /// The digit radix `d` (the graph degree is `2d`, counting
    /// multiplicities).
    pub fn d(&self) -> u8 {
        self.d
    }

    /// The word length `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of vertices `d^k`, or `None` if it overflows `u128`.
    pub fn order(&self) -> Option<u128> {
        u128::from(self.d).checked_pow(u32::try_from(self.k).ok()?)
    }

    /// Number of vertices `d^k` as `usize`, or `None` if it does not fit.
    ///
    /// Use this before materializing anything per-vertex.
    pub fn order_usize(&self) -> Option<usize> {
        usize::try_from(self.order()?).ok()
    }

    /// The diameter of `DG(d,k)`, which is `k` (paper §2: the trivial
    /// left-shift path has length `k`, and `0…0 → 1…1` requires `k`).
    pub fn diameter(&self) -> usize {
        self.k
    }

    /// Whether `w` is a vertex of this graph.
    pub fn contains(&self, w: &Word) -> bool {
        w.radix() == self.d && w.len() == self.k
    }

    /// The vertex with the given rank (radix-`d` value of its digits).
    ///
    /// # Errors
    ///
    /// Returns an error if `rank >= d^k`.
    pub fn word_from_rank(&self, rank: u128) -> Result<Word, Error> {
        Word::from_rank(self.d, self.k, rank)
    }

    /// Iterates over all `d^k` vertices in rank order.
    ///
    /// # Panics
    ///
    /// Panics if `d^k` overflows `u128` (enumerate only graphs that fit).
    pub fn vertices(&self) -> Vertices {
        let order = self
            .order()
            .expect("vertex enumeration requires d^k to fit in u128");
        Vertices {
            space: *self,
            next: 0,
            order,
        }
    }

    /// The `d` type-L (left-shift) neighbors `X⁻(a)`, `a = 0, …, d−1`,
    /// including duplicates and self-loops.
    pub fn left_neighbors<'a>(&self, w: &'a Word) -> impl Iterator<Item = Word> + 'a {
        debug_assert!(self.contains(w));
        let d = self.d;
        (0..d).map(move |a| w.shift_left(a))
    }

    /// The `d` type-R (right-shift) neighbors `X⁺(a)`, `a = 0, …, d−1`,
    /// including duplicates and self-loops.
    pub fn right_neighbors<'a>(&self, w: &'a Word) -> impl Iterator<Item = Word> + 'a {
        debug_assert!(self.contains(w));
        let d = self.d;
        (0..d).map(move |a| w.shift_right(a))
    }

    /// Out-neighbors in the **directed** graph (the type-L neighbors),
    /// deduplicated and with self-loops removed.
    ///
    /// The directed `DG(d,k)` has arcs `X → X⁻(a)` only; the arcs
    /// `X⁺(a) → X` are their reverses.
    pub fn directed_out_neighbors(&self, w: &Word) -> Vec<Word> {
        let mut out: Vec<Word> = self.left_neighbors(w).filter(|n| n != w).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// In-neighbors in the **directed** graph (the type-R neighbors),
    /// deduplicated and with self-loops removed.
    pub fn directed_in_neighbors(&self, w: &Word) -> Vec<Word> {
        let mut out: Vec<Word> = self.right_neighbors(w).filter(|n| n != w).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Neighbors in the **undirected** graph: the union of type-L and
    /// type-R neighbors, deduplicated, self-loops removed.
    ///
    /// The paper's §1 census: after removing redundant edges, vertices
    /// have degree `2d`, `2d−1` or `2d−2` depending on how many shifts
    /// coincide.
    pub fn undirected_neighbors(&self, w: &Word) -> Vec<Word> {
        let mut out: Vec<Word> = self
            .left_neighbors(w)
            .chain(self.right_neighbors(w))
            .filter(|n| n != w)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Index arithmetic on an enumerable de Bruijn space: node IDs are word
/// ranks (`0 ≤ id < d^k`), and the two shift operations become `O(1)`
/// integer operations instead of digit-vector rebuilds.
///
/// With `x1` the most significant digit of the rank,
/// `X⁻(a) = (x_2, …, x_k, a)` has rank `(rank·d + a) mod d^k` and
/// `X⁺(a) = (a, x_1, …, x_{k−1})` has rank `a·d^{k−1} + ⌊rank/d⌋`. This is
/// what lets simulator hot loops route without allocating a [`Word`] per
/// message. When `d` is a power of two the digit arithmetic is shifts
/// and masks; other radixes divide.
///
/// Ports number the shifts as the next-hop tables do: port `a < d` is
/// `X⁻(a)` and port `d + a` is `X⁺(a)`.
///
/// # Examples
///
/// ```
/// use debruijn_core::space::RankSpace;
/// use debruijn_core::{DeBruijn, Word};
///
/// let space = DeBruijn::new(2, 4)?;
/// let ranks = RankSpace::new(space).expect("2^4 fits in u64");
/// let x = Word::parse(2, "0110")?;
/// let id = x.rank() as u64;
/// assert_eq!(ranks.shift_left(id, 1), x.shift_left(1).rank() as u64);
/// assert_eq!(ranks.shift_right(id, 1), x.shift_right(1).rank() as u64);
/// # Ok::<(), debruijn_core::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankSpace {
    space: DeBruijn,
    /// `d` widened for the mixed arithmetic below.
    d: u64,
    /// `d^k`, the number of vertices.
    order: u64,
    /// `d^{k−1}`, the weight of the most significant digit.
    msd: u64,
    /// `log2 d` when `d` is a power of two, else 0 (division form).
    bits: u32,
}

impl RankSpace {
    /// Wraps `space`, or `None` if `d^k` does not fit in `u64`.
    pub fn new(space: DeBruijn) -> Option<Self> {
        let d = u64::from(space.d());
        let order = d.checked_pow(u32::try_from(space.k()).ok()?)?;
        Some(Self {
            space,
            d,
            order,
            msd: order / d,
            bits: if d.is_power_of_two() { d.ilog2() } else { 0 },
        })
    }

    /// The wrapped parameter space.
    pub fn space(&self) -> DeBruijn {
        self.space
    }

    /// Number of vertices `d^k`.
    pub fn order(&self) -> u64 {
        self.order
    }

    /// Rank of the type-L neighbor `X⁻(a)`.
    ///
    /// # Panics
    ///
    /// Debug-asserts `id < d^k` and `a < d`.
    #[inline]
    pub fn shift_left(&self, id: u64, a: u8) -> u64 {
        debug_assert!(id < self.order && u64::from(a) < self.d);
        if self.bits != 0 {
            ((id & (self.msd - 1)) << self.bits) | u64::from(a)
        } else {
            (id % self.msd) * self.d + u64::from(a)
        }
    }

    /// Rank of the type-R neighbor `X⁺(a)`.
    ///
    /// # Panics
    ///
    /// Debug-asserts `id < d^k` and `a < d`.
    #[inline]
    pub fn shift_right(&self, id: u64, a: u8) -> u64 {
        debug_assert!(id < self.order && u64::from(a) < self.d);
        let rest = if self.bits != 0 {
            id >> self.bits
        } else {
            id / self.d
        };
        u64::from(a) * self.msd + rest
    }

    /// The smallest port that reaches the same neighbor as `port` does
    /// from `id`. Shifts of one type never coincide (they differ in the
    /// digit they bring in), and every left port is below every right
    /// one, so only a right port `d + b` can have a smaller alias: the
    /// left shift whose new last digit is the last digit of `X⁺(b)`.
    ///
    /// # Panics
    ///
    /// Debug-asserts `id < d^k` and `port < 2d`.
    #[inline]
    pub fn canonical_port(&self, id: u64, port: u8) -> u8 {
        debug_assert!(u64::from(port) < 2 * self.d);
        let d = self.space.d();
        if port < d {
            return port;
        }
        let next = self.shift_right(id, port - d);
        let last = if self.bits != 0 {
            next & (self.d - 1)
        } else {
            next % self.d
        };
        // `last < d`, so the narrowing is lossless.
        let a = last as u8;
        if self.shift_left(id, a) == next {
            a
        } else {
            port
        }
    }
}

/// Iterator over all vertices of a [`DeBruijn`] space in rank order.
///
/// Created by [`DeBruijn::vertices`].
#[derive(Debug, Clone)]
pub struct Vertices {
    space: DeBruijn,
    next: u128,
    order: u128,
}

impl Iterator for Vertices {
    type Item = Word;

    fn next(&mut self) -> Option<Word> {
        if self.next >= self.order {
            return None;
        }
        let w = self
            .space
            .word_from_rank(self.next)
            .expect("rank below order is valid");
        self.next += 1;
        Some(w)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.order - self.next;
        match usize::try_from(rem) {
            Ok(n) => (n, Some(n)),
            Err(_) => (usize::MAX, None),
        }
    }
}

impl ExactSizeIterator for Vertices {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_and_diameter() {
        let g = DeBruijn::new(3, 4).unwrap();
        assert_eq!(g.order(), Some(81));
        assert_eq!(g.order_usize(), Some(81));
        assert_eq!(g.diameter(), 4);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert_eq!(DeBruijn::new(1, 3), Err(Error::RadixTooSmall { d: 1 }));
        assert_eq!(DeBruijn::new(2, 0), Err(Error::LengthTooSmall));
    }

    #[test]
    fn vertex_iteration_is_exhaustive_and_ordered() {
        let g = DeBruijn::new(2, 3).unwrap();
        let all: Vec<String> = g.vertices().map(|w| w.to_string()).collect();
        assert_eq!(
            all,
            ["000", "001", "010", "011", "100", "101", "110", "111"]
        );
        assert_eq!(g.vertices().len(), 8);
    }

    #[test]
    fn directed_neighbors_follow_shift_structure() {
        let g = DeBruijn::new(2, 3).unwrap();
        let x = Word::parse(2, "011").unwrap();
        let out: Vec<String> = g
            .directed_out_neighbors(&x)
            .iter()
            .map(|w| w.to_string())
            .collect();
        assert_eq!(out, ["110", "111"]);
        let inn: Vec<String> = g
            .directed_in_neighbors(&x)
            .iter()
            .map(|w| w.to_string())
            .collect();
        assert_eq!(inn, ["001", "101"]);
    }

    #[test]
    fn self_loops_are_removed() {
        let g = DeBruijn::new(2, 3).unwrap();
        let zero = Word::parse(2, "000").unwrap();
        // 000⁻(0) = 000 is a self-loop and must be filtered.
        assert!(!g.directed_out_neighbors(&zero).contains(&zero));
        assert!(!g.undirected_neighbors(&zero).contains(&zero));
    }

    #[test]
    fn undirected_neighbors_match_figure_1b() {
        // In the undirected DG(2,3) of Figure 1(b), 010 and 101 are
        // mutually adjacent both ways; check 010's neighborhood.
        let g = DeBruijn::new(2, 3).unwrap();
        let x = Word::parse(2, "010").unwrap();
        let n: Vec<String> = g
            .undirected_neighbors(&x)
            .iter()
            .map(|w| w.to_string())
            .collect();
        assert_eq!(n, ["001", "100", "101"]);
    }

    #[test]
    fn degrees_match_paper_census_directed() {
        // Directed DG(d,k): N − d vertices of degree 2d, d of degree 2d−2
        // (the uniform words aaa…a lose their two self-loop incidences).
        for (d, k) in [(2u8, 3usize), (3, 3), (2, 4)] {
            let g = DeBruijn::new(d, k).unwrap();
            let mut full = 0usize;
            let mut reduced = 0usize;
            for w in g.vertices() {
                let deg = g.directed_out_neighbors(&w).len() + g.directed_in_neighbors(&w).len();
                if deg == 2 * d as usize {
                    full += 1;
                } else if deg == 2 * d as usize - 2 {
                    reduced += 1;
                } else {
                    panic!("unexpected directed degree {deg} for {w}");
                }
            }
            let n = g.order_usize().unwrap();
            assert_eq!(full, n - d as usize, "d={d} k={k}");
            assert_eq!(reduced, d as usize, "d={d} k={k}");
        }
    }

    #[test]
    fn neighbor_relation_is_symmetric_undirected() {
        let g = DeBruijn::new(3, 2).unwrap();
        for w in g.vertices() {
            for n in g.undirected_neighbors(&w) {
                assert!(
                    g.undirected_neighbors(&n).contains(&w),
                    "asymmetric neighbor pair {w} / {n}"
                );
            }
        }
    }

    #[test]
    fn contains_checks_space_membership() {
        let g = DeBruijn::new(2, 3).unwrap();
        assert!(g.contains(&Word::parse(2, "010").unwrap()));
        assert!(!g.contains(&Word::parse(2, "01").unwrap()));
        assert!(!g.contains(&Word::parse(3, "010").unwrap()));
    }

    /// The shift-and-mask shifts equal the division forms, and the O(1)
    /// canonical port equals the first port (in port order) that reaches
    /// the same neighbor: every rank at small `k` (including `k = 1`),
    /// sampled ranks at the largest `k` whose `d^k` fits a `u64`.
    #[test]
    fn rank_shifts_and_canonical_ports_match_the_division_forms() {
        let mut rng = crate::rng::SplitMix64::new(0x5EED);
        for d in [2u8, 3, 4, 5, 8, 16] {
            let wide = u64::from(d);
            let max_k = (1..)
                .take_while(|&k| wide.checked_pow(k).is_some())
                .last()
                .expect("d^1 fits");
            let mut cases: Vec<(u32, Vec<u64>)> = (1..)
                .take_while(|&k| wide.pow(k) <= 4096)
                .map(|k| (k, (0..wide.pow(k)).collect()))
                .collect();
            let order = wide.pow(max_k);
            let mut sampled: Vec<u64> = (0..2000).map(|_| rng.below_u64(order)).collect();
            sampled.extend([0, 1, order / 2, order - 2, order - 1]);
            cases.push((max_k, sampled));
            for (k, ids) in cases {
                let ranks = RankSpace::new(DeBruijn::new(d, k as usize).unwrap()).unwrap();
                let msd = wide.pow(k - 1);
                let left = |id: u64, a: u8| (id % msd) * wide + u64::from(a);
                let right = |id: u64, a: u8| u64::from(a) * msd + id / wide;
                let target = |id: u64, p: u8| if p < d { left(id, p) } else { right(id, p - d) };
                for id in ids {
                    for a in 0..d {
                        assert_eq!(ranks.shift_left(id, a), left(id, a), "d={d} k={k} {id}");
                        assert_eq!(ranks.shift_right(id, a), right(id, a), "d={d} k={k} {id}");
                    }
                    for port in 0..2 * d {
                        let first = (0..2 * d)
                            .find(|&p| target(id, p) == target(id, port))
                            .expect("the port itself matches");
                        assert_eq!(
                            ranks.canonical_port(id, port),
                            first,
                            "d={d} k={k} id={id} port={port}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn huge_spaces_report_order_overflow() {
        let g = DeBruijn::new(255, 1000).unwrap();
        assert_eq!(g.order(), None);
        assert_eq!(g.order_usize(), None);
    }
}
