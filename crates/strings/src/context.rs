//! Destination-side preprocessing shared across many sources.
//!
//! Every quantity the routing algorithms need — the overlap `l` of Eq. (2),
//! the matching-function minima of Theorem 2 — is a function of the *pair*
//! `(X, Y)`, but all of the expensive tables depend only on the destination
//! `Y`: the failure function (whose chain enumerates `Y`'s borders), the
//! packed digit lanes of the bit-parallel sweep, and the suffix automatons
//! of `Y` and `Ȳ`. [`DestinationContext`] computes each of those once per
//! destination (lazily, so a directed-only caller never builds the
//! automatons) and then answers any number of sources against them:
//!
//! * [`DestinationContext::overlap`] — the directed overlap `l(X, Y)`, an
//!   `O(|X|)` automaton scan over the prebuilt failure table; equals
//!   [`crate::failure::overlap_with_scratch`]`(x, y, …)`.
//! * [`DestinationContext::both_family_minima`] — the bit-parallel
//!   Theorem 2 minima with `Y`'s lanes packed once; byte-identical to
//!   [`crate::bitmatch::both_family_minima`] (same sweep, same
//!   minimizers), so routes built from it are byte-identical too.
//! * [`DestinationContext::family_min_values`] — the two Theorem 2
//!   *values* (not minimizers) in `O(|X|)` per source via a
//!   matching-statistics scan over suffix automatons of `Y` and `Ȳ`.
//!   This is the fast path for batched *distance* queries: all engines
//!   agree on the values, so the distance is identical even though no
//!   minimizer is produced.
//!
//! # The matching-statistics value scan
//!
//! The `l` family minimizes `i − j − l_{i,j}` over 1-indexed `(i, j)`,
//! where `l_{i,j}` is the longest substring of `X` starting at `i` that
//! equals a substring of `Y` ending at `j`. Re-parameterizing a match of
//! length `θ > 0` by its 0-based end positions `e_x` in `X` and `e_y` in
//! `Y` gives `i − j − θ = (e_x + 1) − (e_y + 2θ)`; sub-maximal `θ` at a
//! fixed `(i, j)` only increase the objective, so the table minimum equals
//! the minimum over **all** matches plus the `θ = 0` baseline `1 − |Y|`.
//! Scanning `X` through the suffix automaton of `Y` yields, at every
//! `e_x`, the longest match `m` ending there; maximizing the *gain*
//! `G = e_y + 2θ` over all suffix lengths `θ ≤ m` splits by automaton
//! state: the state `u` holding the length-`m` match contributes
//! `maxend(u) + 2m`, and every suffix-link ancestor `v` contributes
//! `maxend(v) + 2·len(v)`, which the precomputed ancestor maximum
//! `up(u)` folds into one lookup. The build also completes every
//! missing transition — following suffix links once per (state, digit)
//! instead of once per scanned digit — so the scan makes one table lookup
//! per digit, and the new match length is `min(m + 1, cap)` for the cap
//! stored beside the target. Total: `O(|Y|·d)` build, `O(|X|)` per
//! source. The `r` family is the `l` family of the reversed strings
//! (Eq. (9)'s identity): the same loop reads `X` backwards through the
//! automaton of `Ȳ`.

use crate::bitmatch;
use crate::failure::failure_function_into;
use crate::matching::MatchTerm;

/// Transition slot marker for "no edge" while the automaton is built.
const NONE: u32 = u32::MAX;

/// Cap on `states × alphabet` transition cells per automaton
/// (`2·(k+1)·d`); beyond it [`DestinationContext::supports_family_scan`]
/// is false and callers fall back to a scalar engine. 2M cells of 8 bytes
/// (target and cap) ≈ 16 MiB per automaton, 32 MiB for a context's two.
const SAM_MAX_CELLS: usize = 1 << 21;

/// One cell of the completed transition table: the state the scan moves
/// to on this digit, and a cap on the new match length. A real edge
/// extends the match by one (`cap = u32::MAX`); a completed one stands
/// for following suffix links to the nearest ancestor `v` with the edge,
/// which shortens the match to `len(v) + 1`, or to 0 at the root.
#[derive(Debug, Clone, Copy)]
struct Edge {
    to: u32,
    cap: u32,
}

/// Per-state terms of the scan's gain `max(e_y + 2θ)`.
#[derive(Debug, Clone, Copy)]
struct Gain {
    /// Max 0-based end position in the text over `endpos(u)`.
    maxend: i64,
    /// `max over the proper suffix-link ancestors v of u (root excluded)
    /// of maxend(v) + 2·len(v)`.
    up: i64,
}

/// Suffix automaton of one destination string, with the per-state tables
/// the matching-statistics value scan needs. All buffers are reused across
/// [`SuffixAutomaton::build`] calls.
#[derive(Debug, Default, Clone)]
struct SuffixAutomaton {
    d: usize,
    text_len: usize,
    len: Vec<u32>,
    link: Vec<i32>,
    trans: Vec<Edge>,
    gain: Vec<Gain>,
    /// Counting-sort scratch: states ordered by `len` ascending.
    order: Vec<u32>,
    counts: Vec<u32>,
    states: usize,
    last: usize,
}

impl SuffixAutomaton {
    fn new_state(&mut self, len: u32) -> usize {
        let id = self.states;
        self.states += 1;
        self.len[id] = len;
        self.link[id] = -1;
        self.gain[id].maxend = i64::MIN;
        id
    }

    /// Rebuilds the automaton for `text` over alphabet `{0, …, d−1}`.
    fn build(&mut self, d: usize, text: &[u8]) {
        let cap = 2 * text.len() + 2;
        self.d = d;
        self.text_len = text.len();
        self.states = 0;
        self.len.clear();
        self.len.resize(cap, 0);
        self.link.clear();
        self.link.resize(cap, -1);
        self.gain.clear();
        self.gain.resize(
            cap,
            Gain {
                maxend: i64::MIN,
                up: i64::MIN,
            },
        );
        self.trans.clear();
        self.trans.resize(
            cap * d,
            Edge {
                to: NONE,
                cap: u32::MAX,
            },
        );
        self.new_state(0); // root
        self.last = 0;
        for (pos, &ch) in text.iter().enumerate() {
            self.extend(ch as usize);
            // `last` is the state of the full prefix ending at `pos`.
            self.gain[self.last].maxend = pos as i64;
        }
        self.finish();
    }

    fn extend(&mut self, c: usize) {
        let d = self.d;
        let cur = self.new_state(self.len[self.last] + 1);
        let mut p = self.last as i32;
        while p >= 0 && self.trans[p as usize * d + c].to == NONE {
            self.trans[p as usize * d + c].to = cur as u32;
            p = self.link[p as usize];
        }
        if p < 0 {
            self.link[cur] = 0;
        } else {
            let q = self.trans[p as usize * d + c].to as usize;
            if self.len[q] == self.len[p as usize] + 1 {
                self.link[cur] = q as i32;
            } else {
                let clone = self.new_state(self.len[p as usize] + 1);
                self.trans.copy_within(q * d..(q + 1) * d, clone * d);
                self.link[clone] = self.link[q];
                self.link[q] = clone as i32;
                self.link[cur] = clone as i32;
                while p >= 0 && self.trans[p as usize * d + c].to == q as u32 {
                    self.trans[p as usize * d + c].to = clone as u32;
                    p = self.link[p as usize];
                }
            }
        }
        self.last = cur;
    }

    /// Propagates `maxend` up the suffix-link tree, folds the ancestor
    /// maxima of `maxend(v) + 2·len(v)` into `up`, and completes every
    /// missing transition, so the scan makes one lookup per digit.
    fn finish(&mut self) {
        let n = self.states;
        let d = self.d;
        // Counting sort of states by len ascending (len <= text_len).
        self.counts.clear();
        self.counts.resize(self.text_len + 2, 0);
        for u in 0..n {
            self.counts[self.len[u] as usize] += 1;
        }
        let mut acc = 0u32;
        for c in self.counts.iter_mut() {
            let here = *c;
            *c = acc;
            acc += here;
        }
        self.order.clear();
        self.order.resize(n, 0);
        for u in 0..n {
            let slot = &mut self.counts[self.len[u] as usize];
            self.order[*slot as usize] = u as u32;
            *slot += 1;
        }
        // endpos(link(u)) ⊇ endpos(u): fold maxend upward, longest first.
        for &u in self.order.iter().rev() {
            let u = u as usize;
            if self.link[u] >= 0 {
                let l = self.link[u] as usize;
                self.gain[l].maxend = self.gain[l].maxend.max(self.gain[u].maxend);
            }
        }
        // Shortest first, so link(u) is final before u reads it.
        for &u in self.order.iter() {
            let u = u as usize;
            if u == 0 {
                // The root contributes nothing (θ = 0 is the baseline),
                // and a digit it lacks restarts the match empty.
                for e in &mut self.trans[..d] {
                    if e.to == NONE {
                        *e = Edge { to: 0, cap: 0 };
                    }
                }
                continue;
            }
            let v = self.link[u] as usize;
            if v != 0 {
                let g = self.gain[v];
                self.gain[u].up = (g.maxend + 2 * i64::from(self.len[v])).max(g.up);
            }
            let via = self.len[v] + 1;
            for c in 0..d {
                if self.trans[u * d + c].to == NONE {
                    let e = self.trans[v * d + c];
                    self.trans[u * d + c] = Edge {
                        to: e.to,
                        cap: e.cap.min(via),
                    };
                }
            }
        }
    }

    /// Advances the matching-statistics scan by digit `c`: `u` is the state
    /// of the longest match ending at the previous digit and `m` its
    /// length. Returns the largest `e_y + 2θ` over the matches ending at
    /// this digit — no less than the θ = 0 gain when none exists.
    #[inline(always)]
    fn step(&self, u: &mut usize, m: &mut u32, c: u8) -> i64 {
        let e = self.trans[*u * self.d + c as usize];
        *u = e.to as usize;
        *m = (*m + 1).min(e.cap);
        let g = self.gain[*u];
        (g.maxend + 2 * i64::from(*m)).max(g.up)
    }
}

/// Reusable per-destination tables answering many sources against one
/// destination.
///
/// Bind a destination with [`set_destination`](Self::set_destination), then
/// query any number of sources. Each table (failure function, packed
/// lanes, suffix automatons) is built lazily on first use and cached until
/// the destination changes; all buffers are reused across destinations, so
/// a batch loop is allocation-free after warm-up.
///
/// # Examples
///
/// ```
/// use debruijn_strings::DestinationContext;
///
/// let mut ctx = DestinationContext::new();
/// ctx.set_destination(2, &[1, 0, 0, 1]);
/// // overlap("0110", "1001") = 2: suffix "10" is a prefix of the destination.
/// assert_eq!(ctx.overlap(&[0, 1, 1, 0]), 2);
/// assert_eq!(ctx.overlap(&[1, 1, 1, 1]), 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct DestinationContext {
    d: u8,
    y: Vec<u8>,
    yr: Vec<u8>,
    fail: Vec<usize>,
    fail_ready: bool,
    yp: Vec<u64>,
    yp_ready: bool,
    sams_ready: bool,
    sam: SuffixAutomaton,
    sam_rev: SuffixAutomaton,
    // Per-source scratch: packed lanes of x.
    xp: Vec<u64>,
}

impl DestinationContext {
    /// Creates an empty context; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds the destination `y` over radix `d`, invalidating all cached
    /// tables (they rebuild lazily on first use).
    ///
    /// # Panics
    ///
    /// Panics if `y` is empty or `d < 2`.
    pub fn set_destination(&mut self, d: u8, y: &[u8]) {
        assert!(!y.is_empty(), "k must be at least 1");
        assert!(d >= 2, "radix must be at least 2");
        debug_assert!(y.iter().all(|&v| v < d), "digit out of range");
        self.d = d;
        self.y.clear();
        self.y.extend_from_slice(y);
        self.yr.clear();
        self.yr.extend(y.iter().rev());
        self.fail_ready = false;
        self.yp_ready = false;
        self.sams_ready = false;
    }

    /// The bound destination's digits.
    pub fn destination(&self) -> &[u8] {
        &self.y
    }

    /// The bound radix.
    pub fn radix(&self) -> u8 {
        self.d
    }

    /// The destination's Morris–Pratt failure function (built on first
    /// call). Its chain from the last entry enumerates the destination's
    /// borders, longest first (see [`crate::failure::borders`]).
    pub fn failure(&mut self) -> &[usize] {
        self.ensure_fail();
        &self.fail
    }

    fn ensure_fail(&mut self) {
        if !self.fail_ready {
            failure_function_into(&self.y, &mut self.fail);
            self.fail_ready = true;
        }
    }

    /// Length of the longest suffix of `x` that is a prefix of the
    /// destination — the paper's Eq. (2) overlap `l(X, Y)`, so the
    /// directed distance is `k − overlap`.
    ///
    /// Identical to [`crate::failure::overlap_with_scratch`]`(x, y, …)`,
    /// but the failure table is built once per destination instead of once
    /// per pair.
    pub fn overlap(&mut self, x: &[u8]) -> usize {
        self.ensure_fail();
        let m = self.y.len();
        let mut state = 0usize;
        for ch in x {
            if state == m {
                state = self.fail[state - 1];
            }
            while state > 0 && self.y[state] != *ch {
                state = self.fail[state - 1];
            }
            if self.y[state] == *ch {
                state += 1;
            }
        }
        state
    }

    /// Theorem 2 minima of both matching-function families for source `x`,
    /// byte-identical to [`bitmatch::both_family_minima`] (values *and*
    /// minimizers — same sweep order), with the destination's lanes packed
    /// once per destination instead of once per pair.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty.
    pub fn both_family_minima(&mut self, x: &[u8]) -> (MatchTerm, MatchTerm) {
        assert!(!x.is_empty(), "k must be at least 1");
        if !self.yp_ready {
            bitmatch::pack_lanes(self.d, &self.y, &mut self.yp);
            self.yp_ready = true;
        }
        bitmatch::pack_lanes(self.d, x, &mut self.xp);
        bitmatch::both_family_minima_prepacked(self.d, x.len(), self.y.len(), &self.xp, &self.yp)
    }

    /// Whether the automaton-based [`family_min_values`](Self::family_min_values)
    /// scan is available for word length `k` over radix `d` (the flat
    /// transition tables are capped at `SAM_MAX_CELLS` cells, about 16 MiB
    /// per automaton; radix 2 qualifies up to `k = 524 287`, radix 255 up
    /// to `k = 4111`).
    pub fn supports_family_scan(d: u8, k: usize) -> bool {
        2usize.saturating_mul(k + 1).saturating_mul(d as usize) <= SAM_MAX_CELLS
    }

    /// The minimized *values* of the `l` and reversed `r` families of
    /// Theorem 2 — `(min(i − j − l_{i,j}), min over the reversed strings)`
    /// — in `O(|x|)` per source after an `O(k·d)` per-destination build.
    ///
    /// The values equal those of [`crate::matching::min_l_term`]`(x, y)` /
    /// `(x̄, ȳ)` (and of every distance engine); no minimizer is produced,
    /// so this serves distance queries, not route construction. The
    /// undirected de Bruijn distance is `2k − 1 + min(l, r)`.
    ///
    /// # Panics
    ///
    /// Panics if the scan is unsupported for this destination
    /// (check [`supports_family_scan`](Self::supports_family_scan)).
    pub fn family_min_values(&mut self, x: &[u8]) -> (i64, i64) {
        assert!(
            Self::supports_family_scan(self.d, self.y.len()),
            "destination too large for the family value scan"
        );
        if !self.sams_ready {
            self.sam.build(self.d as usize, &self.y);
            self.sam_rev.build(self.d as usize, &self.yr);
            self.sams_ready = true;
        }
        // One pass over x: the l family scans x through Y's automaton, the
        // r family scans x̄ (x read backwards) through Ȳ's.
        let (sam, sam_rev) = (&self.sam, &self.sam_rev);
        let (mut l, mut r) = (1 - self.y.len() as i64, 1 - self.y.len() as i64);
        let (mut u, mut m, mut u_rev, mut m_rev) = (0, 0, 0, 0);
        for (e, (&a, &b)) in x.iter().zip(x.iter().rev()).enumerate() {
            let end = e as i64 + 1;
            l = l.min(end - sam.step(&mut u, &mut m, a));
            r = r.min(end - sam_rev.step(&mut u_rev, &mut m_rev, b));
        }
        (l, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::{overlap, overlap_with_scratch};
    use crate::matching::min_l_term;
    use crate::testgen::{self, all_strings, Rng};

    #[test]
    fn overlap_matches_reference_exhaustively() {
        let mut ctx = DestinationContext::new();
        for d in [2u8, 3] {
            let kmax = if d == 2 { 5 } else { 3 };
            for ky in 1..=kmax {
                for y in all_strings(d, ky) {
                    ctx.set_destination(d, &y);
                    for kx in 1..=kmax {
                        for x in all_strings(d, kx) {
                            assert_eq!(ctx.overlap(&x), overlap(&x, &y), "d={d} x={x:?} y={y:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn failure_table_matches_standalone_builder() {
        let mut ctx = DestinationContext::new();
        let mut fail = Vec::new();
        for y in all_strings(2, 6) {
            ctx.set_destination(2, &y);
            // overlap_with_scratch builds the same table as a side effect.
            overlap_with_scratch(&y, &y, &mut fail);
            assert_eq!(ctx.failure(), &fail[..], "y={y:?}");
        }
    }

    #[test]
    fn both_family_minima_identical_to_bitmatch() {
        let mut ctx = DestinationContext::new();
        let mut scratch = bitmatch::BitScratch::new();
        for d in [2u8, 3] {
            let k = if d == 2 { 4 } else { 3 };
            for y in all_strings(d, k) {
                ctx.set_destination(d, &y);
                for x in all_strings(d, k) {
                    assert_eq!(
                        ctx.both_family_minima(&x),
                        bitmatch::both_family_minima(d, &x, &y, &mut scratch),
                        "d={d} x={x:?} y={y:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn family_values_match_morris_pratt_exhaustively() {
        let mut ctx = DestinationContext::new();
        for d in [2u8, 3] {
            let k = if d == 2 { 5 } else { 3 };
            for y in all_strings(d, k) {
                ctx.set_destination(d, &y);
                let yr: Vec<u8> = y.iter().rev().copied().collect();
                for x in all_strings(d, k) {
                    let (l, r) = ctx.family_min_values(&x);
                    let xr: Vec<u8> = x.iter().rev().copied().collect();
                    assert_eq!(l, min_l_term(&x, &y).value, "l: d={d} x={x:?} y={y:?}");
                    assert_eq!(r, min_l_term(&xr, &yr).value, "r: d={d} x={x:?} y={y:?}");
                }
            }
        }
    }

    #[test]
    fn family_values_match_on_rectangular_and_random_words() {
        let mut ctx = DestinationContext::new();
        let mut state = 0xfeed_f00d_u32;
        let mut next = move |m: u8| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            ((state >> 16) % m as u32) as u8
        };
        for d in [2u8, 5, 20] {
            for (kx, ky) in [(1usize, 9usize), (9, 1), (33, 65), (120, 120)] {
                let x: Vec<u8> = (0..kx).map(|_| next(d)).collect();
                let y: Vec<u8> = (0..ky).map(|_| next(d)).collect();
                ctx.set_destination(d, &y);
                let (l, r) = ctx.family_min_values(&x);
                let xr: Vec<u8> = x.iter().rev().copied().collect();
                let yr: Vec<u8> = y.iter().rev().copied().collect();
                assert_eq!(l, min_l_term(&x, &y).value, "l: d={d} kx={kx} ky={ky}");
                assert_eq!(r, min_l_term(&xr, &yr).value, "r: d={d} kx={kx} ky={ky}");
            }
        }
    }

    #[test]
    fn identical_strings_reach_the_full_match() {
        let mut ctx = DestinationContext::new();
        let y = [0u8, 1, 1, 0, 1, 0, 0, 1];
        ctx.set_destination(2, &y);
        let (l, r) = ctx.family_min_values(&y);
        assert_eq!(l, 1 - 2 * y.len() as i64);
        assert_eq!(r, 1 - 2 * y.len() as i64);
    }

    #[test]
    fn rebinding_destinations_reuses_buffers_correctly() {
        let mut ctx = DestinationContext::new();
        // Alternate between destinations of different lengths and radixes
        // to shake out stale-buffer bugs.
        let cases: [(u8, &[u8]); 4] = [
            (2, &[1, 0, 1, 1, 0]),
            (3, &[2, 0, 1]),
            (2, &[0]),
            (4, &[3, 3, 0, 1, 2, 3, 1]),
        ];
        for (d, y) in cases {
            ctx.set_destination(d, y);
            let x: Vec<u8> = y.iter().map(|&v| (v + 1) % d).collect();
            assert_eq!(ctx.overlap(y), y.len());
            assert_eq!(ctx.overlap(&x), overlap(&x, y));
            let (l, _) = ctx.family_min_values(y);
            assert_eq!(l, 1 - 2 * y.len() as i64);
            let (l, r) = ctx.family_min_values(&x);
            let xr: Vec<u8> = x.iter().rev().copied().collect();
            let yr: Vec<u8> = y.iter().rev().copied().collect();
            assert_eq!(l, min_l_term(&x, y).value);
            assert_eq!(r, min_l_term(&xr, &yr).value);
        }
    }

    #[test]
    fn scan_support_cap_is_enforced() {
        assert!(DestinationContext::supports_family_scan(2, 1024));
        assert!(!DestinationContext::supports_family_scan(
            255,
            SAM_MAX_CELLS
        ));
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn rejects_empty_destination() {
        DestinationContext::new().set_destination(2, &[]);
    }

    #[test]
    fn family_values_match_morris_pratt_on_seeded_pairs_with_planted_blocks() {
        // The bit-parallel oracle's seeded cases (every lane width's
        // radixes, lengths up to 300, every third pair with a planted
        // common block), here against the Morris–Pratt minima.
        let mut ctx = DestinationContext::new();
        let mut rng = Rng::new(0x5EED_0003);
        for i in 0..150 {
            for d in testgen::RADIXES {
                let max_k = if i % 5 == 0 { 300 } else { 100 };
                let (x, y) = testgen::pair(&mut rng, d, i, max_k);
                ctx.set_destination(d, &y);
                let (l, r) = ctx.family_min_values(&x);
                let xr: Vec<u8> = x.iter().rev().copied().collect();
                let yr: Vec<u8> = y.iter().rev().copied().collect();
                assert_eq!(l, min_l_term(&x, &y).value, "l: d={d} x={x:?} y={y:?}");
                assert_eq!(r, min_l_term(&xr, &yr).value, "r: d={d} x={x:?} y={y:?}");
            }
        }
    }
}
