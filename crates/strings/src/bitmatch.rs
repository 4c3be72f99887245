//! Bit-parallel evaluation of the paper's matching-function minima.
//!
//! Theorem 2 needs only the two scalars
//! `min_{i,j} (i − j − l_{i,j})` and `min_{i,j} (−i + j − r_{i,j})`, not the
//! full `l`/`r` tables. This module computes both minima — together with
//! attaining minimizers — in a single word-parallel sweep, in the spirit of
//! the shift-and / shift-or family of bit-parallel matchers (Baeza-Yates &
//! Gonnet 1992), but specialized to the *diagonal-run* structure of the
//! problem:
//!
//! Every match `x[i..i+θ) == y[j−θ..j)` (0-indexed) lies on one diagonal of
//! the equality matrix `M[p][q] = (x_p == y_q)`, and the best objective value
//! a *maximal* all-ones run on a diagonal can contribute is obtained by
//! taking the whole run. Writing a maximal run as start `(p₀, q₀)` with
//! length `S`, its candidate for the `l` family is
//!
//! ```text
//! value = (p₀ − q₀ + 1) − 2·S      at (s, t, θ) = (p₀+1, q₀+S, S)
//! ```
//!
//! and — because `r_{i,j}(X,Y) = l_{kx+1−i, ky+1−j}(X̄,Ȳ)` and runs of `M`
//! map bijectively onto runs of the reversed matrix — the *same* run also
//! yields the reversed-coordinates `r`-family candidate
//!
//! ```text
//! value = (kx − ky + 1) + (q₀ − p₀) − 2·S
//!         at (s, t, θ) = (kx−p₀−S+1, ky−q₀, S)
//! ```
//!
//! so one sweep over the diagonals serves both families. The baseline
//! (θ = 0) candidate `1 − ky` at `(1, ky)` seeds both minima.
//!
//! On one diagonal `p₀ − q₀` is fixed, so both candidates are a constant
//! minus `2·S`: with strict updates in increasing position, the only run
//! of a diagonal that can change either minimum is its *first longest*
//! one. The sweep therefore reports exactly that run per diagonal, and
//! skips a diagonal outright when neither its length nor its longest run
//! can strictly beat either family's current best. Every `(value, s, t,
//! θ)` is the one an enumeration of all maximal runs in the same order
//! reports (the argument is in ADR 0003).
//!
//! Words are packed into `u64` lanes — 1 bit per digit for radix `d = 2`,
//! 4-bit nibbles for `d ≤ 16`, bytes otherwise — and each diagonal is
//! scanned 64 bits at a time: XOR the two shifted lane vectors and reduce
//! each lane to one bit that is set iff the digits are equal (SWAR
//! zero-lane detection). Within a word, each `t &= t >> lane` step
//! shortens every run of set lanes by one, so the step count that empties
//! `t` is the longest run and the lowest bit left before it is that run's
//! first start. Runs that cross word boundaries are measured with
//! trailing/leading-zero counts. When both words fit in one `u64` every
//! diagonal is a single word; otherwise the sweep walks the diagonal's
//! words, stopping once no remaining lane can lengthen a run enough.

use crate::matching::MatchTerm;

/// Reusable buffers for [`both_family_minima`]: the packed lane vectors of
/// the two input words.
///
/// Allocation-free across calls once the buffers have grown to the largest
/// `k` seen; intended to be kept per thread (or inside a routing scratch)
/// and reused for every pair.
#[derive(Debug, Default, Clone)]
pub struct BitScratch {
    xp: Vec<u64>,
    yp: Vec<u64>,
}

impl BitScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Lane width in bits for radix `d`: 1 for binary, a nibble up to radix 16,
/// a byte beyond (digits are `u8`, so a byte always suffices). The sweep's
/// word work at word length `k` grows with `k · lane_bits(d)`.
pub fn lane_bits(d: u8) -> usize {
    if d <= 2 {
        1
    } else if d <= 16 {
        4
    } else {
        8
    }
}

/// Packs `digits` into `out` at the lane width `lane_bits` dictates for
/// radix `d`, ready for [`both_family_minima_prepacked`].
///
/// This is the per-word half of [`both_family_minima`]'s setup, exposed so
/// destination-major batch kernels can pack a destination once and sweep
/// many sources against it (see `debruijn_strings::context`).
pub fn pack_lanes(d: u8, digits: &[u8], out: &mut Vec<u64>) {
    pack(digits, lane_bits(d), out);
}

/// Packs digits into `out` at `lane` bits per digit, little-endian within
/// each `u64`.
fn pack(digits: &[u8], lane: usize, out: &mut Vec<u64>) {
    out.clear();
    out.resize((digits.len() * lane).div_ceil(64), 0);
    match lane {
        1 => {
            for (i, &d) in digits.iter().enumerate() {
                out[i >> 6] |= ((d as u64) & 1) << (i & 63);
            }
        }
        4 => {
            for (i, &d) in digits.iter().enumerate() {
                out[i >> 4] |= ((d as u64) & 0xF) << ((i & 15) * 4);
            }
        }
        _ => {
            for (i, &d) in digits.iter().enumerate() {
                out[i >> 3] |= (d as u64) << ((i & 7) * 8);
            }
        }
    }
}

/// One 64-bit window of `words >> bit_off`, at word offset `wi`; reads past
/// the end yield zeros.
#[inline]
fn shifted_word(words: &[u64], bit_off: usize, wi: usize) -> u64 {
    let s = bit_off + (wi << 6);
    let lo = s >> 6;
    let sh = (s & 63) as u32;
    let a = words.get(lo).copied().unwrap_or(0);
    if sh == 0 {
        a
    } else {
        (a >> sh) | (words.get(lo + 1).copied().unwrap_or(0) << (64 - sh))
    }
}

/// One bit per lane, at the lane's lowest bit, set exactly where the lane
/// of `v = x ^ y` is zero — where the two digits are equal (SWAR
/// zero-lane detection).
#[inline(always)]
fn eq_low<const LANE: usize>(v: u64) -> u64 {
    match LANE {
        1 => !v,
        4 => {
            let t = v | (v >> 1);
            !(t | (t >> 2)) & 0x1111_1111_1111_1111
        }
        _ => {
            let mut t = v | (v >> 1);
            t |= t >> 2;
            !(t | (t >> 4)) & 0x0101_0101_0101_0101
        }
    }
}

/// The lowest bit of every lane: the bits [`eq_low`] can set.
#[inline(always)]
fn lane_lows<const LANE: usize>() -> u64 {
    match LANE {
        1 => u64::MAX,
        4 => 0x1111_1111_1111_1111,
        _ => 0x0101_0101_0101_0101,
    }
}

/// The first of the longest runs of set lanes in `m` (one bit per lane, as
/// [`eq_low`] produces), as `(start lane, length in lanes)`.
#[inline(always)]
fn word_run<const LANE: usize>(m: u64) -> Option<(usize, usize)> {
    if m == 0 {
        return None;
    }
    // `t` marks the lanes where a run of at least `run` set lanes starts;
    // each step shortens every run by one lane.
    let (mut t, mut run) = (m, 1);
    loop {
        let next = t & (t >> LANE);
        if next == 0 {
            return Some((t.trailing_zeros() as usize / LANE, run));
        }
        t = next;
        run += 1;
    }
}

/// The first longest run on one diagonal of the equality matrix — `len`
/// lanes from `(p_start, q_start)` — as `(offset along the diagonal,
/// length)`, provided it is at least `need` lanes long.
///
/// Words are walked in order with strict updates, so of equally long runs
/// the earliest is kept. A run that reaches a word's top lane is carried
/// into the next word and measured when it closes; the walk stops once
/// even the carried run plus every remaining lane could not exceed the
/// best length found.
fn diagonal_run<const LANE: usize>(
    xp: &[u64],
    yp: &[u64],
    p_start: usize,
    q_start: usize,
    len: usize,
    need: usize,
) -> Option<(usize, usize)> {
    let lanes_per_word = 64 / LANE;
    let nbits = len * LANE;
    let nwords = nbits.div_ceil(64);
    let mut best = None;
    // Only runs longer than this are recorded.
    let mut best_len = need - 1;
    let (mut carry_start, mut carry_len) = (0, 0);
    for wi in 0..nwords {
        let base = wi * lanes_per_word;
        if carry_len + (len - base) <= best_len {
            return best;
        }
        let v = shifted_word(xp, p_start * LANE, wi) ^ shifted_word(yp, q_start * LANE, wi);
        let mut m = eq_low::<LANE>(v);
        if wi == nwords - 1 {
            m &= u64::MAX >> (64 * nwords - nbits);
        }
        // The lowest bit of every lane whose digits differ.
        let breaks = !m & lane_lows::<LANE>();
        if breaks == 0 {
            if carry_len == 0 {
                carry_start = base;
            }
            carry_len += lanes_per_word;
            continue;
        }
        if carry_len > 0 {
            let run = carry_len + breaks.trailing_zeros() as usize / LANE;
            if run > best_len {
                (best, best_len) = (Some((carry_start, run)), run);
            }
        }
        // A run inside one word spans at most `lanes_per_word` lanes. The
        // word's bottom run, which may close a carried run, is measured
        // here only in part, so it never beats the carried run's length.
        if best_len < lanes_per_word {
            if let Some((start, run)) = word_run::<LANE>(m) {
                if run > best_len {
                    (best, best_len) = (Some((base + start, run)), run);
                }
            }
        }
        // Lanes above the highest break continue into the next word.
        let top = lanes_per_word - 1 - (63 - breaks.leading_zeros() as usize) / LANE;
        (carry_start, carry_len) = (base + lanes_per_word - top, top);
    }
    if carry_len > best_len {
        best = Some((carry_start, carry_len));
    }
    best
}

/// Both families' running minima, updated strictly in sweep order.
struct Minima {
    kx: usize,
    ky: usize,
    l: MatchTerm,
    r: MatchTerm,
}

impl Minima {
    /// The θ = 0 baseline: min of i − j alone is 1 − ky at (1, ky), for the
    /// original and the reversed strings alike.
    fn new(kx: usize, ky: usize) -> Self {
        let base = MatchTerm {
            value: 1 - ky as i64,
            s: 1,
            t: ky,
            theta: 0,
        };
        Self {
            kx,
            ky,
            l: base,
            r: base,
        }
    }

    /// The shortest run on the diagonal `p₀ − q₀ = delta` whose candidate
    /// strictly beats either minimum. Both candidates there are a constant
    /// minus twice the run length, and each constant exceeds the baseline
    /// `1 − ky`, so the gaps below are positive.
    fn need(&self, delta: i64) -> usize {
        let gap_l = delta + 1 - self.l.value;
        let gap_r = self.kx as i64 - self.ky as i64 + 1 - delta - self.r.value;
        (gap_l.min(gap_r) / 2 + 1) as usize
    }

    /// Offers the run of length `run` starting at `(p0, q0)` to both
    /// families.
    fn consider(&mut self, p0: usize, q0: usize, run: usize) {
        let value = (p0 as i64 - q0 as i64 + 1) - 2 * run as i64;
        if value < self.l.value {
            self.l = MatchTerm {
                value,
                s: p0 + 1,
                t: q0 + run,
                theta: run,
            };
        }
        let value =
            (self.kx as i64 - self.ky as i64 + 1) + (q0 as i64 - p0 as i64) - 2 * run as i64;
        if value < self.r.value {
            self.r = MatchTerm {
                value,
                s: self.kx - p0 - run + 1,
                t: self.ky - q0,
                theta: run,
            };
        }
    }
}

/// Sweeps the diagonals in the fixed order — `X`-offset `c ≥ 0` (start
/// `(c, 0)`), then `Y`-offset `c ≥ 1` (start `(0, c)`) — asking
/// `first_longest(p_start, q_start, len, need)` for each diagonal that
/// is at least `need` lanes long.
#[inline(always)]
fn sweep(
    kx: usize,
    ky: usize,
    mut first_longest: impl FnMut(usize, usize, usize, usize) -> Option<(usize, usize)>,
) -> (MatchTerm, MatchTerm) {
    let mut minima = Minima::new(kx, ky);
    for c in 0..kx {
        let len = (kx - c).min(ky);
        let need = minima.need(c as i64);
        if need <= len {
            if let Some((at, run)) = first_longest(c, 0, len, need) {
                minima.consider(c + at, at, run);
            }
        }
    }
    for c in 1..ky {
        let len = kx.min(ky - c);
        let need = minima.need(-(c as i64));
        if need <= len {
            if let Some((at, run)) = first_longest(0, c, len, need) {
                minima.consider(at, c + at, run);
            }
        }
    }
    (minima.l, minima.r)
}

/// The sweep at lane width `LANE`: the one-`u64` path when both words fit
/// in one word, the word-walking path otherwise.
///
/// [`diagonal_run`] alone gives the same results for short words, but
/// the one-`u64` path, with no carry bookkeeping or window reads,
/// measured 1.5× faster per solve at `k = 32` and `64` (radix 2) and
/// 1.9–2.6× faster at `k ≤ 16` (radixes 2, 3, 16, 255), in six
/// interleaved runs on a 2-core x86-64 VM.
fn sweep_lanes<const LANE: usize>(
    kx: usize,
    ky: usize,
    xp: &[u64],
    yp: &[u64],
) -> (MatchTerm, MatchTerm) {
    if kx * LANE <= 64 && ky * LANE <= 64 {
        let (x, y) = (xp[0], yp[0]);
        sweep(kx, ky, |p_start, q_start, len, need| {
            let v = (x >> (p_start * LANE)) ^ (y >> (q_start * LANE));
            let m = eq_low::<LANE>(v) & (u64::MAX >> (64 - len * LANE));
            word_run::<LANE>(m).filter(|&(_, run)| run >= need)
        })
    } else {
        sweep(kx, ky, |p_start, q_start, len, need| {
            diagonal_run::<LANE>(xp, yp, p_start, q_start, len, need)
        })
    }
}

/// Computes the minima of both matching-function families in one sweep.
///
/// Returns `(l_min, r_min_reversed)`:
///
/// * `l_min` minimizes `i − j − l_{i,j}(X,Y)` — same value as
///   [`crate::min_l_term`]`(x, y)`;
/// * `r_min_reversed` minimizes the `l` objective over the *reversed*
///   strings — same value as [`crate::min_l_term`]`(x̄, ȳ)`, in the reversed
///   1-indexed coordinates the caller flips back via `k + 1 − s` /
///   `k + 1 − t` (the identity `r_{i,j}(X,Y) = l_{kx+1−i,ky+1−j}(X̄,Ȳ)`).
///
/// The reported minimizers attain their values through witnessed matches
/// (`θ ≤ l_{s,t}`, `value = s − t − θ`) but may differ from the
/// Morris–Pratt engine's lexicographic tie-breaking; all engines agree on
/// the minimized values and therefore on distances.
///
/// Digits must be `< d`. The sweep order (diagonals of `X`-offset first,
/// then `Y`-offset, runs in increasing position, strict improvement only)
/// is fixed, so results are deterministic.
///
/// # Panics
///
/// Panics if `x` or `y` is empty (the de Bruijn word length `k` is ≥ 1).
pub fn both_family_minima(
    d: u8,
    x: &[u8],
    y: &[u8],
    scratch: &mut BitScratch,
) -> (MatchTerm, MatchTerm) {
    assert!(!x.is_empty() && !y.is_empty(), "k must be at least 1");
    debug_assert!(
        x.iter().chain(y).all(|&v| (v as u16) < (d as u16).max(2)),
        "digit out of range for radix {d}"
    );
    let lane = lane_bits(d);
    pack(x, lane, &mut scratch.xp);
    pack(y, lane, &mut scratch.yp);
    both_family_minima_prepacked(d, x.len(), y.len(), &scratch.xp, &scratch.yp)
}

/// [`both_family_minima`] over digits already packed with [`pack_lanes`]
/// for radix `d`; `kx` / `ky` are the original digit counts.
///
/// The sweep — and therefore every reported value and minimizer — is
/// identical to [`both_family_minima`]; only the packing step is hoisted
/// out, so a caller answering many sources against one destination packs
/// the destination once.
///
/// # Panics
///
/// Panics if `kx` or `ky` is zero.
pub fn both_family_minima_prepacked(
    d: u8,
    kx: usize,
    ky: usize,
    xp: &[u64],
    yp: &[u64],
) -> (MatchTerm, MatchTerm) {
    assert!(kx > 0 && ky > 0, "k must be at least 1");
    let lane = lane_bits(d);
    debug_assert!(xp.len() >= (kx * lane).div_ceil(64));
    debug_assert!(yp.len() >= (ky * lane).div_ceil(64));

    match lane {
        1 => sweep_lanes::<1>(kx, ky, xp, yp),
        4 => sweep_lanes::<4>(kx, ky, xp, yp),
        _ => sweep_lanes::<8>(kx, ky, xp, yp),
    }
}

#[cfg(test)]
/// The per-run enumerator the pruned sweep replaced, kept as its oracle:
/// every maximal run of every diagonal goes through `consider`, in the
/// same diagonal order, with the same strict updates.
mod reference {
    use super::shifted_word;
    use crate::matching::MatchTerm;

    /// Expands `v = x ^ y` into a mask whose lanes are all-ones exactly
    /// where the corresponding lanes of `v` are zero.
    fn eq_lanes(v: u64, lane: usize) -> u64 {
        match lane {
            1 => !v,
            4 => {
                const ONES: u64 = 0x1111_1111_1111_1111;
                let t = v | (v >> 1);
                let nz = (t | (t >> 2)) & ONES;
                (nz ^ ONES).wrapping_mul(0xF)
            }
            _ => {
                const ONES: u64 = 0x0101_0101_0101_0101;
                let mut t = v | (v >> 1);
                t |= t >> 2;
                let nz = (t | (t >> 4)) & ONES;
                (nz ^ ONES).wrapping_mul(0xFF)
            }
        }
    }

    /// `both_family_minima_prepacked` by enumerating every maximal run.
    pub(super) fn both_family_minima_prepacked(
        d: u8,
        kx: usize,
        ky: usize,
        xp: &[u64],
        yp: &[u64],
    ) -> (MatchTerm, MatchTerm) {
        let lane = super::lane_bits(d);
        // θ = 0 baseline: min of i − j alone is 1 − ky at (1, ky), for the
        // original and the reversed strings alike.
        let mut best_l = MatchTerm {
            value: 1 - ky as i64,
            s: 1,
            t: ky,
            theta: 0,
        };
        let mut best_r = best_l;

        let mut consider = |p0: usize, q0: usize, run: usize| {
            let value = (p0 as i64 - q0 as i64 + 1) - 2 * run as i64;
            if value < best_l.value {
                best_l = MatchTerm {
                    value,
                    s: p0 + 1,
                    t: q0 + run,
                    theta: run,
                };
            }
            let value = (kx as i64 - ky as i64 + 1) + (q0 as i64 - p0 as i64) - 2 * run as i64;
            if value < best_r.value {
                best_r = MatchTerm {
                    value,
                    s: kx - p0 - run + 1,
                    t: ky - q0,
                    theta: run,
                };
            }
        };

        // Diagonals with X-offset c ≥ 0 (start (c, 0)), then Y-offset c ≥ 1
        // (start (0, c)).
        for c in 0..kx {
            let len = (kx - c).min(ky);
            sweep_diagonal(xp, yp, c, 0, len, lane, &mut consider);
        }
        for c in 1..ky {
            let len = kx.min(ky - c);
            sweep_diagonal(xp, yp, 0, c, len, lane, &mut consider);
        }

        (best_l, best_r)
    }

    /// Scans one diagonal of the equality matrix — `len` lanes starting at
    /// `(p_start, q_start)` — and reports every maximal all-equal run to
    /// `consider(p0, q0, run_len)` in increasing position order.
    fn sweep_diagonal(
        xp: &[u64],
        yp: &[u64],
        p_start: usize,
        q_start: usize,
        len: usize,
        lane: usize,
        consider: &mut impl FnMut(usize, usize, usize),
    ) {
        let nbits = len * lane;
        let nwords = nbits.div_ceil(64);
        let lanes_per_word = 64 / lane;
        // A run that reaches a word's top bit may continue in the next word;
        // carry it as (start_lane, length_lanes) until it closes.
        let mut pending: Option<(usize, usize)> = None;
        for wi in 0..nwords {
            let xw = shifted_word(xp, p_start * lane, wi);
            let yw = shifted_word(yp, q_start * lane, wi);
            let mut m = eq_lanes(xw ^ yw, lane);
            if wi == nwords - 1 {
                let rem = nbits & 63;
                if rem != 0 {
                    m &= (1u64 << rem) - 1;
                }
            }
            let base = wi * lanes_per_word;
            if let Some((rs, rl)) = pending {
                let cont = ((!m).trailing_zeros() as usize).min(64);
                if cont == 64 {
                    pending = Some((rs, rl + lanes_per_word));
                    continue;
                }
                consider(p_start + rs, q_start + rs, rl + cont / lane);
                pending = None;
                if cont != 0 {
                    m &= !((1u64 << cont) - 1);
                }
            }
            while m != 0 {
                let s = m.trailing_zeros() as usize;
                let ones = ((!(m >> s)).trailing_zeros() as usize).min(64 - s);
                let start = base + s / lane;
                if s + ones == 64 {
                    pending = Some((start, ones / lane));
                    break;
                }
                consider(p_start + start, q_start + start, ones / lane);
                m &= !(((1u64 << ones) - 1) << s);
            }
        }
        if let Some((rs, rl)) = pending {
            consider(p_start + rs, q_start + rs, rl);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::{l_table_naive, min_l_term};
    use crate::testgen::{self, all_strings, Rng};

    fn check_pair(d: u8, x: &[u8], y: &[u8], scratch: &mut BitScratch) {
        let (l, r) = both_family_minima(d, x, y, scratch);
        let want_l = min_l_term(x, y);
        let xr: Vec<u8> = x.iter().rev().copied().collect();
        let yr: Vec<u8> = y.iter().rev().copied().collect();
        let want_r = min_l_term(&xr, &yr);
        assert_eq!(l.value, want_l.value, "l value, x={x:?} y={y:?}");
        assert_eq!(r.value, want_r.value, "r value, x={x:?} y={y:?}");
        // Minimizers must attain their values through witnessed matches.
        for (got, xs, ys) in [(l, x, y), (r, &xr[..], &yr[..])] {
            assert_eq!(
                got.value,
                got.s as i64 - got.t as i64 - got.theta as i64,
                "minimizer does not attain value, x={x:?} y={y:?}"
            );
            assert!((1..=xs.len()).contains(&got.s));
            assert!((1..=ys.len()).contains(&got.t));
            let table = l_table_naive(xs, ys);
            assert!(
                got.theta <= table[got.s - 1][got.t - 1],
                "theta not witnessed at ({}, {}), x={x:?} y={y:?}",
                got.s,
                got.t
            );
        }
    }

    #[test]
    fn binary_exhaustive_up_to_k4_including_rectangular() {
        let mut scratch = BitScratch::new();
        for kx in 1..=4 {
            for ky in 1..=4 {
                for x in all_strings(2, kx) {
                    for y in all_strings(2, ky) {
                        check_pair(2, &x, &y, &mut scratch);
                    }
                }
            }
        }
    }

    #[test]
    fn nibble_lanes_exhaustive_d3_k3_and_d5_samples() {
        let mut scratch = BitScratch::new();
        for x in all_strings(3, 3) {
            for y in all_strings(3, 3) {
                check_pair(3, &x, &y, &mut scratch);
            }
        }
        for x in all_strings(5, 2) {
            for y in all_strings(5, 3) {
                check_pair(5, &x, &y, &mut scratch);
            }
        }
    }

    #[test]
    fn byte_lanes_agree_on_large_radix() {
        let mut scratch = BitScratch::new();
        // Deterministic pseudo-random digits over radix 20 (byte lanes).
        let mut state = 0x9e37_79b9_u32;
        let mut next = move |m: u8| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            ((state >> 16) % m as u32) as u8
        };
        for _ in 0..20 {
            let x: Vec<u8> = (0..17).map(|_| next(20)).collect();
            let y: Vec<u8> = (0..23).map(|_| next(20)).collect();
            check_pair(20, &x, &y, &mut scratch);
        }
    }

    #[test]
    fn identical_strings_reach_the_full_diagonal() {
        let mut scratch = BitScratch::new();
        let x = &[0, 1, 1, 0, 1, 0, 0, 1];
        let (l, r) = both_family_minima(2, x, x, &mut scratch);
        let k = x.len() as i64;
        assert_eq!(l.value, 1 - 2 * k);
        assert_eq!(r.value, 1 - 2 * k);
        assert_eq!((l.s, l.t, l.theta), (1, x.len(), x.len()));
    }

    #[test]
    fn disjoint_alphabets_give_the_baseline() {
        let mut scratch = BitScratch::new();
        let (l, r) = both_family_minima(4, &[0, 0, 0], &[1, 1, 1], &mut scratch);
        assert_eq!((l.value, l.s, l.t, l.theta), (-2, 1, 3, 0));
        assert_eq!((r.value, r.s, r.t, r.theta), (-2, 1, 3, 0));
    }

    #[test]
    fn long_binary_words_cross_word_boundaries() {
        let mut scratch = BitScratch::new();
        // k = 200 exercises multi-word diagonals and straddling runs.
        let mut state = 0xdead_beef_u32;
        let mut next = move || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            ((state >> 20) & 1) as u8
        };
        let x: Vec<u8> = (0..200).map(|_| next()).collect();
        let y: Vec<u8> = (0..200).map(|_| next()).collect();
        let (l, r) = both_family_minima(2, &x, &y, &mut scratch);
        assert_eq!(l.value, min_l_term(&x, &y).value);
        let xr: Vec<u8> = x.iter().rev().copied().collect();
        let yr: Vec<u8> = y.iter().rev().copied().collect();
        assert_eq!(r.value, min_l_term(&xr, &yr).value);
    }

    #[test]
    fn all_ones_run_spanning_many_words() {
        let mut scratch = BitScratch::new();
        let x = vec![1u8; 130];
        let (l, _) = both_family_minima(2, &x, &x, &mut scratch);
        assert_eq!(l.value, 1 - 2 * 130);
        assert_eq!((l.s, l.t, l.theta), (1, 130, 130));
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn rejects_empty_input() {
        both_family_minima(2, &[], &[0], &mut BitScratch::new());
    }

    #[test]
    fn prepacked_entry_point_is_identical_to_inline_packing() {
        let mut scratch = BitScratch::new();
        let mut state = 0x1234_5678_u32;
        let mut next = move |m: u8| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            ((state >> 16) % m as u32) as u8
        };
        for d in [2u8, 3, 20] {
            for (kx, ky) in [(1, 1), (7, 7), (17, 23), (130, 65)] {
                let x: Vec<u8> = (0..kx).map(|_| next(d)).collect();
                let y: Vec<u8> = (0..ky).map(|_| next(d)).collect();
                let want = both_family_minima(d, &x, &y, &mut scratch);
                let (mut xp, mut yp) = (Vec::new(), Vec::new());
                pack_lanes(d, &x, &mut xp);
                pack_lanes(d, &y, &mut yp);
                assert_eq!(both_family_minima_prepacked(d, kx, ky, &xp, &yp), want);
            }
        }
    }

    /// The pruned sweep against the per-run reference on full
    /// `(MatchTerm, MatchTerm)` equality, minimizers included.
    fn check_against_reference(d: u8, x: &[u8], y: &[u8], scratch: &mut BitScratch) {
        let got = both_family_minima(d, x, y, scratch);
        let want =
            reference::both_family_minima_prepacked(d, x.len(), y.len(), &scratch.xp, &scratch.yp);
        assert_eq!(got, want, "d={d} x={x:?} y={y:?}");
    }

    #[test]
    fn pruned_sweep_equals_reference_exhaustively_d2_up_to_k6() {
        let mut scratch = BitScratch::new();
        for kx in 1..=6 {
            for ky in 1..=6 {
                for x in all_strings(2, kx) {
                    for y in all_strings(2, ky) {
                        check_against_reference(2, &x, &y, &mut scratch);
                    }
                }
            }
        }
    }

    #[test]
    fn pruned_sweep_equals_reference_exhaustively_d3_up_to_k3() {
        let mut scratch = BitScratch::new();
        for kx in 1..=3 {
            for ky in 1..=3 {
                for x in all_strings(3, kx) {
                    for y in all_strings(3, ky) {
                        check_against_reference(3, &x, &y, &mut scratch);
                    }
                }
            }
        }
    }

    #[test]
    fn pruned_sweep_equals_reference_on_seeded_pairs_with_planted_blocks() {
        // 21 000 pairs over every lane width; every fifth pair draws its
        // lengths up to 300 (multi-word diagonals for every lane width),
        // the rest up to 100; every third has a planted common block.
        let mut scratch = BitScratch::new();
        let mut rng = Rng::new(0x5EED_0003);
        for i in 0..3_500 {
            for d in testgen::RADIXES {
                let max_k = if i % 5 == 0 { 300 } else { 100 };
                let (x, y) = testgen::pair(&mut rng, d, i, max_k);
                check_against_reference(d, &x, &y, &mut scratch);
            }
        }
    }

    #[test]
    fn pruned_sweep_equals_reference_on_structured_words() {
        // Periodic and constant words: many equally long runs per
        // diagonal (ties) and runs spanning whole words.
        let mut scratch = BitScratch::new();
        for d in [2u8, 3, 17] {
            for k in [1usize, 15, 16, 17, 63, 64, 65, 128, 129, 200] {
                for (px, py) in [(1usize, 1usize), (1, 2), (2, 3), (3, 3), (4, 6)] {
                    let x: Vec<u8> = (0..k).map(|i| ((i % px) as u8) % d).collect();
                    let y: Vec<u8> = (0..k).map(|i| ((i % py + 1) as u8) % d).collect();
                    check_against_reference(d, &x, &y, &mut scratch);
                    check_against_reference(d, &x, &x, &mut scratch);
                    check_against_reference(d, &y, &x, &mut scratch);
                }
            }
        }
    }
}
