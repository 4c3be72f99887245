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
//! minus `2·S`, and only a run of at least `need` lanes can strictly beat
//! either family's current best. `need` is always more than half the
//! diagonal (the argument is in ADR 0003), so such a run is the
//! diagonal's unique longest run and covers its middle lane `len / 2`.
//! The sweep therefore reads that lane: if its digits differ, the
//! diagonal is skipped; otherwise the run through it is measured in both
//! directions and offered if it reaches `need`. Every `(value, s, t, θ)`
//! is the one an enumeration of all maximal runs in the same order
//! reports.
//!
//! Words are packed into `u64` lanes — 1 bit per digit for radix `d = 2`,
//! 4-bit nibbles for `d ≤ 16`, bytes otherwise. A diagonal is read 64
//! bits at a time from its middle lane: XOR the two shifted lane vectors
//! and set every bit of each lane whose digits are equal (SWAR zero-lane
//! detection), so trailing- and leading-one counts give the equal lanes
//! above and below the middle one. Further words are read only while the
//! run continues. On random words the run through the middle lane is
//! short, so a solve reads `O(kx + ky)` words; words with long middle
//! runs that never improve a minimum still cost `O(kx·ky·lane/64)`. When
//! both words fit in one `u64`, one shifted word per diagonal serves
//! both directions, and at radix 2 the middle lane is not tested first:
//! if it differs, the count upwards is 0 and the run downwards is
//! shorter than `need`, so nothing is offered, and the only branch on
//! the digits is the rare improvement.

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
///
/// Eight digits are read as one little-endian `u64` per step, and their
/// `8·lane` packed bits are placed with one store; the last `len % 8`
/// digits go one at a time.
fn pack(digits: &[u8], lane: usize, out: &mut Vec<u64>) {
    out.clear();
    out.resize((digits.len() * lane).div_ceil(64), 0);
    let mut chunks = digits.chunks_exact(8);
    for (i, chunk) in chunks.by_ref().enumerate() {
        let w = u64::from_le_bytes(chunk.try_into().expect("chunks of 8"));
        match lane {
            1 => {
                // Each byte's low bit lands in the top byte, digit j at
                // bit 56 + j: the multiplier's terms never share a bit
                // position, so the product carries nothing into it.
                let bits = (w & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080) >> 56;
                out[i >> 3] |= bits << ((i & 7) * 8);
            }
            4 => {
                // Halve the gaps between nibbles three times.
                let w = w & 0x0F0F_0F0F_0F0F_0F0F;
                let w = (w | (w >> 4)) & 0x00FF_00FF_00FF_00FF;
                let w = (w | (w >> 8)) & 0x0000_FFFF_0000_FFFF;
                out[i >> 1] |= ((w | (w >> 16)) & 0xFFFF_FFFF) << ((i & 1) * 32);
            }
            _ => out[i] = w,
        }
    }
    let tail = digits.len() - chunks.remainder().len();
    for (i, &d) in (tail..).zip(chunks.remainder()) {
        let d = d as u64;
        match lane {
            1 => out[i >> 6] |= (d & 1) << (i & 63),
            4 => out[i >> 4] |= (d & 0xF) << ((i & 15) * 4),
            _ => out[i >> 3] |= d << ((i & 7) * 8),
        }
    }
}

/// The 64 bits of `words` starting at bit `bit_off`; reads past the end
/// yield zeros.
#[inline]
fn shifted_word(words: &[u64], bit_off: usize) -> u64 {
    let lo = bit_off >> 6;
    let sh = (bit_off & 63) as u32;
    let a = words.get(lo).copied().unwrap_or(0);
    if sh == 0 {
        a
    } else {
        (a >> sh) | (words.get(lo + 1).copied().unwrap_or(0) << (64 - sh))
    }
}

/// Every bit of each lane set where that lane of `v = x ^ y` is zero —
/// where the two digits are equal (SWAR zero-lane detection) — so runs of
/// equal lanes are runs of ones, `LANE` bits per lane.
#[inline(always)]
fn eq_lanes<const LANE: usize>(v: u64) -> u64 {
    match LANE {
        1 => !v,
        4 => {
            let t = v | (v >> 1);
            !(((t | (t >> 2)) & 0x1111_1111_1111_1111) * 0xF)
        }
        _ => {
            let mut t = v | (v >> 1);
            t |= t >> 2;
            !(((t | (t >> 4)) & 0x0101_0101_0101_0101) * 0xFF)
        }
    }
}

/// The digit in lane `at` of a packed lane vector.
#[inline(always)]
fn digit<const LANE: usize>(words: &[u64], at: usize) -> u64 {
    (words[at * LANE / 64] >> (at * LANE % 64)) & ((1 << LANE) - 1)
}

/// The run of equal lanes through the middle lane `len / 2` of one
/// diagonal of the equality matrix — `len` lanes from `(p_start,
/// q_start)` — as `(offset along the diagonal, length)`, provided it is
/// at least `need` lanes long.
///
/// Skips the diagonal if the middle lane's digits differ. Otherwise reads
/// one window from the middle lane up, then further windows above and
/// below it only while the run continues.
fn middle_run<const LANE: usize>(
    xp: &[u64],
    yp: &[u64],
    p_start: usize,
    q_start: usize,
    len: usize,
    need: usize,
) -> Option<(usize, usize)> {
    let lanes_per_word = 64 / LANE;
    // The equal lanes of the window starting `at` lanes into the diagonal.
    let window = |at: usize| {
        eq_lanes::<LANE>(
            shifted_word(xp, (p_start + at) * LANE) ^ shifted_word(yp, (q_start + at) * LANE),
        )
    };
    let mid = len / 2;
    if digit::<LANE>(xp, p_start + mid) != digit::<LANE>(yp, q_start + mid) {
        return None;
    }
    // While a window is all equal the next one's address does not wait
    // for the count, so the reads of a long run overlap.
    let mut hi = mid;
    loop {
        let run = window(hi).trailing_ones() as usize / LANE;
        if run < lanes_per_word || hi + run >= len {
            hi += run;
            break;
        }
        hi += lanes_per_word;
    }
    let hi = hi.min(len);
    if hi < need {
        return None;
    }
    let mut lo = mid;
    while lo > 0 {
        let width = lo.min(lanes_per_word);
        let run = (window(lo - width) << (64 - width * LANE)).leading_ones() as usize / LANE;
        if run < width {
            lo -= run;
            break;
        }
        lo -= width;
    }
    (hi - lo >= need).then_some((lo, hi - lo))
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
/// `middle(p_start, q_start, len, need)` for the run through the middle
/// lane of each diagonal that is at least `need` lanes long.
#[inline(always)]
fn sweep(
    kx: usize,
    ky: usize,
    mut middle: impl FnMut(usize, usize, usize, usize) -> Option<(usize, usize)>,
) -> (MatchTerm, MatchTerm) {
    let mut minima = Minima::new(kx, ky);
    let mut diagonal = |minima: &mut Minima, delta: i64, p_start: usize, q_start: usize| {
        let len = (kx - p_start).min(ky - q_start);
        let need = minima.need(delta);
        if need <= len {
            // Only a run through the middle lane can reach `need`.
            debug_assert!(2 * need > len, "need {need} on a diagonal of {len}");
            if let Some((at, run)) = middle(p_start, q_start, len, need) {
                minima.consider(p_start + at, q_start + at, run);
            }
        }
    };
    for c in 0..kx {
        diagonal(&mut minima, c as i64, c, 0);
    }
    for c in 1..ky {
        diagonal(&mut minima, -(c as i64), 0, c);
    }
    (minima.l, minima.r)
}

/// The sweep at lane width `LANE`: the one-`u64` path when both words fit
/// in one word, [`middle_run`]'s window walk otherwise.
///
/// [`middle_run`] alone gives the same results for short words, but the
/// one-`u64` path reads both directions from one shifted word per
/// diagonal. On 1-bit lanes it also skips the middle-lane test, which
/// random binary digits pass half the time, so the branch predictor
/// missed it on about every other diagonal. Against the same path with
/// the test, in one process over `65 536 / k` distinct random pairs,
/// best of 21 alternating rounds on a 2-core x86-64 VM, a radix-2 sweep
/// took 99 vs 160 ns at `k = 8`, 280 vs 581 at `k = 32` and 504 vs
/// 1,121 at `k = 64` (faster in 18, 21 and 21 rounds). Wider lanes keep
/// the test: without it radix 16 at `k = 16` went from 101 to 150 ns
/// and radix 255 at `k = 8` from 43 to 77.
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
            let (mid, b) = (len / 2, len / 2 * LANE);
            // Only wider lanes test the middle lane first: binary middle
            // lanes agree half the time, so that branch would mispredict
            // on about every other diagonal.
            if LANE > 1 && (v >> b) & ((1 << LANE) - 1) != 0 {
                return None;
            }
            let m = eq_lanes::<LANE>(v);
            // Lanes past `len` compare shifted-in zeros; clamp them off.
            let up = ((m >> b).trailing_ones() as usize / LANE).min(len - mid);
            let down = ((m << (63 - b)) << 1).leading_ones() as usize / LANE;
            // If the middle lane differs, `up` is 0 and `down ≤ len / 2 <
            // need`, so nothing is offered.
            (up + down >= need).then_some((mid - down, up + down))
        })
    } else {
        sweep(kx, ky, |p_start, q_start, len, need| {
            middle_run::<LANE>(xp, yp, p_start, q_start, len, need)
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

    /// `pack` one digit at a time.
    pub(super) fn pack(digits: &[u8], lane: usize, out: &mut Vec<u64>) {
        out.clear();
        out.resize((digits.len() * lane).div_ceil(64), 0);
        for (i, &d) in digits.iter().enumerate() {
            out[i * lane / 64] |= (d as u64 & ((1 << lane) - 1)) << (i * lane % 64);
        }
    }

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
            let xw = shifted_word(xp, p_start * lane + wi * 64);
            let yw = shifted_word(yp, q_start * lane + wi * 64);
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

    /// `0^k` against `0^(k/2) 1 0^(k/2 − 1)`: on many diagonals the run
    /// through the middle lane is as long as half the diagonal yet never
    /// improves a minimum, so the walk reads it in full and offers nothing.
    #[test]
    fn long_middle_runs_that_never_improve_match_the_reference() {
        let mut scratch = BitScratch::new();
        for d in [2u8, 3, 17] {
            for k in [2usize, 3, 8, 9, 16, 17, 63, 64, 65, 127, 128, 129, 200, 300] {
                let x = vec![0u8; k];
                let mut y = vec![0u8; k];
                y[k / 2] = 1;
                check_against_reference(d, &x, &y, &mut scratch);
                check_against_reference(d, &y, &x, &mut scratch);
            }
        }
    }

    /// Runs of exactly ⌊len/2⌋ and ⌊len/2⌋ + 1 lanes on the main diagonal,
    /// placed at its start, its middle and its end, with every other lane
    /// of that diagonal differing.
    #[test]
    fn runs_of_half_the_diagonal_and_one_more_match_the_reference() {
        let mut scratch = BitScratch::new();
        let mut rng = Rng::new(0x5EED_0021);
        for d in [2u8, 3, 17] {
            for k in [2usize, 3, 7, 8, 15, 16, 17, 33, 64, 65, 129, 200] {
                for run in [k / 2, k / 2 + 1] {
                    for start in [0, (k - run) / 2, k - run] {
                        let x: Vec<u8> = (0..k).map(|_| rng.below(d as usize) as u8).collect();
                        let mut y: Vec<u8> = x.iter().map(|&v| (v + 1) % d).collect();
                        y[start..start + run].copy_from_slice(&x[start..start + run]);
                        check_against_reference(d, &x, &y, &mut scratch);
                        check_against_reference(d, &y, &x, &mut scratch);
                    }
                }
            }
        }
    }

    /// Middle lanes on and beside a 64-bit word boundary, for every lane
    /// width: the main diagonal of `k = 2·w` lanes (`w` lanes per word) has
    /// its middle lane at bit 64, and runs through it cross the boundary
    /// in either direction or stop at it.
    #[test]
    fn middle_lanes_on_word_boundaries_match_the_reference() {
        let mut scratch = BitScratch::new();
        for d in [2u8, 3, 17] {
            let w = 64 / lane_bits(d);
            for k in [w - 1, w, w + 1, 2 * w - 1, 2 * w, 2 * w + 1, 4 * w] {
                for cut in [0, 1, w - 1, w, w + 1, k / 2, k / 2 + 1, k - 1] {
                    for len in [1, w / 2, w, 2 * w] {
                        // Equal everywhere except a break of `len` lanes
                        // from `cut`, which may cover the middle lane.
                        let x: Vec<u8> = (0..k).map(|i| (i % 2) as u8).collect();
                        let mut y = x.clone();
                        for v in y.iter_mut().skip(cut).take(len) {
                            *v = (*v + 1) % d;
                        }
                        check_against_reference(d, &x, &y, &mut scratch);
                        check_against_reference(d, &y, &x, &mut scratch);
                    }
                }
            }
        }
    }

    /// `kx ≠ ky` across the one-word / multi-word switch of every lane
    /// width, on random words with a planted common block.
    #[test]
    fn unequal_lengths_match_the_reference() {
        let mut scratch = BitScratch::new();
        let mut rng = Rng::new(0x5EED_0022);
        for d in [2u8, 3, 17] {
            let w = 64 / lane_bits(d);
            let sizes = [1, 2, w / 2, w - 1, w, w + 1, 2 * w + 3, 5 * w];
            for &kx in &sizes {
                for &ky in &sizes {
                    for _ in 0..4 {
                        let mut x: Vec<u8> = (0..kx).map(|_| rng.below(d as usize) as u8).collect();
                        let y: Vec<u8> = (0..ky).map(|_| rng.below(d as usize) as u8).collect();
                        let n = 1 + rng.below(kx.min(ky));
                        let (a, b) = (rng.below(kx - n + 1), rng.below(ky - n + 1));
                        x[a..a + n].copy_from_slice(&y[b..b + n]);
                        check_against_reference(d, &x, &y, &mut scratch);
                    }
                }
            }
        }
    }

    /// Eight digits per step, then the tail: every length up to 130 (two
    /// full words and a partial third at 1-bit lanes), with digits over
    /// the whole byte range, so bits above the lane are masked off too.
    #[test]
    fn pack_equals_the_per_digit_loop() {
        let mut rng = Rng::new(0x5EED_0024);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for lane in [1, 4, 8] {
            for len in 1..=130 {
                for _ in 0..4 {
                    let digits: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
                    pack(&digits, lane, &mut got);
                    reference::pack(&digits, lane, &mut want);
                    assert_eq!(got, want, "lane={lane} len={len} digits={digits:?}");
                }
            }
        }
    }

    /// Words of length `k` over radix `d` that agree on lanes `a..b` of
    /// the diagonal starting at `(c, 0)` and differ on the rest of it.
    /// `y`'s digits past the diagonal's end are 0, where `x`'s shifted
    /// word has shifted-in zeros, so a run that reaches the end is cut
    /// only by the one-`u64` path's `len − mid` clamp.
    fn planted_on_diagonal(
        rng: &mut Rng,
        d: u8,
        k: usize,
        c: usize,
        (a, b): (usize, usize),
    ) -> (Vec<u8>, Vec<u8>) {
        let x: Vec<u8> = (0..k).map(|_| rng.below(d as usize) as u8).collect();
        let len = k - c;
        let y = (0..k)
            .map(|q| match q {
                _ if q >= len => 0,
                _ if (a..b).contains(&q) => x[c + q],
                _ => (x[c + q] + 1) % d,
            })
            .collect();
        (x, y)
    }

    /// The one-`u64` path against the reference at every `k` whose words
    /// fit one `u64` at radix `d`: seeded pairs, and on three diagonals
    /// of either orientation runs through the middle lane, ending just
    /// below it, starting just above it, and reaching the diagonal's end.
    fn check_one_word_lengths(d: u8, seed: u64) {
        let mut scratch = BitScratch::new();
        let mut rng = Rng::new(seed);
        for k in 1..=64 / lane_bits(d) {
            for _ in 0..16 {
                let x: Vec<u8> = (0..k).map(|_| rng.below(d as usize) as u8).collect();
                let y: Vec<u8> = (0..k).map(|_| rng.below(d as usize) as u8).collect();
                check_against_reference(d, &x, &y, &mut scratch);
            }
            for c in [0, 1, k / 3].into_iter().filter(|&c| c < k) {
                let len = k - c;
                let mid = len / 2;
                let runs = [
                    (0, len),
                    (mid, mid + 1),
                    (mid.saturating_sub(len / 4), (mid + 1 + len / 4).min(len)),
                    (0, mid + 1),
                    (mid, len),
                    (mid.saturating_sub(len / 3), mid),
                    (mid + 1, len),
                    (mid + 1, (mid + 2 + len / 4).min(len)),
                ];
                for run in runs.into_iter().filter(|&(a, b)| a < b) {
                    let (x, y) = planted_on_diagonal(&mut rng, d, k, c, run);
                    check_against_reference(d, &x, &y, &mut scratch);
                    check_against_reference(d, &y, &x, &mut scratch);
                }
            }
        }
    }

    #[test]
    fn one_word_path_equals_reference_at_every_binary_k() {
        check_one_word_lengths(2, 0x5EED_0025);
    }

    #[test]
    fn one_word_path_equals_reference_at_every_one_word_k_on_wider_lanes() {
        for d in [3u8, 16, 17, 255] {
            check_one_word_lengths(d, 0x5EED_0026 ^ u64::from(d));
        }
    }
}
