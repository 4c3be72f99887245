//! Routing-path representation: the paper's `(a, b)` step pairs.
//!
//! §3 of the paper encodes a path of length `n` as `2n` digits
//! `a₁b₁a₂b₂…aₙbₙ`: `aᵢ` selects the neighbor *type* (0 = type-L, a left
//! shift; 1 = type-R, a right shift) and `bᵢ` the inserted digit. The
//! paper further proposes a wildcard digit `*` meaning "any neighbor of
//! this type", which lets forwarding nodes balance traffic; [`Digit::Any`]
//! models it.

use std::fmt;

use crate::error::Error;
use crate::word::Word;

/// The neighbor type of one routing step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftKind {
    /// Type-L: move to `X⁻(b)` (paper's `a = 0`).
    Left,
    /// Type-R: move to `X⁺(b)` (paper's `a = 1`).
    Right,
}

/// The digit of one routing step: a concrete digit or the wildcard `*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Digit {
    /// Insert exactly this digit.
    Exact(u8),
    /// The paper's `*`: the forwarding node may insert any digit, e.g. to
    /// balance traffic across the `d` neighbors of the requested type.
    Any,
}

/// One hop of a routing path: `(a, b)` in the paper's encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Step {
    /// Which shift to take.
    pub shift: ShiftKind,
    /// Which digit to insert.
    pub digit: Digit,
}

impl Step {
    /// A left shift inserting `b` — the pair `(0, b)`.
    pub fn left(b: u8) -> Self {
        Step {
            shift: ShiftKind::Left,
            digit: Digit::Exact(b),
        }
    }

    /// A right shift inserting `b` — the pair `(1, b)`.
    pub fn right(b: u8) -> Self {
        Step {
            shift: ShiftKind::Right,
            digit: Digit::Exact(b),
        }
    }

    /// A left shift with a free digit — the pair `(0, *)`.
    pub fn left_any() -> Self {
        Step {
            shift: ShiftKind::Left,
            digit: Digit::Any,
        }
    }

    /// A right shift with a free digit — the pair `(1, *)`.
    pub fn right_any() -> Self {
        Step {
            shift: ShiftKind::Right,
            digit: Digit::Any,
        }
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = match self.shift {
            ShiftKind::Left => 0,
            ShiftKind::Right => 1,
        };
        match self.digit {
            Digit::Exact(b) => write!(f, "({a},{b})"),
            Digit::Any => write!(f, "({a},*)"),
        }
    }
}

/// A routing path: the sequence of `(a, b)` pairs a message carries.
///
/// Paths produced by the routing algorithms are *resolution independent*:
/// they reach the destination no matter which digits the forwarding nodes
/// substitute for the wildcards (the free digits are pushed out of the
/// register before arrival). [`RoutePath::leads_to`] verifies this
/// property symbolically.
///
/// # Examples
///
/// ```
/// use debruijn_core::{RoutePath, Step, Word};
///
/// let x = Word::parse(2, "000")?;
/// let path = RoutePath::new(vec![Step::left(1), Step::left(1)]);
/// assert_eq!(path.apply(&x).to_string(), "011");
/// assert_eq!(path.to_string(), "(0,1)(0,1)");
/// # Ok::<(), debruijn_core::Error>(())
/// ```
#[derive(Debug, PartialEq, Eq, Hash, Default)]
pub struct RoutePath {
    steps: Vec<Step>,
}

impl Clone for RoutePath {
    fn clone(&self) -> Self {
        Self {
            steps: self.steps.clone(),
        }
    }

    /// Copies `source` into this path's step buffer, allocating only
    /// when the buffer is too small.
    fn clone_from(&mut self, source: &Self) {
        self.steps.clone_from(&source.steps);
    }
}

impl RoutePath {
    /// Creates a path from explicit steps.
    pub fn new(steps: Vec<Step>) -> Self {
        Self { steps }
    }

    /// The empty path (source equals destination).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Clears the path in place, keeping its allocation — the reuse hook
    /// for the `*_into` routing variants.
    pub fn clear(&mut self) {
        self.steps.clear();
    }

    /// Mutable access to the backing step vector, for in-place rebuilds.
    pub(crate) fn steps_vec_mut(&mut self) -> &mut Vec<Step> {
        &mut self.steps
    }

    /// Number of hops.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the path has no hops.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The steps in order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Iterates over the steps.
    pub fn iter(&self) -> std::slice::Iter<'_, Step> {
        self.steps.iter()
    }

    /// Number of wildcard (`*`) steps.
    pub fn wildcard_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s.digit, Digit::Any))
            .count()
    }

    /// Applies the path to `from`, resolving each wildcard with
    /// `resolve(current word, shift kind)`.
    ///
    /// # Panics
    ///
    /// Panics if any digit (exact or resolved) is not below the radix of
    /// `from`.
    pub fn apply_with<F>(&self, from: &Word, mut resolve: F) -> Word
    where
        F: FnMut(&Word, ShiftKind) -> u8,
    {
        let mut w = from.clone();
        for step in &self.steps {
            let b = match step.digit {
                Digit::Exact(b) => b,
                Digit::Any => resolve(&w, step.shift),
            };
            w = match step.shift {
                ShiftKind::Left => w.shift_left(b),
                ShiftKind::Right => w.shift_right(b),
            };
        }
        w
    }

    /// Applies the path resolving every wildcard to digit `0`.
    ///
    /// # Panics
    ///
    /// Panics if any exact digit is not below the radix of `from`.
    pub fn apply(&self, from: &Word) -> Word {
        self.apply_with(from, |_, _| 0)
    }

    /// Whether this path provably leads from `x` to `y` under **every**
    /// wildcard resolution.
    ///
    /// The check is symbolic: wildcards are propagated as unknowns through
    /// the shift register; the path is accepted only if all unknowns are
    /// pushed out and the remaining digits equal `y` exactly.
    pub fn leads_to(&self, x: &Word, y: &Word) -> bool {
        if !x.same_space(y) {
            return false;
        }
        let k = x.len();
        let mut reg: Vec<Option<u8>> = x.digits().iter().map(|&b| Some(b)).collect();
        for step in &self.steps {
            let incoming = match step.digit {
                Digit::Exact(b) => {
                    if b >= x.radix() {
                        return false;
                    }
                    Some(b)
                }
                Digit::Any => None,
            };
            match step.shift {
                ShiftKind::Left => {
                    reg.remove(0);
                    reg.push(incoming);
                }
                ShiftKind::Right => {
                    reg.pop();
                    reg.insert(0, incoming);
                }
            }
        }
        debug_assert_eq!(reg.len(), k);
        reg.iter()
            .zip(y.digits())
            .all(|(slot, &want)| *slot == Some(want))
    }

    /// Reconstructs a routing path from an explicit walk of adjacent
    /// words `w₀, w₁, …, wₙ`, or `None` if some consecutive pair is not
    /// connected by a shift.
    ///
    /// When a hop is both a left and a right shift (the two-cycle pairs
    /// like `0101 ↔ 1010`), the left shift is chosen. Used to convert BFS
    /// walks (e.g. fault-avoiding reroutes) into the wire format.
    pub fn from_word_walk(walk: &[Word]) -> Option<Self> {
        let mut steps = Vec::with_capacity(walk.len().saturating_sub(1));
        for pair in walk.windows(2) {
            let (v, w) = (&pair[0], &pair[1]);
            if !v.same_space(w) {
                return None;
            }
            let b_left = *w.digits().last().expect("k >= 1");
            if &v.shift_left(b_left) == w {
                steps.push(Step::left(b_left));
                continue;
            }
            let b_right = w.digits()[0];
            if &v.shift_right(b_right) == w {
                steps.push(Step::right(b_right));
                continue;
            }
            return None;
        }
        Some(Self { steps })
    }

    /// Serializes the path as the paper's flat digit string
    /// `a₁ b₁ a₂ b₂ …`, encoding the wildcard as the (out-of-range) value
    /// `d`. This is the wire format carried in a message's routing-path
    /// field.
    pub fn encode(&self, d: u8) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 * self.steps.len());
        for step in &self.steps {
            out.push(match step.shift {
                ShiftKind::Left => 0,
                ShiftKind::Right => 1,
            });
            out.push(match step.digit {
                Digit::Exact(b) => {
                    debug_assert!(b < d);
                    b
                }
                Digit::Any => d,
            });
        }
        out
    }

    /// Parses the wire format produced by [`RoutePath::encode`].
    ///
    /// # Errors
    ///
    /// Returns an error on odd length, a type digit other than 0/1, or a
    /// digit above `d` (the value `d` itself decodes to the wildcard).
    pub fn decode(d: u8, bytes: &[u8]) -> Result<Self, Error> {
        if !bytes.len().is_multiple_of(2) {
            return Err(Error::MalformedRoute {
                reason: "odd digit count",
            });
        }
        let mut steps = Vec::with_capacity(bytes.len() / 2);
        for pair in bytes.chunks_exact(2) {
            let shift = match pair[0] {
                0 => ShiftKind::Left,
                1 => ShiftKind::Right,
                _ => {
                    return Err(Error::MalformedRoute {
                        reason: "shift type not 0/1",
                    })
                }
            };
            let digit = match pair[1] {
                b if b < d => Digit::Exact(b),
                b if b == d => Digit::Any,
                _ => {
                    return Err(Error::MalformedRoute {
                        reason: "digit above radix",
                    })
                }
            };
            steps.push(Step { shift, digit });
        }
        Ok(Self { steps })
    }
}

impl FromIterator<Step> for RoutePath {
    fn from_iter<I: IntoIterator<Item = Step>>(iter: I) -> Self {
        Self {
            steps: iter.into_iter().collect(),
        }
    }
}

impl Extend<Step> for RoutePath {
    fn extend<I: IntoIterator<Item = Step>>(&mut self, iter: I) {
        self.steps.extend(iter);
    }
}

impl<'a> IntoIterator for &'a RoutePath {
    type Item = &'a Step;
    type IntoIter = std::slice::Iter<'a, Step>;

    fn into_iter(self) -> Self::IntoIter {
        self.steps.iter()
    }
}

impl IntoIterator for RoutePath {
    type Item = Step;
    type IntoIter = std::vec::IntoIter<Step>;

    fn into_iter(self) -> Self::IntoIter {
        self.steps.into_iter()
    }
}

impl fmt::Display for RoutePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.steps.is_empty() {
            return write!(f, "(empty)");
        }
        for step in &self.steps {
            write!(f, "{step}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(s: &str) -> Word {
        Word::parse(2, s).unwrap()
    }

    #[test]
    fn apply_follows_shift_semantics() {
        let x = w("0110");
        let p = RoutePath::new(vec![Step::left(1), Step::right(0), Step::right(1)]);
        // 0110 -L1-> 1101 -R0-> 0110 -R1-> 1011
        assert_eq!(p.apply(&x), w("1011"));
    }

    #[test]
    fn empty_path_is_identity() {
        let x = w("0101");
        assert!(RoutePath::empty().leads_to(&x, &x));
        assert_eq!(RoutePath::empty().apply(&x), x);
    }

    #[test]
    fn leads_to_accepts_resolution_independent_wildcards() {
        // Two left-any steps followed by two exact left steps: the
        // wildcards are pushed out before arrival in DG(2,2).
        let x = Word::parse(2, "01").unwrap();
        let y = Word::parse(2, "10").unwrap();
        let p = RoutePath::new(vec![
            Step::left_any(),
            Step::left_any(),
            Step::left(1),
            Step::left(0),
        ]);
        assert!(p.leads_to(&x, &y));
    }

    #[test]
    fn leads_to_rejects_surviving_wildcards() {
        let x = w("0000");
        // The final wildcard stays in the register: not a guaranteed route.
        let p = RoutePath::new(vec![Step::left_any()]);
        let target = p.apply(&x);
        assert!(!p.leads_to(&x, &target));
    }

    #[test]
    fn leads_to_rejects_wrong_destination() {
        let x = w("0110");
        let p = RoutePath::new(vec![Step::left(1)]);
        assert!(p.leads_to(&x, &w("1101")));
        assert!(!p.leads_to(&x, &w("1100")));
    }

    #[test]
    fn leads_to_rejects_cross_space_pairs() {
        let p = RoutePath::empty();
        assert!(!p.leads_to(&w("01"), &Word::parse(3, "01").unwrap()));
    }

    #[test]
    fn leads_to_rejects_out_of_radix_digits() {
        let x = w("01");
        let p = RoutePath::new(vec![Step::left(7)]);
        assert!(!p.leads_to(&x, &w("11")));
        assert!(!p.leads_to(&x, &w("10")));
    }

    #[test]
    fn apply_with_resolver_sees_current_word() {
        let x = w("0011");
        let mut seen = Vec::new();
        let p = RoutePath::new(vec![Step::left_any(), Step::left_any()]);
        p.apply_with(&x, |cur, _| {
            seen.push(cur.to_string());
            1
        });
        assert_eq!(seen, vec!["0011", "0111"]);
    }

    #[test]
    fn encode_decode_round_trip() {
        let p = RoutePath::new(vec![
            Step::left(2),
            Step::right_any(),
            Step::right(0),
            Step::left_any(),
        ]);
        let bytes = p.encode(3);
        assert_eq!(bytes, vec![0, 2, 1, 3, 1, 0, 0, 3]);
        assert_eq!(RoutePath::decode(3, &bytes).unwrap(), p);
    }

    #[test]
    fn decode_rejects_malformed_input() {
        assert!(RoutePath::decode(2, &[0]).is_err());
        assert!(RoutePath::decode(2, &[2, 0]).is_err());
        assert!(RoutePath::decode(2, &[0, 3]).is_err());
        assert!(RoutePath::decode(2, &[0, 2]).unwrap().steps()[0].digit == Digit::Any);
    }

    #[test]
    fn display_matches_paper_notation() {
        let p = RoutePath::new(vec![Step::left(1), Step::right_any()]);
        assert_eq!(p.to_string(), "(0,1)(1,*)");
        assert_eq!(RoutePath::empty().to_string(), "(empty)");
    }

    #[test]
    fn collects_from_iterators() {
        let p: RoutePath = (0..3).map(|_| Step::left(0)).collect();
        assert_eq!(p.len(), 3);
        let mut q = RoutePath::empty();
        q.extend(p.clone());
        assert_eq!(q, p);
    }

    #[test]
    fn from_word_walk_reconstructs_shift_steps() {
        let a = w("0110");
        let b = a.shift_left(1); // 1101
        let c = b.shift_right(0); // 0110
        let walk = vec![a.clone(), b.clone(), c.clone()];
        let p = RoutePath::from_word_walk(&walk).expect("valid walk");
        assert_eq!(p.len(), 2);
        assert!(p.leads_to(&a, &c));
    }

    #[test]
    fn from_word_walk_rejects_non_adjacent_pairs() {
        let a = w("0000");
        let b = w("1111");
        assert_eq!(RoutePath::from_word_walk(&[a, b]), None);
    }

    #[test]
    fn from_word_walk_accepts_trivial_walks() {
        let a = w("0101");
        assert_eq!(RoutePath::from_word_walk(&[a]), Some(RoutePath::empty()));
        assert_eq!(RoutePath::from_word_walk(&[]), Some(RoutePath::empty()));
    }

    #[test]
    fn from_word_walk_prefers_left_on_ambiguous_hops() {
        // 0101 -> 1010 is both a left shift (insert 0) and a right shift
        // (insert 1).
        let a = w("0101");
        let b = w("1010");
        let p = RoutePath::from_word_walk(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(p.steps()[0], Step::left(0));
        assert!(p.leads_to(&a, &b));
    }

    #[test]
    fn wildcard_count_counts_only_any() {
        let p = RoutePath::new(vec![Step::left(0), Step::left_any(), Step::right_any()]);
        assert_eq!(p.wildcard_count(), 2);
    }
}
