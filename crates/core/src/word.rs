//! Vertices of the de Bruijn graph: `d`-ary words of length `k`.
//!
//! A vertex `X = (x_1, …, x_k)` of `DG(d,k)` is the state of a `k`-stage
//! shift register over `d`-ary digits. The two register operations define
//! the edges of the graph:
//!
//! * the **left shift** `X⁻(a) = (x_2, …, x_k, a)` (type-L neighbor),
//! * the **right shift** `X⁺(a) = (a, x_1, …, x_{k−1})` (type-R neighbor).

use std::fmt;

use crate::error::Error;

/// A `d`-ary word of length `k ≥ 1`: a vertex of `DG(d,k)`.
///
/// Words are immutable; the shift operations return new words. Two words
/// compare equal iff they have the same radix and the same digits.
///
/// # Examples
///
/// ```
/// use debruijn_core::Word;
///
/// let x = Word::parse(2, "0110")?;
/// assert_eq!(x.shift_left(1).to_string(), "1101");
/// assert_eq!(x.shift_right(1).to_string(), "1011");
/// assert_eq!(x.rank(), 0b0110);
/// # Ok::<(), debruijn_core::Error>(())
/// ```
#[derive(Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Word {
    d: u8,
    digits: Vec<u8>,
}

impl Clone for Word {
    fn clone(&self) -> Self {
        Self {
            d: self.d,
            digits: self.digits.clone(),
        }
    }

    /// Copies `source` into this word's digit buffer, allocating only
    /// when the buffer is too small (the route cache's in-place key
    /// overwrite relies on this).
    fn clone_from(&mut self, source: &Self) {
        self.d = source.d;
        self.digits.clone_from(&source.digits);
    }
}

impl Word {
    /// Creates a word from its digits, most significant (leftmost, `x_1`)
    /// first.
    ///
    /// # Errors
    ///
    /// Returns an error if `d < 2`, if `digits` is empty, or if any digit
    /// is `>= d`.
    pub fn new(d: u8, digits: Vec<u8>) -> Result<Self, Error> {
        if d < 2 {
            return Err(Error::RadixTooSmall { d });
        }
        if digits.is_empty() {
            return Err(Error::LengthTooSmall);
        }
        if let Some((index, &digit)) = digits.iter().enumerate().find(|&(_, &digit)| digit >= d) {
            return Err(Error::DigitOutOfRange { digit, d, index });
        }
        Ok(Self { d, digits })
    }

    /// Creates the uniform word `(a, a, …, a)` of length `k`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Word::new`].
    pub fn uniform(d: u8, k: usize, a: u8) -> Result<Self, Error> {
        Self::new(d, vec![a; k])
    }

    /// Creates the word of length `k` whose digits are the radix-`d`
    /// representation of `rank` (most significant digit first).
    ///
    /// This is the inverse of [`Word::rank`]; it gives the canonical
    /// bijection `{0, …, d^k − 1} ↔ V(DG(d,k))` used by the explicit-graph
    /// crates.
    ///
    /// # Errors
    ///
    /// Returns an error if `d < 2`, `k < 1`, or `rank >= d^k`.
    pub fn from_rank(d: u8, k: usize, rank: u128) -> Result<Self, Error> {
        if d < 2 {
            return Err(Error::RadixTooSmall { d });
        }
        if k < 1 {
            return Err(Error::LengthTooSmall);
        }
        let mut digits = vec![0u8; k];
        let mut rest = rank;
        for slot in digits.iter_mut().rev() {
            *slot = (rest % u128::from(d)) as u8;
            rest /= u128::from(d);
        }
        if rest != 0 {
            return Err(Error::RankOutOfRange { rank, d, k });
        }
        Ok(Self { d, digits })
    }

    /// Parses a word from text.
    ///
    /// For radices up to 10 the format is one ASCII digit per symbol
    /// (`"0120"`); larger radices additionally accept digits separated by
    /// dots (`"11.3.0"`), which is also what [`Word`]'s `Display` produces
    /// for them.
    ///
    /// # Errors
    ///
    /// Returns an error on empty input, unparsable characters, or digits
    /// `>= d`.
    pub fn parse(d: u8, text: &str) -> Result<Self, Error> {
        let bytes = text.as_bytes();
        let mut digits = Vec::with_capacity(bytes.len());
        // The first digit at or above the radix: reported only once every
        // byte is known to be a digit.
        let mut out_of_range = None;
        for (index, &b) in bytes.iter().enumerate() {
            if !b.is_ascii_digit() {
                // A dotted word numbers its digits by part, not by byte.
                if bytes[index..].contains(&b'.') {
                    return Self::parse_dotted(d, text);
                }
                return Err(Error::ParseDigit { index });
            }
            let digit = b - b'0';
            if digit >= d && out_of_range.is_none() {
                out_of_range = Some((index, digit));
            }
            digits.push(digit);
        }
        Self::from_parsed(d, digits, out_of_range)
    }

    /// [`Word::parse`] for text containing a `.`: one `u8` per part.
    fn parse_dotted(d: u8, text: &str) -> Result<Self, Error> {
        let parts = text.bytes().filter(|&b| b == b'.').count() + 1;
        let mut digits = Vec::with_capacity(parts);
        let mut out_of_range = None;
        for (index, part) in text.split('.').enumerate() {
            let digit = part
                .parse::<u8>()
                .map_err(|_| Error::ParseDigit { index })?;
            if digit >= d && out_of_range.is_none() {
                out_of_range = Some((index, digit));
            }
            digits.push(digit);
        }
        Self::from_parsed(d, digits, out_of_range)
    }

    /// The checks [`Word::new`] makes, in its order, on digits whose
    /// first out-of-range entry the parser already found.
    fn from_parsed(
        d: u8,
        digits: Vec<u8>,
        out_of_range: Option<(usize, u8)>,
    ) -> Result<Self, Error> {
        if digits.is_empty() {
            return Err(Error::ParseEmpty);
        }
        if d < 2 {
            return Err(Error::RadixTooSmall { d });
        }
        if let Some((index, digit)) = out_of_range {
            return Err(Error::DigitOutOfRange { digit, d, index });
        }
        Ok(Self { d, digits })
    }

    /// The digit radix `d`.
    pub fn radix(&self) -> u8 {
        self.d
    }

    /// The word length `k`.
    pub fn len(&self) -> usize {
        self.digits.len()
    }

    /// Always `false`: words have length at least 1. Provided for API
    /// completeness alongside [`Word::len`].
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The digits, leftmost (`x_1`) first.
    pub fn digits(&self) -> &[u8] {
        &self.digits
    }

    /// The paper's 1-indexed digit accessor: `x(1) = x_1`, …, `x(k) = x_k`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is `0` or greater than `k`.
    pub fn digit_1idx(&self, i: usize) -> u8 {
        assert!(
            i >= 1 && i <= self.len(),
            "1-indexed digit {i} out of range"
        );
        self.digits[i - 1]
    }

    /// The rank of this word: its digits read as a radix-`d` number.
    ///
    /// Inverse of [`Word::from_rank`]. Words of length up to 128 binary
    /// digits (and correspondingly fewer for larger `d`) fit; beyond that
    /// the rank arithmetic would overflow.
    ///
    /// # Panics
    ///
    /// Panics if `d^k` overflows `u128`.
    pub fn rank(&self) -> u128 {
        let mut rank: u128 = 0;
        for &digit in &self.digits {
            rank = rank
                .checked_mul(u128::from(self.d))
                .and_then(|r| r.checked_add(u128::from(digit)))
                .expect("word rank overflows u128");
        }
        rank
    }

    /// The left shift `X⁻(a) = (x_2, …, x_k, a)` — the type-L neighbor.
    ///
    /// # Panics
    ///
    /// Panics if `a >= d`.
    pub fn shift_left(&self, a: u8) -> Word {
        assert!(a < self.d, "shift digit {a} not below radix {}", self.d);
        let mut digits = Vec::with_capacity(self.digits.len());
        digits.extend_from_slice(&self.digits[1..]);
        digits.push(a);
        Word { d: self.d, digits }
    }

    /// The right shift `X⁺(a) = (a, x_1, …, x_{k−1})` — the type-R
    /// neighbor.
    ///
    /// # Panics
    ///
    /// Panics if `a >= d`.
    pub fn shift_right(&self, a: u8) -> Word {
        assert!(a < self.d, "shift digit {a} not below radix {}", self.d);
        let mut digits = Vec::with_capacity(self.digits.len());
        digits.push(a);
        digits.extend_from_slice(&self.digits[..self.digits.len() - 1]);
        Word { d: self.d, digits }
    }

    /// The reversal `X̄ = (x_k, …, x_1)`.
    ///
    /// Used by the `r`-family matching functions through the identity
    /// `r_{i,j}(X,Y) = l_{k+1−i,k+1−j}(X̄,Ȳ)`.
    pub fn reversed(&self) -> Word {
        let mut digits = self.digits.clone();
        digits.reverse();
        Word { d: self.d, digits }
    }

    /// Whether `other` lives in the same `DG(d,k)` (same radix and
    /// length).
    pub fn same_space(&self, other: &Word) -> bool {
        self.d == other.d && self.len() == other.len()
    }

    /// Digits widened to `u32`, for the suffix-tree engines.
    pub fn digits_u32(&self) -> Vec<u32> {
        self.digits.iter().map(|&b| u32::from(b)).collect()
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.d <= 10 {
            for &digit in &self.digits {
                write!(f, "{digit}")?;
            }
        } else {
            for (i, &digit) in self.digits.iter().enumerate() {
                if i > 0 {
                    write!(f, ".")?;
                }
                write!(f, "{digit}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_digits() {
        assert!(Word::new(2, vec![0, 1, 0]).is_ok());
        assert_eq!(
            Word::new(2, vec![0, 2, 0]),
            Err(Error::DigitOutOfRange {
                digit: 2,
                d: 2,
                index: 1
            })
        );
        assert_eq!(Word::new(1, vec![0]), Err(Error::RadixTooSmall { d: 1 }));
        assert_eq!(Word::new(2, vec![]), Err(Error::LengthTooSmall));
    }

    #[test]
    fn shifts_match_paper_definitions() {
        let x = Word::new(3, vec![0, 1, 2]).unwrap();
        assert_eq!(x.shift_left(2).digits(), &[1, 2, 2]);
        assert_eq!(x.shift_right(1).digits(), &[1, 0, 1]);
    }

    #[test]
    fn left_then_right_shift_restores_with_original_digit() {
        let x = Word::new(2, vec![1, 0, 1, 1]).unwrap();
        for a in 0..2 {
            let y = x.shift_left(a).shift_right(x.digits()[0]);
            assert_eq!(y, x, "a={a}");
        }
    }

    #[test]
    fn right_then_left_shift_restores_with_original_digit() {
        let x = Word::new(2, vec![1, 0, 1, 1]).unwrap();
        for a in 0..2 {
            let last = *x.digits().last().unwrap();
            assert_eq!(x.shift_right(a).shift_left(last), x, "a={a}");
        }
    }

    #[test]
    #[should_panic(expected = "not below radix")]
    fn shift_rejects_oversized_digit() {
        Word::new(2, vec![0, 1]).unwrap().shift_left(2);
    }

    #[test]
    fn rank_round_trips() {
        for d in [2u8, 3, 5] {
            let k = 4usize;
            let n = u128::from(d).pow(k as u32);
            for rank in 0..n {
                let w = Word::from_rank(d, k, rank).unwrap();
                assert_eq!(w.rank(), rank, "d={d} rank={rank}");
                assert_eq!(w.len(), k);
            }
        }
    }

    #[test]
    fn from_rank_rejects_out_of_range() {
        assert_eq!(
            Word::from_rank(2, 3, 8),
            Err(Error::RankOutOfRange {
                rank: 8,
                d: 2,
                k: 3
            })
        );
        assert!(Word::from_rank(2, 3, 7).is_ok());
    }

    #[test]
    fn parse_and_display_round_trip_small_radix() {
        let w = Word::parse(4, "0312").unwrap();
        assert_eq!(w.digits(), &[0, 3, 1, 2]);
        assert_eq!(w.to_string(), "0312");
    }

    #[test]
    fn parse_and_display_round_trip_large_radix() {
        let w = Word::parse(16, "11.3.0.15").unwrap();
        assert_eq!(w.digits(), &[11, 3, 0, 15]);
        assert_eq!(w.to_string(), "11.3.0.15");
        let again = Word::parse(16, &w.to_string()).unwrap();
        assert_eq!(again, w);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert_eq!(Word::parse(2, ""), Err(Error::ParseEmpty));
        assert_eq!(Word::parse(2, "01a"), Err(Error::ParseDigit { index: 2 }));
        assert_eq!(
            Word::parse(2, "012"),
            Err(Error::DigitOutOfRange {
                digit: 2,
                d: 2,
                index: 2
            })
        );
        assert_eq!(
            Word::parse(16, "1.x.2"),
            Err(Error::ParseDigit { index: 1 })
        );
    }

    /// The two-pass parser `Word::parse` replaced: collect every digit,
    /// then validate them with `Word::new`.
    fn parse_reference(d: u8, text: &str) -> Result<Word, Error> {
        let digits: Result<Vec<u8>, Error> = if text.contains('.') {
            text.split('.')
                .enumerate()
                .map(|(index, part)| part.parse::<u8>().map_err(|_| Error::ParseDigit { index }))
                .collect()
        } else {
            text.bytes()
                .enumerate()
                .map(|(index, b)| {
                    if b.is_ascii_digit() {
                        Ok(b - b'0')
                    } else {
                        Err(Error::ParseDigit { index })
                    }
                })
                .collect()
        };
        let digits = digits?;
        if digits.is_empty() {
            return Err(Error::ParseEmpty);
        }
        Word::new(d, digits)
    }

    #[test]
    fn one_pass_parse_matches_the_reference_for_every_radix() {
        use crate::rng::SplitMix64;
        let alphabet: [&str; 14] = [
            "0", "1", "2", "5", "9", ".", ".", "+", "-", "a", " ", "25", "300", "é",
        ];
        let mut rng = SplitMix64::new(0x9A55);
        for d in 0..=255u8 {
            for _ in 0..200 {
                let len = rng.below_usize(12);
                let text: String = (0..len)
                    .map(|_| alphabet[rng.below_usize(alphabet.len())])
                    .collect();
                assert_eq!(
                    Word::parse(d, &text),
                    parse_reference(d, &text),
                    "d={d} {text:?}"
                );
            }
            for _ in 0..50 {
                let bytes: Vec<u8> = (0..rng.below_usize(12))
                    .map(|_| rng.below_usize(256) as u8)
                    .collect();
                let text = String::from_utf8_lossy(&bytes);
                assert_eq!(
                    Word::parse(d, &text),
                    parse_reference(d, &text),
                    "d={d} {text:?}"
                );
            }
            let digits: String = (0..64).map(|_| (b'0' + rng.digit(10)) as char).collect();
            assert_eq!(
                Word::parse(d, &digits),
                parse_reference(d, &digits),
                "d={d}"
            );
        }
    }

    #[test]
    fn clone_from_reuses_the_digit_buffer() {
        let source = Word::parse(3, "0120").unwrap();
        let mut target = Word::parse(2, "01101").unwrap();
        let before = target.digits().as_ptr();
        target.clone_from(&source);
        assert_eq!(target, source);
        assert_eq!(target.digits().as_ptr(), before);
    }

    #[test]
    fn reversal_is_involutive() {
        let w = Word::parse(3, "01202").unwrap();
        assert_eq!(w.reversed().reversed(), w);
        assert_eq!(w.reversed().digits(), &[2, 0, 2, 1, 0]);
    }

    #[test]
    fn digit_1idx_matches_paper_indexing() {
        let w = Word::parse(2, "011").unwrap();
        assert_eq!(w.digit_1idx(1), 0);
        assert_eq!(w.digit_1idx(3), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn digit_1idx_rejects_zero() {
        Word::parse(2, "011").unwrap().digit_1idx(0);
    }

    #[test]
    fn same_space_requires_matching_radix_and_length() {
        let a = Word::parse(2, "01").unwrap();
        let b = Word::parse(2, "011").unwrap();
        let c = Word::parse(3, "01").unwrap();
        assert!(!a.same_space(&b));
        assert!(!a.same_space(&c));
        assert!(a.same_space(&a.clone()));
    }

    #[test]
    fn uniform_builds_constant_words() {
        let w = Word::uniform(3, 4, 2).unwrap();
        assert_eq!(w.digits(), &[2, 2, 2, 2]);
        assert!(Word::uniform(3, 4, 3).is_err());
    }
}
