//! Pattern-matching substrate for the de Bruijn routing reproduction.
//!
//! Liu's paper reduces optimal routing in de Bruijn networks to classical
//! pattern-matching problems and builds its algorithms on two substrates:
//!
//! * the **failure function** of Morris and Pratt (1970), generalized by the
//!   paper's Algorithm 3 to compute the *matching functions* `l_{i,j}`
//!   ([`failure`], [`algorithm3`], [`matching`]);
//! * **Weiner's prefix tree** (1973), i.e. the compact suffix tree, used by
//!   the paper's Algorithm 4 to find shortest bidirectional routes in time
//!   linear in the diameter ([`suffix_tree`], [`gst`]).
//!
//! This crate implements both from scratch, together with naive reference
//! implementations used for differential testing. It is independent of the
//! de Bruijn specifics: everything here works on plain symbol slices and is
//! reusable as a small, self-contained string-algorithms library.
//!
//! # Example
//!
//! ```
//! use debruijn_strings::{failure::failure_function, matching::l_table};
//!
//! let fail = failure_function(b"abab");
//! assert_eq!(fail, vec![0, 0, 1, 2]);
//!
//! // l[i][j] = longest substring of `x` starting at i (0-based) that equals
//! // a substring of `y` ending at j (0-based).
//! let l = l_table(b"abc", b"cab");
//! assert_eq!(l[0][2], 2); // "ab" starts at x[0] and ends at y[2]
//! ```

pub mod algorithm3;
pub mod bitmatch;
pub mod context;
pub mod failure;
pub mod gst;
pub mod matcher;
pub mod matching;
pub mod suffix_tree;
#[cfg(test)]
mod testgen;

pub use algorithm3::{algorithm3_row, algorithm3_row_into};
pub use bitmatch::{both_family_minima, BitScratch};
pub use context::DestinationContext;
pub use failure::failure_function;
pub use gst::{MatchMinimum, TwoStringTree};
pub use matcher::MpMatcher;
pub use matching::{
    l_table, l_table_naive, min_l_term, min_l_term_with_scratch, r_table, r_table_naive,
    MatchScratch, MatchTerm,
};
pub use suffix_tree::SuffixTree;
