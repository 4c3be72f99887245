//! Timings of the four Theorem-2 distance engines.
//!
//! With `--json`, prints one machine-readable line (see
//! [`debruijn_bench::JsonReport`]) instead of the table; `bench.sh`
//! collects those lines into `BENCH_results.json`.
//!
//! The quadratic engines are gated by size so the sweep stays fast: the
//! `O(k³)` naive scan stops at k = 32, the `O(k²)` Morris–Pratt engine
//! at k = 512. k = 64 is the size of the end-to-end benchmark's words.
//! The rows from k = 512 up, for radix 2 and for the radixes 16, 17 and
//! 255 that pack digits into 4- and 8-bit lanes, place the
//! `Engine::Auto` crossover (`AUTO_BITPARALLEL_MAX_LANE_BITS`) where the
//! `O(k)` suffix tree overtakes the bit-parallel sweep.
//!
//! The `bitparallel_one_word_d*` rows time the sweep's one-`u64` path
//! at every lane width (d=2 at k=64, d=3 and 16 at k=16, d=17 and 255 at
//! k=8) over 256 distinct pairs: on 8 pairs replayed, a branch predictor
//! learns the outcomes of each diagonal's tests.
//!
//! On random words the sweep reads `O(k)` words per pair. Words whose
//! middle runs are long but never improve a minimum keep it at its
//! `O(k²·lane/64)` worst case; the `bitparallel_long_middle_runs` rows
//! time one such pair, `0^k` against `0^(k/2) 1 0^(k/2 − 1)`.

use debruijn_bench::{json_mode, median_nanos_per_call, random_pairs, JsonReport};
use debruijn_core::distance::directed;
use debruijn_core::distance::undirected::{distance_with, Engine};
use debruijn_core::Word;
use std::hint::black_box;

/// Median ns per pair of `engine` over `pairs`.
fn time_engine(engine: Engine, pairs: &[(Word, Word)]) -> f64 {
    let k = pairs[0].0.len();
    median_nanos_per_call(
        || {
            for (x, y) in pairs {
                black_box(distance_with(engine, x, y));
            }
        },
        (4096 / k).max(1),
        5,
    ) / pairs.len() as f64
}

fn main() {
    let json = json_mode();
    let mut report = JsonReport::new("distance_engines", "ns_per_pair");
    if !json {
        println!("distance engines, radix 2: ns per pair (median of 5 batches)\n");
        println!(
            "{:>6} {:>12} {:>14} {:>13} {:>13} {:>12}",
            "k", "directed", "morris_pratt", "suffix_tree", "bitparallel", "naive"
        );
    }
    for k in [8usize, 32, 64, 128, 512, 1024, 2048, 4096, 8192] {
        let pairs = random_pairs(2, k, 8, 0xD15);
        let dir = median_nanos_per_call(
            || {
                for (x, y) in &pairs {
                    black_box(directed::distance(black_box(x), black_box(y)));
                }
            },
            (4096 / k).max(1),
            5,
        ) / pairs.len() as f64;
        let mp = (k <= 512).then(|| time_engine(Engine::MorrisPratt, &pairs));
        let st = time_engine(Engine::SuffixTree, &pairs);
        let bp = time_engine(Engine::BitParallel, &pairs);
        let naive = (k <= 32).then(|| time_engine(Engine::Naive, &pairs));
        report.push("directed", k, dir);
        if let Some(mp) = mp {
            report.push("morris_pratt", k, mp);
        }
        report.push("suffix_tree", k, st);
        report.push("bitparallel", k, bp);
        if let Some(n) = naive {
            report.push("naive", k, n);
        }
        if !json {
            let mp = mp.map_or("-".into(), |v| format!("{v:.0}"));
            let naive = naive.map_or("-".into(), |n| format!("{n:.0}"));
            println!("{k:>6} {dir:>12.0} {mp:>14} {st:>13.0} {bp:>13.0} {naive:>12}");
        }
    }
    if !json {
        println!("\nradix 2, 0^k vs 0^(k/2) 1 0^(k/2-1): ns per pair\n");
        println!("{:>6} {:>13}", "k", "bitparallel");
    }
    for k in [512usize, 2048, 8192] {
        let mut y = vec![0; k];
        y[k / 2] = 1;
        let pairs = [(Word::new(2, vec![0; k]).unwrap(), Word::new(2, y).unwrap())];
        let bp = time_engine(Engine::BitParallel, &pairs);
        report.push("bitparallel_long_middle_runs", k, bp);
        if !json {
            println!("{k:>6} {bp:>13.0}");
        }
    }
    // Radix 16 packs 4-bit lanes, radixes 17 and 255 (the narrowest and
    // widest alphabets on them) 8-bit lanes, so the sweep does 4× and 8×
    // the word work of radix 2 at the same k.
    for d in [16u8, 17, 255] {
        if !json {
            println!("\nradix {d}: ns per pair\n");
            println!("{:>6} {:>13} {:>13}", "k", "suffix_tree", "bitparallel");
        }
        for k in [512usize, 1024, 2048, 4096] {
            let pairs = random_pairs(d, k, 8, 0xD15);
            let st = time_engine(Engine::SuffixTree, &pairs);
            let bp = time_engine(Engine::BitParallel, &pairs);
            report.push(&format!("suffix_tree_d{d}"), k, st);
            report.push(&format!("bitparallel_d{d}"), k, bp);
            if !json {
                println!("{k:>6} {st:>13.0} {bp:>13.0}");
            }
        }
    }
    // Words that fit one `u64` at every lane width (k·lane_bits ≤ 64),
    // where the sweep takes its one-word path. 256 distinct pairs, since
    // a branch predictor can learn the outcomes of 8 replayed ones.
    if !json {
        println!("\none-word words, 256 pairs: ns per pair\n");
        println!("{:>4} {:>6} {:>13}", "d", "k", "bitparallel");
    }
    for (d, k) in [(2u8, 64usize), (3, 16), (16, 16), (17, 8), (255, 8)] {
        let pairs = random_pairs(d, k, 256, 0xD15);
        let bp = time_engine(Engine::BitParallel, &pairs);
        report.push(&format!("bitparallel_one_word_d{d}"), k, bp);
        if !json {
            println!("{d:>4} {k:>6} {bp:>13.0}");
        }
    }
    if json {
        println!("{}", report.render());
    } else {
        println!("\nThe word-parallel diagonal sweep (bitparallel) beats the O(k) suffix");
        println!("tree while k times the lane width (1, 4 or 8 bits) is at most 8192,");
        println!("where Engine::Auto switches. The O(k^2) Morris-Pratt and O(k^3)");
        println!("naive engines are for validation.");
    }
}
