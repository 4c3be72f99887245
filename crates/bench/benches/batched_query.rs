//! Scalar-loop vs destination-major batched distance evaluation.
//!
//! The batched kernel (`debruijn_core::distance_batch_into`) groups a
//! batch by destination and amortizes the per-destination preprocessing
//! — the failure function for directed queries, the suffix-automaton
//! family scan for undirected ones — across every source aimed at the
//! same sink. This bench measures ns per query for both paths on:
//!
//! * `skew` batches — destinations drawn Zipf-style from a 16-word hot
//!   pool (convergecast-like traffic, the kernel's design target);
//! * `uniform` batches — every destination distinct, where grouping
//!   finds nothing to amortize and the kernel falls through to the
//!   scalar engines (reported to keep the fall-through cost honest).
//!
//! With `--json`, prints one machine-readable line (see
//! [`debruijn_bench::JsonReport`]) instead of the table; `bench.sh`
//! collects those lines into `BENCH_results.json`.
//!
//! Gating: `bench.sh --check` hands the JSON line to `bench_check`,
//! which fails any series more than 30% above its checked-in
//! `BENCH_results.json` point, among them the batched kernel's absolute
//! ns per query on the undirected skewed batches at each `k`
//! (`batched_undirected_skew`). The bench gates no ratio of its own:
//! a faster scalar engine must not fail the batched kernel.

use debruijn_bench::{json_mode, median_nanos_per_call, random_pairs, random_word, JsonReport};
use debruijn_core::distance::directed;
use debruijn_core::distance::undirected::{distance_with, Engine};
use debruijn_core::rng::SplitMix64;
use debruijn_core::{distance_batch_into, BatchScratch, Word};
use std::hint::black_box;

const BATCH: usize = 1024;
const HOT_DESTINATIONS: usize = 16;
const ZIPF_EXPONENT: f64 = 1.0;
const REPS: usize = 5;

/// A destination-skewed batch: uniform random sources, destinations
/// drawn from a `HOT_DESTINATIONS`-word pool with Zipf weight
/// `1/(rank+1)^s` — the convergecast-like traffic shape the
/// destination-major kernel is built for.
fn skewed_pairs(d: u8, k: usize, seed: u64) -> Vec<(Word, Word)> {
    let pool: Vec<Word> = (0..HOT_DESTINATIONS)
        .map(|i| random_word(d, k, seed ^ (0xD000 + i as u64)))
        .collect();
    let mut cumulative = Vec::with_capacity(pool.len());
    let mut total = 0.0f64;
    for rank in 0..pool.len() {
        total += 1.0 / ((rank + 1) as f64).powf(ZIPF_EXPONENT);
        cumulative.push(total);
    }
    let mut rng = SplitMix64::new(seed);
    (0..BATCH)
        .map(|i| {
            let x = random_word(d, k, seed ^ (0x5000_0000 + i as u64));
            let u = rng.next_f64() * total;
            let j = cumulative.partition_point(|&c| c <= u).min(pool.len() - 1);
            (x, pool[j].clone())
        })
        .collect()
}

/// Median ns per query of the per-pair scalar loop.
fn time_scalar(pairs: &[(Word, Word)], directed: bool) -> f64 {
    median_nanos_per_call(
        || {
            for (x, y) in pairs {
                let dist = if directed {
                    directed::distance(x, y)
                } else {
                    distance_with(Engine::Auto, x, y)
                };
                black_box(dist);
            }
        },
        1,
        REPS,
    ) / pairs.len() as f64
}

/// Median ns per query of one `distance_batch_into` call over the whole
/// batch, with scratch and output buffers reused across calls.
fn time_batched(pairs: &[(Word, Word)], directed: bool) -> f64 {
    let mut scratch = BatchScratch::new();
    let mut out = Vec::new();
    median_nanos_per_call(
        || {
            distance_batch_into(pairs, directed, Engine::Auto, &mut scratch, &mut out);
            black_box(out.last().copied());
        },
        1,
        REPS,
    ) / pairs.len() as f64
}

fn main() {
    let json = json_mode();
    let mut report = JsonReport::new("batched_query", "ns_per_query");

    if !json {
        println!(
            "batched query kernel: ns per distance query, batches of {BATCH} \
             (median of {REPS} runs)\n"
        );
        println!(
            "{:>6} {:>9} {:>8} {:>14} {:>14} {:>9}",
            "k", "shape", "graph", "scalar", "batched", "speedup"
        );
    }

    for k in [64usize, 128] {
        let skew = skewed_pairs(2, k, 0xBA7C ^ k as u64);
        let uniform = random_pairs(2, k, BATCH, 0x0114 ^ k as u64);
        for (shape, pairs) in [("skew", &skew), ("uniform", &uniform)] {
            for directed_graph in [true, false] {
                let graph = if directed_graph {
                    "directed"
                } else {
                    "undirected"
                };
                let scalar = time_scalar(pairs, directed_graph);
                let batched = time_batched(pairs, directed_graph);
                let speedup = scalar / batched;
                report.push(&format!("scalar_{graph}_{shape}"), k, scalar);
                report.push(&format!("batched_{graph}_{shape}"), k, batched);
                if !json {
                    println!(
                        "{k:>6} {shape:>9} {graph:>8} {scalar:>14.0} {batched:>14.0} \
                         {speedup:>8.1}x"
                    );
                }
            }
        }
    }

    if json {
        println!("{}", report.render());
    } else {
        println!("\nSkewed batches amortize one destination preprocessing across many");
        println!("sources; uniform batches fall through to the scalar engines, so");
        println!("their two columns should track each other.");
    }
}
