//! E7 — §3 remark: wildcard steps balance traffic.
//!
//! Shortest routes carry `(a,*)` steps whose digit the forwarding node
//! may choose freely. This experiment drives permutation and hotspot
//! traffic through DN(2,7) under each wildcard policy and reports the
//! link-load distribution and latency (see
//! `debruijn_bench::experiments`). Hop counts are identical across
//! policies by construction — only the load spread moves.

fn main() {
    println!("E7: wildcard-resolution policies and traffic balance\n");
    println!(
        "permutation: 40 bursty permutation rounds; hotspot: 40% of 8000 messages to one node"
    );
    println!("{}", debruijn_bench::experiments::wildcard_balancing());
    println!("Under bursty permutation traffic the balancing policies flatten the");
    println!("load (lower std and max) and shave latency, as §3 anticipates. Under");
    println!("hotspot traffic the bottleneck is the destination's own in-links,");
    println!("which no wildcard choice can move — the policies only smooth the");
    println!("spatial spread (std), confirming balancing helps where alternatives");
    println!("exist.");
}
