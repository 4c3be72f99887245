//! Traffic balancing with wildcard routing steps (the paper's `*`).
//!
//! Shortest routes contain "don't care" digits: the paper observes that
//! letting forwarding nodes choose those digits freely balances traffic.
//! This example drives hotspot traffic through DN(2,7) and compares the
//! wildcard-resolution policies.
//!
//! Run with `cargo run --example load_balancing`.

use debruijn_suite::analysis::Table;
use debruijn_suite::core::DeBruijn;
use debruijn_suite::net::{
    workload, NextHopMode, RouterKind, ShardedSimulation, SimConfig, WildcardPolicy,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let space = DeBruijn::new(2, 7)?; // 128 nodes
    let hot = space.word_from_rank(85)?; // 1010101: a busy central node
    let traffic = workload::hotspot(space, 6_000, &hot, 0.35, 11);
    println!("DN(2,7), hotspot {} receives ~35% of 6000 messages\n", hot);

    let mut table = Table::new(
        [
            "policy",
            "max link load",
            "load std dev",
            "mean latency",
            "makespan",
        ]
        .map(String::from)
        .to_vec(),
    );
    for policy in WildcardPolicy::all() {
        let config = SimConfig {
            router: RouterKind::Algorithm2,
            policy,
            ..SimConfig::default()
        };
        // Every row forwards along source routes, so the zero policy is
        // compared on the same tier as the others.
        let sim = ShardedSimulation::new(space, config, 1)?.with_next_hop(NextHopMode::Fallback)?;
        let report = sim.run(&traffic);
        assert_eq!(report.delivered, traffic.len());
        let loads = report.link_load_summary();
        table.row(vec![
            policy.name().to_string(),
            loads.max.to_string(),
            format!("{:.3}", loads.std_dev),
            format!("{:.3}", report.mean_latency()),
            format!("{}", report.makespan),
        ]);
    }
    println!("{table}");
    println!("Route lengths are identical under every policy (the wildcards never");
    println!("change the hop count); only the load distribution moves.");
    Ok(())
}
