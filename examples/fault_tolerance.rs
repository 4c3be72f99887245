//! Fault tolerance: de Bruijn networks survive d−1 node failures.
//!
//! Injects an increasing number of random faults into DN(3,4) (81 nodes,
//! d = 3) and compares naive forwarding (messages crossing a fault are
//! lost) against source rerouting over the surviving topology.
//!
//! Run with `cargo run --example fault_tolerance`.

use debruijn_suite::analysis::Table;
use debruijn_suite::core::{DeBruijn, Word};
use debruijn_suite::graph::{connectivity, DebruijnGraph};
use debruijn_suite::net::{workload, FaultHandling, NextHopMode, ShardedSimulation, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let space = DeBruijn::new(3, 4)?;
    let traffic = workload::uniform_random(space, 4_000, 7);
    println!(
        "DN(3,4): 81 nodes, d = 3 -> tolerates up to {} faults\n",
        space.d() - 1
    );

    let mut table = Table::new(
        [
            "faults",
            "handling",
            "delivered",
            "dropped",
            "delivery rate",
            "mean hops",
        ]
        .map(String::from)
        .to_vec(),
    );

    // A fixed, reproducible fault set (avoid rank 0 so sources survive).
    let fault_pool: Vec<Word> = [7u128, 23, 48, 61]
        .iter()
        .map(|&r| space.word_from_rank(r).expect("rank in range"))
        .collect();

    let graph = DebruijnGraph::undirected(space)?;
    for n_faults in 0..=fault_pool.len() {
        let faults = fault_pool[..n_faults].to_vec();
        let fault_ids: Vec<u32> = faults.iter().map(|f| graph.rank_of(f)).collect();
        let components = connectivity::components_after_faults(&graph, &fault_ids);
        for handling in [FaultHandling::Drop, FaultHandling::SourceReroute] {
            let config = SimConfig {
                fault_handling: handling,
                ..SimConfig::default()
            };
            // Both handlings forward along source routes.
            let sim = ShardedSimulation::new(space, config, 1)?
                .with_next_hop(NextHopMode::Fallback)?
                .with_faults(faults.clone())?;
            let report = sim.run(&traffic);
            table.row(vec![
                format!("{n_faults} ({} comp.)", components),
                format!("{handling:?}"),
                report.delivered.to_string(),
                report.dropped.to_string(),
                format!("{:.4}", report.delivery_rate()),
                format!("{:.3}", report.mean_hops()),
            ]);
        }
    }
    println!("{table}");
    println!("With source rerouting, messages are only lost when an endpoint itself");
    println!("is faulty: fewer than d = 3 faults can never disconnect the network");
    println!("(Pradhan-Reddy), and the detour stretch stays small.");
    Ok(())
}
