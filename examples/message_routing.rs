//! Multiprocessor message routing: compare the routing strategies on a
//! simulated 256-node de Bruijn network under random traffic.
//!
//! Run with `cargo run --example message_routing`.

use debruijn_suite::analysis::Table;
use debruijn_suite::core::{directed_average_distance, DeBruijn};
use debruijn_suite::net::{workload, NextHopMode, RouterKind, ShardedSimulation, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let space = DeBruijn::new(2, 8)?; // 256 nodes, diameter 8
    let traffic = workload::uniform_random(space, 5_000, 2024);
    println!(
        "DN(2,8): {} nodes, {} random messages\n",
        space.order().expect("fits"),
        traffic.len()
    );

    let mut table = Table::new(
        [
            "router",
            "mean hops",
            "max hops",
            "mean latency",
            "makespan",
        ]
        .map(String::from)
        .to_vec(),
    );
    for router in RouterKind::all() {
        // Every router's rows run on source routes, the optimal ones too.
        let sim = ShardedSimulation::new(
            space,
            SimConfig {
                router,
                ..SimConfig::default()
            },
            1,
        )?
        .with_next_hop(NextHopMode::Fallback)?;
        let report = sim.run(&traffic);
        assert_eq!(report.delivered, traffic.len());
        table.row(vec![
            router.name().to_string(),
            format!("{:.3}", report.mean_hops()),
            format!("{}", report.max_hops()),
            format!("{:.3}", report.mean_latency()),
            format!("{}", report.makespan),
        ]);
    }
    println!("{table}");
    println!(
        "Eq. (5) predicts ~{:.3} directed hops on average (approximation; see EXPERIMENTS.md E1);",
        directed_average_distance(2, 8)
    );
    println!("the trivial strategy always pays the full diameter of 8 hops.");
    Ok(())
}
