//! Path diversity: all shortest routes between a pair.
//!
//! The paper's Algorithm 2 emits *one* shortest route, but Theorem 2's
//! minimum is typically attained by several `(s,t,θ)` minimizers — each a
//! different shortest route, before even counting the wildcard freedom.
//! This example prints the full set for a few pairs and shows the effect
//! on link balance when a flow spreads across them.
//!
//! Run with `cargo run --example path_diversity`.

use debruijn_suite::core::{routing, DeBruijn, Word};
use debruijn_suite::net::{Injection, NextHopMode, RouterKind, ShardedSimulation, SimConfig};

fn show_routes(x: &Word, y: &Word) {
    let routes = routing::all_shortest_routes(x, y);
    println!(
        "{x} -> {y}: distance {}, {} distinct shortest route(s)",
        routes[0].len(),
        routes.len()
    );
    for r in &routes {
        println!("    {r}   ({} wildcard step(s))", r.wildcard_count());
        assert!(r.leads_to(x, y));
    }
    println!();
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== all shortest routes ==\n");
    show_routes(&Word::parse(2, "0000")?, &Word::parse(2, "1111")?);
    show_routes(&Word::parse(2, "010101")?, &Word::parse(2, "101010")?);
    show_routes(&Word::parse(3, "0120")?, &Word::parse(3, "2010")?);

    println!("== multipath flow spreading ==\n");
    // A diameter pair: several genuinely different shortest routes exist
    // (all-left-shifts vs all-right-shifts), leaving the source on
    // different outgoing links.
    let space = DeBruijn::new(2, 6)?;
    let x = Word::parse(2, "000000")?;
    let y = Word::parse(2, "111111")?;
    let flow: Vec<Injection> = (0..512)
        .map(|_| Injection {
            time: 0,
            source: x.clone(),
            destination: y.clone(),
        })
        .collect();
    for router in [RouterKind::Algorithm2, RouterKind::Multipath] {
        let sim = ShardedSimulation::new(
            space,
            SimConfig {
                router,
                ..SimConfig::default()
            },
            1,
        )?
        .with_next_hop(NextHopMode::Fallback)?;
        let report = sim.run(&flow);
        let loads = report.link_load_summary();
        println!(
            "{:<12} max link load {:>4}, links used {:>3}, makespan {:>4}",
            router.name(),
            loads.max,
            loads.links_used,
            report.makespan
        );
    }
    println!("\nWhere several shortest routes exist, spreading a heavy flow across");
    println!("them cuts the bottleneck link load and the completion time; for pairs");
    println!("with a unique shortest route, multipath simply degrades to Algorithm 2.");
    Ok(())
}
