//! Request/reply round trips over source-routed messages.
//!
//! This example models a probe/acknowledge exchange: a monitor node
//! probes every other node, each probed node answers along the optimal
//! reverse route, and the round-trip times fall out of the simulator's
//! latency accounting. Every message carries the paper's routing-path
//! field, whose wire form `RoutePath::encode` produces.
//!
//! Run with `cargo run --example request_reply`.

use debruijn_suite::analysis::Table;
use debruijn_suite::core::{DeBruijn, RoutePath, Word};
use debruijn_suite::net::{Injection, NextHopMode, RouterKind, ShardedSimulation, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let space = DeBruijn::new(2, 6)?;
    let monitor = space.word_from_rank(0)?;
    println!("monitor {monitor} probing all {} nodes of DN(2,6)\n", 64);

    // Phase 1: probes out (all at t = 0 — they serialize on the
    // monitor's two outgoing links).
    let probes: Vec<Injection> = space
        .vertices()
        .filter(|v| v != &monitor)
        .map(|v| Injection {
            time: 0,
            source: monitor.clone(),
            destination: v,
        })
        .collect();
    let sim = ShardedSimulation::new(
        space,
        SimConfig {
            router: RouterKind::Algorithm4,
            ..SimConfig::default()
        },
        1,
    )?
    .with_next_hop(NextHopMode::Fallback)?;
    let out_report = sim.run(&probes);
    assert_eq!(out_report.delivered, probes.len());

    // The routing-path field one probe carries, and its wire form.
    let target = space.word_from_rank(42)?;
    let route = RouterKind::Algorithm4.route(&monitor, &target);
    let wire = route.encode(space.d());
    assert_eq!(RoutePath::decode(space.d(), &wire)?, route);
    println!(
        "example probe: {monitor} -> {target} via {route} ({} wire bytes)",
        wire.len()
    );

    // Phase 2: acks back, each injected when its probe would have
    // arrived (staggered by the outbound makespan for a conservative
    // model).
    let acks: Vec<Injection> = space
        .vertices()
        .filter(|v| v != &monitor)
        .map(|v| Injection {
            time: out_report.makespan,
            source: v,
            destination: monitor.clone(),
        })
        .collect();
    let back_report = sim.run(&acks);
    assert_eq!(back_report.delivered, acks.len());

    let mut table = Table::new(
        ["phase", "messages", "mean hops", "mean latency", "makespan"]
            .map(String::from)
            .to_vec(),
    );
    for (name, r) in [("probe out", &out_report), ("ack back", &back_report)] {
        table.row(vec![
            name.to_string(),
            r.delivered.to_string(),
            format!("{:.3}", r.mean_hops()),
            format!("{:.3}", r.mean_latency()),
            r.makespan.to_string(),
        ]);
    }
    println!("\n{table}");
    let ack_word: Word = space.word_from_rank(42)?;
    println!(
        "round trip monitor <-> {ack_word}: {} hops each way at best",
        RouterKind::Algorithm4.route(&monitor, &ack_word).len()
    );
    println!("Hop counts are symmetric (Theorem 2's distance is), but the burst");
    println!("phases queue differently: probes serialize on the monitor's two");
    println!("out-links at injection, acks on its two in-links at delivery — the");
    println!("scatter/gather bottleneck every constant-degree network pays.");
    Ok(())
}
