//! Live metrics: one registry feeding a Prometheus scrape endpoint,
//! with a flight recorder armed for post-mortems.
//!
//! Run with `cargo run --release --example live_metrics`.
//!
//! The observability example reads a finished run's histograms; this
//! one watches a run the way an operator would — over HTTP, while it
//! executes, with an anomaly trigger standing by:
//!
//! 1. a `MetricsRegistry` collects the simulator's counters and
//!    histograms in one place (via `RegistryRecorder`);
//! 2. a `ScrapeServer` exposes the registry at `/metrics` in the
//!    Prometheus text format over plain `std::net::TcpListener` — no
//!    HTTP dependency, `curl`-able while the simulator runs;
//! 3. a `FlightRecorder` rides along with default anomaly triggers; a
//!    faulty node sheds enough messages to trip the drop-burst
//!    trigger, and the captured pre-anomaly window dumps as JSONL that
//!    `dbr trace summary` (or `trace::load`) reads like any trace.
//!
//! The CLI packages the same wiring as `dbr simulate --listen ADDR
//! --flight-recorder FILE`; `tests/observability.rs` locks this
//! scenario down end to end.

use std::sync::Arc;

use debruijn_suite::core::{DeBruijn, Word};
use debruijn_suite::net::metrics::{
    AnomalyTriggers, FlightRecorder, MetricsRegistry, RegistryRecorder, ScrapeServer,
};
use debruijn_suite::net::record::FanoutRecorder;
use debruijn_suite::net::{workload, RouterKind, ShardedSimulation, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // DN(2,6): 64 processors, one of them down.
    let space = DeBruijn::new(2, 6)?;
    let config = SimConfig {
        router: RouterKind::Algorithm2,
        ..SimConfig::default()
    };
    let faulty = Word::parse(2, "000000")?;
    let sim = ShardedSimulation::new(space, config, 1)?.with_faults(vec![faulty])?;
    // One burst at tick 0: the faulty node's own messages drop together.
    let traffic = workload::uniform_burst(space, 3_000, 7);

    // The registry is shared: the recorder writes into it from the
    // simulation thread, the scrape server reads it from its accept
    // thread.
    let registry = Arc::new(MetricsRegistry::new());
    let mut recorder = RegistryRecorder::new(&registry);

    let server = ScrapeServer::bind("127.0.0.1:0", Arc::clone(&registry))?;
    println!("scrape endpoint: http://{}/metrics", server.local_addr());

    // Default triggers: 8 drops (or 4 routing failures) inside 128
    // ticks, queue depth >= 1024, queue wait >= 4096. The faulty node
    // drops every message injected at it, so the drop burst fires at
    // tick 0.
    let dump = std::env::temp_dir().join("live_metrics_flight.jsonl");
    let mut flight = FlightRecorder::new(4096, AnomalyTriggers::default()).with_dump_path(&dump);

    let report = {
        let mut fan = FanoutRecorder::new();
        fan.push(&mut recorder);
        fan.push(&mut flight);
        sim.run_recorded(&traffic, &mut fan)
    };
    println!(
        "run finished: {}/{} delivered, {} dropped",
        report.delivered, report.injected, report.dropped
    );
    for (reason, n) in &report.dropped_by_reason {
        println!("  dropped ({reason}): {n}");
    }

    // Scrape ourselves, exactly as `curl http://ADDR/metrics` would.
    let scrape = ScrapeServer::get(server.local_addr(), "/metrics")?;
    println!("\nscrape excerpt:");
    for line in scrape.lines().filter(|l| {
        l.starts_with("dbr_sim_injected_total") || l.starts_with("dbr_sim_dropped_total")
    }) {
        println!("  {line}");
    }

    match flight.finish()? {
        Some(anomaly) => {
            println!("\nflight recorder fired: {anomaly}");
            println!("pre-anomaly window dumped to {}", dump.display());
            println!("inspect it with: dbr trace summary {}", dump.display());
        }
        None => println!("\nflight recorder: no anomaly (unexpected here)"),
    }

    server.shutdown();
    Ok(())
}
