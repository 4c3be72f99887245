//! Timing of the simulation engine on one shard and one thread: the
//! default configuration (on the dense next-hop table), the
//! least-loaded policy (on source routes), and the cost of the metrics
//! registry and of serving live scrapes.
//!
//! With `--json`, prints one machine-readable line (see
//! [`debruijn_bench::JsonReport`]) instead of the table; `bench.sh`
//! collects those lines into `BENCH_results.json`. With
//! `--max-scrape-overhead-pct N` the binary additionally exits
//! non-zero if serving `/metrics` scrapes at 4 Hz would steal more
//! than `N` percent of the simulator's CPU — `bench.sh --check` gates
//! at 2%.

use debruijn_bench::{json_mode, median_nanos_per_call, JsonReport};
use debruijn_core::DeBruijn;
use debruijn_net::metrics::{MetricsRegistry, RegistryRecorder, ScrapeServer};
use debruijn_net::{workload, RouterKind, ShardedSimulation, SimConfig, WildcardPolicy};
use std::hint::black_box;
use std::sync::Arc;

/// The number following `--max-scrape-overhead-pct`, if present.
fn max_scrape_overhead_pct() -> Option<f64> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--max-scrape-overhead-pct")?;
    let value = args.get(i + 1).and_then(|v| v.parse().ok());
    if value.is_none() {
        eprintln!("--max-scrape-overhead-pct needs a number (percent)");
        std::process::exit(2);
    }
    value
}

fn main() {
    let json = json_mode();
    let overhead_limit = max_scrape_overhead_pct();
    let mut report = JsonReport::new("simulation_throughput", "ns_per_message");
    if !json {
        println!("simulator throughput: ns per injected message (median of 5 runs)\n");
        println!(
            "{:>8} {:>20} {:>20}",
            "msgs", "algorithm2_router", "least_loaded_policy"
        );
    }
    let space = DeBruijn::new(2, 8).unwrap();
    for msgs in [1_000usize, 10_000] {
        let traffic = workload::uniform_random(space, msgs, 42);
        let a2_sim = ShardedSimulation::new(
            space,
            SimConfig {
                router: RouterKind::Algorithm2,
                ..SimConfig::default()
            },
            1,
        )
        .unwrap();
        let a2 = median_nanos_per_call(
            || {
                black_box(a2_sim.run(black_box(&traffic)));
            },
            1,
            5,
        ) / msgs as f64;
        let ll_sim = ShardedSimulation::new(
            space,
            SimConfig {
                router: RouterKind::Algorithm2,
                policy: WildcardPolicy::LeastLoaded,
                ..SimConfig::default()
            },
            1,
        )
        .unwrap();
        let ll = median_nanos_per_call(
            || {
                black_box(ll_sim.run(black_box(&traffic)));
            },
            1,
            5,
        ) / msgs as f64;
        report.push("algorithm2_router", msgs, a2);
        report.push("least_loaded_policy", msgs, ll);
        if !json {
            println!("{msgs:>8} {a2:>20.0} {ll:>20.0}");
        }
    }
    // Scrape overhead: the CPU a live /metrics endpoint steals from a
    // registry-recorded run when scraped every 250 ms (4 Hz — still
    // 60x more often than Prometheus' default 15 s interval). On a
    // single core every nanosecond the server spends accepting,
    // snapshotting, and rendering is a nanosecond the simulator does
    // not get, so the steal per wall-clock second is exactly
    // (per-scrape cost) x (scrape rate) — and both factors measure
    // with low variance where an end-to-end A/B wall-clock comparison
    // drowns in scheduler noise at the 2% scale (ambient jitter on a
    // busy host is itself several percent).
    let msgs = 10_000usize;
    let traffic = workload::uniform_random(space, msgs, 42);
    let sim = ShardedSimulation::new(
        space,
        SimConfig {
            router: RouterKind::Algorithm2,
            ..SimConfig::default()
        },
        1,
    )
    .unwrap();

    let registry = Arc::new(MetricsRegistry::new());
    let server = ScrapeServer::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
    let addr = server.local_addr();

    // Registry-recorded runs, which also populate every per-link and
    // per-reason series so the scrapes below render the full-size
    // exposition a live run would serve.
    let recorded = median_nanos_per_call(
        || {
            let mut rec = RegistryRecorder::new(&registry);
            black_box(sim.run_recorded(black_box(&traffic), &mut rec));
        },
        1,
        7,
    ) / msgs as f64;

    // Median /metrics round trip against the fully populated registry:
    // connect, snapshot, render, and ship the body over loopback.
    let scrape_ns = median_nanos_per_call(
        || {
            black_box(ScrapeServer::get(addr, "/metrics").expect("scrape").len());
        },
        5,
        7,
    );
    server.shutdown();

    const SCRAPE_HZ: f64 = 4.0;
    let overhead_pct = scrape_ns * SCRAPE_HZ / 1e9 * 100.0;
    // The same steal expressed on the report's ns-per-message scale.
    let steal = recorded * overhead_pct / 100.0;
    report.push("registry_recorder", msgs, recorded);
    report.push("scrape_steal", msgs, steal);

    if json {
        println!("{}", report.render());
    } else {
        println!("\nmetrics registry recording: {recorded:.0} ns/message;");
        println!(
            "a /metrics scrape costs {:.0} us; at 4 Hz that steals \
             {steal:.1} ns/message ({overhead_pct:+.2}% scrape overhead)",
            scrape_ns / 1e3
        );
        println!("\nCost per message is flat in workload size: each hop is a table");
        println!("lookup or one popped route step, with no per-run global scans.");
    }

    if let Some(limit) = overhead_limit {
        if overhead_pct > limit {
            eprintln!(
                "scrape overhead {overhead_pct:.2}% exceeds the {limit}% budget \
                 ({:.0} us per scrape at 4 Hz)",
                scrape_ns / 1e3
            );
            std::process::exit(1);
        }
        eprintln!("scrape overhead {overhead_pct:+.2}% within the {limit}% budget");
    }
}
