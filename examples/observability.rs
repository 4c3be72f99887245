//! Observability: watching the simulator route, queue, and balance.
//!
//! Run with `cargo run --release --example observability`.
//!
//! The paper proves routes are optimal (`|route| = D(X,Y)`, Theorems 1–2)
//! and remarks that wildcard `*` steps let the network balance traffic
//! (§3). Aggregate statistics can't show either property per message;
//! this example attaches two recorder sinks from `debruijn_net::record`
//! to one simulation and reads the claims off the event stream:
//!
//! 1. an `InMemoryRecorder` turns events into exact histograms and
//!    counters — the stretch histogram pins every delivery to its
//!    shortest distance;
//! 2. a `JsonlRecorder` streams the same events as line-delimited JSON
//!    (here into a buffer; point it at a file for real runs).

use debruijn_suite::core::{distance, DeBruijn};
use debruijn_suite::net::record::{parse_event, FanoutRecorder, JsonlRecorder};
use debruijn_suite::net::{
    workload, InMemoryRecorder, NetEvent, RouterKind, ShardedSimulation, SimConfig, WildcardPolicy,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // DN(2,8): 256 processors. Algorithm 4 emits wildcard steps whenever
    // the optimal route is shorter than k, so the least-loaded policy
    // has digits to choose.
    let space = DeBruijn::new(2, 8)?;
    let config = SimConfig {
        router: RouterKind::Algorithm4,
        policy: WildcardPolicy::LeastLoaded,
        ..SimConfig::default()
    };
    let sim = ShardedSimulation::new(space, config, 1)?;
    let traffic = workload::uniform_random(space, 2_000, 42);

    // One run, two consumers: histograms and a JSONL stream.
    let mut metrics = InMemoryRecorder::new();
    let mut jsonl = JsonlRecorder::new(Vec::new());
    let report = {
        let mut fan = FanoutRecorder::new();
        fan.push(&mut metrics);
        fan.push(&mut jsonl);
        sim.run_recorded(&traffic, &mut fan)
    };

    println!(
        "DN(2,8), {} messages, router alg4, policy least-loaded\n",
        report.injected
    );

    // 1. Optimality, per message: every delivery took exactly D(X,Y)
    //    hops, so the stretch histogram is a single bucket at 0.
    println!("hops per delivered message:");
    print!("{}", metrics.hops);
    println!("stretch over shortest D(X,Y):");
    print!("{}", metrics.stretch);
    assert_eq!(
        metrics.stretch.max(),
        Some(0),
        "Algorithm 4 routes are optimal"
    );

    // The recorded mean matches the analytic average over distinct
    // ordered pairs (the workload never sends a node to itself).
    let n = space.order_usize().expect("enumerable") as f64;
    let analytic = debruijn_suite::analysis::average::exact_undirected(space) * n / (n - 1.0);
    println!(
        "mean hops {:.4} vs analytic average {:.4} (distinct ordered pairs)\n",
        metrics.hops.mean(),
        analytic
    );

    // 2. Queueing behaviour: how long forwards waited for a busy link
    //    and how many messages sat ahead of them.
    println!(
        "queue wait per hop (p50 {:?}, p99 {:?}, max {:?}):",
        metrics.queue_wait.percentile(50.0),
        metrics.queue_wait.percentile(99.0),
        metrics.queue_wait.max()
    );
    print!("{}", metrics.queue_wait);
    println!("queue depth at handover:");
    print!("{}", metrics.queue_depth);

    // 3. The §3 remark, measured: the least-loaded policy spreads
    //    wildcard resolutions over the digits instead of hammering 0.
    println!("wildcard resolutions: {}", metrics.wildcards_resolved());
    for (digit, count) in &metrics.wildcard_by_digit {
        println!("  digit {digit}: {count}");
    }
    let counts: Vec<u64> = metrics.wildcard_by_digit.values().copied().collect();
    assert_eq!(counts.len(), 2, "both digits get used");
    println!();

    // 4. The same events as JSONL: one line per event, `jq`-ready, and
    //    round-trippable through `parse_event`.
    let bytes = jsonl.finish()?;
    let text = String::from_utf8(bytes)?;
    let mut forwards = 0u64;
    for line in text.lines() {
        if let NetEvent::Forward { .. } = parse_event(space.d(), line)? {
            forwards += 1;
        }
    }
    println!(
        "JSONL stream: {} events, {} forwards ({} bytes)",
        text.lines().count(),
        forwards,
        text.len()
    );
    assert_eq!(forwards, report.total_hops, "one forward event per hop");
    let first = text.lines().next().expect("stream is non-empty");
    println!("first event: {first}\n");

    // Sanity: the recorded per-message shortest distances really are the
    // distance function (spot-check the first few injections).
    for inj in traffic.iter().take(5) {
        let d = distance::undirected::distance(&inj.source, &inj.destination);
        println!("D({}, {}) = {d}", inj.source, inj.destination);
    }
    Ok(())
}
