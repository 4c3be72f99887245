//! Trace analysis: everything the live sinks know, reconstructed
//! offline.
//!
//! Run with `cargo run --release --example trace_analysis`.
//!
//! The `--trace` JSONL stream is a complete record of a run, so every
//! live report can be rebuilt from it after the fact — that is what
//! the `dbr trace` subcommands do. This example drives the same
//! library code end to end:
//!
//! 1. simulate once with a `JsonlRecorder` (in-memory here; `dbr
//!    simulate --trace FILE` for real runs) and a `Telemetry`
//!    aggregating live;
//! 2. load the trace back with `trace::load` (radix inferred from the
//!    addresses) and reconstruct the `--metrics` report, the hottest
//!    links and a run-vs-run diff;
//! 3. export the trace as a Chrome trace-event file (the thing
//!    <https://ui.perfetto.dev> renders) and show the bounded-memory
//!    quantiles agree with the exact ones.

use debruijn_suite::core::DeBruijn;
use debruijn_suite::net::record::JsonlRecorder;
use debruijn_suite::net::telemetry::LogHistogram;
use debruijn_suite::net::{
    workload, InMemoryRecorder, Recorder, RouterKind, ShardedSimulation, SimConfig, Telemetry,
};
use debruijn_suite::trace::{self, TraceMetric};

fn run_trace(router: RouterKind, messages: usize) -> Result<String, Box<dyn std::error::Error>> {
    let space = DeBruijn::new(2, 7)?;
    let config = SimConfig {
        router,
        ..SimConfig::default()
    };
    let sim = ShardedSimulation::new(space, config, 1)?;
    let traffic = workload::uniform_random(space, messages, 42);
    let mut sink = JsonlRecorder::new(Vec::new());
    sim.run_recorded(&traffic, &mut sink);
    Ok(String::from_utf8(sink.finish()?)?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A run under the optimal router, streamed to JSONL "disk".
    let jsonl = run_trace(RouterKind::Algorithm4, 2_000)?;
    let dir = std::env::temp_dir();
    let path = dir.join(format!("trace-analysis-{}.jsonl", std::process::id()));
    std::fs::write(&path, &jsonl)?;
    let path_str = path.to_str().expect("utf-8 temp path");

    // 1. Load it back. The radix is inferred from the addresses in the
    //    file; no sidecar metadata is needed.
    let loaded = trace::load(path_str, None)?;
    println!(
        "loaded {} events at radix {}\n",
        loaded.events.len(),
        loaded.d
    );

    // 2. The --metrics report, reconstructed. The histogram block is
    //    byte-identical to what the live run printed.
    println!("== dbr trace summary ==");
    print!("{}", trace::summary(&loaded));

    // Hottest links, with utilization over the run's makespan.
    println!("\n== dbr trace links (top 5) ==");
    print!("{}", trace::links(&loaded, 5));

    // One metric as an ASCII histogram.
    println!("\n== dbr trace hist hops ==");
    print!("{}", trace::hist(&loaded, TraceMetric::Hops));

    // 3. Compare against a second run under the trivial k-hop router:
    //    the diff shows the optimality gap as a mean-hops delta.
    let trivial = run_trace(RouterKind::Trivial, 2_000)?;
    let path_b = dir.join(format!("trace-analysis-b-{}.jsonl", std::process::id()));
    std::fs::write(&path_b, &trivial)?;
    let loaded_b = trace::load(path_b.to_str().expect("utf-8 temp path"), None)?;
    println!("\n== dbr trace diff (alg4 vs trivial) ==");
    print!("{}", trace::diff(&loaded, &loaded_b));

    // 4. Chrome trace-event export: load the result into
    //    https://ui.perfetto.dev to scrub through the run visually.
    let chrome = trace::export(&loaded, Vec::new())?;
    println!("\nchrome trace: {} bytes of span JSON", chrome.len());

    // 5. The bounded-memory telemetry sees the same distribution the
    //    exact histograms do, within its documented error bound.
    let mut telemetry = Telemetry::new();
    let mut memory = InMemoryRecorder::new();
    for event in &loaded.events {
        telemetry.record(event);
        memory.record(event);
    }
    for p in [50.0, 99.0] {
        let exact = memory.latency.percentile(p).unwrap_or(0) as f64;
        let approx = telemetry.fold.latency.percentile(p).unwrap_or(0) as f64;
        let err = (approx - exact).abs() / exact.max(1.0);
        println!(
            "latency p{p:>2}: exact {exact:>4}, log-bucketed {approx:>4} (err {:.3}% <= {:.3}%)",
            err * 100.0,
            LogHistogram::MAX_RELATIVE_ERROR * 100.0
        );
        assert!(err <= LogHistogram::MAX_RELATIVE_ERROR);
    }

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&path_b).ok();
    Ok(())
}
