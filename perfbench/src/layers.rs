//! The traced run: per-layer metrics from spans around the calls the
//! benchmark makes into each layer. Nothing inside the program is
//! instrumented; the simulator's own phase split comes from
//! `ShardedSimulation::run_profiled`.
//!
//! One traced invocation measures every layer, each on the inputs of the
//! workload that layer serves, all generated from the one seed:
//!
//! * service layers (`server`, `query`, `worker`, `cache`, `engine`) on
//!   the selected serve workload, or on serve_hot when the selected
//!   workload is not a serve workload;
//! * batch layers (`kernel`, `cli`, `parallel`) on batch_skewed;
//! * simulator layers (`table`, `shard`, `barrier`) on sim_zipf.
//!
//! Each workload's live phase runs twice, with spans off and on. The
//! untraced half gives the whole-process numbers; the selected
//! workload's two halves give `trace.overhead_pct`.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;

use debruijn_suite::core::distance::undirected::{distance_with, Engine};
use debruijn_suite::core::routing::table::DEFAULT_TABLE_MEMORY_CAP;
use debruijn_suite::core::routing::{route_with_engine_into, NextHopTable, RouteCache, RoutePath};
use debruijn_suite::core::{distance_batch_into, BatchScratch, Word};
use debruijn_suite::net::metrics::MetricsRegistry;
use debruijn_suite::net::service::{
    answer_batch_cached, answer_query_direct, parse_query, BatchAnswerState, Dispatcher, Query,
    QueryKind,
};
use debruijn_suite::net::{NullRecorder, Phase, ProfileConfig};

use crate::batch::{self, BatchFiles};
use crate::gen::{self, is_route, word64};
use crate::report::Report;
use crate::serve::{self, Variant};
use crate::sim;
use crate::stats;
use crate::trace::Tracer;
use crate::{Args, Workload};

/// Requests per service-layer probe.
const PROBE_REQUESTS: usize = 4096;
/// Spans of one name written to the trace file; the metrics use all.
const SPANS_WRITTEN_PER_NAME: usize = 20_000;

/// The service probes' request stream: the hot set cycled, or fresh
/// pairs (from a stream the live run does not use).
fn probe_pairs(variant: Variant, seed: u64) -> Vec<(u64, u64)> {
    match variant {
        Variant::Hot => gen::hot_set(seed, serve::HOT_SET)
            .into_iter()
            .cycle()
            .take(PROBE_REQUESTS)
            .collect(),
        Variant::Cold => gen::cold_pairs(seed, gen::stream::COLD_PROBE)
            .take(PROBE_REQUESTS)
            .collect(),
    }
}

fn query(i: usize, (x, y): (u64, u64)) -> Query {
    let kind = if is_route(i as u64) {
        QueryKind::Route
    } else {
        QueryKind::Distance
    };
    parse_query(2, kind, &serve::query_string(x, y)).expect("generated query parses")
}

/// Pairs that fill a cache before a serve_cold probe, so every timed
/// query evicts as in the live run's steady state.
fn filler(seed: u64, n: usize) -> Vec<Query> {
    gen::cold_pairs(seed, gen::stream::COLD_PROBE_FILL)
        .take(n)
        .enumerate()
        .map(|(i, p)| query(i, p))
        .collect()
}

/// `query.parse_ns`, `query.answer_ns`, `worker.roundtrip_ns`,
/// `engine.route_ns`, `engine.distance_ns`, plus failed probe answers.
struct ServiceProbes {
    parse_ns: f64,
    answer_ns: f64,
    roundtrip_ns: f64,
    route_ns: f64,
    distance_ns: f64,
    checked: u64,
    failed: u64,
}

fn probe_service(variant: Variant, seed: u64, t: &mut Tracer) -> ServiceProbes {
    let pairs = probe_pairs(variant, seed);
    let strings: Vec<String> = pairs
        .iter()
        .map(|&(x, y)| serve::query_string(x, y))
        .collect();
    let queries: Vec<Query> = pairs
        .iter()
        .enumerate()
        .map(|(i, &p)| query(i, p))
        .collect();
    let expected: Vec<String> = queries.iter().map(answer_query_direct).collect();
    let mut failed = 0u64;

    // query: parsing, then answering through one shard-sized cache.
    for (i, s) in strings.iter().enumerate() {
        let kind = queries[i].kind;
        let parsed = t.time("query.parse_query", i as u64, None, || {
            parse_query(2, kind, s)
        });
        failed += u64::from(parsed.as_ref() != Ok(&queries[i]));
    }
    let shard_capacity = serve::config().cache_capacity / serve::WORKERS;
    let mut cache = RouteCache::new(shard_capacity);
    let mut state = BatchAnswerState::new();
    let mut bodies = Vec::new();
    let warm: Vec<Query> = match variant {
        Variant::Hot => queries[..serve::HOT_SET.min(queries.len())].to_vec(),
        Variant::Cold => filler(seed, shard_capacity),
    };
    for q in &warm {
        answer_batch_cached(&[q], &mut cache, &mut state, &mut bodies);
    }
    for (i, q) in queries.iter().enumerate() {
        t.time("query.answer_batch_cached", i as u64, None, || {
            answer_batch_cached(&[q], &mut cache, &mut state, &mut bodies)
        });
        failed += u64::from(bodies[0] != expected[i]);
    }

    // worker: submit-to-reply round trips through live worker threads,
    // from one submitting thread per client connection of the live run.
    let dispatcher = Arc::new(Dispatcher::new(
        serve::config(),
        Arc::new(MetricsRegistry::new()),
    ));
    // As a connection thread does: one reply channel per connection.
    let submit = |q: Query, (tx, rx): &(SyncSender<String>, Receiver<String>)| match dispatcher
        .submit(q, tx.clone())
    {
        Ok(_) => rx.recv().ok(),
        Err(_) => None,
    };
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..dispatcher.workers())
            .map(|w| {
                let dispatcher = Arc::clone(&dispatcher);
                s.spawn(move || dispatcher.run_worker(w))
            })
            .collect();
        let warm: Vec<Query> = match variant {
            Variant::Hot => warm.clone(),
            Variant::Cold => filler(seed, serve::config().cache_capacity),
        };
        let reply = sync_channel(1);
        for q in warm {
            submit(q, &reply);
        }
        let submitters: Vec<_> = (0..serve::CLIENTS)
            .map(|c| {
                let (queries, expected, submit) = (&queries, &expected, &submit);
                let mut local = Tracer::new(t.epoch());
                s.spawn(move || {
                    let reply = sync_channel(1);
                    let mut bad = 0u64;
                    for i in (c..queries.len()).step_by(serve::CLIENTS) {
                        let q = queries[i].clone();
                        let body = local.time("worker.submit_to_reply", i as u64, None, || {
                            submit(q, &reply)
                        });
                        bad += u64::from(body.as_ref() != Some(&expected[i]));
                    }
                    (bad, local)
                })
            })
            .collect();
        for h in submitters {
            let (bad, local) = h.join().expect("submitting thread panicked");
            failed += bad;
            t.merge(local);
        }
        dispatcher.close();
        for h in workers {
            h.join().expect("worker thread panicked");
        }
    });

    // engine: the scalar solves behind a cache miss.
    let words: Vec<(Word, Word)> = pairs.iter().map(|&(x, y)| (word64(x), word64(y))).collect();
    let mut route = RoutePath::empty();
    for (i, (x, y)) in words.iter().enumerate() {
        t.time("engine.route_with_engine_into", i as u64, None, || {
            route_with_engine_into(x, y, Engine::Auto, &mut route)
        });
        let d = t.time("engine.distance_with", i as u64, None, || {
            distance_with(Engine::Auto, x, y)
        });
        failed += u64::from(d != route.len());
    }

    ServiceProbes {
        parse_ns: t.mean_ns("query.parse_query"),
        answer_ns: t.mean_ns("query.answer_batch_cached"),
        roundtrip_ns: t.mean_ns("worker.submit_to_reply"),
        route_ns: t.mean_ns("engine.route_with_engine_into"),
        distance_ns: t.mean_ns("engine.distance_with"),
        checked: 4 * queries.len() as u64,
        failed,
    }
}

/// Replays the batch file chunk by chunk as `cli::run` does: parse every
/// line, then per 512-line chunk the kernel and the formatting (the
/// work `map_chunks` hands to the threads). Returns the failed lines.
fn probe_batch(files: &BatchFiles, t: &mut Tracer) -> Result<(u64, u64), String> {
    let text = std::fs::read_to_string(&files.big).map_err(|e| e.to_string())?;
    let lines: Vec<&str> = text.lines().collect();
    let mut pairs: Vec<(Word, Word)> = Vec::with_capacity(lines.len());
    for (c, chunk) in lines.chunks(batch::CHUNK).enumerate() {
        t.time("cli.parse_lines", c as u64, None, || {
            for line in chunk {
                let mut tokens = line.split_whitespace();
                let (Some(x), Some(y)) = (tokens.next(), tokens.next()) else {
                    continue;
                };
                if let (Ok(x), Ok(y)) = (Word::parse(2, x), Word::parse(2, y)) {
                    pairs.push((x, y));
                }
            }
        });
    }
    let mut failed = (lines.len() - pairs.len()) as u64;
    let mut dists = Vec::new();
    for (c, chunk) in pairs.chunks(batch::CHUNK).enumerate() {
        let parent = t.open("cli.chunk", c as u64, None);
        let mut scratch = BatchScratch::new();
        t.time("kernel.distance_batch_into", c as u64, Some(parent), || {
            distance_batch_into(chunk, false, Engine::Auto, &mut scratch, &mut dists)
        });
        let text = t.time("cli.format", c as u64, Some(parent), || {
            let mut text = String::new();
            for d in &dists {
                use std::fmt::Write as _;
                writeln!(text, "{d}").expect("write to string");
            }
            text
        });
        t.close(parent);
        failed += text
            .lines()
            .zip(chunk)
            .filter(|(l, (x, y))| {
                l.parse::<usize>().ok() != Some(distance_with(Engine::Auto, x, y))
            })
            .count() as u64;
    }
    Ok((pairs.len() as u64, failed))
}

/// `100 × (untraced throughput / traced throughput − 1)`.
fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    100.0 * (untraced / traced - 1.0)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let seed = args.seed;
    let mut t = Tracer::new(Instant::now());
    let mut report = Report::default();
    // The selected workload's live phase gets half the run time per
    // half; the others a quarter each.
    let share = |w: Workload| {
        if w == args.workload {
            args.seconds / 2.0
        } else {
            args.seconds / 4.0
        }
    };
    let variant = match args.workload {
        Workload::Serve(v) => v,
        _ => Variant::Hot,
    };

    // --- service ---
    let secs = share(Workload::Serve(variant));
    let plain = serve::run(variant, seed, secs, 0, 1, None)?;
    let traced = serve::run(variant, seed, secs, 0, 1, Some(&mut t))?;
    plain.account(variant, &mut report);
    traced.account(variant, &mut report);
    let probes = probe_service(variant, seed, &mut t);
    report.attempted += probes.checked;
    report.failed += probes.failed;
    report.check(probes.failed == 0, || {
        format!("{} service probe answers were wrong", probes.failed)
    });
    let client_mean_ns = plain.latency.mean_ns();

    // --- batch ---
    let files = BatchFiles::write(seed).map_err(|e| format!("writing the batch file: {e}"))?;
    let secs = share(Workload::Batch);
    let plain_batch = batch::run(&files, seed, secs, 1, None)?;
    let traced_batch = batch::run(&files, seed, secs, 1, Some(&mut t))?;
    plain_batch.account(&mut report);
    traced_batch.account(&mut report);
    let (lines, failed) = probe_batch(&files, &mut t)?;
    report.attempted += lines;
    report.failed += failed;
    report.check(failed == 0, || {
        format!("{failed} replayed batch lines were wrong")
    });

    // --- simulator ---
    let traffic = sim::traffic(seed);
    let secs = share(Workload::Sim);
    let (plain_sim, simulation) = sim::run(&traffic, secs, 1, None)?;
    let (traced_sim, _) = sim::run(&traffic, secs, 1, Some(&mut t))?;
    plain_sim.account(&mut report);
    traced_sim.account(&mut report);
    let (profiled, profile) = t.time("sim.run_profiled", 0, None, || {
        simulation.run_profiled(
            &traffic,
            &mut NullRecorder,
            &ProfileConfig {
                sample_every: 0,
                slices: false,
            },
        )
    });
    report.check(profiled == plain_sim.report, || {
        "the profiled report differs from the recorded run".to_string()
    });
    drop(simulation);
    let table = t.time("table.build", 0, None, || {
        NextHopTable::build(sim::space(), false, sim::THREADS, DEFAULT_TABLE_MEMORY_CAP)
    });
    let table_mib = table.as_ref().map_or(0, NextHopTable::memory_bytes) as f64 / (1 << 20) as f64;
    drop(table);
    // Whole-process figures of the selected workload: CPU and steal of
    // its untraced half, and what the spans cost against it.
    let whole = match args.workload {
        Workload::Serve(_) => (
            plain.cpu_us_per_op(),
            plain.steal_share,
            overhead_pct(plain.throughput(), traced.throughput()),
        ),
        Workload::Batch => (
            plain_batch.cpu_us_per_op(),
            plain_batch.steal_share,
            overhead_pct(plain_batch.throughput(), traced_batch.throughput()),
        ),
        Workload::Sim => (
            plain_sim.cpu_us_per_op(),
            plain_sim.steal_share,
            overhead_pct(plain_sim.throughput(), traced_sim.throughput()),
        ),
    };

    // --- metrics ---
    let per_req = |n: u64| n as f64 / plain.requests.max(1) as f64;
    report.metric(
        "server.residual_us",
        (client_mean_ns - probes.parse_ns - probes.roundtrip_ns) / 1e3,
        "us",
    );
    report.metric("query.parse_ns", probes.parse_ns, "ns");
    report.metric("query.answer_ns", probes.answer_ns, "ns");
    report.metric("worker.roundtrip_ns", probes.roundtrip_ns, "ns");
    report.metric(
        "worker.handoff_ns",
        probes.roundtrip_ns - probes.answer_ns,
        "ns",
    );
    report.metric(
        "worker.queue_to_answer_us_p50",
        plain.queue_to_answer_p50_ns / 1e3,
        "us",
    );
    report.metric("worker.queue_high_water", plain.queue_high_water, "count");
    report.metric("worker.shed", plain.shed as f64, "count");
    report.metric("cache.hit_ratio", plain.hit_ratio(), "ratio");
    report.metric("cache.evictions_per_req", per_req(plain.evictions), "ratio");
    report.metric("engine.route_ns", probes.route_ns, "ns");
    report.metric("engine.distance_ns", probes.distance_ns, "ns");

    let (_, kernel_ns) = t.total("kernel.distance_batch_into");
    let (_, parse_ns) = t.total("cli.parse_lines");
    let (_, format_ns) = t.total("cli.format");
    let pass_ns = stats::median(&mut plain_batch.pass_s.clone()) * 1e9;
    let per_line = |ns: u64| ns as f64 / gen::BATCH_LINES as f64;
    report.metric("kernel.ns_per_pair", per_line(kernel_ns), "ns");
    report.metric("kernel.grouped_share", plain_batch.grouped_share, "ratio");
    report.metric(
        "kernel.groups_per_chunk",
        plain_batch.groups_per_chunk,
        "count",
    );
    report.metric("cli.parse_ns_per_pair", per_line(parse_ns), "ns");
    report.metric("cli.format_ns_per_pair", per_line(format_ns), "ns");
    // Parsing runs on one thread before the chunks are handed out, so
    // only the chunk work is shared between the two threads.
    report.metric(
        "cli.residual_ms",
        (pass_ns - parse_ns as f64 - (kernel_ns + format_ns) as f64 / 2.0) / 1e6,
        "ms",
    );
    report.metric(
        "parallel.efficiency",
        (kernel_ns + format_ns) as f64 / (batch::THREADS as f64 * pass_ns),
        "ratio",
    );

    let messages = traffic.len() as f64;
    let sum = |f: fn(&_) -> u64| profile.barrier.iter().map(f).sum::<u64>();
    report.metric(
        "barrier.wait_ns_per_msg",
        sum(|b| b.nanos) as f64 / messages,
        "ns",
    );
    report.metric("barrier.spins", sum(|b| b.spins) as f64, "count");
    report.metric("barrier.yields", sum(|b| b.yields) as f64, "count");
    report.metric("barrier.rounds", sum(|b| b.rounds) as f64, "count");
    let (_, build_ns) = t.total("table.build");
    report.metric("table.build_ms", build_ns as f64 / 1e6, "ms");
    report.metric("table.mib", table_mib, "MiB");
    let phase = |p: Phase| {
        profile
            .phase_totals()
            .into_iter()
            .find(|&(q, _)| q == p)
            .map_or(0.0, |(_, ns)| ns as f64 / messages)
    };
    report.metric("shard.compute_ns_per_msg", phase(Phase::Compute), "ns");
    report.metric("shard.mailbox_ns_per_msg", phase(Phase::Mailbox), "ns");
    report.metric("shard.merge_ns_per_msg", phase(Phase::Merge), "ns");
    report.metric("shard.report_ns_per_msg", phase(Phase::Report), "ns");
    report.metric(
        "shard.compute_imbalance",
        profile.compute_imbalance(),
        "ratio",
    );
    report.metric(
        "shard.mailbox_overflows",
        profile.mailbox_overflows() as f64,
        "count",
    );
    let r = &plain_sim.report;
    report.metric(
        "sim.queue_wait_mean_ticks",
        r.total_queue_wait as f64 / r.total_hops.max(1) as f64,
        "ticks",
    );
    report.metric("sim.makespan_ticks", r.makespan as f64, "ticks");
    report.metric(
        "sim.msg_latency_p50_ticks",
        plain_sim.latency_p50_ticks,
        "ticks",
    );
    report.metric(
        "sim.msg_latency_p99_ticks",
        plain_sim.latency_p99_ticks,
        "ticks",
    );
    report.metric("cpu.us_per_op", whole.0, "us");
    report.metric("host.steal_share", whole.1, "ratio");
    report.metric("trace.overhead_pct", whole.2, "%");

    let path = batch::out_dir().join(format!("trace-{}.jsonl", args.workload.name()));
    let skipped = t
        .write_jsonl(&path, SPANS_WRITTEN_PER_NAME)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    report.note(format!(
        "traced run of {}: service layers on {}, batch layers on batch_skewed, simulator \
         layers on sim_zipf; spans in {} ({skipped} beyond {SPANS_WRITTEN_PER_NAME} per \
         name left out)",
        args.workload.name(),
        variant.name(),
        path.display()
    ));
    for (name, (n, total, own)) in t.self_times() {
        report.note(format!(
            "  span {name:<32} n {n:>8}  total {:>12.3} ms  self {:>12.3} ms",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    Ok(report)
}
