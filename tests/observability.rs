//! End-to-end checks on the observability layer: recorded metrics
//! against the analytic quantities from `crates/analysis`, the JSONL
//! stream against the aggregate report, and the metrics registry /
//! scrape endpoint / flight recorder pipeline against a live run (the
//! `examples/live_metrics.rs` scenario, locked down). The renderings
//! that reach no CLI transcript (`--progress` lines, `Telemetry`'s
//! report, Chrome exports and the engine profile's Chrome lanes) are
//! pinned against `tests/golden/observability/`, and OBSERVABILITY.md's
//! naming table against the families of live registries.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use debruijn_suite::analysis::average;
use debruijn_suite::core::{DeBruijn, Word};
use debruijn_suite::graph::DebruijnGraph;
use debruijn_suite::net::metrics::{
    replay_sharded, AnomalyTriggers, FlightRecorder, MetricsRegistry, RegistryRecorder,
    ScrapeServer,
};
use debruijn_suite::net::record::{parse_event, FanoutRecorder, JsonlRecorder};
use debruijn_suite::net::{
    workload, ChromeTraceRecorder, FaultHandling, InMemoryRecorder, MonitorSet, NetEvent,
    NextHopMode, NullRecorder, ProfileConfig, QueryService, Recorder, RouterKind, ServiceConfig,
    ShardedSimulation, SimConfig, SnapshotRecorder, WildcardPolicy,
};
use debruijn_suite::trace;

#[test]
fn recorded_mean_hops_matches_analytic_average_on_dg_2_8() {
    // Uniform traffic on DG(2,8) with an optimal router: the sample
    // mean of the hop histogram estimates the exact average undirected
    // distance over distinct ordered pairs (the workload never sends a
    // node to itself, so the N self-pairs at distance 0 are excluded
    // from the expectation).
    let space = DeBruijn::new(2, 8).unwrap();
    let config = SimConfig {
        router: RouterKind::Algorithm4,
        policy: WildcardPolicy::LeastLoaded,
        ..SimConfig::default()
    };
    let sim = ShardedSimulation::new(space, config, 2).unwrap();
    let messages = 5_000;
    let traffic = workload::uniform_random(space, messages, 0xE2E);

    let mut metrics = InMemoryRecorder::new();
    let report = sim.run_recorded(&traffic, &mut metrics);
    assert_eq!(report.delivered, messages);
    assert_eq!(metrics.delivered, messages as u64);

    let n = space.order_usize().unwrap() as f64;
    let analytic = average::exact_undirected(space) * n / (n - 1.0);
    let sample_mean = metrics.hops.mean();

    // Sampling error: the per-pair distance has std-dev < 1.5 hops on
    // DG(2,8), so the mean of 5000 draws sits within ~3·1.5/√5000 ≈
    // 0.064 of the expectation. 0.1 gives slack without admitting an
    // off-by-one in the distance function (which would shift the mean
    // by ≥ 0.5).
    assert!(
        (sample_mean - analytic).abs() < 0.1,
        "sample mean {sample_mean:.4} vs analytic {analytic:.4}"
    );

    // Optimal router: every delivery took exactly D(X,Y) hops.
    assert_eq!(metrics.stretch.max(), Some(0));
}

#[test]
fn jsonl_stream_is_consistent_with_the_aggregate_report() {
    let space = DeBruijn::new(3, 4).unwrap();
    let config = SimConfig {
        router: RouterKind::Algorithm2,
        ..SimConfig::default()
    };
    // Source routes, so every Inject event carries its route length.
    let sim = ShardedSimulation::new(space, config, 2)
        .and_then(|sim| sim.with_next_hop(NextHopMode::Fallback))
        .unwrap();
    let traffic = workload::uniform_random(space, 400, 9);

    let mut metrics = InMemoryRecorder::new();
    let mut jsonl = JsonlRecorder::new(Vec::new());
    let report = {
        let mut fan = FanoutRecorder::new();
        fan.push(&mut metrics);
        fan.push(&mut jsonl);
        sim.run_recorded(&traffic, &mut fan)
    };

    let text = String::from_utf8(jsonl.finish().unwrap()).unwrap();
    let (mut injects, mut forwards, mut delivers) = (0usize, 0u64, 0usize);
    for line in text.lines() {
        match parse_event(space.d(), line).expect("every line parses") {
            NetEvent::Inject {
                route_len,
                shortest,
                ..
            } => {
                injects += 1;
                assert_eq!(route_len, shortest, "Algorithm 2 routes are optimal");
            }
            NetEvent::Forward { .. } => forwards += 1,
            NetEvent::Deliver { hops, shortest, .. } => {
                delivers += 1;
                assert_eq!(hops, shortest);
            }
            _ => {}
        }
    }
    assert_eq!(injects, report.injected);
    assert_eq!(delivers, report.delivered);
    assert_eq!(forwards, report.total_hops);
}

/// The `examples/live_metrics.rs` scenario end to end: one registry
/// fed by a live run, scraped over real HTTP while a flight recorder
/// captures the anomaly a faulty node provokes.
#[test]
fn live_scrape_and_flight_recorder_capture_a_faulty_run() {
    let space = DeBruijn::new(2, 6).unwrap();
    let config = SimConfig {
        router: RouterKind::Algorithm2,
        ..SimConfig::default()
    };
    let faulty = Word::parse(2, "000000").unwrap();
    let sim = ShardedSimulation::new(space, config, 2)
        .and_then(|sim| sim.with_faults(vec![faulty]))
        .unwrap();
    // One burst at tick 0: the faulty node's own messages drop together.
    let traffic = workload::uniform_burst(space, 3_000, 7);

    let registry = Arc::new(MetricsRegistry::new());
    let mut recorder = RegistryRecorder::new(&registry);
    let server = ScrapeServer::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();

    let dump = std::env::temp_dir().join(format!("dbr-e2e-flight-{}.jsonl", std::process::id()));
    let mut flight = FlightRecorder::new(4096, AnomalyTriggers::default()).with_dump_path(&dump);
    let mut memory = InMemoryRecorder::new();
    let mut jsonl = JsonlRecorder::new(Vec::new());
    let report = {
        let mut fan = FanoutRecorder::new();
        fan.push(&mut recorder);
        fan.push(&mut memory);
        fan.push(&mut jsonl);
        fan.push(&mut flight);
        sim.run_recorded(&traffic, &mut fan)
    };
    assert!(report.dropped > 0, "the faulty node must shed traffic");

    // --- Scrape over real HTTP: one registry serves the simulator's
    // counters and histograms in a single exposition.
    let text = ScrapeServer::get(server.local_addr(), "/metrics").unwrap();
    let line_value = |needle: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(needle))
            .unwrap_or_else(|| panic!("scrape lacks {needle}:\n{text}"))
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    // Injection counters are event-derived: messages whose *source* is
    // faulty are dropped before any Inject event exists, so the scrape
    // agrees with the in-memory event aggregation, not with
    // `report.injected` (which counts every demand).
    assert_eq!(line_value("dbr_sim_injected_total"), memory.injected);
    assert!(memory.injected < report.injected as u64);
    assert_eq!(
        line_value("dbr_sim_delivered_total"),
        report.delivered as u64
    );
    // Per-link forward counters sum to the number of Forward events
    // (every forward records one per-hop latency observation; this
    // exceeds `report.total_hops`, which only counts delivered
    // messages' hops, because hops into the faulty node are lost).
    let forwards: u64 = text
        .lines()
        .filter(|l| l.starts_with("dbr_link_forward_total{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(forwards, memory.per_hop_latency.count());
    assert!(forwards > report.total_hops);
    // Per-reason drop counters match the report's breakdown.
    for (reason, n) in &report.dropped_by_reason {
        assert_eq!(
            line_value(&format!("dbr_sim_dropped_total{{reason=\"{reason}\"}}")),
            *n
        );
    }
    // The scrape carries this run's families only: no process-wide
    // counters ride along.
    assert!(!text.contains("dbr_core_"), "{text}");
    assert!(ScrapeServer::get(server.local_addr(), "/healthz")
        .unwrap()
        .contains("ok"));
    server.shutdown();

    // --- The flight recorder fired on the drop burst and dumped a
    // window that the trace tooling parses like any run trace.
    let anomaly = flight.finish().unwrap().expect("drop burst must fire");
    let rendered = anomaly.to_string();
    assert!(rendered.contains("burst"), "{rendered}");
    let dumped = std::fs::read_to_string(&dump).unwrap();
    std::fs::remove_file(&dump).ok();
    let mut drops = 0;
    for line in dumped.lines() {
        if let NetEvent::Drop { .. } = parse_event(2, line).expect("dump lines parse") {
            drops += 1;
        }
    }
    assert!(drops >= 8, "the window holds the triggering burst: {drops}");

    // --- Offline sharded replay of the full JSONL stream agrees with
    // the live registry on every simulator family, for any thread
    // count.
    let text_stream = String::from_utf8(jsonl.finish().unwrap()).unwrap();
    let events: Vec<NetEvent> = text_stream
        .lines()
        .map(|l| parse_event(2, l).unwrap())
        .collect();
    let offline = replay_sharded(4, &events).render();
    assert_eq!(offline, replay_sharded(1, &events).render());
    let live = registry.snapshot().render();
    for line in live
        .lines()
        .filter(|l| l.starts_with("dbr_sim_") || l.starts_with("dbr_link_"))
    {
        assert!(offline.contains(line), "offline replay lacks: {line}");
    }
}

/// Compares `got` with `tests/golden/observability/{name}`; with
/// `DBR_BLESS=1` set, rewrites the file instead.
fn check_pinned(name: &str, got: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/observability")
        .join(name);
    if std::env::var_os("DBR_BLESS").is_some() {
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{name} line {}", n + 1);
    }
    assert_eq!(got, want, "{name}: line count or trailing bytes");
}

/// A seeded burst under Algorithm 4 with least-loaded wildcards and
/// one faulty node, which messages run into (`Drop`) or which sources
/// route around (`SourceReroute`). The two runs' streams hold every
/// event kind between them: injections, wildcard resolutions (drop
/// run), reroutes (reroute run), queued forwards, deliveries and drops.
fn run_around_a_fault(
    handling: FaultHandling,
    k: usize,
    messages: usize,
    recorder: &mut dyn Recorder,
) {
    let space = DeBruijn::new(2, k).unwrap();
    let config = SimConfig {
        router: RouterKind::Algorithm4,
        policy: WildcardPolicy::LeastLoaded,
        fault_handling: handling,
        ..SimConfig::default()
    };
    let faulty = space.word_from_rank(6).unwrap();
    let sim = ShardedSimulation::new(space, config, 2)
        .and_then(|sim| sim.with_faults(vec![faulty]))
        .unwrap();
    let traffic = workload::uniform_burst(space, messages, 5);
    sim.run_recorded(&traffic, recorder);
}

const HANDLINGS: [(FaultHandling, &str); 2] = [
    (FaultHandling::Drop, "drop"),
    (FaultHandling::SourceReroute, "reroute"),
];

#[test]
fn chrome_exports_of_seeded_runs_match_the_pinned_files() {
    for (handling, name) in HANDLINGS {
        let mut jsonl = JsonlRecorder::new(Vec::new());
        let mut live = ChromeTraceRecorder::new(Vec::new());
        {
            let mut fan = FanoutRecorder::new();
            fan.push(&mut jsonl);
            fan.push(&mut live);
            run_around_a_fault(handling, 4, 40, &mut fan);
        }
        let text = String::from_utf8(jsonl.finish().unwrap()).unwrap();
        let run = trace::parse("run.jsonl", &text, None, None).unwrap();
        let exported = String::from_utf8(trace::export(&run, Vec::new()).unwrap()).unwrap();
        let kind = match handling {
            FaultHandling::Drop => "\"name\":\"wildcard\"",
            _ => "\"name\":\"reroute\"",
        };
        for record in [kind, "\"name\":\"queue\"", "\"dropped\":", "\"hops\":"] {
            assert!(exported.contains(record), "the {name} run lacks {record}");
        }
        let live = String::from_utf8(live.finish().unwrap()).unwrap();
        assert_eq!(live, exported, "a live and an offline export agree");
        check_pinned(&format!("chrome_{name}.json"), &exported);
    }
}

#[test]
fn progress_lines_and_the_telemetry_report_match_the_pinned_text() {
    let (mut progress, mut reports) = (String::new(), String::new());
    for (handling, name) in HANDLINGS {
        let mut snapshots = SnapshotRecorder::new(4, Vec::new());
        run_around_a_fault(handling, 5, 1_500, &mut snapshots);
        let (telemetry, lines) = snapshots.finish().unwrap();
        let report = telemetry.to_string();
        assert!(report.contains("  dropped ("), "{name}: {report}");
        let max_latency: u64 = report
            .lines()
            .find_map(|l| l.strip_prefix("latency:"))
            .and_then(|l| l.rsplit(' ').next()?.parse().ok())
            .unwrap();
        assert!(
            max_latency >= 64,
            "{name}: latencies reach the log-bucketed range"
        );
        progress += &format!("# {name}\n{}", String::from_utf8(lines).unwrap());
        reports += &format!("# {name}\n{report}");
    }
    check_pinned("progress.txt", &progress);
    check_pinned("telemetry.txt", &reports);
}
/// The engine profile's Chrome export: one named lane per shard, then
/// one `X` slice per timed lap. Slice times are wall-clock, so only
/// their shape is checked.
#[test]
fn engine_profile_chrome_lanes_and_framing_are_pinned() {
    let space = DeBruijn::new(2, 6).unwrap();
    let sim = ShardedSimulation::new(space, SimConfig::default(), 3).unwrap();
    let traffic = workload::uniform_burst(space, 300, 1);
    let config = ProfileConfig {
        sample_every: 0,
        slices: true,
    };
    let (_, profile) = sim.run_profiled(&traffic, &mut NullRecorder, &config);
    let text = profile.chrome_trace();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines[..4],
        [
            "[",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"shard 0 (worker 0)\"}},",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,\"args\":{\"name\":\"shard 1 (worker 0)\"}},",
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":2,\"args\":{\"name\":\"shard 2 (worker 0)\"}},",
        ]
    );
    let slices = &lines[4..lines.len() - 1];
    assert_eq!(slices.len(), profile.slices.len());
    assert!(!slices.is_empty());
    for (i, (line, slice)) in slices.iter().zip(&profile.slices).enumerate() {
        let head = format!(
            "{{\"name\":\"{}\",\"cat\":\"engine\",\"ph\":\"X\",\"ts\":",
            slice.phase.name()
        );
        let tail = format!("\"pid\":0,\"tid\":{}}}", slice.sid);
        let line = line
            .strip_suffix(',')
            .filter(|_| i + 1 < slices.len())
            .unwrap_or(line);
        assert!(line.starts_with(&head) && line.ends_with(&tail), "{line}");
    }
    assert_eq!(lines.last(), Some(&"]"));
    assert!(text.ends_with("\n]\n"));
    let mut empty = profile.clone();
    empty.shard_profs.clear();
    empty.slices.clear();
    assert_eq!(empty.chrome_trace(), "[\n]\n");
}

/// The `dbr_*` families named in OBSERVABILITY.md's naming table,
/// without their labels.
fn documented_families() -> BTreeSet<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/OBSERVABILITY.md");
    let doc = std::fs::read_to_string(path).unwrap();
    let section = doc
        .split("### Metric naming conventions")
        .nth(1)
        .and_then(|rest| rest.split("\n### ").next())
        .expect("the naming section");
    section
        .lines()
        .filter_map(|row| row.strip_prefix("| `"))
        .flat_map(|row| {
            let first_cell = row.split(" |").next().unwrap_or("");
            first_cell.split('`').step_by(2).collect::<Vec<_>>()
        })
        .filter(|name| name.starts_with("dbr_"))
        .map(|name| name.split('{').next().unwrap().to_string())
        .collect()
}

/// Builds the three registries the program exposes and checks that
/// their `dbr_*` families, labels ignored, are exactly the ones the
/// naming table documents: a `dbr simulate --listen` registry after a
/// faulty run with monitors and one scrape, a `dbr serve` registry
/// after a few queries, and a `dbr profile` registry.
#[test]
fn the_naming_table_lists_exactly_the_live_families() {
    let space = DeBruijn::new(2, 6).unwrap();
    let config = SimConfig {
        router: RouterKind::Algorithm4,
        policy: WildcardPolicy::LeastLoaded,
        ..SimConfig::default()
    };
    let sim = ShardedSimulation::new(space, config, 2)
        .and_then(|sim| sim.with_faults(vec![Word::parse(2, "010101").unwrap()]))
        .unwrap();
    let traffic = workload::uniform_random(space, 400, 3);

    let simulate = Arc::new(MetricsRegistry::new());
    let mut recorder = RegistryRecorder::new(&simulate);
    let mut monitors = MonitorSet::identifying(DebruijnGraph::undirected(space).unwrap()).unwrap();
    {
        let mut fan = FanoutRecorder::new();
        fan.push(&mut recorder);
        fan.push(&mut monitors);
        sim.run_recorded(&traffic, &mut fan);
    }
    monitors.export(&simulate);
    let scrape = ScrapeServer::bind("127.0.0.1:0", Arc::clone(&simulate)).unwrap();
    ScrapeServer::get(scrape.local_addr(), "/metrics").unwrap();
    scrape.shutdown();

    let serve = Arc::new(MetricsRegistry::new());
    let service_config = ServiceConfig {
        workers: 2,
        ..ServiceConfig::new(2)
    };
    let service = QueryService::bind("127.0.0.1:0", service_config, Arc::clone(&serve)).unwrap();
    for target in [
        "/distance?x=0000&y=1111",
        "/route?x=0110&y=1011",
        "/distance?x=0000&y=1111",
        "/distance?x=012&y=000",
    ] {
        let _ = ScrapeServer::get(service.local_addr(), target);
    }
    service.shutdown().unwrap();

    let profile = MetricsRegistry::new();
    let (_, engine) = sim.run_profiled(&traffic, &mut NullRecorder, &ProfileConfig::default());
    engine.export_to(&profile);

    let live: BTreeSet<String> = [simulate.snapshot(), serve.snapshot(), profile.snapshot()]
        .iter()
        .flat_map(|snap| snap.families.keys())
        .filter(|name| name.starts_with("dbr_"))
        .cloned()
        .collect();
    let documented = documented_families();
    assert_eq!(
        live.difference(&documented).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "live families the naming table lacks"
    );
    assert_eq!(
        documented.difference(&live).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "documented families no live registry has"
    );
}
