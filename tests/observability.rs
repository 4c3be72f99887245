//! End-to-end checks on the observability layer: recorded metrics
//! against the analytic quantities from `crates/analysis`, the JSONL
//! stream against the aggregate report, and the metrics registry /
//! scrape endpoint / flight recorder pipeline against a live run (the
//! `examples/live_metrics.rs` scenario, locked down).

use std::sync::Arc;

use debruijn_suite::analysis::average;
use debruijn_suite::core::{DeBruijn, Word};
use debruijn_suite::net::metrics::{
    register_core_profile, replay_sharded, AnomalyTriggers, FlightRecorder, MetricsRegistry,
    RegistryRecorder, ScrapeServer,
};
use debruijn_suite::net::record::{parse_event, FanoutRecorder, JsonlRecorder};
use debruijn_suite::net::{
    workload, InMemoryRecorder, NetEvent, NextHopMode, RouterKind, ShardedSimulation, SimConfig,
    WildcardPolicy,
};

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
    // Source routes, so the run itself dispatches the distance engines
    // whose counters the scrape carries.
    let sim = ShardedSimulation::new(space, config, 2)
        .and_then(|sim| sim.with_next_hop(NextHopMode::Fallback))
        .and_then(|sim| sim.with_faults(vec![faulty]))
        .unwrap();
    // One burst at tick 0: the faulty node's own messages drop together.
    let traffic = workload::uniform_burst(space, 3_000, 7);

    let registry = Arc::new(MetricsRegistry::new());
    register_core_profile(&registry);
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
    // counters and the core profile collectors in a single exposition.
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
    // Engine-dispatch and route-cache counters from the collector are
    // present in the same scrape (process-wide, so only `>=` holds).
    assert!(text.contains("# TYPE dbr_core_engine_solves_total counter"));
    assert!(text.contains("# TYPE dbr_core_route_cache_total counter"));
    let solves: u64 = text
        .lines()
        .filter(|l| l.starts_with("dbr_core_engine_solves_total{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert!(solves > 0, "routing must have dispatched engines:\n{text}");
    assert!(
        text.contains("dbr_core_route_cache_total{outcome=\"hit\"}"),
        "{text}"
    );
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
