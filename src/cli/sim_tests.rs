// Tests of `dbr simulate` and `dbr profile` (`sim.rs`), compiled into
// `cli::tests` (see `tests.rs`).

#[test]
fn simulate_command_delivers_everything() {
    let out =
        run(&parse_line("simulate 2 5 --messages 200 --router alg4 --seed 9").unwrap()).unwrap();
    assert!(out.contains("delivered:    200/200"), "{out}");
    // Without --metrics, no observability sections appear.
    assert!(!out.contains("== metrics =="), "{out}");
}

#[test]
fn simulate_reports_match_for_any_thread_and_shard_count() {
    for base in [
        "simulate 2 6 --messages 400 --router alg2 --seed 3",
        "simulate 2 6 --messages 400 --router alg4 --policy round-robin --seed 3",
    ] {
        let want = run(&parse_line(base).unwrap()).unwrap();
        for extra in ["--threads 8", "--shards 4 --threads 2"] {
            let got = run(&parse_line(&format!("{base} {extra}")).unwrap()).unwrap();
            assert_eq!(want, got, "{base} {extra}");
        }
    }
}

#[test]
fn simulate_next_hop_and_workload_flags_work_end_to_end() {
    // Parsing: tiers and workloads round-trip, junk is rejected.
    assert!(matches!(
        parse_line("simulate 2 6 --shards 2 --next-hop compressed --workload zipf:1.5")
            .unwrap(),
        Command::Simulate(Simulate {
            sim: SimArgs {
                next_hop: NextHopMode::Compressed,
                workload: WorkloadKind::Zipf(exp),
                ..
            },
            ..
        }) if exp == 1.5
    ));
    assert!(matches!(
        parse_line("simulate 2 6 --workload zipf").unwrap(),
        Command::Simulate(Simulate {
            sim: SimArgs {
                next_hop: NextHopMode::Auto,
                workload: WorkloadKind::Zipf(exp),
                ..
            },
            ..
        }) if exp == 1.0
    ));
    assert!(matches!(
        parse_line("simulate 2 6 --workload burst").unwrap(),
        Command::Simulate(Simulate {
            sim: SimArgs {
                workload: WorkloadKind::Burst,
                ..
            },
            ..
        })
    ));
    assert!(parse_line("simulate 2 6 --next-hop turbo").is_err());
    assert!(parse_line("simulate 2 6 --workload zipf:-1").is_err());
    assert!(parse_line("simulate 2 6 --workload poisson").is_err());
    // A next-hop tier serves the optimal routers under the zero policy.
    let err =
        run(&parse_line("simulate 2 5 --next-hop dense --policy random").unwrap()).unwrap_err();
    assert!(err.contains("fallback tier"), "{err}");

    // Execution: the compressed tier on a 4x4 grid reproduces the
    // single-threaded dense run byte for byte, on a skewed workload.
    let base = "simulate 2 6 --messages 300 --router alg2 --seed 5 --workload zipf:1.2";
    let dense = run(&parse_line(&format!("{base} --shards 1 --next-hop dense")).unwrap()).unwrap();
    let compressed = run(&parse_line(&format!(
        "{base} --shards 4 --threads 4 --next-hop compressed"
    ))
    .unwrap())
    .unwrap();
    assert_eq!(dense, compressed);
    assert!(dense.contains("delivered:    300/300"), "{dense}");
}

#[test]
fn parses_observability_flags() {
    let cmd = parse_line(
        "simulate 2 6 --listen 127.0.0.1:0 --metrics-out m.prom \
         --flight-recorder f.jsonl --flight-capacity 128 --faults 000000,111111 --ttl 9",
    )
    .unwrap();
    match cmd {
        Command::Simulate(Simulate {
            sim: SimArgs { faults, ttl, .. },
            listen,
            metrics_out,
            flight_recorder,
            flight_capacity,
            ..
        }) => {
            assert_eq!(listen.as_deref(), Some("127.0.0.1:0"));
            assert_eq!(metrics_out.as_deref(), Some("m.prom"));
            assert_eq!(flight_recorder.as_deref(), Some("f.jsonl"));
            assert_eq!(flight_capacity, 128);
            assert_eq!(faults.as_deref(), Some("000000,111111"));
            assert_eq!(ttl, 9);
        }
        other => panic!("{other:?}"),
    }
    // Defaults: no listeners, 4096-event ring, no hop budget.
    assert!(matches!(
        parse_line("simulate 2 6").unwrap(),
        Command::Simulate(Simulate {
            sim: SimArgs {
                faults: None,
                ttl: 0,
                ..
            },
            listen: None,
            metrics_out: None,
            flight_recorder: None,
            flight_capacity: 4096,
            ..
        })
    ));
    assert!(parse_line("simulate 2 6 --flight-capacity 0").is_err());
    assert!(parse_line("simulate 2 6 --ttl x").is_err());
    assert_eq!(
        parse_line("serve 2").unwrap(),
        Command::Serve(Serve {
            d: 2,
            listen: "127.0.0.1:0".into(),
            threads: 0,
            cache_capacity: 4096,
            max_inflight: 256,
            flight_dump: None,
        })
    );
    assert_eq!(
        parse_line(
            "serve 3 --listen 0.0.0.0:9100 --threads 4 --cache-capacity 128 \
             --max-inflight 64 --flight-dump overload.jsonl"
        )
        .unwrap(),
        Command::Serve(Serve {
            d: 3,
            listen: "0.0.0.0:9100".into(),
            threads: 4,
            cache_capacity: 128,
            max_inflight: 64,
            flight_dump: Some("overload.jsonl".into()),
        })
    );
    assert!(parse_line("serve").is_err());
    assert!(parse_line("serve 2 --max-inflight 0").is_err());
    // serve has no --batch flag.
    assert!(parse_line("serve 2 --batch 0").is_err());
    assert_eq!(
        parse_line("trace prom run.jsonl --threads 4").unwrap(),
        Command::Trace(TraceAction::Prom {
            file: "run.jsonl".into(),
            radix: None,
            threads: 4,
        })
    );
}

#[test]
fn simulate_ttl_and_faults_break_out_the_dropped_line() {
    // Clean run: an explicit zero.
    let out = run(&parse_line("simulate 2 5 --messages 100 --seed 4").unwrap()).unwrap();
    assert!(out.contains("dropped:      0\n"), "{out}");
    // Trivial routing always takes k = 5 hops; a 3-hop budget kills
    // every message that is not already at its destination.
    let out =
        run(&parse_line("simulate 2 5 --messages 100 --router trivial --ttl 3 --seed 4").unwrap())
            .unwrap();
    assert!(out.contains("(ttl "), "{out}");
    // A faulty node attributes losses to the fault reasons.
    let out =
        run(&parse_line("simulate 2 5 --messages 200 --faults 00000 --seed 4").unwrap()).unwrap();
    assert!(out.contains("faulty-"), "{out}");
    assert!(!out.contains("dropped:      0\n"), "{out}");
    let err = run(&parse_line("simulate 2 5 --faults 00000,0x1").unwrap()).unwrap_err();
    assert!(err.contains("bad fault"), "{err}");
}

#[test]
fn simulate_metrics_flag_prints_histograms_and_counters() {
    let cmd =
        parse_line("simulate 2 5 --messages 300 --router alg4 --policy least-loaded --metrics")
            .unwrap();
    assert!(matches!(
        cmd,
        Command::Simulate(Simulate {
            metrics: true,
            trace: None,
            ..
        })
    ));
    let out = run(&cmd).unwrap();
    assert!(out.contains("== metrics =="), "{out}");
    assert!(out.contains("hops per delivered message"), "{out}");
    assert!(out.contains("queue depth"), "{out}");
    assert!(out.contains("wildcard resolutions:"), "{out}");
    assert!(out.contains("by policy least-loaded:"), "{out}");
    // Optimal routing on a fault-free network: zero stretch.
    assert!(
        out.contains("stretch over shortest D(X,Y) (mean 0.0000)"),
        "{out}"
    );
}

#[test]
fn simulate_metrics_out_writes_prometheus_text() {
    let path = std::env::temp_dir().join(format!("dbr-mout-{}.prom", std::process::id()));
    let path_str = path.to_str().unwrap();
    let line = format!("simulate 2 5 --messages 120 --seed 2 --metrics-out {path_str}");
    let out = run(&parse_line(&line).unwrap()).unwrap();
    assert!(out.contains("metrics snapshot written to"), "{out}");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(text.contains("dbr_sim_injected_total 120"), "{text}");
    assert!(text.contains("dbr_sim_delivered_total 120"), "{text}");
    assert!(text.contains("dbr_link_forward_total{"), "{text}");
    assert!(!text.contains("dbr_core_"), "{text}");
}

#[test]
fn simulate_flight_recorder_dump_round_trips_through_trace_summary() {
    let dir = std::env::temp_dir();
    let dump = dir.join(format!("dbr-flight-cli-{}.jsonl", std::process::id()));
    let dump_str = dump.to_str().unwrap();
    // A faulty node sheds enough messages at injection time to trip
    // the default drop-burst trigger (8 drops in 128 ticks).
    let line =
        format!("simulate 2 5 --messages 400 --faults 00000 --seed 4 --flight-recorder {dump_str}");
    let out = run(&parse_line(&line).unwrap()).unwrap();
    assert!(out.contains("flight recorder: "), "{out}");
    assert!(out.contains("window dumped to"), "{out}");
    // The dump is a regular trace: `dbr trace summary` parses it and
    // shows the per-reason drop breakdown.
    let summary = run(&parse_line(&format!("trace summary {dump_str}")).unwrap()).unwrap();
    std::fs::remove_file(&dump).ok();
    assert!(summary.contains("dropped ("), "{summary}");
    assert!(summary.contains("dropped:      "), "{summary}");
    // A clean run arms but never fires.
    let line = format!("simulate 2 5 --messages 50 --flight-recorder {dump_str}");
    let out = run(&parse_line(&line).unwrap()).unwrap();
    assert!(
        out.contains("flight recorder: no anomaly detected"),
        "{out}"
    );
    assert!(!dump.exists(), "no dump without an anomaly");
}

#[test]
fn zipf_skew_trips_the_queue_depth_trigger_through_the_cli() {
    let dir = std::env::temp_dir();
    let dump = dir.join(format!("dbr-flight-zipf-cli-{}.jsonl", std::process::id()));
    let dump_str = dump.to_str().unwrap();
    // A heavy zipf burst funnels most of the traffic into rank 0,
    // whose in-links back up past the default 1024 high-water mark.
    let line =
        format!("simulate 2 6 --messages 12000 --workload zipf:2.5 --flight-recorder {dump_str}");
    let out = run(&parse_line(&line).unwrap()).unwrap();
    assert!(out.contains("queue high-water breach"), "{out}");
    let summary = run(&parse_line(&format!("trace summary {dump_str}")).unwrap()).unwrap();
    std::fs::remove_file(&dump).ok();
    assert!(summary.contains("events:"), "{summary}");
    assert!(summary.contains("makespan:"), "{summary}");
}

#[test]
fn simulate_trace_flag_writes_parseable_jsonl() {
    let path = std::env::temp_dir().join(format!("dbr-trace-{}.jsonl", std::process::id()));
    let path_str = path.to_str().unwrap();
    let line = format!("simulate 2 4 --messages 50 --router alg4 --trace {path_str}");
    let out = run(&parse_line(&line).unwrap()).unwrap();
    assert!(out.contains("trace written to"), "{out}");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let mut injects = 0;
    let mut delivers = 0;
    for l in text.lines() {
        match debruijn_net::record::parse_event(2, l).unwrap() {
            debruijn_net::NetEvent::Inject { .. } => injects += 1,
            debruijn_net::NetEvent::Deliver { .. } => delivers += 1,
            _ => {}
        }
    }
    assert_eq!(injects, 50, "{text}");
    assert_eq!(delivers, 50);
}

#[test]
fn simulate_parses_progress_and_chrome_trace() {
    let cmd = parse_line("simulate 2 6 --progress 25 --chrome-trace t.json").unwrap();
    assert!(matches!(
        cmd,
        Command::Simulate(Simulate {
            progress: Some(25),
            ..
        })
    ));
    assert!(parse_line("simulate 2 6 --progress 0").is_err());
    assert!(parse_line("simulate 2 6 --progress x").is_err());
    assert!(parse_line("simulate 2 6 --chrome-tracee t.json").is_err());
}

#[test]
fn chrome_trace_flag_writes_perfetto_json() {
    let dir = std::env::temp_dir();
    let chrome = dir.join(format!("dbr-cli-chrome-{}.json", std::process::id()));
    let chrome_str = chrome.to_str().unwrap().to_string();
    let line = format!("simulate 2 4 --messages 40 --chrome-trace {chrome_str}");
    let out = run(&parse_line(&line).unwrap()).unwrap();
    assert!(out.contains("chrome trace written to"), "{out}");
    let text = std::fs::read_to_string(&chrome).unwrap();
    std::fs::remove_file(&chrome).ok();
    assert!(text.starts_with("[\n{"), "{text}");
    assert!(text.trim_end().ends_with(']'), "{text}");
    assert!(text.contains("\"thread_name\""), "{text}");
    assert!(text.contains("\"cat\":\"message\""), "{text}");
}

#[test]
fn parses_profile_flags_with_defaults() {
    let cmd = parse_line("profile 2 6").unwrap();
    assert!(
        matches!(
            cmd,
            Command::Profile(Profile {
                sim: SimArgs {
                    d: 2,
                    k: 6,
                    messages: 1000,
                    ..
                },
                shards: 4,
                sample: 64,
                top: 5,
                metrics: false,
                ..
            })
        ),
        "{cmd:?}"
    );
    let cmd = parse_line(
        "profile 2 8 --messages 500 --shards 8 --threads 2 --sample 16 --top 3 \
         --profile-out p.json --chrome-out c.json --next-hop compressed --workload zipf:1.2",
    )
    .unwrap();
    match cmd {
        Command::Profile(Profile {
            sim:
                SimArgs {
                    messages,
                    threads,
                    next_hop,
                    workload,
                    ..
                },
            shards,
            sample,
            top,
            profile_out,
            chrome_out,
            ..
        }) => {
            assert_eq!(messages, 500);
            assert_eq!(shards, 8);
            assert_eq!(threads, 2);
            assert_eq!(sample, 16);
            assert_eq!(top, 3);
            assert_eq!(profile_out.as_deref(), Some("p.json"));
            assert_eq!(chrome_out.as_deref(), Some("c.json"));
            assert_eq!(next_hop, NextHopMode::Compressed);
            assert_eq!(workload, WorkloadKind::Zipf(1.2));
        }
        other => panic!("{other:?}"),
    }
    assert!(parse_line("profile 2").is_err(), "missing k");
    assert!(parse_line("profile 2 6 --shards 0").is_err());
    assert!(parse_line("profile 2 6 --samples 8").is_err(), "typo flag");
}

#[test]
fn profile_report_matches_simulate_and_emits_engine_sections() {
    let params = "2 6 --messages 300 --shards 4 --threads 2 --seed 9";
    let sim = run(&parse_line(&format!("simulate {params}")).unwrap()).unwrap();
    let tmp = std::env::temp_dir();
    let json_path = tmp.join(format!("dbr-prof-{}.json", std::process::id()));
    let chrome_path = tmp.join(format!("dbr-prof-{}.chrome.json", std::process::id()));
    let prof = run(&parse_line(&format!(
        "profile {params} --sample 8 --metrics --profile-out {} --chrome-out {}",
        json_path.display(),
        chrome_path.display()
    ))
    .unwrap())
    .unwrap();
    // The seven headline lines are byte-identical: the profiler
    // observes without perturbing the report.
    let head = |s: &str| s.lines().take(7).collect::<Vec<_>>().join("\n");
    assert_eq!(head(&sim), head(&prof));
    for needle in [
        "== engine profile ==",
        "phase",
        "barrier",
        "imbalance:",
        "sampler:      1/8",
        "critical paths",
        "profile written to",
        "engine chrome trace written to",
        "== engine metrics ==",
        "dbr_engine_phase_nanos_total{phase=\"compute\"}",
        "dbr_engine_sampled_messages_total",
    ] {
        assert!(prof.contains(needle), "missing {needle:?} in:\n{prof}");
    }
    let json = std::fs::read_to_string(&json_path).unwrap();
    std::fs::remove_file(&json_path).ok();
    for key in [
        "\"schema\": \"dbr-engine-profile/v1\"",
        "\"phases\": [",
        "\"critical_paths\": [",
        "\"imbalance\": {",
    ] {
        assert!(json.contains(key), "missing {key:?} in:\n{json}");
    }
    let chrome = std::fs::read_to_string(&chrome_path).unwrap();
    std::fs::remove_file(&chrome_path).ok();
    assert!(chrome.starts_with("[\n{"), "{chrome}");
    assert!(chrome.ends_with("\n]\n"), "{chrome}");
    assert!(chrome.contains("\"ph\":\"X\""), "phase slices present");
}
