// Tests of the `dbr trace` family (`trace.rs`), compiled into
// `cli::tests` (see `tests.rs`).

#[test]
fn parses_trace_subcommands() {
    assert_eq!(
        parse_line("trace summary run.jsonl").unwrap(),
        Command::Trace(TraceAction::Summary {
            file: "run.jsonl".into(),
            radix: None,
        })
    );
    assert_eq!(
        parse_line("trace links run.jsonl --top 3 --radix 12").unwrap(),
        Command::Trace(TraceAction::Links {
            file: "run.jsonl".into(),
            radix: Some(12),
            top: 3,
        })
    );
    assert!(matches!(
        parse_line("trace hist latency run.jsonl").unwrap(),
        Command::Trace(TraceAction::Hist {
            metric: TraceMetric::Latency,
            ..
        })
    ));
    assert!(matches!(
        parse_line("trace diff a.jsonl b.jsonl").unwrap(),
        Command::Trace(TraceAction::Diff { .. })
    ));
    assert!(matches!(
        parse_line("trace export run.jsonl run.json").unwrap(),
        Command::Trace(TraceAction::Export { .. })
    ));
}

#[test]
fn trace_errors_fail_loudly_with_usage() {
    let err = parse_line("trace frobnicate run.jsonl").unwrap_err();
    assert!(err.contains("unknown trace action 'frobnicate'"), "{err}");
    assert!(err.contains("dbr trace summary"), "{err}");
    let err = parse_line("trace").unwrap_err();
    assert!(err.contains("missing trace action"), "{err}");
    // Misspelled and misplaced flags are rejected, not ignored.
    let err = parse_line("trace links run.jsonl --topp 3").unwrap_err();
    assert!(err.contains("unexpected flag --topp"), "{err}");
    assert!(parse_line("trace summary run.jsonl --top 3").is_err());
    let err = parse_line("trace hist hopss run.jsonl").unwrap_err();
    assert!(err.contains("unknown metric 'hopss'"), "{err}");
    // Wrong arity names the expected grammar.
    let err = parse_line("trace diff only-one.jsonl").unwrap_err();
    assert!(err.contains("trace diff <A> <B>"), "{err}");
    assert!(parse_line("trace summary run.jsonl --radix x").is_err());
}

#[test]
fn trace_summary_reproduces_live_metrics() {
    // End-to-end: simulate with --trace + --metrics, then check the
    // offline reconstruction repeats the live histogram block.
    let path = std::env::temp_dir().join(format!("dbr-cli-trace-{}.jsonl", std::process::id()));
    let path_str = path.to_str().unwrap().to_string();
    let line = format!("simulate 2 5 --messages 150 --router alg4 --metrics --trace {path_str}");
    let live = run(&parse_line(&line).unwrap()).unwrap();
    let offline = run(&parse_line(&format!("trace summary {path_str}")).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();
    // The whole metrics block matches byte for byte.
    let live_metrics = live.split("== metrics ==").nth(1).unwrap();
    let offline_metrics = offline.split("== metrics ==").nth(1).unwrap();
    let live_block = live_metrics.split("trace written to").next().unwrap();
    assert_eq!(live_block.trim_end(), offline_metrics.trim_end());
    // And so do the headline report lines.
    for needle in [
        "delivered:    150/150",
        "dropped:      0",
        "mean hops:",
        "mean latency:",
    ] {
        let line = live.lines().find(|l| l.starts_with(needle)).unwrap();
        assert!(offline.contains(line), "{offline}\nmissing {line}");
    }
}

#[test]
fn trace_prom_command_matches_live_metrics_out() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let jsonl = dir.join(format!("dbr-prom-{pid}.jsonl"));
    let live = dir.join(format!("dbr-prom-live-{pid}.prom"));
    let (jsonl_s, live_s) = (jsonl.to_str().unwrap(), live.to_str().unwrap());
    let line =
        format!("simulate 2 4 --messages 60 --seed 8 --trace {jsonl_s} --metrics-out {live_s}");
    run(&parse_line(&line).unwrap()).unwrap();
    let offline = run(&parse_line(&format!("trace prom {jsonl_s} --threads 4")).unwrap()).unwrap();
    let live_text = std::fs::read_to_string(&live).unwrap();
    std::fs::remove_file(&jsonl).ok();
    std::fs::remove_file(&live).ok();
    // The live file holds the run's own families and nothing else, so
    // the offline fold reproduces it byte for byte.
    assert_eq!(offline, live_text);
    assert!(offline.contains("dbr_sim_injected_total 60"), "{offline}");
}

#[test]
fn trace_export_matches_live_chrome_trace() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let jsonl = dir.join(format!("dbr-cli-exp-{pid}.jsonl"));
    let live = dir.join(format!("dbr-cli-exp-live-{pid}.json"));
    let offline = dir.join(format!("dbr-cli-exp-off-{pid}.json"));
    let (jsonl_s, live_s, offline_s) = (
        jsonl.to_str().unwrap(),
        live.to_str().unwrap(),
        offline.to_str().unwrap(),
    );
    let line =
        format!("simulate 2 4 --messages 30 --seed 5 --trace {jsonl_s} --chrome-trace {live_s}");
    run(&parse_line(&line).unwrap()).unwrap();
    let out = run(&parse_line(&format!("trace export {jsonl_s} {offline_s}")).unwrap()).unwrap();
    assert!(out.contains("exported"), "{out}");
    let live_text = std::fs::read_to_string(&live).unwrap();
    let offline_text = std::fs::read_to_string(&offline).unwrap();
    for p in [&jsonl, &live, &offline] {
        std::fs::remove_file(p).ok();
    }
    // Live and offline exports of the same run are identical.
    assert_eq!(live_text, offline_text);
}
