// Tests of `dbr localize` and the monitor plumbing (`localize.rs`),
// compiled into `cli::tests` (see `tests.rs`).

#[test]
fn parses_monitor_flags_and_localize() {
    let cmd = parse_line("simulate 2 6 --monitors identifying --monitor-dump ev.jsonl");
    assert!(matches!(
        cmd.unwrap(),
        Command::Simulate(Simulate {
            monitors: Some(Placement::Identifying),
            ..
        })
    ));
    let cmd = parse_line("localize 2 6 t.jsonl --directed --threshold 3").unwrap();
    assert_eq!(
        cmd,
        Command::Localize(Localize {
            d: 2,
            k: 6,
            file: "t.jsonl".into(),
            directed: true,
            monitors: Placement::Identifying,
            threshold: 3,
        })
    );
    assert!(parse_line("simulate 2 6 --monitors sometimes").is_err());
    assert!(parse_line("localize 2 6 t.jsonl --monitors none").is_err());
    assert!(parse_line("localize 2 6 t.jsonl --threshold 0").is_err());
}

#[test]
fn simulate_monitors_localize_the_injected_fault_and_replay_agrees() {
    let dir = std::env::temp_dir().join("dbr-cli-localize");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join(format!("t-{}.jsonl", std::process::id()));
    let trace_str = trace.to_str().unwrap();
    let sim = run(&parse_line(&format!(
        "simulate 2 6 --messages 300 --shards 2 --seed 7 --faults 010101 \
         --monitors identifying --trace {trace_str}"
    ))
    .unwrap())
    .unwrap();
    assert!(
        sim.contains("verdict:   exact — faulty node 010101"),
        "{sim}"
    );
    // Replaying the same trace offline reaches the same verdict.
    let loc = run(&parse_line(&format!("localize 2 6 {trace_str}")).unwrap()).unwrap();
    assert!(
        loc.contains("verdict:   exact — faulty node 010101"),
        "{loc}"
    );
    std::fs::remove_file(&trace).ok();
    // `--monitors none` leaves the output byte-identical.
    let base = "simulate 2 6 --messages 300 --shards 2 --seed 7 --faults 010101";
    let bare = run(&parse_line(base).unwrap()).unwrap();
    let none = run(&parse_line(&format!("{base} --monitors none")).unwrap()).unwrap();
    assert_eq!(bare, none);
}

#[test]
fn localize_rejects_a_trace_of_another_word_length() {
    // A DG(2,6) run whose drops name 6-digit nodes, replayed against
    // DG(2,3) monitors: an error naming the line, not a panic.
    let dir = std::env::temp_dir();
    let trace = dir.join(format!("dbr-cli-f6-{}.jsonl", std::process::id()));
    let trace_str = trace.to_str().unwrap();
    run(&parse_line(&format!(
        "simulate 2 6 --messages 400 --faults 000000 --trace {trace_str}"
    ))
    .unwrap())
    .unwrap();
    let err = run(&parse_line(&format!("localize 2 3 {trace_str}")).unwrap()).unwrap_err();
    std::fs::remove_file(&trace).ok();
    assert!(
        err.starts_with(&format!("{trace_str}:1: address ")),
        "{err}"
    );
    assert!(err.ends_with(" has 6 digits, not 3"), "{err}");
}
