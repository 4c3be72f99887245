// Tests of `dbr route`, `dbr distance` and `dbr serve` (`query.rs`),
// compiled into `cli::tests` (see `tests.rs`).

#[test]
fn parses_route_with_flags() {
    let cmd = parse_line("route 2 0110 1011 --engine suffix-tree").unwrap();
    assert_eq!(
        cmd,
        Command::Route(Query {
            d: 2,
            pair: Some(("0110".into(), "1011".into())),
            directed: false,
            engine: Engine::SuffixTree,
            threads: 1,
            batch: None,
        })
    );
}

#[test]
fn parses_directed_distance() {
    let cmd = parse_line("distance 3 012 210 --directed").unwrap();
    assert!(matches!(
        cmd,
        Command::Distance(Query { directed: true, .. })
    ));
}

#[test]
fn parses_engine_threads_and_batch_flags() {
    let cmd = parse_line("distance 2 --batch pairs.txt --threads 8 --engine bit-parallel");
    assert_eq!(
        cmd.unwrap(),
        Command::Distance(Query {
            d: 2,
            pair: None,
            directed: false,
            engine: Engine::BitParallel,
            threads: 8,
            batch: Some("pairs.txt".into()),
        })
    );
    // `-` (stdin) is a value, unlike a word that starts with `--`.
    assert!(matches!(
        parse_line("distance 2 --batch -").unwrap(),
        Command::Distance(Query { batch: Some(b), .. }) if b == "-"
    ));
    // A pair and --batch together is an arity error, as is neither.
    assert!(parse_line("distance 2 01 10 --batch pairs.txt").is_err());
    assert!(parse_line("distance 2").is_err());
    assert!(parse_line("distance 2 01 10 --engine quantum").is_err());
    let cmd = parse_line("simulate 2 6 --threads 4").unwrap();
    assert!(matches!(
        cmd,
        Command::Simulate(Simulate {
            sim: SimArgs { threads: 4, .. },
            shards: 1,
            ..
        })
    ));
}

#[test]
fn batch_distance_is_identical_for_any_thread_count() {
    // All ordered pairs of DG(2,4) through the batch path: the
    // fan-out must be invisible in the output, and every engine must
    // agree with the default.
    let sp = DeBruijn::new(2, 4).unwrap();
    let mut lines = String::new();
    for x in sp.vertices() {
        for y in sp.vertices() {
            lines.push_str(&format!("{x} {y}\n"));
        }
    }
    let path = std::env::temp_dir().join(format!("dbr-batch-{}.txt", std::process::id()));
    std::fs::write(&path, &lines).unwrap();
    let path_str = path.to_str().unwrap();
    let run_with = |extra: &str| {
        run(&parse_line(&format!("distance 2 --batch {path_str} {extra}")).unwrap()).unwrap()
    };
    let serial = run_with("--threads 1");
    assert_eq!(serial, run_with("--threads 8"), "threaded batch differs");
    for engine in ["naive", "mp", "suffix-tree", "bit-parallel", "auto"] {
        assert_eq!(serial, run_with(&format!("--engine {engine}")), "{engine}");
    }
    let route_serial =
        run(&parse_line(&format!("route 2 --batch {path_str} --threads 1")).unwrap()).unwrap();
    let route_par =
        run(&parse_line(&format!("route 2 --batch {path_str} --threads 8")).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(route_serial, route_par);
    // Each batch route line is "<len> <route>", one per pair.
    assert_eq!(route_serial.lines().count(), 16 * 16);
}

#[test]
fn batch_errors_name_the_earliest_bad_line_for_any_thread_count() {
    // Bad lines in the second and third chunk; the comment and blank
    // lines count toward line numbers but not toward chunk sizes.
    let path = std::env::temp_dir().join(format!("dbr-badbatch-{}.txt", std::process::id()));
    let write = |bad: &[(usize, &str)]| {
        let mut text = String::from("# header\n\n");
        for i in 0..1500 {
            let line = bad
                .iter()
                .find(|(at, _)| *at == i)
                .map_or("0101 1010", |b| b.1);
            text.push_str(line);
            text.push('\n');
        }
        std::fs::write(&path, text).unwrap();
    };
    let path_str = path.to_str().unwrap().to_string();
    let errors = |cmd: &str| -> Vec<String> {
        [1, 2, 8]
            .map(|t| {
                run(&parse_line(&format!("{cmd} 2 --batch {path_str} --threads {t}")).unwrap())
                    .unwrap_err()
            })
            .to_vec()
    };
    write(&[(700, "0101 01x1"), (1300, "0101")]);
    for cmd in ["distance", "route"] {
        for e in errors(cmd) {
            assert!(e.starts_with("batch line 703: bad Y"), "{cmd}: {e}");
        }
    }
    write(&[(1300, "0101")]);
    for e in errors("distance") {
        assert_eq!(e, "batch line 1303: expected 'X Y'");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn route_command_emits_optimal_route() {
    let cmd = parse_line("route 2 010011 110100").unwrap();
    let out = run(&cmd).unwrap();
    // Two right shifts: 010011 -> 101001 -> 110100.
    assert!(out.contains("distance: 2"), "{out}");
    assert!(out.contains("route:"), "{out}");
    let directed = run(&parse_line("route 2 010011 110100 --directed").unwrap()).unwrap();
    assert!(directed.contains("distance: 4"), "{directed}");
}

#[test]
fn distance_commands_agree_with_library() {
    let out = run(&parse_line("distance 2 0110 1011").unwrap()).unwrap();
    assert_eq!(out.trim(), "1");
    let out = run(&parse_line("distance 2 0110 1011 --directed").unwrap()).unwrap();
    assert_eq!(out.trim(), "2");
}

#[test]
fn run_reports_bad_words() {
    let err = run(&parse_line("distance 2 01 0110").unwrap()).unwrap_err();
    assert!(err.contains("same length"), "{err}");
    let err = run(&parse_line("distance 2 0120 0000").unwrap()).unwrap_err();
    assert!(err.contains("bad X"), "{err}");
}

#[test]
fn serve_service_answers_queries_with_typed_errors() {
    use debruijn_net::metrics::ScrapeServer;
    let registry = Arc::new(MetricsRegistry::new());
    let service = QueryService::bind(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::new(2)
        },
        Arc::clone(&registry),
    )
    .unwrap();
    let addr = service.local_addr();
    assert_eq!(
        ScrapeServer::get(addr, "/distance?x=0110&y=1011").unwrap(),
        "1\n"
    );
    assert_eq!(
        ScrapeServer::get(addr, "/distance?x=0110&y=1011&directed=1").unwrap(),
        "2\n"
    );
    let route = ScrapeServer::get(addr, "/route?x=010011&y=110100").unwrap();
    assert!(route.contains("distance: 2"), "{route}");
    assert!(route.contains("route:"), "{route}");
    // Malformed queries are 400 with a JSON error body; unknown
    // endpoints are 404 — ScrapeServer::get surfaces both as Err.
    assert!(ScrapeServer::get(addr, "/distance?x=0110").is_err());
    assert!(ScrapeServer::get(addr, "/distance?x=01&y=0110").is_err());
    assert!(ScrapeServer::get(addr, "/frobnicate").is_err());
    service.shutdown().unwrap();
    // Every query was counted by endpoint and status, and every
    // rejection by kind.
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter_value(
            "dbr_service_requests_total",
            &[("endpoint", "distance"), ("status", "200")]
        ),
        Some(2)
    );
    assert_eq!(
        snap.counter_value(
            "dbr_service_requests_total",
            &[("endpoint", "distance"), ("status", "400")]
        ),
        Some(2)
    );
    assert_eq!(
        snap.counter_value(
            "dbr_service_requests_total",
            &[("endpoint", "route"), ("status", "200")]
        ),
        Some(1)
    );
    assert_eq!(
        snap.counter_value("dbr_service_errors_total", &[("kind", "missing-param")]),
        Some(1)
    );
    assert_eq!(
        snap.counter_value("dbr_service_errors_total", &[("kind", "length-mismatch")]),
        Some(1)
    );
    assert_eq!(
        snap.counter_value("dbr_service_errors_total", &[("kind", "unknown-endpoint")]),
        Some(1)
    );
}
