// Tests of the structure and path commands (`graph.rs`), compiled into
// `cli::tests` (see `tests.rs`).

#[test]
fn sequence_command_prints_valid_sequence() {
    let out = run(&parse_line("sequence 2 3").unwrap()).unwrap();
    let digits: Vec<u8> = out.trim().bytes().map(|b| b - b'0').collect();
    assert!(euler::is_de_bruijn_sequence(2, 3, &digits), "{out}");
    let out2 = run(&parse_line("sequence 2 3 --prefer-largest").unwrap()).unwrap();
    assert_eq!(out2.trim(), "00011101");
}

#[test]
fn census_command_reports_structure() {
    let out = run(&parse_line("census 2 3").unwrap()).unwrap();
    assert!(out.contains("8 vertices"), "{out}");
    assert!(out.contains("diameter 3"), "{out}");
}

#[test]
fn average_command_exact_matches_analysis() {
    let out = run(&parse_line("average 2 2 --directed").unwrap()).unwrap();
    assert!(out.starts_with("1.125000"), "{out}");
    assert!(out.contains("1.250000"), "Eq.5 line: {out}");
}

#[test]
fn multipath_command_lists_distinct_shortest_routes() {
    let out = run(&parse_line("multipath 2 0000 1111").unwrap()).unwrap();
    assert!(out.contains("shortest route(s) of length 4"), "{out}");
    // Trivial route plus at least one right-shift variant.
    assert!(out.lines().count() >= 3, "{out}");
}

#[test]
fn gdb_command_routes_in_non_power_graphs() {
    let out = run(&parse_line("gdb 2 12 3 7").unwrap()).unwrap();
    assert!(out.contains("GDB(2,12)"), "{out}");
    assert!(out.contains("distance 3 -> 7"), "{out}");
    let err = run(&parse_line("gdb 2 12 12 0").unwrap()).unwrap_err();
    assert!(err.contains("below N"), "{err}");
}

#[test]
fn disjoint_command_reports_menger_witnesses() {
    let out = run(&parse_line("disjoint 2 000 111").unwrap()).unwrap();
    assert!(out.contains("vertex-disjoint"), "{out}");
    assert!(out.contains("000 -> "), "{out}");
    let err = run(&parse_line("disjoint 2 000 000").unwrap()).unwrap_err();
    assert!(err.contains("differ"), "{err}");
}
