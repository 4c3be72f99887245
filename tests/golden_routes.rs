//! Golden route bytes for `dbr route --batch`.
//!
//! `tests/golden/route_d{2,3}.pairs` hold seeded pairs over radix 2 and
//! 3 at k ∈ {8, 64, 130, 512}: uniform pairs, planted common blocks,
//! periodic words (many equal-length runs, so many ties) and
//! destinations shared by several sources, which take the grouped
//! destination-major path. `route_d{2,3}.out` are the routes the
//! bit-parallel engine printed for them when the files were recorded.
//!
//! A Theorem-2 kernel may only change how fast it finds a minimizer,
//! never which one: any drift in tie-breaking changes a route's digits
//! or shift order, and this diff fails. `Engine::Auto` resolves to the
//! bit-parallel engine at every k ≤ 512, so it must print the same bytes.

use debruijn_suite::cli;

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn batch_routes(d: u8, engine: &str, threads: usize) -> String {
    let pairs = format!(
        "{}/tests/golden/route_d{d}.pairs",
        env!("CARGO_MANIFEST_DIR")
    );
    let args: Vec<String> = [
        "route",
        &d.to_string(),
        "--batch",
        &pairs,
        "--engine",
        engine,
        "--threads",
        &threads.to_string(),
    ]
    .map(String::from)
    .to_vec();
    cli::run(&cli::parse(&args).expect("valid command")).expect("batch runs")
}

fn assert_same_lines(got: &str, want: &str, what: &str) {
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{what}: output line {} differs", n + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{what}: line count"
    );
    assert_eq!(got, want, "{what}: trailing bytes");
}

#[test]
fn bit_parallel_batch_routes_match_the_golden_bytes() {
    for d in [2u8, 3] {
        let want = golden(&format!("route_d{d}.out"));
        assert_same_lines(
            &batch_routes(d, "bit-parallel", 1),
            &want,
            &format!("d={d} bit-parallel"),
        );
    }
}

#[test]
fn auto_batch_routes_match_the_golden_bytes() {
    for d in [2u8, 3] {
        let want = golden(&format!("route_d{d}.out"));
        for threads in [1, 2] {
            assert_same_lines(
                &batch_routes(d, "auto", threads),
                &want,
                &format!("d={d} auto --threads {threads}"),
            );
        }
    }
}
