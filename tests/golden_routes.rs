//! Golden route bytes for `dbr route --batch`.
//!
//! `tests/golden/route_d{2,3}.pairs` hold seeded pairs over radix 2 and
//! 3 (1-bit and nibble lanes) at k ∈ {8, 64, 130, 512}: uniform pairs,
//! planted common blocks, periodic words (many equal-length runs, so
//! many ties) and destinations shared by several sources, which take
//! the grouped destination-major path. `route_d{17,255}.pairs` cover
//! byte lanes with the same shapes, plus a long middle run that never
//! improves a minimum, at k ∈ {4, 8, 9, 40, 130}: one-word diagonals up
//! to k = 8, multi-word ones beyond. Each `.out` file holds the routes
//! the bit-parallel engine printed for its pairs when it was recorded.
//!
//! A Theorem-2 kernel may only change how fast it finds a minimizer,
//! never which one: any drift in tie-breaking changes a route's digits
//! or shift order, and this diff fails. `Engine::Auto` resolves to the
//! bit-parallel engine at every size in these files, so it must print
//! the same bytes.

use debruijn_suite::cli;

/// One radix per lane width: 1-bit (2), nibble (3), byte (17, 255).
const RADIXES: [u8; 4] = [2, 3, 17, 255];

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
    for d in RADIXES {
        let want = golden(&format!("route_d{d}.out"));
        for threads in [1, 2] {
            assert_same_lines(
                &batch_routes(d, "bit-parallel", threads),
                &want,
                &format!("d={d} bit-parallel --threads {threads}"),
            );
        }
    }
}

#[test]
fn auto_batch_routes_match_the_golden_bytes() {
    for d in RADIXES {
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
