//! Dependency-free fuzz loops over the readers `dbr` feeds outside input
//! to: the `--batch` pair reader, the JSONL trace reader behind
//! `dbr trace`, `dbr localize`'s replay loop, and the query service's
//! HTTP request-head reader and query-string parser.
//!
//! Each loop mutates a seed corpus with a seeded SplitMix64 stream:
//! truncation, byte flips, non-UTF-8 bytes, oversized words, digits
//! beyond the radix, words of another length, rewritten and huge
//! numbers, and spliced lines. Every case must end in a typed error or a valid answer; a
//! panic fails the test and the printed case reproduces it.

use debruijn_suite::cli;
use debruijn_suite::core::distance::undirected::{distance_with, Engine};
use debruijn_suite::core::rng::SplitMix64;
use debruijn_suite::core::routing::{RouteCache, RoutePath, RoutingScratch};
use debruijn_suite::core::{distance, BatchScratch, DeBruijn, Word};
use debruijn_suite::graph::DebruijnGraph;
use debruijn_suite::net::metrics::{read_request, HeadTooLarge, MAX_HEAD_LINE};
use debruijn_suite::net::record::JsonlRecorder;
use debruijn_suite::net::service::{
    answer_query_cached, answer_query_direct, parse_query, QueryKind,
};
use debruijn_suite::net::{workload, MonitorSet, ShardedSimulation, SimConfig};
use debruijn_suite::trace::{self, TraceMetric};

const CASES: usize = 3000;

/// One to three random mutations of `seed`.
fn mutate(rng: &mut SplitMix64, seed: &[u8]) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    for _ in 0..=rng.below_usize(3) {
        let at = rng.below_usize(bytes.len() + 1);
        match rng.below_usize(10) {
            0 => bytes.truncate(at),
            1 if at < bytes.len() => bytes[at] ^= 1 << rng.below_usize(8),
            2 => {
                let junk: &[u8] =
                    [&b"\xff"[..], b"\xc3\x28", b"\xe2\x82", b"\x00"][rng.below_usize(4)];
                bytes.splice(at..at, junk.iter().copied());
            }
            // An oversized word: a long run of digits.
            3 => {
                let run = 64 + rng.below_usize(400);
                let digits: Vec<u8> = (0..run).map(|_| b'0' + rng.digit(2)).collect();
                bytes.splice(at..at, digits);
            }
            // A digit beyond the radix, or a dotted address.
            4 => {
                let junk: &[u8] = [&b"2"[..], b"9", b"11.3.0", b"."][rng.below_usize(4)];
                bytes.splice(at..at, junk.iter().copied());
            }
            // Another word length: drop or repeat one byte.
            5 if at < bytes.len() => {
                if rng.next_bool(0.5) {
                    bytes.remove(at);
                } else {
                    bytes.insert(at, bytes[at]);
                }
            }
            6 => {
                let huge: &[u8] =
                    [&b"18446744073709551615"[..], b"99999999999999999999999"][rng.below_usize(2)];
                bytes.splice(at..at, huge.iter().copied());
            }
            // Splice in a copy of another stretch (lines of other runs).
            7 if !bytes.is_empty() => {
                let from = rng.below_usize(bytes.len());
                let len = rng.below_usize(bytes.len() - from + 1).min(200);
                let copy = bytes[from..from + len].to_vec();
                bytes.splice(at..at, copy);
            }
            // Another number or digit: rewrite the next ASCII digit.
            8 => {
                if let Some(b) = bytes[at..].iter_mut().find(|b| b.is_ascii_digit()) {
                    *b = b'0' + rng.digit(10);
                }
            }
            _ => bytes.insert(at, b"\n \t#"[rng.below_usize(4)]),
        }
    }
    bytes
}

/// The cases for one reader: the seeds themselves, then mutations.
fn cases(seed: u64, corpus: &[String]) -> impl Iterator<Item = String> + '_ {
    let mut rng = SplitMix64::new(seed);
    (0..CASES).map(move |i| {
        let base = corpus[i % corpus.len()].as_bytes();
        let bytes = if i < corpus.len() {
            base.to_vec()
        } else {
            mutate(&mut rng, base)
        };
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

/// Runs `check` on `text`, naming the case if it panics.
fn run_case(reader: &str, i: usize, text: &str, check: impl FnOnce(&str)) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(text)));
    if outcome.is_err() {
        let head: String = text.chars().take(300).collect();
        panic!("{reader} case {i} panicked; input starts {head:?}");
    }
}

/// A JSONL trace of a small faulty run, one event per line.
fn recorded_trace(d: u8, k: usize, faults: &str) -> String {
    let space = DeBruijn::new(d, k).unwrap();
    let words = faults.split(',').map(|w| Word::parse(d, w).unwrap());
    let sim = ShardedSimulation::new(space, SimConfig::default(), 1)
        .and_then(|sim| sim.with_faults(words.collect()))
        .unwrap();
    let mut sink = JsonlRecorder::new(Vec::new());
    sim.run_recorded(&workload::uniform_random(space, 12, 3), &mut sink);
    String::from_utf8(sink.finish().unwrap()).unwrap()
}

#[test]
fn batch_reader_answers_or_rejects_every_mutation() {
    let corpus = [
        "# pairs\n010011 110100\n000000 111111\n\n  0110 1001  \n0110 0110\n".to_string(),
        "0120 2101\n2222 0000\n012 210\n".to_string(),
        "0110100111010011 1101001011011100\n0110100111010011 0000000000000000\n".to_string(),
    ];
    let mut scratch = BatchScratch::new();
    for (i, text) in cases(0xBA7C4, &corpus).enumerate() {
        let d = 2 + (i % 2) as u8;
        run_case("batch", i, &text, |text| {
            let lines = cli::batch_lines(text);
            let Ok(pairs) = cli::batch_pairs(d, &lines) else {
                return;
            };
            let (mut dists, mut routes) = (Vec::new(), Vec::new());
            for directed in [false, true] {
                debruijn_suite::core::distance_batch_into(
                    &pairs,
                    directed,
                    Engine::Auto,
                    &mut scratch,
                    &mut dists,
                );
                debruijn_suite::core::route_batch_into(
                    &pairs,
                    directed,
                    Engine::Auto,
                    &mut scratch,
                    &mut routes,
                );
                for (((x, y), &dist), route) in pairs.iter().zip(&dists).zip(&routes) {
                    let want = if directed {
                        distance::directed::distance(x, y)
                    } else {
                        distance_with(Engine::MorrisPratt, x, y)
                    };
                    assert_eq!(dist, want, "{x} {y}");
                    assert_eq!(route.len(), want, "{x} {y}");
                    assert!(route.leads_to(x, y), "{x} {y}");
                }
            }
        });
    }
}

#[test]
fn trace_reader_and_analyses_survive_every_mutation() {
    let corpus = [recorded_trace(2, 4, "0110"), recorded_trace(3, 3, "012")];
    for (i, text) in cases(0x7EACE, &corpus).enumerate() {
        let radix = [None, Some(2), Some(3)][i % 3];
        run_case("trace", i, &text, |text| {
            let Ok(t) = trace::parse("fuzz.jsonl", text, radix, None) else {
                return;
            };
            trace::summary(&t);
            trace::links(&t, 5);
            for metric in ["hops", "latency", "stretch", "queue-wait", "queue-depth"] {
                trace::hist(&t, TraceMetric::parse(metric).unwrap());
            }
            trace::diff(&t, &t);
            trace::prom(&t, 1);
            trace::export(&t, Vec::new()).unwrap();
        });
    }
}

#[test]
fn localize_replay_decodes_or_rejects_every_mutation() {
    let corpus = [recorded_trace(2, 4, "0110"), recorded_trace(2, 5, "01101")];
    let space = DeBruijn::new(2, 4).unwrap();
    let graph = DebruijnGraph::undirected(space).unwrap();
    for (i, text) in cases(0x10CA1, &corpus).enumerate() {
        run_case("localize", i, &text, |text| {
            let mut monitors = MonitorSet::all(graph.clone());
            if cli::replay(&mut monitors, "fuzz.jsonl", text).is_ok() {
                monitors.localize();
            }
        });
    }
}

#[test]
fn http_request_reader_reads_or_refuses_every_mutation() {
    let huge = "0".repeat(3 * MAX_HEAD_LINE);
    let corpus = [
        "GET /distance?x=0110&y=1011 HTTP/1.1\r\nHost: dbr\r\n\r\n".to_string(),
        "GET /route?x=01&y=10 HTTP/1.0\r\nConnection: keep-alive\r\n\r\nGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
            .to_string(),
        format!("GET /distance?x={huge}&y=1 HTTP/1.1\r\nHost: dbr\r\n\r\n"),
        format!("GET /healthz HTTP/1.1\r\nX-Pad: {huge}\r\n\r\n"),
    ];
    let (mut read, mut refused) = (0, 0);
    for (i, text) in cases(0x4771, &corpus).enumerate() {
        run_case("http", i, &text, |text| {
            // A small buffer puts line ends across fill boundaries.
            let mut reader = std::io::BufReader::with_capacity(1 + i % 97, text.as_bytes());
            for _ in 0..64 {
                match read_request(&mut reader) {
                    Ok(Some(request)) => {
                        assert!(
                            request.target.len() < MAX_HEAD_LINE,
                            "{}",
                            request.target.len()
                        );
                        read += 1;
                    }
                    Ok(None) => break,
                    Err(e) => {
                        // Anything but an oversized head is a bad request line.
                        match HeadTooLarge::of(&e) {
                            Some(_) => refused += 1,
                            None => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}"),
                        }
                        break;
                    }
                }
            }
        });
    }
    assert!(read > 0 && refused > 0, "read {read}, refused {refused}");
}

#[test]
fn service_query_parser_answers_or_rejects_every_mutation() {
    let corpus = [
        "x=0110&y=1011".to_string(),
        "y=0120&x=2101&directed=1".to_string(),
        "x=11.3.0&y=0.0.15&directed=true".to_string(),
        format!("x={}&y={}", "01".repeat(40_000), "10".repeat(40_000)),
    ];
    let mut cache = RouteCache::new(16);
    let (mut scratch, mut path_buf) = (RoutingScratch::new(), RoutePath::empty());
    for (i, text) in cases(0x9E47, &corpus).enumerate() {
        let d = [2u8, 3, 16][i % 3];
        let kind = if i % 2 == 0 {
            QueryKind::Route
        } else {
            QueryKind::Distance
        };
        run_case("query", i, &text, |text| match parse_query(d, kind, text) {
            Ok(q) if q.x.len() <= 512 => {
                let want = answer_query_direct(&q);
                let got = answer_query_cached(&q, &mut cache, &mut scratch, &mut path_buf);
                assert_eq!(got, want, "{text}");
            }
            Ok(_) => {}
            Err(e) => assert!(
                ["missing-param", "bad-address", "length-mismatch"].contains(&e.kind),
                "{e:?}"
            ),
        });
    }
}
