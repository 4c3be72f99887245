//! Loopback throughput of the query service: sixteen keep-alive HTTP
//! clients hammering `/route` and `/distance` on `DG(2,16)`, against two
//! shard layouts of the same [`Dispatcher`]:
//!
//! * `sharded_batched` — the shipping configuration: four
//!   destination-hashed route-cache shards, each behind its own lock;
//! * `shared_unbatched` — the one-shard baseline (`workers: 1`): every
//!   connection thread contends on one cache lock.
//!
//! The series keep the names they had when the first layout also
//! batched queue drains and the second was a separate shared-cache
//! mode; connection threads now answer their own queries in both.
//!
//! The two configurations' runs are interleaved (A,B,A,B,...) so
//! machine drift lands on both sides of the comparison equally. Both
//! run twice: once over uniform random pairs and once over a
//! destination-skewed workload (`workload::zipf`, `--zipf-exponent`,
//! default 1.0) whose hot sinks concentrate on few cache shards
//! (`*_zipf` series).
//!
//! Reports QPS for both plus client-observed p50/p99 latency. QPS is a
//! higher-is-better series, so `bench.sh --check` excludes it from the
//! lower-is-better regression comparison via `--ns-only` and instead
//! gates it inside this binary: `--min-qps-ratio N` exits non-zero if
//! the sharded path fails to beat the one-shard baseline by `N`x
//! (self-skipped on single-core hosts, where lock contention cannot
//! arise; the skip and its reason land in the emitted JSON as a
//! `"skipped"` field).
//!
//! Every response is asserted byte-identical to the single-threaded
//! direct-engine answer — the bench doubles as a load-level
//! determinism check.
//!
//! [`Dispatcher`]: debruijn_net::service::Dispatcher

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use debruijn_bench::{json_mode, random_pairs, JsonReport};
use debruijn_core::DeBruijn;
use debruijn_net::metrics::MetricsRegistry;
use debruijn_net::service::{answer_query_direct, parse_query, QueryKind, QueryService};
use debruijn_net::{workload, ServiceConfig};

const D: u8 = 2;
const K: usize = 16;
const PAIRS: usize = 256;
const CLIENTS: usize = 16;
const WORKERS: usize = 4;
const PASSES: usize = 2;
const RUNS: usize = 7;

/// The number following `flag`, if present.
fn flag_value(flag: &str) -> Option<f64> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == flag)?;
    let value = args.get(i + 1).and_then(|v| v.parse().ok());
    if value.is_none() {
        eprintln!("{flag} needs a number");
        std::process::exit(2);
    }
    value
}

/// Builds the `(target, expected body)` list the clients replay:
/// alternating `/route` and `/distance` targets over `pairs`
/// (undirected, the cacheable path), with the expected byte-exact body
/// precomputed from the direct engine.
fn requests_from(pairs: Vec<(debruijn_core::Word, debruijn_core::Word)>) -> Vec<(String, String)> {
    pairs
        .into_iter()
        .enumerate()
        .map(|(i, (x, y))| {
            let kind = if i % 2 == 0 {
                QueryKind::Route
            } else {
                QueryKind::Distance
            };
            let endpoint = kind.label();
            let query_string = format!("x={x}&y={y}");
            let query = parse_query(D, kind, &query_string).unwrap();
            (
                format!("/{endpoint}?{query_string}"),
                answer_query_direct(&query),
            )
        })
        .collect()
}

/// The uniform request list: independent random pairs.
fn request_list() -> Vec<(String, String)> {
    requests_from(random_pairs(D, K, PAIRS, 0xDB))
}

/// A destination-skewed request list: `workload::zipf` draws the
/// destinations Zipf(`exponent`)-style over all of `DG(D,K)`, so a few
/// hot sinks dominate — convergecast-shaped traffic that concentrates on
/// few cache shards.
fn zipf_request_list(exponent: f64) -> Vec<(String, String)> {
    let space = DeBruijn::new(D, K).expect("bench space is valid");
    let pairs = workload::zipf(space, PAIRS, exponent, 0xDB)
        .into_iter()
        .map(|inj| (inj.source, inj.destination))
        .collect();
    requests_from(pairs)
}

/// One keep-alive connection issuing `PASSES` passes over `requests`,
/// asserting every body and recording per-request latency (ns).
fn run_client(addr: SocketAddr, requests: &[(String, String)]) -> Vec<u64> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut latencies = Vec::with_capacity(PASSES * requests.len());
    for _ in 0..PASSES {
        for (target, expected) in requests {
            let start = Instant::now();
            write!(stream, "GET {target} HTTP/1.1\r\nHost: dbr\r\n\r\n").unwrap();
            let mut status_line = String::new();
            reader.read_line(&mut status_line).unwrap();
            assert!(status_line.starts_with("HTTP/1.1 200"), "{status_line}");
            let mut content_length = 0usize;
            loop {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                if line == "\r\n" || line.is_empty() {
                    break;
                }
                if let Some((name, value)) = line.split_once(':') {
                    if name.eq_ignore_ascii_case("content-length") {
                        content_length = value.trim().parse().unwrap();
                    }
                }
            }
            let mut body = vec![0u8; content_length];
            reader.read_exact(&mut body).unwrap();
            latencies.push(start.elapsed().as_nanos() as u64);
            assert_eq!(body, expected.as_bytes(), "{target}");
        }
    }
    latencies
}

/// One timed run against a freshly bound service: returns the QPS over
/// all clients plus every client-observed latency sample.
fn run_once(config: &ServiceConfig, requests: &Arc<Vec<(String, String)>>) -> (f64, Vec<u64>) {
    let registry = Arc::new(MetricsRegistry::new());
    let service = QueryService::bind("127.0.0.1:0", config.clone(), registry).unwrap();
    let addr = service.local_addr();
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let requests = Arc::clone(requests);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                run_client(addr, &requests)
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    let mut latencies = Vec::new();
    for client in clients {
        latencies.extend(client.join().unwrap());
    }
    let elapsed = start.elapsed().as_secs_f64();
    service.shutdown().unwrap();
    (latencies.len() as f64 / elapsed, latencies)
}

/// Median QPS per configuration plus pooled latency samples, with the
/// two configurations' runs interleaved (A,B,A,B,...) so machine
/// drift lands on both sides of the comparison equally.
fn measure_interleaved(
    configs: [&ServiceConfig; 2],
    requests: &Arc<Vec<(String, String)>>,
) -> [(f64, Vec<u64>); 2] {
    let mut qps_samples = [Vec::with_capacity(RUNS), Vec::with_capacity(RUNS)];
    let mut pooled = [Vec::new(), Vec::new()];
    for _ in 0..RUNS {
        for (i, config) in configs.iter().enumerate() {
            let (qps, latencies) = run_once(config, requests);
            qps_samples[i].push(qps);
            pooled[i].extend(latencies);
        }
    }
    let [lat0, lat1] = pooled;
    let median = |samples: &mut Vec<f64>| {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
        samples[samples.len() / 2]
    };
    [
        (median(&mut qps_samples[0]), lat0),
        (median(&mut qps_samples[1]), lat1),
    ]
}

/// The `p`-th percentile (0–100) of `samples`, which are sorted here.
fn percentile(samples: &mut [u64], p: f64) -> u64 {
    assert!(!samples.is_empty());
    samples.sort_unstable();
    let rank = ((samples.len() - 1) as f64 * p / 100.0).round() as usize;
    samples[rank]
}

fn main() {
    let json = json_mode();
    let ns_only = std::env::args().any(|a| a == "--ns-only");
    let min_qps_ratio = flag_value("--min-qps-ratio");
    let zipf_exponent = flag_value("--zipf-exponent").unwrap_or(1.0);
    let mut report = JsonReport::new("service_throughput", "qps_and_ns");

    let requests = Arc::new(request_list());
    let zipf_requests = Arc::new(zipf_request_list(zipf_exponent));
    let total = CLIENTS * PASSES * requests.len();
    if !json {
        println!(
            "query service loopback throughput: DG({D},{K}), {CLIENTS} keep-alive \
             clients, {total} requests per run (median of {RUNS} runs);\n\
             zipf = destinations drawn Zipf({zipf_exponent}) over the whole space\n"
        );
        println!(
            "{:>23} {:>10} {:>12} {:>12}",
            "configuration", "qps", "p50_ns", "p99_ns"
        );
    }

    let sharded = ServiceConfig {
        workers: WORKERS,
        ..ServiceConfig::new(D)
    };
    let shared = ServiceConfig {
        workers: 1,
        ..ServiceConfig::new(D)
    };

    let mut qps_by_mode = Vec::new();
    for (suffix, request_set) in [("", &requests), ("_zipf", &zipf_requests)] {
        let measured = measure_interleaved([&sharded, &shared], request_set);
        for ((name, _), (qps, mut latencies)) in
            [("sharded_batched", &sharded), ("shared_unbatched", &shared)]
                .into_iter()
                .zip(measured)
        {
            let p50 = percentile(&mut latencies, 50.0);
            let p99 = percentile(&mut latencies, 99.0);
            if !ns_only {
                report.push(&format!("qps_{name}{suffix}"), CLIENTS, qps);
            }
            report.push(&format!("p50_ns_{name}{suffix}"), CLIENTS, p50 as f64);
            report.push(&format!("p99_ns_{name}{suffix}"), CLIENTS, p99 as f64);
            if !json {
                let label = format!("{name}{suffix}");
                println!("{label:>23} {qps:>10.0} {p50:>12} {p99:>12}");
            }
            // The uniform-workload ratio (suffix "") feeds the QPS gate.
            if suffix.is_empty() {
                qps_by_mode.push(qps);
            }
        }
    }
    let ratio = qps_by_mode[0] / qps_by_mode[1];

    if let Some(limit) = min_qps_ratio {
        // The sharded-vs-shared gap is contention relief, and a
        // single-core host serializes the connection threads anyway, so
        // the floor only gates where the machine can express it. The gate runs
        // before the JSON is printed so a self-skip is recorded in the
        // emitted line rather than only on stderr.
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cores < 2 {
            let reason = format!(
                "sharded-vs-shared QPS floor skipped: only {cores} core(s) available \
                 (measured {ratio:.2}x)"
            );
            eprintln!("{reason}");
            report.skip(&reason);
        } else if ratio < limit {
            eprintln!(
                "sharded QPS only {ratio:.2}x the one-shard baseline, \
                 below the {limit}x floor"
            );
            std::process::exit(1);
        } else {
            eprintln!("sharded QPS {ratio:.2}x the one-shard baseline meets the {limit}x floor");
        }
    }

    if json {
        println!("{}", report.render());
    } else {
        println!("\nsharded over one shard: {ratio:.2}x QPS");
        println!("(every response asserted byte-identical to the direct engine)");
    }
}
