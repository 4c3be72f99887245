//! End-to-end tests for the query service: concurrent keep-alive
//! clients, typed error handling, and overload shedding.
//!
//! The contract under test: every response is byte-identical to the
//! single-threaded direct-engine answer regardless of shard count,
//! connection assignment, or cache state; malformed queries are typed
//! `400`s; overload sheds with `503` + `Retry-After` and never admits
//! more than its bound; shutdown answers every admitted query and
//! closes idle keep-alive connections at once; an oversized request
//! head is refused after 8 KiB and the connection closed.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use debruijn_core::Word;
use debruijn_net::metrics::{MetricsRegistry, RETRY_AFTER_SECS};
use debruijn_net::service::{
    answer_query_direct, parse_query, Dispatcher, Query, QueryKind, QueryService, ServiceConfig,
};

/// A minimal HTTP/1.1 keep-alive client: one socket, many requests.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// One parsed response: status, `Retry-After` (if present), body.
struct Response {
    status: u16,
    retry_after: Option<u64>,
    content_type: String,
    body: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Self { stream, reader }
    }

    /// Sends `GET target` on the persistent connection and reads the
    /// full response (Content-Length framed).
    fn get(&mut self, target: &str) -> Response {
        write!(self.stream, "GET {target} HTTP/1.1\r\nHost: dbr\r\n\r\n").unwrap();
        self.stream.flush().unwrap();
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .unwrap_or_else(|| panic!("bad status line {status_line:?}"))
            .parse()
            .unwrap();
        let mut content_length = 0usize;
        let mut retry_after = None;
        let mut content_type = String::new();
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).unwrap();
            if line == "\r\n" || line == "\n" || line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.parse().unwrap();
                } else if name.eq_ignore_ascii_case("retry-after") {
                    retry_after = Some(value.parse().unwrap());
                } else if name.eq_ignore_ascii_case("content-type") {
                    content_type = value.to_string();
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).unwrap();
        Response {
            status,
            retry_after,
            content_type,
            body: String::from_utf8(body).unwrap(),
        }
    }
}

fn bind_service(config: ServiceConfig) -> (QueryService, Arc<MetricsRegistry>) {
    let registry = Arc::new(MetricsRegistry::new());
    let service = QueryService::bind("127.0.0.1:0", config, Arc::clone(&registry)).unwrap();
    (service, registry)
}

/// The query mix every client thread issues: a deterministic walk over
/// DG(2,6) pairs, alternating endpoint and network direction. All
/// clients share the walk, so the same pairs arrive concurrently from
/// different connections — the cache-hit and determinism stress case.
fn query_mix() -> Vec<(String, Query)> {
    let mut queries = Vec::new();
    for i in 0..48u128 {
        let x = Word::from_rank(2, 6, (i * 5) % 64).unwrap();
        let y = Word::from_rank(2, 6, (i * 11) % 64).unwrap();
        let kind = if i % 2 == 0 { "route" } else { "distance" };
        let directed = i % 3 == 0;
        let target = format!(
            "/{kind}?x={x}&y={y}{}",
            if directed { "&directed=1" } else { "" }
        );
        let kind = if i % 2 == 0 {
            QueryKind::Route
        } else {
            QueryKind::Distance
        };
        let (_, query_string) = target.split_once('?').unwrap();
        let query = parse_query(2, kind, query_string).unwrap();
        queries.push((target, query));
    }
    queries
}

#[test]
fn concurrent_keep_alive_clients_get_byte_identical_answers() {
    let (service, registry) = bind_service(ServiceConfig {
        workers: 3,
        cache_capacity: 64, // small: force eviction traffic too
        ..ServiceConfig::new(2)
    });
    let addr = service.local_addr();
    let clients: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                for (target, query) in query_mix() {
                    let response = client.get(&target);
                    assert_eq!(response.status, 200, "{target}");
                    // Byte-for-byte the single-threaded engine answer.
                    assert_eq!(response.body, answer_query_direct(&query), "{target}");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }
    service.shutdown().unwrap();
    let snap = registry.snapshot();
    let requests: u64 = ["distance", "route"]
        .iter()
        .filter_map(|e| {
            snap.counter_value(
                "dbr_service_requests_total",
                &[("endpoint", e), ("status", "200")],
            )
        })
        .sum();
    assert_eq!(requests, 4 * 48);
    // The cache shards saw the traffic (hits and misses both nonzero:
    // clients overlap in their walks).
    let lookups = |outcome: &str| {
        snap.counter_value("dbr_service_cache_total", &[("outcome", outcome)])
            .unwrap_or(0)
    };
    assert!(lookups("miss") > 0);
    assert!(lookups("hit") > 0, "overlapping clients must hit");
    // Each undirected query is one lookup, as in a per-query replay,
    // even when two connections miss the same pair at once.
    let undirected = query_mix().iter().filter(|(_, q)| !q.directed).count() as u64;
    assert_eq!(lookups("hit") + lookups("miss"), 4 * undirected);
}

#[test]
fn malformed_queries_get_typed_400s_and_unknown_endpoints_404() {
    let (service, registry) = bind_service(ServiceConfig {
        workers: 1,
        ..ServiceConfig::new(2)
    });
    let mut client = Client::connect(service.local_addr());

    let cases = [
        ("/distance?y=1011", 400, "missing-param"),
        ("/distance?x=012&y=000", 400, "bad-address"),
        ("/route?x=0110&y=01", 400, "length-mismatch"),
        ("/frobnicate", 404, "unknown-endpoint"),
    ];
    for (target, status, kind) in cases {
        let response = client.get(target);
        assert_eq!(response.status, status, "{target}");
        assert!(
            response.content_type.starts_with("application/json"),
            "{target}: {}",
            response.content_type
        );
        assert!(
            response.body.contains(&format!("\"error\":\"{kind}\"")),
            "{target}: {}",
            response.body
        );
    }
    // A good query on the same (still keep-alive) connection works.
    assert_eq!(client.get("/distance?x=0110&y=1011").body, "1\n");
    service.shutdown().unwrap();
    let snap = registry.snapshot();
    for (_, _, kind) in cases {
        assert_eq!(
            snap.counter_value("dbr_service_errors_total", &[("kind", kind)]),
            Some(1),
            "{kind}"
        );
    }
}

#[test]
fn overloaded_service_sheds_503_with_retry_after() {
    let (service, registry) = bind_service(ServiceConfig {
        workers: 1,
        max_inflight: 4,
        ..ServiceConfig::new(2)
    });
    // Closing the dispatcher makes every subsequent admission fail —
    // the deterministic stand-in for saturated shards.
    service.dispatcher().close();
    let mut client = Client::connect(service.local_addr());
    let response = client.get("/route?x=0110&y=1011");
    assert_eq!(response.status, 503);
    assert_eq!(response.retry_after, Some(RETRY_AFTER_SECS));
    assert!(response.body.contains("\"error\":\"overloaded\""));
    // Non-query endpoints still answer while shedding.
    assert_eq!(client.get("/healthz").body, "ok\n");
    service.shutdown().unwrap();
    let snap = registry.snapshot();
    assert_eq!(snap.counter_value("dbr_service_shed_total", &[]), Some(1));
    assert_eq!(
        snap.counter_value(
            "dbr_service_requests_total",
            &[("endpoint", "route"), ("status", "503")]
        ),
        Some(1)
    );
}

#[test]
fn shutdown_closes_idle_keep_alive_connections_at_once() {
    let (service, _registry) = bind_service(ServiceConfig {
        workers: 1,
        ..ServiceConfig::new(2)
    });
    let mut client = Client::connect(service.local_addr());
    assert_eq!(client.get("/distance?x=0110&y=1011").body, "1\n");
    // The connection stays open and idle, its server thread blocked in
    // a read, while the service shuts down.
    let started = Instant::now();
    service.shutdown().unwrap();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    // The server closed its end: the client reads end-of-stream.
    let mut rest = Vec::new();
    assert_eq!(client.reader.read_to_end(&mut rest).unwrap(), 0);
}

#[test]
fn a_silent_client_does_not_stall_other_clients() {
    let (service, _registry) = bind_service(ServiceConfig {
        workers: 1,
        ..ServiceConfig::new(2)
    });
    let addr = service.local_addr();
    // Connected first, so it is accepted first, and never sends.
    let silent = TcpStream::connect(addr).unwrap();
    let started = Instant::now();
    let mut client = Client::connect(addr);
    assert_eq!(client.get("/healthz").body, "ok\n");
    let metrics = client.get("/metrics").body;
    let took = started.elapsed();
    assert!(metrics.contains("dbr_service_requests_total"), "{metrics}");
    assert!(took < Duration::from_secs(1), "answers took {took:?}");
    drop(client);
    drop(silent);
    service.shutdown().unwrap();
}

#[test]
fn dispatcher_overload_keeps_depth_bounded_and_drains_on_shutdown() {
    let registry = Arc::new(MetricsRegistry::new());
    let config = ServiceConfig {
        workers: 1,
        max_inflight: 8,
        ..ServiceConfig::new(2)
    };
    let dispatcher = Dispatcher::new(config, Arc::clone(&registry));
    let query = parse_query(2, QueryKind::Route, "x=0110&y=1011").unwrap();
    // Nothing is answered yet: exactly max_inflight admissions succeed,
    // everything beyond sheds, and the depth never exceeds the bound.
    let mut held = Vec::new();
    let mut sheds = 0;
    for _ in 0..20 {
        match dispatcher.admit(query.clone()) {
            Ok(admission) => {
                assert!(admission.depth() <= 8);
                held.push(admission);
            }
            Err(_) => sheds += 1,
        }
    }
    assert_eq!(held.len(), 8);
    assert_eq!(sheds, 12);
    assert_eq!(dispatcher.queue_depth(0), 8);
    // Shutdown: close, then answer what was admitted — every accepted
    // query still gets its answer.
    dispatcher.close();
    let expected = answer_query_direct(&query);
    for admission in held {
        assert_eq!(admission.answer().unwrap(), expected);
    }
    assert_eq!(dispatcher.queue_depth(0), 0);
    assert_eq!(
        registry
            .snapshot()
            .counter_value("dbr_service_shed_total", &[]),
        Some(12)
    );
}

/// Sends `head` (a request whose line or header is 1 MiB) from a writer
/// thread and returns what the server answered before closing.
fn answer_to_oversized(addr: SocketAddr, head: Vec<u8>) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    // The server stops reading after 8 KiB, so the rest of the write
    // may fail once it closes; only the answer matters.
    let sender = std::thread::spawn(move || {
        let _ = writer.write_all(&head);
    });
    let mut response = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => response.extend_from_slice(&buf[..n]),
        }
    }
    drop(stream);
    sender.join().unwrap();
    String::from_utf8(response).unwrap()
}

#[test]
fn oversized_request_lines_and_headers_are_refused_then_closed() {
    let (service, registry) = bind_service(ServiceConfig {
        workers: 1,
        ..ServiceConfig::new(2)
    });
    let addr = service.local_addr();
    let huge = "0".repeat(1 << 20);
    let line = format!("GET /distance?x={huge}&y=1 HTTP/1.1\r\nHost: dbr\r\n\r\n");
    let response = answer_to_oversized(addr, line.into_bytes());
    assert!(
        response.starts_with("HTTP/1.1 414 URI Too Long\r\n"),
        "{response}"
    );
    assert!(response.contains("Connection: close"), "{response}");
    assert!(
        response.contains("\"error\":\"request-too-large\""),
        "{response}"
    );
    let header = format!("GET /healthz HTTP/1.1\r\nX-Pad: {huge}\r\n\r\n");
    let response = answer_to_oversized(addr, header.into_bytes());
    assert!(
        response.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
        "{response}"
    );
    // The service still answers afterwards.
    let mut client = Client::connect(addr);
    assert_eq!(client.get("/distance?x=0110&y=1011").body, "1\n");
    drop(client);
    service.shutdown().unwrap();
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter_value("dbr_service_errors_total", &[("kind", "request-too-large")]),
        Some(2)
    );
    for status in ["414", "431"] {
        assert_eq!(
            snap.counter_value(
                "dbr_service_requests_total",
                &[("endpoint", "other"), ("status", status)]
            ),
            Some(1),
            "{status}"
        );
    }
}

#[test]
fn connection_close_is_honored_and_http10_defaults_to_close() {
    let (service, _registry) = bind_service(ServiceConfig {
        workers: 1,
        ..ServiceConfig::new(2)
    });
    let addr = service.local_addr();
    // `Connection: close`: the server answers then closes the socket.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    write!(
        stream,
        "GET /distance?x=0110&y=1011 HTTP/1.1\r\nHost: dbr\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(response.contains("Connection: close"), "{response}");
    assert!(response.ends_with("1\n"), "{response}");
    // HTTP/1.0 without keep-alive: also one-shot.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    write!(stream, "GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.contains("Connection: close"), "{response}");
    assert!(response.ends_with("ok\n"), "{response}");
    service.shutdown().unwrap();
}
