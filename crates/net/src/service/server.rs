//! The I/O plane: HTTP/1.1 keep-alive connection handling in front of
//! the [`Dispatcher`].
//!
//! A [`QueryService`] owns one accept thread and a bounded pool of
//! connection threads (one per live connection — blocking I/O, no
//! reactor). A connection thread reads a request, parses the query,
//! admits it with [`Dispatcher::admit`], answers it under the
//! destination shard's lock, writes the response, and repeats on the
//! same socket. Every query toward one destination meets the same
//! cache shard, so answers are identical no matter which connection
//! carried the query.
//!
//! Endpoints: `/distance` and `/route` (the query grammar of
//! [`parse_query`]), `/metrics` (Prometheus text), `/healthz`, and
//! `/quitquitquit` (graceful shutdown: answer, stop accepting, let live
//! connections finish, close admission — how `dbr serve` gets an
//! end-of-run metrics dump and CI gets a deterministic teardown).

use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::query::{parse_query, QueryKind};
use super::worker::{Dispatcher, ServiceConfig};
use crate::metrics::{
    read_request, write_response, Anomaly, Counter, HeadTooLarge, HttpResponse, MetricsRegistry,
    PROMETHEUS_CONTENT_TYPE,
};

/// Hard cap on concurrent connections; beyond it new sockets get an
/// immediate `503`. Per-shard admission bounds (not this) are the real
/// admission control — the cap only stops a connection flood from
/// exhausting threads.
const MAX_CONNECTIONS: usize = 1024;

/// How long an idle keep-alive connection may sit between requests.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// How long shutdown waits for in-flight connections to finish before
/// proceeding (stragglers then shed against the closed dispatcher).
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// The `endpoint` labels of `dbr_service_requests_total`.
const ENDPOINTS: [&str; 6] = [
    "distance",
    "route",
    "metrics",
    "healthz",
    "quitquitquit",
    "other",
];

/// The statuses the service answers with.
const STATUSES: [u16; 8] = [200, 400, 404, 405, 414, 431, 500, 503];

/// The `kind` labels of `dbr_service_errors_total`.
const ERROR_KINDS: [&str; 7] = [
    "method",
    "unknown-endpoint",
    "missing-param",
    "bad-address",
    "length-mismatch",
    "request-too-large",
    "internal",
];

/// The request and error counters, each resolved from the registry on
/// its first use and kept, so a request costs one atomic add instead
/// of a registry lookup.
struct RequestCounters {
    registry: Arc<MetricsRegistry>,
    requests: [[OnceLock<Counter>; STATUSES.len()]; ENDPOINTS.len()],
    errors: [OnceLock<Counter>; ERROR_KINDS.len()],
}

impl RequestCounters {
    fn new(registry: Arc<MetricsRegistry>) -> Self {
        Self {
            registry,
            requests: [const { [const { OnceLock::new() }; STATUSES.len()] }; ENDPOINTS.len()],
            errors: [const { OnceLock::new() }; ERROR_KINDS.len()],
        }
    }

    fn request(&self, endpoint: &str, status: u16) {
        let resolve = || {
            self.registry.counter_with(
                "dbr_service_requests_total",
                "Service requests, by endpoint and status.",
                &[("endpoint", endpoint), ("status", &status.to_string())],
            )
        };
        let e = ENDPOINTS.iter().position(|&e| e == endpoint);
        let s = STATUSES.iter().position(|&s| s == status);
        match (e, s) {
            (Some(e), Some(s)) => self.requests[e][s].get_or_init(resolve).inc(),
            _ => resolve().inc(),
        }
    }

    fn error(&self, kind: &str) {
        let resolve = || {
            self.registry.counter_with(
                "dbr_service_errors_total",
                "Rejected service requests, by error kind.",
                &[("kind", kind)],
            )
        };
        match ERROR_KINDS.iter().position(|&k| k == kind) {
            Some(k) => self.errors[k].get_or_init(resolve).inc(),
            None => resolve().inc(),
        }
    }
}

/// The live connections, each with a handle on its socket: their count
/// bounds new connections and tells teardown when all have ended, and
/// the handles let teardown end the reads of idle keep-alive
/// connections instead of waiting out their timeout.
#[derive(Default)]
struct LiveStreams {
    next: AtomicUsize,
    streams: Mutex<HashMap<usize, TcpStream>>,
}

impl LiveStreams {
    /// Records a handle on `stream`; `None` if it cannot be cloned.
    fn register(&self, stream: &TcpStream) -> Option<usize> {
        let handle = stream.try_clone().ok()?;
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.lock().insert(id, handle);
        Some(id)
    }

    fn release(&self, id: usize) {
        self.lock().remove(&id);
    }

    fn count(&self) -> usize {
        self.lock().len()
    }

    /// Shuts down the read half of every live connection: a connection
    /// waiting for its next request reads end-of-stream and closes, and
    /// one mid-exchange still writes its answer.
    fn close_reads(&self) {
        for stream in self.lock().values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<usize, TcpStream>> {
        // Every update is one insert or remove, so the map stays valid
        // even if a holder panicked.
        self.streams.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Shared state every connection thread needs.
struct Shared {
    dispatcher: Arc<Dispatcher>,
    registry: Arc<MetricsRegistry>,
    counters: RequestCounters,
    stop: Arc<AtomicBool>,
    live: Arc<LiveStreams>,
    addr: SocketAddr,
}

/// A thread-per-connection HTTP query service over one TCP listener.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use debruijn_net::metrics::{MetricsRegistry, ScrapeServer};
/// use debruijn_net::service::{QueryService, ServiceConfig};
///
/// let registry = Arc::new(MetricsRegistry::new());
/// let service = QueryService::bind("127.0.0.1:0", ServiceConfig::new(2), Arc::clone(&registry))?;
/// let addr = service.local_addr();
/// assert_eq!(ScrapeServer::get(addr, "/distance?x=0000&y=1111")?, "4\n");
/// service.shutdown()?;
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct QueryService {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    dispatcher: Arc<Dispatcher>,
    live: Arc<LiveStreams>,
    torn_down: bool,
}

impl QueryService {
    /// Binds `addr` and starts the accept thread.
    ///
    /// # Errors
    ///
    /// Returns the bind or thread-spawn error.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: ServiceConfig,
        registry: Arc<MetricsRegistry>,
    ) -> io::Result<Self> {
        let dispatcher = Dispatcher::new(config, Arc::clone(&registry));
        Self::bind_dispatcher(addr, dispatcher, registry)
    }

    /// Like [`QueryService::bind`] with a pre-built dispatcher (e.g.
    /// one carrying a flight recorder).
    ///
    /// # Errors
    ///
    /// Returns the bind or thread-spawn error.
    pub fn bind_dispatcher(
        addr: impl ToSocketAddrs,
        dispatcher: Dispatcher,
        registry: Arc<MetricsRegistry>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let dispatcher = Arc::new(dispatcher);
        let stop = Arc::new(AtomicBool::new(false));
        let live = Arc::new(LiveStreams::default());
        let shared = Arc::new(Shared {
            dispatcher: Arc::clone(&dispatcher),
            counters: RequestCounters::new(Arc::clone(&registry)),
            registry,
            stop: Arc::clone(&stop),
            live: Arc::clone(&live),
            addr: local,
        });
        let accept = std::thread::Builder::new()
            .name("dbr-serve-accept".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut stream) = conn else { continue };
                    if shared.live.count() >= MAX_CONNECTIONS {
                        let retry = shared.dispatcher.config().retry_after_secs;
                        let _ =
                            write_response(&mut stream, &HttpResponse::overloaded(retry), false);
                        continue;
                    }
                    // Registered here, before the accept loop can end, so
                    // teardown (which runs after it ends) sees every one.
                    // A socket that cannot be cloned is dropped, as one
                    // whose thread cannot be spawned is.
                    let Some(id) = shared.live.register(&stream) else {
                        continue;
                    };
                    let conn_shared = Arc::clone(&shared);
                    let spawned = std::thread::Builder::new()
                        .name("dbr-serve-conn".to_string())
                        .spawn(move || {
                            let _ = serve_connection(&conn_shared, stream);
                            conn_shared.live.release(id);
                        });
                    if spawned.is_err() {
                        shared.live.release(id);
                    }
                }
            })?;
        Ok(Self {
            addr: local,
            stop,
            accept: Some(accept),
            dispatcher,
            live,
            torn_down: false,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The compute plane, for inspection in tests and CLI reporting.
    pub fn dispatcher(&self) -> &Arc<Dispatcher> {
        &self.dispatcher
    }

    /// Parks the caller until the service stops (a `/quitquitquit`
    /// request), then drains and tears down.
    ///
    /// # Errors
    ///
    /// Returns the flight-recorder dump error, if any.
    pub fn block(mut self) -> io::Result<Option<Anomaly>> {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        self.teardown()
    }

    /// Stops accepting, lets live connections finish, closes admission.
    ///
    /// # Errors
    ///
    /// Returns the flight-recorder dump error, if any.
    pub fn shutdown(mut self) -> io::Result<Option<Anomaly>> {
        self.stop_accepting();
        self.teardown()
    }

    fn stop_accepting(&mut self) {
        if let Some(handle) = self.accept.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Unblock the accept call with one throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }

    fn teardown(&mut self) -> io::Result<Option<Anomaly>> {
        self.torn_down = true;
        // Idle connections close at once; the rest finish their current
        // exchanges. After the deadline, any straggler sheds against
        // the closed dispatcher.
        self.live.close_reads();
        let deadline = Instant::now() + DRAIN_DEADLINE;
        while self.live.count() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.dispatcher.close();
        self.dispatcher.finish_flight()
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.stop_accepting();
        if !self.torn_down {
            let _ = self.teardown();
        }
    }
}

/// One connection's keep-alive serve loop.
fn serve_connection(shared: &Shared, mut stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(IDLE_TIMEOUT))?;
    // Responses are small and latency-bound: without TCP_NODELAY,
    // Nagle holding them for the peer's delayed ACK costs ~40ms per
    // keep-alive exchange even on loopback.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    loop {
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return Ok(()),
            Err(e) => {
                // An oversized head is answered, then the connection
                // closes: the rest of it is never read.
                if let Some(refusal) = HeadTooLarge::of(&e) {
                    shared.counters.error("request-too-large");
                    shared.counters.request("other", refusal.status());
                    write_response(&mut stream, &refusal.response(), false)?;
                }
                return Err(e);
            }
        };
        let (path, query_string) = request
            .target
            .split_once('?')
            .unwrap_or((request.target.as_str(), ""));
        let response = respond(shared, &request.method, path, query_string);
        let endpoint = match path {
            "/distance" => "distance",
            "/route" => "route",
            "/metrics" => "metrics",
            "/healthz" => "healthz",
            "/quitquitquit" => "quitquitquit",
            // Unknown paths share one label to keep cardinality bounded.
            _ => "other",
        };
        shared.counters.request(endpoint, response.status);
        write_response(&mut stream, &response, request.keep_alive)?;
        if path == "/quitquitquit" {
            // Stop accepting after the response is on the wire; the
            // owner's block()/teardown drains the rest.
            shared.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(shared.addr);
            return Ok(());
        }
        if !request.keep_alive {
            return Ok(());
        }
    }
}

fn respond(shared: &Shared, method: &str, path: &str, query_string: &str) -> HttpResponse {
    if method != "GET" {
        shared.counters.error("method");
        return HttpResponse::json_error(405, "method", "only GET is supported");
    }
    let kind = match path {
        "/distance" => QueryKind::Distance,
        "/route" => QueryKind::Route,
        "/metrics" => {
            return HttpResponse {
                status: 200,
                content_type: PROMETHEUS_CONTENT_TYPE.to_string(),
                body: shared.registry.snapshot().render(),
                retry_after: None,
            }
        }
        "/healthz" => return HttpResponse::ok("ok\n"),
        "/quitquitquit" => return HttpResponse::ok("shutting down\n"),
        _ => {
            shared.counters.error("unknown-endpoint");
            return HttpResponse::json_error(
                404,
                "unknown-endpoint",
                &format!("no such endpoint: {path}"),
            );
        }
    };
    let query = match parse_query(shared.dispatcher.config().d, kind, query_string) {
        Ok(query) => query,
        Err(e) => {
            shared.counters.error(e.kind);
            return HttpResponse::json_error(400, e.kind, &e.detail);
        }
    };
    let Ok(admission) = shared.dispatcher.admit(query) else {
        return HttpResponse::overloaded(shared.dispatcher.config().retry_after_secs);
    };
    match admission.answer() {
        Some(body) => HttpResponse::ok(body),
        // The solve panicked; its shard was reset and stays usable.
        None => {
            shared.counters.error("internal");
            HttpResponse::json_error(500, "internal", "the answer failed")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ScrapeServer;
    use std::io::{Read, Write};

    fn service(workers: usize) -> (QueryService, Arc<MetricsRegistry>) {
        let registry = Arc::new(MetricsRegistry::new());
        let config = ServiceConfig {
            workers,
            ..ServiceConfig::new(2)
        };
        let service = QueryService::bind("127.0.0.1:0", config, Arc::clone(&registry)).unwrap();
        (service, registry)
    }

    #[test]
    fn serves_distance_route_metrics_and_health() {
        let (service, _registry) = service(2);
        let addr = service.local_addr();
        assert_eq!(
            ScrapeServer::get(addr, "/distance?x=0000&y=1111").unwrap(),
            "4\n"
        );
        let route = ScrapeServer::get(addr, "/route?x=0110&y=1011").unwrap();
        assert!(route.starts_with("distance: "), "{route}");
        assert_eq!(ScrapeServer::get(addr, "/healthz").unwrap(), "ok\n");
        let metrics = ScrapeServer::get(addr, "/metrics").unwrap();
        assert!(
            metrics.contains("dbr_service_requests_total{endpoint=\"distance\",status=\"200\"} 1"),
            "{metrics}"
        );
        service.shutdown().unwrap();
    }

    #[test]
    fn a_panicking_answer_is_a_500_and_the_shard_keeps_serving() {
        let (service, registry) = service(1);
        let addr = service.local_addr();
        service.dispatcher().panic_next_answer();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /distance?x=0110&y=1011 HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 500 "), "{response}");
        assert!(
            response.ends_with("{\"error\":\"internal\",\"detail\":\"the answer failed\"}\n"),
            "{response}"
        );
        // The same shard answers the next query correctly.
        assert_eq!(
            ScrapeServer::get(addr, "/distance?x=0110&y=1011").unwrap(),
            "1\n"
        );
        service.shutdown().unwrap();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value("dbr_service_errors_total", &[("kind", "internal")]),
            Some(1)
        );
        assert_eq!(
            snap.counter_value(
                "dbr_service_requests_total",
                &[("endpoint", "distance"), ("status", "500")]
            ),
            Some(1)
        );
    }

    #[test]
    fn quitquitquit_unblocks_block_and_drains() {
        let (service, registry) = service(1);
        let addr = service.local_addr();
        let body = ScrapeServer::get(addr, "/distance?x=0110&y=1011").unwrap();
        assert_eq!(body, "1\n");
        let quitter = std::thread::spawn(move || ScrapeServer::get(addr, "/quitquitquit"));
        service.block().unwrap();
        assert_eq!(quitter.join().unwrap().unwrap(), "shutting down\n");
        // The dump after shutdown still carries the service families.
        let rendered = registry.snapshot().render();
        assert!(rendered.contains("dbr_service_cache_total"), "{rendered}");
    }
}
