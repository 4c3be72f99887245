//! The query service's routes on the crate's one HTTP/1.1 connection
//! plane (`metrics::http`), in front of the [`Dispatcher`].
//!
//! A connection thread reads a request, parses the query, admits it
//! with [`Dispatcher::admit`], answers it under the destination shard's
//! lock, writes the response, and repeats on the same socket. Every
//! query toward one destination meets the same cache shard, so answers
//! are identical no matter which connection carried the query.
//!
//! Endpoints: `/distance` and `/route` (the query grammar of
//! [`parse_query`]), `/metrics` (Prometheus text), `/healthz`, and
//! `/quitquitquit` (graceful shutdown: answer, stop accepting, let live
//! connections finish, close admission — how `dbr serve` gets an
//! end-of-run metrics dump and CI gets a deterministic teardown).

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::{Arc, OnceLock};

use super::query::{parse_query, QueryKind};
use super::worker::{Dispatcher, ServiceConfig};
use crate::metrics::{
    scrape_answer, Anomaly, Counter, HeadTooLarge, HttpResponse, HttpServer, MetricsRegistry,
    Routes,
};

/// The `endpoint` labels of `dbr_service_requests_total`: path `/<label>`,
/// or `other` for every unknown path, so the label set stays bounded.
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

/// The query service's routes: the query endpoints, answered through
/// the dispatcher, plus `/metrics`, `/healthz` and `/quitquitquit`. Its
/// request and error counters are each resolved from the registry on
/// first use and kept, so a request costs one atomic add instead of a
/// registry lookup.
struct QueryRoutes {
    dispatcher: Arc<Dispatcher>,
    registry: Arc<MetricsRegistry>,
    requests: [[OnceLock<Counter>; STATUSES.len()]; ENDPOINTS.len()],
    errors: [OnceLock<Counter>; ERROR_KINDS.len()],
}

impl Routes for QueryRoutes {
    const KEEP_ALIVE: bool = true;

    fn respond(&self, method: &str, path: &str, query: &str) -> HttpResponse {
        let response = self.answer(method, path, query);
        self.count_request(path, response.status);
        response
    }

    fn refused(&self, refusal: HeadTooLarge) {
        self.count_error("request-too-large");
        // A refused head has no path: it counts as `other`.
        self.count_request("", refusal.status());
    }

    fn stops(&self, path: &str) -> bool {
        path == "/quitquitquit"
    }
}

impl QueryRoutes {
    fn answer(&self, method: &str, path: &str, query: &str) -> HttpResponse {
        if method != "GET" {
            self.count_error("method");
            return HttpResponse::json_error(405, "method", "only GET is supported");
        }
        let kind = match path {
            "/distance" => QueryKind::Distance,
            "/route" => QueryKind::Route,
            "/quitquitquit" => return HttpResponse::ok("shutting down\n"),
            _ => {
                return scrape_answer(path, &self.registry).unwrap_or_else(|| {
                    self.count_error("unknown-endpoint");
                    HttpResponse::json_error(
                        404,
                        "unknown-endpoint",
                        &format!("no such endpoint: {path}"),
                    )
                })
            }
        };
        let query = match parse_query(self.dispatcher.config().d, kind, query) {
            Ok(query) => query,
            Err(e) => {
                self.count_error(e.kind);
                return HttpResponse::json_error(400, e.kind, &e.detail);
            }
        };
        let Ok(admission) = self.dispatcher.admit(query) else {
            return HttpResponse::overloaded();
        };
        match admission.answer() {
            Some(body) => HttpResponse::ok(body),
            // The solve panicked; its shard was reset and stays usable.
            None => {
                self.count_error("internal");
                HttpResponse::json_error(500, "internal", "the answer failed")
            }
        }
    }

    /// Counts one response with `status` to a request for `path` in
    /// `dbr_service_requests_total`.
    fn count_request(&self, path: &str, status: u16) {
        let name = path.strip_prefix('/');
        let e = ENDPOINTS
            .iter()
            .position(|&e| name == Some(e))
            .unwrap_or(ENDPOINTS.len() - 1);
        let resolve = || {
            self.registry.counter_with(
                "dbr_service_requests_total",
                "Service requests, by endpoint and status.",
                &[("endpoint", ENDPOINTS[e]), ("status", &status.to_string())],
            )
        };
        match STATUSES.iter().position(|&s| s == status) {
            Some(s) => self.requests[e][s].get_or_init(resolve).inc(),
            None => resolve().inc(),
        }
    }

    fn count_error(&self, kind: &str) {
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
    server: HttpServer<QueryRoutes>,
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
        let routes = QueryRoutes {
            dispatcher: Arc::new(dispatcher),
            registry,
            requests: [const { [const { OnceLock::new() }; STATUSES.len()] }; ENDPOINTS.len()],
            errors: [const { OnceLock::new() }; ERROR_KINDS.len()],
        };
        Ok(Self {
            server: HttpServer::bind(addr, routes, "dbr-serve")?,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The compute plane, for inspection in tests and CLI reporting.
    pub fn dispatcher(&self) -> &Arc<Dispatcher> {
        &self.server.routes().dispatcher
    }

    /// Parks the caller until the service stops (a `/quitquitquit`
    /// request), then drains and tears down.
    ///
    /// # Errors
    ///
    /// Returns the flight-recorder dump error, if any.
    pub fn block(mut self) -> io::Result<Option<Anomaly>> {
        self.server.wait();
        self.teardown()
    }

    /// Stops accepting, lets live connections finish, closes admission.
    ///
    /// # Errors
    ///
    /// Returns the flight-recorder dump error, if any.
    pub fn shutdown(mut self) -> io::Result<Option<Anomaly>> {
        self.teardown()
    }

    /// Stops the server, then closes admission (a straggler past the
    /// drain deadline sheds) and finishes the flight recorder. Tearing
    /// down twice does nothing more.
    fn teardown(&mut self) -> io::Result<Option<Anomaly>> {
        self.server.stop();
        let dispatcher = self.dispatcher();
        dispatcher.close();
        dispatcher.finish_flight()
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        let _ = self.teardown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ScrapeServer;
    use std::io::{Read, Write};
    use std::net::TcpStream;

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
