//! std-only HTTP/1.1: the request reader, the response writer, and the
//! one connection plane both of the crate's servers run on.
//!
//! The plane gives each live connection its own thread (at most 1,024;
//! past the cap a new socket gets an immediate `503`), so a client that
//! connects and sends nothing holds up no one else. [`ScrapeServer`]
//! runs on it with `/metrics` and `/healthz`, closing the connection
//! after every response; [`QueryService`](crate::QueryService) with
//! `dbr serve`'s keep-alive query endpoints. That is the whole protocol
//! surface the two need, which is why the workspace's no-dependencies
//! rule costs nothing here (see
//! `docs/adr/0004-metrics-registry-and-flight-recorder.md`).

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::registry::MetricsRegistry;

/// The Prometheus text exposition content type served on `/metrics`.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// The `Retry-After` seconds every `503` advertises.
pub const RETRY_AFTER_SECS: u64 = 1;

/// Hard cap on one server's concurrent connections, so a connection
/// flood cannot exhaust threads (the query service's real admission
/// control is its per-shard bound).
const MAX_CONNECTIONS: usize = 1024;

/// How long an idle connection may sit between requests.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// How long stopping a server waits for live connections to finish.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// One HTTP response produced by a route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (200, 400, 404, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// Optional `Retry-After` header value in seconds (load shedding).
    pub retry_after: Option<u64>,
}

impl HttpResponse {
    /// A `200 OK` plain-text response.
    pub fn ok(body: impl Into<String>) -> Self {
        Self::text(200, body)
    }

    /// An arbitrary-status plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            retry_after: None,
        }
    }

    /// A machine-readable error: `{"error":"<kind>","detail":"<detail>"}`
    /// as `application/json`. The detail is JSON-escaped; the kind must
    /// already be a stable kebab-case identifier.
    pub fn json_error(status: u16, kind: &str, detail: &str) -> Self {
        let mut escaped = String::with_capacity(detail.len());
        for c in detail.chars() {
            match c {
                '"' => escaped.push_str("\\\""),
                '\\' => escaped.push_str("\\\\"),
                '\n' => escaped.push_str("\\n"),
                c if (c as u32) < 0x20 => {
                    use std::fmt::Write as _;
                    let _ = write!(escaped, "\\u{:04x}", c as u32);
                }
                c => escaped.push(c),
            }
        }
        Self {
            status,
            content_type: "application/json; charset=utf-8",
            body: format!("{{\"error\":\"{kind}\",\"detail\":\"{escaped}\"}}\n"),
            retry_after: None,
        }
    }

    /// A `503 Service Unavailable` shed response with `Retry-After`
    /// [`RETRY_AFTER_SECS`].
    pub fn overloaded() -> Self {
        let mut response = Self::json_error(503, "overloaded", "queue full, retry later");
        response.retry_after = Some(RETRY_AFTER_SECS);
        response
    }
}

/// One parsed HTTP request line plus the connection-management headers
/// the servers here care about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (`GET`, ...).
    pub method: String,
    /// Request target: path plus optional query string.
    pub target: String,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default, overridden by `Connection: close`; HTTP/1.0
    /// defaults to close unless `Connection: keep-alive`).
    pub keep_alive: bool,
}

/// The longest request line or header line [`read_request`] accepts,
/// terminator included; all header lines together get the same budget.
pub const MAX_HEAD_LINE: usize = 8192;

/// Why [`read_request`] refused a request head: a line grew past
/// [`MAX_HEAD_LINE`] before its newline arrived. It travels as the
/// payload of an [`io::ErrorKind::InvalidData`] error; the server
/// answers with [`HeadTooLarge::response`] and closes the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadTooLarge {
    /// The request line (`414 URI Too Long`).
    RequestLine,
    /// A header line, or the header lines together
    /// (`431 Request Header Fields Too Large`).
    Headers,
}

impl HeadTooLarge {
    /// The refusal `error` carries, if it is one.
    pub fn of(error: &io::Error) -> Option<Self> {
        error.get_ref()?.downcast_ref::<Self>().copied()
    }

    /// The status code of the refusal.
    pub fn status(self) -> u16 {
        match self {
            HeadTooLarge::RequestLine => 414,
            HeadTooLarge::Headers => 431,
        }
    }

    /// The `request-too-large` JSON error answering the refusal.
    pub fn response(self) -> HttpResponse {
        HttpResponse::json_error(self.status(), "request-too-large", &self.to_string())
    }
}

impl std::fmt::Display for HeadTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self {
            HeadTooLarge::RequestLine => "request line",
            HeadTooLarge::Headers => "request headers",
        };
        write!(f, "{what} longer than {MAX_HEAD_LINE} bytes")
    }
}

impl std::error::Error for HeadTooLarge {}

impl From<HeadTooLarge> for io::Error {
    fn from(refusal: HeadTooLarge) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, refusal)
    }
}

/// Reads one line, terminator included, into `line` (cleared first).
/// Returns the bytes read (0 at end of input), or `None` once `max`
/// bytes have passed without a newline — having buffered at most `max`.
fn read_line_bounded(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
    max: usize,
) -> io::Result<Option<usize>> {
    line.clear();
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(Some(line.len()));
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.map_or(available.len(), |i| i + 1);
        if line.len() + take > max {
            return Ok(None);
        }
        line.extend_from_slice(&available[..take]);
        reader.consume(take);
        if newline.is_some() {
            return Ok(Some(line.len()));
        }
    }
}

/// Reads one request head from `reader`. `Ok(None)` means the peer
/// closed the connection cleanly between requests (keep-alive end).
///
/// Headers are drained so pipelined clients stay in sync; only the
/// `Connection` header is interpreted. No line may exceed
/// [`MAX_HEAD_LINE`] bytes, nor the header lines together.
///
/// # Errors
///
/// The reader's I/O errors; [`io::ErrorKind::InvalidData`] for a request
/// line that is not UTF-8, or, carrying a [`HeadTooLarge`], for an
/// oversized line.
pub fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Option<HttpRequest>> {
    let mut line = Vec::new();
    match read_line_bounded(reader, &mut line, MAX_HEAD_LINE)? {
        None => return Err(HeadTooLarge::RequestLine.into()),
        Some(0) => return Ok(None),
        Some(_) => {}
    }
    let request_line =
        std::str::from_utf8(&line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("").to_string();
    let http10 = parts.next().is_some_and(|v| v == "HTTP/1.0");
    let mut keep_alive = !http10;
    let mut drained = 0usize;
    loop {
        let n = read_line_bounded(reader, &mut line, MAX_HEAD_LINE - drained)?
            .ok_or(HeadTooLarge::Headers)?;
        drained += n;
        if n == 0 || line == b"\r\n" || line == b"\n" {
            break;
        }
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            continue;
        };
        if line[..colon].eq_ignore_ascii_case(b"connection") {
            let value = line[colon + 1..].trim_ascii();
            if value.eq_ignore_ascii_case(b"close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case(b"keep-alive") {
                keep_alive = true;
            }
        }
    }
    Ok(Some(HttpRequest {
        method,
        target,
        keep_alive,
    }))
}

/// Writes `response` to `stream` with an explicit `Connection` header
/// (`keep-alive` keeps the stream reusable for the next request).
fn write_response(
    stream: &mut TcpStream,
    response: &HttpResponse,
    keep_alive: bool,
) -> io::Result<()> {
    use std::fmt::Write as _;
    // One buffer, one write: `write!` straight into an unbuffered
    // TcpStream would issue a syscall (and, under TCP_NODELAY, a
    // packet) per format fragment. The head is under 192 bytes, so the
    // buffer is sized once.
    let mut message = String::with_capacity(192 + response.body.len());
    let _ = write!(
        message,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        response.status,
        status_reason(response.status),
        response.content_type,
        response.body.len(),
    );
    if let Some(secs) = response.retry_after {
        let _ = write!(message, "Retry-After: {secs}\r\n");
    }
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let _ = write!(message, "Connection: {connection}\r\n\r\n{}", response.body);
    stream.write_all(message.as_bytes())?;
    stream.flush()
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// The answers every server gives on `/metrics` (the registry as
/// Prometheus text) and `/healthz`; `None` for any other path.
pub(crate) fn scrape_answer(path: &str, registry: &MetricsRegistry) -> Option<HttpResponse> {
    match path {
        "/metrics" => Some(HttpResponse {
            content_type: PROMETHEUS_CONTENT_TYPE,
            ..HttpResponse::ok(registry.snapshot().render())
        }),
        "/healthz" => Some(HttpResponse::ok("ok\n")),
        _ => None,
    }
}

/// What one server answers on the plane ([`HttpServer`]).
pub(crate) trait Routes: Send + Sync + 'static {
    /// Whether a connection may carry more than one request.
    const KEEP_ALIVE: bool;

    /// Answers and counts one request; `path` is the target up to `?`.
    fn respond(&self, method: &str, path: &str, query: &str) -> HttpResponse;

    /// Counts an oversized request head, which the plane then refuses.
    fn refused(&self, refusal: HeadTooLarge);

    /// Whether answering `path` stops the server after the response.
    fn stops(&self, _path: &str) -> bool {
        false
    }
}

/// The live connections, each with a handle on its socket: their count
/// bounds new connections and tells a stopping server when all have
/// ended, and the handles let it end the reads of idle connections
/// instead of waiting out their timeout.
#[derive(Debug, Default)]
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

    fn lock(&self) -> MutexGuard<'_, HashMap<usize, TcpStream>> {
        // Every update is one insert or remove, so the map stays valid
        // even if a holder panicked.
        self.streams.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// What a server's accept thread and connection threads share.
#[derive(Debug)]
struct Plane<R: Routes> {
    routes: R,
    addr: SocketAddr,
    stopping: AtomicBool,
    live: LiveStreams,
}

impl<R: Routes> Plane<R> {
    /// Ends the accept loop: sets the flag, then wakes it with a throwaway connection.
    fn stop_accepting(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }

    /// Accepts until stopped, one thread per connection (`name-conn`).
    fn accept(self: Arc<Self>, listener: TcpListener, name: &str) {
        let conn_name = format!("{name}-conn");
        for conn in listener.incoming() {
            if self.stopping.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = conn else { continue };
            if self.live.count() >= MAX_CONNECTIONS {
                let _ = write_response(&mut stream, &HttpResponse::overloaded(), false);
                continue;
            }
            // Registered here, before the accept loop can end, so
            // stopping (which drains after it ends) sees every one. A
            // socket that cannot be cloned is dropped, as one whose
            // thread cannot be spawned is.
            let Some(id) = self.live.register(&stream) else {
                continue;
            };
            let plane = Arc::clone(&self);
            let spawned = std::thread::Builder::new()
                .name(conn_name.clone())
                .spawn(move || {
                    let _ = plane.serve(stream);
                    plane.live.release(id);
                });
            if spawned.is_err() {
                self.live.release(id);
            }
        }
    }

    /// One connection's request loop.
    fn serve(&self, mut stream: TcpStream) -> io::Result<()> {
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
                        self.routes.refused(refusal);
                        write_response(&mut stream, &refusal.response(), false)?;
                    }
                    return Err(e);
                }
            };
            let (path, query) = request
                .target
                .split_once('?')
                .unwrap_or((request.target.as_str(), ""));
            let response = self.routes.respond(&request.method, path, query);
            let keep_alive = R::KEEP_ALIVE && request.keep_alive;
            write_response(&mut stream, &response, keep_alive)?;
            if self.routes.stops(path) {
                // The response is on the wire; the owner drains the rest.
                self.stop_accepting();
                return Ok(());
            }
            if !keep_alive {
                return Ok(());
            }
        }
    }
}

/// One HTTP/1.1 server: an accept thread and a thread per live
/// connection, answering through the routes `R`. Dropping it stops it.
#[derive(Debug)]
pub(crate) struct HttpServer<R: Routes> {
    plane: Arc<Plane<R>>,
    accept: Option<JoinHandle<()>>,
}

impl<R: Routes> HttpServer<R> {
    /// Binds `addr` and starts the accept thread, `name-accept`.
    pub(crate) fn bind(addr: impl ToSocketAddrs, routes: R, name: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let plane = Arc::new(Plane {
            routes,
            addr: listener.local_addr()?,
            stopping: AtomicBool::new(false),
            live: LiveStreams::default(),
        });
        let (accepting, name) = (Arc::clone(&plane), name.to_string());
        let accept = std::thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || accepting.accept(listener, &name))?;
        Ok(Self {
            plane,
            accept: Some(accept),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.plane.addr
    }

    pub(crate) fn routes(&self) -> &R {
        &self.plane.routes
    }

    /// Waits until the accept loop ends, which a route's
    /// [`Routes::stops`] brings about.
    pub(crate) fn wait(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }

    /// Stops accepting, closes idle connections at once and gives the
    /// rest up to [`DRAIN_DEADLINE`] to finish their exchanges. Stopping
    /// a stopped server does nothing.
    pub(crate) fn stop(&mut self) {
        if self.accept.is_some() {
            self.plane.stop_accepting();
            self.wait();
        }
        self.plane.live.close_reads();
        let deadline = Instant::now() + DRAIN_DEADLINE;
        while self.plane.live.count() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl<R: Routes> Drop for HttpServer<R> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The scrape server's routes: `/metrics` and `/healthz`, each answer
/// closing its connection, counted in `dbr_http_requests_total`.
#[derive(Debug)]
struct ScrapeRoutes(Arc<MetricsRegistry>);

impl Routes for ScrapeRoutes {
    // Scrape traffic is one request per connection.
    const KEEP_ALIVE: bool = false;

    fn respond(&self, method: &str, path: &str, _query: &str) -> HttpResponse {
        let response = if method == "GET" {
            scrape_answer(path, &self.0).unwrap_or_else(|| HttpResponse::text(404, "not found\n"))
        } else {
            HttpResponse::text(405, "only GET is supported\n")
        };
        // Every other path shares one label, so no client can grow the
        // registry.
        let endpoint = match path {
            "/metrics" | "/healthz" => path,
            _ => "other",
        };
        let status = response.status.to_string();
        self.0
            .counter_with(
                "dbr_http_requests_total",
                "HTTP requests served, by endpoint and status.",
                &[("endpoint", endpoint), ("status", &status)],
            )
            .inc();
        response
    }

    // Only routed requests are counted.
    fn refused(&self, _refusal: HeadTooLarge) {}
}

/// A background HTTP/1.1 server exposing a [`MetricsRegistry`].
///
/// Binding spawns the accept thread; [`ScrapeServer::shutdown`] (or
/// dropping the server) stops it and closes idle connections at once.
/// [`ScrapeServer::block`] parks the caller on the accept thread for
/// serve-forever CLI modes.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use debruijn_net::metrics::{MetricsRegistry, ScrapeServer};
///
/// let registry = Arc::new(MetricsRegistry::new());
/// registry.counter("dbr_up", "Liveness.").inc();
/// let server = ScrapeServer::bind("127.0.0.1:0", Arc::clone(&registry))?;
/// let body = ScrapeServer::get(server.local_addr(), "/metrics")?;
/// assert!(body.contains("dbr_up 1"));
/// server.shutdown();
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct ScrapeServer {
    server: HttpServer<ScrapeRoutes>,
}

impl ScrapeServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving `/metrics` and `/healthz`.
    ///
    /// # Errors
    ///
    /// Returns the bind or thread-spawn error.
    pub fn bind(addr: impl ToSocketAddrs, registry: Arc<MetricsRegistry>) -> io::Result<Self> {
        let server = HttpServer::bind(addr, ScrapeRoutes(registry), "dbr-scrape")?;
        Ok(Self { server })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stops the server: idle connections close at once, the rest finish.
    pub fn shutdown(mut self) {
        self.server.stop();
    }

    /// Parks the calling thread on the accept loop (serve-forever
    /// CLI modes); returns only if the accept thread exits.
    pub fn block(mut self) {
        self.server.wait();
    }

    /// Convenience test/CLI client: one `GET target` against `addr`,
    /// returning the response body.
    ///
    /// # Errors
    ///
    /// Returns connect/read errors, or [`io::ErrorKind::Other`] on a
    /// non-200 status.
    pub fn get(addr: SocketAddr, target: &str) -> io::Result<String> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: dbr\r\nConnection: close\r\n\r\n"
        )?;
        let mut response = String::new();
        BufReader::new(stream).read_to_string(&mut response)?;
        let (head, body) = response
            .split_once("\r\n\r\n")
            .ok_or_else(|| io::Error::other("malformed HTTP response"))?;
        let status = head.split_whitespace().nth(1).unwrap_or("");
        if status != "200" {
            return Err(io::Error::other(format!("HTTP status {status}")));
        }
        Ok(body.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw_request(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    fn test_server() -> (ScrapeServer, Arc<MetricsRegistry>) {
        let registry = Arc::new(MetricsRegistry::new());
        registry
            .counter_with("dbr_demo_total", "Demo.", &[("kind", "x")])
            .add(5);
        let server = ScrapeServer::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        (server, registry)
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let (server, _registry) = test_server();
        let response = raw_request(
            server.local_addr(),
            "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains(PROMETHEUS_CONTENT_TYPE), "{response}");
        assert!(
            response.contains("dbr_demo_total{kind=\"x\"} 5\n"),
            "{response}"
        );
        // Content-Length matches the body exactly.
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(len, body.len());
        server.shutdown();
    }

    #[test]
    fn healthz_unknown_and_non_get_are_routed() {
        let (server, registry) = test_server();
        let addr = server.local_addr();
        assert_eq!(ScrapeServer::get(addr, "/healthz").unwrap(), "ok\n");
        assert!(ScrapeServer::get(addr, "/nope").is_err());
        let response = raw_request(addr, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 405 "), "{response}");
        server.shutdown();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value(
                "dbr_http_requests_total",
                &[("endpoint", "/healthz"), ("status", "200")]
            ),
            Some(1)
        );
        assert_eq!(
            snap.counter_value(
                "dbr_http_requests_total",
                &[("endpoint", "other"), ("status", "404")]
            ),
            Some(1)
        );
    }

    #[test]
    fn unrouted_paths_share_one_label() {
        let (server, registry) = test_server();
        let addr = server.local_addr();
        for i in 0..5 {
            let request = format!("POST /probe-{i} HTTP/1.1\r\nHost: t\r\n\r\n");
            let response = raw_request(addr, &request);
            assert!(response.starts_with("HTTP/1.1 405 "), "{response}");
        }
        server.shutdown();
        let snap = registry.snapshot();
        let requests = &snap.families["dbr_http_requests_total"];
        assert_eq!(requests.series.len(), 1, "{:?}", requests.series);
        assert_eq!(
            snap.counter_value(
                "dbr_http_requests_total",
                &[("endpoint", "other"), ("status", "405")]
            ),
            Some(5)
        );
    }

    #[test]
    fn scrapes_observe_live_updates() {
        let (server, registry) = test_server();
        let addr = server.local_addr();
        let before = ScrapeServer::get(addr, "/metrics").unwrap();
        assert!(
            before.contains("dbr_demo_total{kind=\"x\"} 5\n"),
            "{before}"
        );
        registry
            .counter_with("dbr_demo_total", "Demo.", &[("kind", "x")])
            .add(2);
        let after = ScrapeServer::get(addr, "/metrics").unwrap();
        assert!(after.contains("dbr_demo_total{kind=\"x\"} 7\n"), "{after}");
        server.shutdown();
    }

    #[test]
    fn a_silent_client_does_not_stall_scrapes() {
        let (server, _registry) = test_server();
        let addr = server.local_addr();
        // Connected first, so it is accepted first, and never sends.
        let silent = TcpStream::connect(addr).unwrap();
        let started = Instant::now();
        assert_eq!(ScrapeServer::get(addr, "/healthz").unwrap(), "ok\n");
        let metrics = ScrapeServer::get(addr, "/metrics").unwrap();
        let took = started.elapsed();
        assert!(metrics.contains("dbr_demo_total"), "{metrics}");
        assert!(took < Duration::from_secs(1), "answers took {took:?}");
        drop(silent);
        server.shutdown();
    }

    #[test]
    fn drop_joins_the_accept_thread() {
        let (server, _registry) = test_server();
        // Dropping must stop the accept loop and join its thread
        // (a hang here fails the test via the harness timeout).
        drop(server);
    }
}
