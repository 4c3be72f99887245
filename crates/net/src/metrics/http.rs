//! Minimal std-only HTTP scrape endpoint.
//!
//! A [`ScrapeServer`] owns a `std::net::TcpListener` and one accept
//! thread; each connection gets a single GET request parsed, routed,
//! and answered with `Connection: close`. That is the entire protocol
//! surface Prometheus scraping needs, which is why the workspace's
//! no-external-dependencies rule costs nothing here — see
//! `docs/adr/0004-metrics-registry-and-flight-recorder.md` for the
//! trade-off against hyper/tokio.
//!
//! Routes: `/metrics` (the registry, Prometheus text format) and
//! `/healthz`; any other path gets `404`, and any method but `GET`
//! `405`. `dbr serve`'s query endpoints run on
//! [`QueryService`](crate::QueryService)'s own keep-alive server, which
//! shares [`read_request`] and the response writer with this one.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use super::registry::MetricsRegistry;

/// The Prometheus text exposition content type served on `/metrics`.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// One HTTP response produced by a route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (200, 400, 404, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body.
    pub body: String,
    /// Optional `Retry-After` header value in seconds (load shedding).
    pub retry_after: Option<u64>,
}

impl HttpResponse {
    /// A `200 OK` plain-text response.
    pub fn ok(body: impl Into<String>) -> Self {
        Self {
            status: 200,
            content_type: "text/plain; charset=utf-8".to_string(),
            body: body.into(),
            retry_after: None,
        }
    }

    /// An arbitrary-status plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8".to_string(),
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
            content_type: "application/json; charset=utf-8".to_string(),
            body: format!("{{\"error\":\"{kind}\",\"detail\":\"{escaped}\"}}\n"),
            retry_after: None,
        }
    }

    /// A `503 Service Unavailable` shed response with `Retry-After`.
    pub fn overloaded(retry_after_secs: u64) -> Self {
        let mut response = Self::json_error(503, "overloaded", "queue full, retry later");
        response.retry_after = Some(retry_after_secs);
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
pub(crate) fn write_response(
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

/// A background HTTP/1.1 server exposing a [`MetricsRegistry`].
///
/// Binding spawns one accept thread; [`ScrapeServer::shutdown`] (or
/// dropping the server) stops it. [`ScrapeServer::block`] parks the
/// caller on the accept thread for serve-forever CLI modes.
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
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ScrapeServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving `/metrics` and `/healthz`.
    ///
    /// # Errors
    ///
    /// Returns the bind or thread-spawn error.
    pub fn bind(addr: impl ToSocketAddrs, registry: Arc<MetricsRegistry>) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("dbr-scrape".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut stream) = conn else { continue };
                    // Serve inline: scrape traffic is one request per
                    // connection and tiny; per-connection errors only
                    // affect that client.
                    let _ = serve_connection(&mut stream, &registry);
                }
            })?;
        Ok(Self {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    /// Parks the calling thread on the accept loop (serve-forever
    /// CLI modes); returns only if the accept thread exits.
    pub fn block(mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }

    fn stop_accepting(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Unblock the accept call with one throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
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

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

/// Reads one request, routes it, writes one response.
///
/// Scrape traffic is one request per connection, so this server stays
/// close-per-request; the keep-alive query plane lives in
/// [`crate::service::QueryService`], which shares [`read_request`] /
/// [`write_response`].
fn serve_connection(stream: &mut TcpStream, registry: &Arc<MetricsRegistry>) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let request = match read_request(&mut reader) {
        Ok(Some(request)) => request,
        Ok(None) => return Ok(()),
        Err(e) => {
            if let Some(refusal) = HeadTooLarge::of(&e) {
                write_response(stream, &refusal.response(), false)?;
            }
            return Err(e);
        }
    };
    let response = route(&request.method, &request.target, registry);
    let endpoint = match request.target.split('?').next().unwrap_or("") {
        path @ ("/metrics" | "/healthz") => path,
        // Every other path shares one label, so no client can grow the
        // registry.
        _ => "other",
    };
    registry
        .counter_with(
            "dbr_http_requests_total",
            "HTTP requests served, by endpoint and status.",
            &[
                ("endpoint", endpoint),
                ("status", &response.status.to_string()),
            ],
        )
        .inc();
    write_response(stream, &response, false)
}

fn route(method: &str, target: &str, registry: &Arc<MetricsRegistry>) -> HttpResponse {
    if method != "GET" {
        return HttpResponse::text(405, "only GET is supported\n");
    }
    match target.split('?').next().unwrap_or("") {
        "/metrics" => HttpResponse {
            status: 200,
            content_type: PROMETHEUS_CONTENT_TYPE.to_string(),
            body: registry.snapshot().render(),
            retry_after: None,
        },
        "/healthz" => HttpResponse::ok("ok\n"),
        _ => HttpResponse::text(404, "not found\n"),
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
    fn drop_joins_the_accept_thread() {
        let (server, _registry) = test_server();
        // Dropping must stop the accept loop and join its thread
        // (a hang here fails the test via the harness timeout).
        drop(server);
    }
}
