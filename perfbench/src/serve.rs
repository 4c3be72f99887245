//! serve_hot and serve_cold: closed-loop keep-alive HTTP clients against
//! a `QueryService` on loopback TCP.
//!
//! Two client threads each hold one keep-alive connection and send the
//! next request only after the previous response has fully arrived.
//! Requests alternate `/route` and `/distance` over undirected
//! `DG(2,64)` pairs. serve_hot cycles through a fixed hot set that the
//! set-up's warm-up pass has already put in the route cache; serve_cold
//! sends a pair never sent before on every request, into a cache its
//! set-up has filled.
//!
//! Clients keep one digest per 64 responses and latency histograms, not
//! the bodies, so their memory does not grow with the request count; the
//! bodies are checked against `answer_query_direct` after the timed
//! phase, by regenerating the requests from the seed.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use debruijn_suite::net::metrics::{MetricsRegistry, MetricsSnapshot};
use debruijn_suite::net::service::{
    answer_query_direct, parse_query, QueryKind, QueryService, ServiceConfig,
};
use debruijn_suite::net::LogHistogram;

use crate::gen::{self, is_route, push_word64};
use crate::host::{self, HostCpu};
use crate::report::Report;
use crate::stats::{self, LatencyHist};
use crate::trace::Tracer;

/// Load-generating threads, one keep-alive connection each.
pub const CLIENTS: usize = 2;
/// Service compute workers (and route-cache shards).
pub const WORKERS: usize = 2;
/// Distinct pairs in the serve_hot working set: about 512 per cache
/// shard against 2048 slots per shard.
pub const HOT_SET: usize = 1024;
/// Pairs serve_cold's set-up sends to fill the 4096-route cache: a
/// quarter more than it holds, so both shards are full and every timed
/// request evicts. A bind and two connects alone take a fraction of a
/// millisecond, dominated by thread wake-ups, and their median moved by
/// more than half between two sets of runs of identical code.
pub const COLD_FILL: usize = 5120;
/// Set-ups per run besides those of the timed rounds.
const EXTRA_SETUPS: usize = 5;
/// Timed rounds per run, each on a fresh service.
pub const ROUNDS: usize = 4;
/// The timed phase is cut into windows of this length; throughput and
/// latency are taken over the calmest quarter of them
/// ([`stats::calmest_quarter`]).
const WINDOW: Duration = Duration::from_millis(250);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Hot,
    Cold,
}

impl Variant {
    pub fn name(self) -> &'static str {
        match self {
            Variant::Hot => "serve_hot",
            Variant::Cold => "serve_cold",
        }
    }
}

/// The service under test: the default configuration with 2 workers.
pub fn config() -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        ..ServiceConfig::new(2)
    }
}

/// Fills `buf` with a GET for one pair on `/route` or `/distance`.
pub fn build_request(buf: &mut Vec<u8>, route: bool, x: u64, y: u64) {
    buf.clear();
    buf.extend_from_slice(if route {
        b"GET /route?x="
    } else {
        b"GET /distance?x="
    });
    push_word64(buf, x);
    buf.extend_from_slice(b"&y=");
    push_word64(buf, y);
    buf.extend_from_slice(b" HTTP/1.1\r\nHost: perfbench\r\n\r\n");
}

/// The query string of one pair, as the service parses it.
pub fn query_string(x: u64, y: u64) -> String {
    let mut buf = b"x=".to_vec();
    push_word64(&mut buf, x);
    buf.extend_from_slice(b"&y=");
    push_word64(&mut buf, y);
    String::from_utf8(buf).expect("binary digits are ASCII")
}

/// The reference body for one request.
fn expected_body(route: bool, x: u64, y: u64) -> String {
    let kind = if route {
        QueryKind::Route
    } else {
        QueryKind::Distance
    };
    let query = parse_query(2, kind, &query_string(x, y)).expect("generated query parses");
    answer_query_direct(&query)
}

/// A keep-alive HTTP/1.1 client with reused buffers.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    request: Vec<u8>,
    line: Vec<u8>,
    body: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Self {
            reader: BufReader::new(stream.try_clone()?),
            stream,
            request: Vec::with_capacity(256),
            line: Vec::with_capacity(128),
            body: Vec::with_capacity(512),
        };
        // A connection is usable once its server thread answers.
        client
            .request
            .extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: perfbench\r\n\r\n");
        let status = client.exchange()?;
        if status != 200 {
            return Err(io::Error::other(format!("/healthz answered {status}")));
        }
        Ok(client)
    }

    /// Sends `self.request`, reads the whole response into `self.body`
    /// and returns its status.
    fn exchange(&mut self) -> io::Result<u16> {
        self.stream.write_all(&self.request)?;
        self.line.clear();
        if self.reader.read_until(b'\n', &mut self.line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let status = std::str::from_utf8(self.line.get(9..12).unwrap_or_default())
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::other("malformed status line"))?;
        let mut len = 0usize;
        loop {
            self.line.clear();
            self.reader.read_until(b'\n', &mut self.line)?;
            if self.line.is_empty() || self.line == b"\r\n" {
                break;
            }
            let header = String::from_utf8_lossy(&self.line);
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = value
                        .trim()
                        .parse()
                        .map_err(|_| io::Error::other("bad Content-Length"))?;
                }
            }
        }
        self.body.resize(len, 0);
        self.reader.read_exact(&mut self.body)?;
        Ok(status)
    }

    fn send(&mut self, route: bool, x: u64, y: u64) -> io::Result<u16> {
        build_request(&mut self.request, route, x, y);
        self.exchange()
    }
}

/// Responses folded into one check digest: the clients keep one digest
/// per block instead of every body.
const BLOCK: u64 = 64;

/// Folds one body, and a separator, into a block digest.
fn fold(digest: u64, body: &[u8]) -> u64 {
    gen::fnv1a(gen::fnv1a(digest, body), b"\0")
}

/// What one client thread saw during the timed phase, in memory that
/// does not grow with the request count beyond one word per block.
#[derive(Debug, Default)]
struct ClientLog {
    latency: LatencyHist,
    requests: u64,
    /// One digest per `BLOCK` consecutive responses.
    digests: Vec<u64>,
    non_200: u64,
    /// Latencies of the requests completed in each window.
    windows: Vec<LatencyHist>,
    cpu_us: f64,
    error: Option<String>,
}

/// The pair and endpoint of one client's `i`-th timed request. The hot
/// clients start half a set apart; every cold client stream is fresh.
struct Requests {
    variant: Variant,
    hot: Arc<Vec<(u64, u64)>>,
    cold: Box<dyn Iterator<Item = (u64, u64)> + Send>,
    offset: usize,
}

impl Requests {
    /// The requests of client stream `stream` (round × clients + client).
    fn new(variant: Variant, seed: u64, hot: &Arc<Vec<(u64, u64)>>, stream: usize) -> Self {
        Self {
            variant,
            hot: Arc::clone(hot),
            cold: Box::new(gen::cold_pairs(seed, stream)),
            offset: (stream % CLIENTS) * hot.len() / CLIENTS,
        }
    }

    /// The `i`-th pair; `i` must count up from 0 by one.
    fn pair(&mut self, i: u64) -> (u64, u64) {
        match self.variant {
            Variant::Hot => self.hot[(self.offset + i as usize) % self.hot.len()],
            Variant::Cold => self.cold.next().expect("the cold stream is endless"),
        }
    }
}

/// The timed closed loop of one client.
fn drive(
    client: &mut Client,
    mut requests: Requests,
    start: Instant,
    deadline: Instant,
    windows: usize,
    mut tracer: Option<&mut Tracer>,
    id_base: u64,
) -> ClientLog {
    let mut log = ClientLog {
        windows: vec![LatencyHist::default(); windows],
        ..ClientLog::default()
    };
    let cpu0 = host::thread_cpu_us();
    let mut digest = gen::FNV_OFFSET;
    let mut i = 0u64;
    loop {
        let (x, y) = requests.pair(i);
        let t0 = Instant::now();
        let status = match client.send(is_route(i), x, y) {
            Ok(status) => status,
            Err(e) => {
                log.error = Some(format!("request {i}: {e}"));
                break;
            }
        };
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as u64;
        log.latency.record(ns);
        log.non_200 += u64::from(status != 200);
        digest = fold(digest, &client.body);
        i += 1;
        if i.is_multiple_of(BLOCK) {
            log.digests.push(digest);
            digest = gen::FNV_OFFSET;
        }
        let w = ((t1 - start).as_nanos() / WINDOW.as_nanos()) as usize;
        if let Some(window) = log.windows.get_mut(w) {
            window.record(ns);
        }
        if let Some(t) = tracer.as_deref_mut() {
            t.record("serve.request", id_base + i, t0, t1);
        }
        if t1 >= deadline {
            break;
        }
    }
    if !i.is_multiple_of(BLOCK) {
        log.digests.push(digest);
    }
    log.requests = i;
    log.cpu_us = host::thread_cpu_us() - cpu0;
    log
}

/// Regenerates a client's requests and counts those in blocks whose
/// digest differs from the direct engine's bodies.
fn check_client(log: &ClientLog, mut requests: Requests) -> u64 {
    let mut bad = 0u64;
    let mut digest = gen::FNV_OFFSET;
    let mut expected_hot: std::collections::HashMap<(usize, bool), String> =
        std::collections::HashMap::new();
    for i in 0..log.requests {
        let (x, y) = requests.pair(i);
        let route = is_route(i);
        digest = match requests.variant {
            Variant::Hot => {
                let p = (requests.offset + i as usize) % requests.hot.len();
                let body = expected_hot
                    .entry((p, route))
                    .or_insert_with(|| expected_body(route, x, y));
                fold(digest, body.as_bytes())
            }
            Variant::Cold => fold(digest, expected_body(route, x, y).as_bytes()),
        };
        let end = i + 1 == log.requests;
        if (i + 1) % BLOCK == 0 || end {
            let block = (i / BLOCK) as usize;
            if log.digests.get(block) != Some(&digest) {
                bad += i % BLOCK + 1;
            }
            digest = gen::FNV_OFFSET;
        }
    }
    bad
}

/// Everything one serve run measured.
#[derive(Debug, Default)]
pub struct ServeRun {
    pub setup_s: Vec<f64>,
    /// Latencies of the requests completed in each window, all clients.
    pub windows: Vec<LatencyHist>,
    /// Host steal share in each window.
    pub window_steal: Vec<f64>,
    pub latency: LatencyHist,
    pub requests: u64,
    pub failed: u64,
    /// CPU of the process minus the client threads, over the timed phase.
    pub program_cpu_us: f64,
    pub steal_share: f64,
    pub peak_rss_kib: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub queue_to_answer_p50_ns: f64,
    pub queue_high_water: f64,
    pub shed: u64,
    pub problems: Vec<String>,
}

fn cache_counts(snap: &MetricsSnapshot) -> [u64; 3] {
    ["hit", "miss", "eviction"].map(|outcome| {
        snap.counter_value("dbr_service_cache_total", &[("outcome", outcome)])
            .unwrap_or(0)
    })
}

/// One service plus its connected clients, after set-up.
struct Bound {
    service: QueryService,
    registry: Arc<MetricsRegistry>,
    clients: Vec<Client>,
}

/// Bind, connect and warm the cache with one pass over `warm`, each
/// client sending half of it.
fn set_up(warm: &[(u64, u64)]) -> io::Result<Bound> {
    let registry = Arc::new(MetricsRegistry::new());
    let service = QueryService::bind("127.0.0.1:0", config(), Arc::clone(&registry))?;
    let addr = service.local_addr();
    let mut clients = (0..CLIENTS)
        .map(|_| Client::connect(addr))
        .collect::<io::Result<Vec<_>>>()?;
    if !warm.is_empty() {
        let half = warm.len().div_ceil(CLIENTS);
        std::thread::scope(|s| {
            let passes: Vec<_> = clients
                .iter_mut()
                .zip(warm.chunks(half))
                .map(|(client, part)| {
                    s.spawn(move || {
                        for (i, &(x, y)) in part.iter().enumerate() {
                            if client.send(is_route(i as u64), x, y)? != 200 {
                                return Err(io::Error::other("warm-up request failed"));
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            passes
                .into_iter()
                .try_for_each(|p| p.join().expect("warm-up thread panicked"))
        })?;
    }
    Ok(Bound {
        service,
        registry,
        clients,
    })
}

impl Bound {
    fn tear_down(self) -> Result<(), String> {
        drop(self.clients);
        self.service
            .shutdown()
            .map(drop)
            .map_err(|e| format!("service shutdown: {e}"))
    }
}

/// Runs one serve workload: `extra_setups` set-ups torn down at once,
/// then `rounds` rounds of set-up and timed closed loop, each on a fresh
/// service with fresh threads — so where the scheduler happens to place
/// one round's threads weighs on that round, not on the whole run — then
/// the checks of every round. A set-up binds, connects and sends the
/// warm-up pass: the hot set, or serve_cold's cache fill.
pub fn run(
    variant: Variant,
    seed: u64,
    seconds: f64,
    extra_setups: usize,
    rounds: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<ServeRun, String> {
    let hot = Arc::new(gen::hot_set(seed, HOT_SET));
    let warm: Vec<(u64, u64)> = match variant {
        Variant::Hot => hot.to_vec(),
        Variant::Cold => gen::cold_pairs(seed, gen::stream::COLD_FILL)
            .take(COLD_FILL)
            .collect(),
    };
    let mut out = ServeRun::default();
    let set_up_timed = |out: &mut ServeRun| {
        let t0 = Instant::now();
        let bound = set_up(&warm).map_err(|e| format!("{} set-up: {e}", variant.name()))?;
        out.setup_s.push(t0.elapsed().as_secs_f64());
        Ok::<_, String>(bound)
    };
    for _ in 0..extra_setups {
        set_up_timed(&mut out)?.tear_down()?;
    }
    let mut queue_to_answer = LogHistogram::new();
    let mut logs = Vec::new();
    for round in 0..rounds {
        let bound = set_up_timed(&mut out)?;
        let round_logs = timed_round(
            &mut out,
            &mut queue_to_answer,
            bound,
            variant,
            seed,
            round,
            seconds / rounds as f64,
            &hot,
            warm.len() as u64,
            tracer.as_deref_mut(),
        )?;
        logs.extend(round_logs);
        if round == 0 {
            // One service's lifetime: later rounds reuse freed memory in
            // whichever allocator arenas their new threads land on, which
            // would make the high-water mark drift from run to run.
            out.peak_rss_kib = host::peak_rss_kib();
        }
    }
    out.steal_share = stats::mean(&out.window_steal);
    out.queue_to_answer_p50_ns = queue_to_answer.percentile(50.0).unwrap_or(0) as f64;

    // Checks, outside the timed phases: every body against the direct
    // engine, regenerating each client's requests from the seed.
    let mut non_200 = 0;
    for (_, log) in &logs {
        non_200 += log.non_200;
        if let Some(e) = &log.error {
            out.problems.push(format!("{}: {e}", variant.name()));
        }
    }
    out.failed = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (logs, hot) = (&logs, &hot);
                s.spawn(move || {
                    logs.iter()
                        .filter(|(stream, _)| stream % CLIENTS == c)
                        .map(|&(stream, ref log)| {
                            check_client(log, Requests::new(variant, seed, hot, stream))
                        })
                        .sum::<u64>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread panicked"))
            .sum()
    });
    if out.failed > 0 || non_200 > 0 {
        out.problems.push(format!(
            "{}: {non_200} responses were not 200; {} requests sat in blocks whose bodies \
             differ from answer_query_direct",
            variant.name(),
            out.failed
        ));
    }
    Ok(out)
}

/// One round's timed closed loop on a service set up with `warm`
/// warm-up requests. Adds the round's figures to `out` and the registry's
/// queue-to-answer latencies to `queue_to_answer`; returns each client's
/// log with its request stream.
#[allow(clippy::too_many_arguments)]
fn timed_round(
    out: &mut ServeRun,
    queue_to_answer: &mut LogHistogram,
    bound: Bound,
    variant: Variant,
    seed: u64,
    round: usize,
    seconds: f64,
    hot: &Arc<Vec<(u64, u64)>>,
    warm: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<(usize, ClientLog)>, String> {
    let Bound {
        service,
        registry,
        clients,
    } = bound;
    // The warm-up's cache counters are published after its last answers
    // went out; wait for them so the timed phase's delta is exact.
    let waited = Instant::now();
    let before = loop {
        let counts = cache_counts(&registry.snapshot());
        if counts[0] + counts[1] >= warm || waited.elapsed() > Duration::from_secs(2) {
            break counts;
        }
        std::thread::sleep(Duration::from_micros(200));
    };

    let windows = (seconds / WINDOW.as_secs_f64()).floor().max(1.0) as usize;
    let cpu0 = host::process_cpu_us();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let epoch = tracer.as_ref().map(|t| t.epoch());
    let mut window_steal = Vec::with_capacity(windows);
    let logs: Vec<(usize, ClientLog, Option<Tracer>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                // Each round's clients draw their own request streams.
                let stream = round * CLIENTS + c;
                let requests = Requests::new(variant, seed, hot, stream);
                s.spawn(move || {
                    let mut local = epoch.map(Tracer::new);
                    let log = drive(
                        &mut client,
                        requests,
                        start,
                        deadline,
                        windows,
                        local.as_mut(),
                        (stream as u64) << 40,
                    );
                    (stream, log, local)
                })
            })
            .collect();
        // Meanwhile, the host's steal in each window.
        let mut host = HostCpu::now();
        for w in 1..=windows {
            let boundary = start + WINDOW * w as u32;
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            let now = HostCpu::now();
            window_steal.push(now.steal_share_since(&host));
            host = now;
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let client_cpu: f64 = logs.iter().map(|(_, l, _)| l.cpu_us).sum();
    out.program_cpu_us += host::process_cpu_us() - cpu0 - client_cpu;
    out.window_steal.extend(window_steal);

    service
        .shutdown()
        .map_err(|e| format!("service shutdown: {e}"))?;
    let snap = registry.snapshot();
    let after = cache_counts(&snap);
    out.hits += after[0] - before[0];
    out.misses += after[1] - before[1];
    out.evictions += after[2] - before[2];
    for endpoint in ["route", "distance"] {
        if let Some(h) = snap.histogram_value("dbr_service_latency_ns", &[("endpoint", endpoint)]) {
            queue_to_answer.merge(h);
        }
    }
    let high_water = (0..WORKERS)
        .filter_map(|w| {
            snap.gauge_value(
                "dbr_service_queue_depth_high_water",
                &[("shard", &w.to_string())],
            )
        })
        .max()
        .unwrap_or(0) as f64;
    out.queue_high_water = out.queue_high_water.max(high_water);
    out.shed += snap
        .counter_value("dbr_service_shed_total", &[])
        .unwrap_or(0);

    let mut kept = Vec::with_capacity(logs.len());
    let mut round_windows = vec![LatencyHist::default(); windows];
    for (stream, log, local) in logs {
        for (w, h) in round_windows.iter_mut().zip(&log.windows) {
            w.merge(h);
        }
        out.latency.merge(&log.latency);
        out.requests += log.requests;
        if let (Some(t), Some(local)) = (tracer.as_deref_mut(), local) {
            t.merge(local);
        }
        kept.push((stream, log));
    }
    out.windows.extend(round_windows);
    Ok(kept)
}

impl ServeRun {
    pub fn hit_ratio(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.program_cpu_us / self.requests.max(1) as f64
    }

    fn window_rates(&self) -> Vec<f64> {
        self.windows
            .iter()
            .map(|w| w.count() as f64 / WINDOW.as_secs_f64())
            .collect()
    }

    /// Requests answered per second: the median over the calmest quarter of
    /// the windows.
    pub fn throughput(&self) -> f64 {
        let rates = self.window_rates();
        let mut calm: Vec<f64> = stats::calmest_quarter(&self.window_steal)
            .into_iter()
            .map(|w| rates[w])
            .collect();
        stats::median(&mut calm)
    }

    /// Client-observed latency over the calmest quarter of the windows.
    pub fn calm_latency(&self) -> LatencyHist {
        let mut merged = LatencyHist::default();
        for w in stats::calmest_quarter(&self.window_steal) {
            merged.merge(&self.windows[w]);
        }
        merged
    }

    /// The failure, shape and steadiness accounting shared by the
    /// untraced and traced runs.
    pub fn account(&self, variant: Variant, report: &mut Report) {
        report.attempted += self.requests;
        report.failed += self.failed;
        report.problems.extend(self.problems.iter().cloned());
        let hit_ratio = self.hit_ratio();
        match variant {
            Variant::Hot => report.check(hit_ratio >= 0.99, || {
                format!("serve_hot hit ratio {hit_ratio:.4} is under 0.99")
            }),
            Variant::Cold => report.check(hit_ratio <= 0.01, || {
                format!("serve_cold hit ratio {hit_ratio:.4} is over 0.01")
            }),
        }
        report.note(format!(
            "{}: {} requests on {CLIENTS} keep-alive connections, {WORKERS} workers; \
             cache hit ratio {hit_ratio:.4}, evictions/request {:.4}, shed {}; \
             cpu.us_per_op {:.3}, host.steal_share {:.4}",
            variant.name(),
            self.requests,
            self.evictions as f64 / self.requests.max(1) as f64,
            self.shed,
            self.cpu_us_per_op(),
            self.steal_share,
        ));
        let per_window = |v: &[f64], scale: f64| {
            v.iter()
                .map(|x| format!("{:.0}", x * scale))
                .collect::<Vec<_>>()
                .join(" ")
        };
        report.note(format!(
            "  requests/s per {} ms window: {}",
            WINDOW.as_millis(),
            per_window(&self.window_rates(), 1.0)
        ));
        report.note(format!(
            "  host steal per window (per mille): {}",
            per_window(&self.window_steal, 1e3)
        ));
    }
}

/// The untraced serve_hot / serve_cold run.
pub fn workload(variant: Variant, seed: u64, seconds: f64) -> Result<Report, String> {
    let run = run(variant, seed, seconds, EXTRA_SETUPS, ROUNDS, None)?;
    let mut report = Report::default();
    run.account(variant, &mut report);
    report.metric("setup_s", stats::median(&mut run.setup_s.clone()), "s");
    report.metric("throughput_per_s", run.throughput(), "1/s");
    let latency = run.calm_latency();
    report.metric("latency_p50_ms", latency.quantile_ns(0.5) / 1e6, "ms");
    report.metric("latency_p90_ms", latency.quantile_ns(0.9) / 1e6, "ms");
    report.metric("peak_rss_mb", run.peak_rss_kib as f64 / 1024.0, "MiB");
    Ok(report)
}
