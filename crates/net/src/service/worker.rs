//! The compute plane: per-destination route-cache shards and admission
//! control, answered on the thread that admitted the query.
//!
//! A [`Dispatcher`] owns one shard per [`ServiceConfig::workers`]: a
//! [`RouteCache`] plus reusable routing buffers behind one `Mutex`.
//! Queries are assigned to shards by [`destination_shard`] — a
//! deterministic hash of the destination — so repeated traffic toward
//! one destination always meets the same cache, whichever connection
//! carried it. The connection thread that parsed a query answers it:
//! no queue, no reply channel, no thread to wake. It holds the shard's
//! lock only to look the pair up and, on a miss, to store the route it
//! solved outside the lock, so one connection's solve never waits on
//! another's.
//!
//! Admission control is a per-shard count of admitted, unanswered
//! queries bounded by [`ServiceConfig::max_inflight`]:
//! [`Dispatcher::admit`] never blocks, and a full shard hands the query
//! back so the HTTP layer can shed it with `503` + `Retry-After`
//! instead of letting lock waits grow without bound. The returned
//! [`Admission`] holds the query's place until it is answered or
//! dropped.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use debruijn_core::distance::undirected::Engine;
use debruijn_core::routing::{
    destination_shard, RouteCache, RouteCacheStats, RoutePath, RoutingScratch,
};
use debruijn_core::Word;
use debruijn_parallel::effective_threads;

use super::query::{answer_body, solve_query_into, Query, QueryKind};
use crate::metrics::{Anomaly, Counter, FlightRecorder, GaugeMerge, Histogram, MetricsRegistry};
use crate::record::{NetEvent, Recorder};

/// Tuning knobs for the query service, exposed as `dbr serve` flags.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Radix of the served `DG(d,k)` address space.
    pub d: u8,
    /// Cache-shard count; `0` means one per core.
    pub workers: usize,
    /// Total cached routes, split evenly across shards (`0` disables
    /// caching).
    pub cache_capacity: usize,
    /// Per-shard bound on admitted, unanswered queries: queries beyond
    /// it are shed with `503`.
    pub max_inflight: usize,
    /// `Retry-After` seconds advertised on shed responses.
    pub retry_after_secs: u64,
}

impl ServiceConfig {
    /// Production defaults for radix `d`: one shard per core, 4096
    /// cached routes, 256 admitted queries per shard.
    pub fn new(d: u8) -> Self {
        Self {
            d,
            workers: 0,
            cache_capacity: 4096,
            max_inflight: 256,
            retry_after_secs: 1,
        }
    }
}

/// What one shard's lock guards: the cache and the cache stats already
/// published to the registry.
struct ShardState {
    cache: RouteCache,
    published: RouteCacheStats,
}

impl ShardState {
    fn new(capacity: usize) -> Self {
        Self {
            cache: RouteCache::new(capacity),
            published: RouteCacheStats::default(),
        }
    }
}

/// The buffers a thread answers with: the solve's scratch and the
/// route being answered. One set per thread, so solves run outside the
/// shard locks without allocating.
#[derive(Default)]
struct AnswerBuffers {
    scratch: RoutingScratch,
    route: RoutePath,
}

thread_local! {
    static ANSWER_BUFFERS: RefCell<AnswerBuffers> = RefCell::default();
}

struct Shard {
    state: Mutex<ShardState>,
    /// Admitted, unanswered queries.
    depth: AtomicU64,
    high_water: AtomicU64,
    counters: CacheCounters,
}

/// The service's compute plane: destination-sharded route caches behind
/// per-shard locks, with bounded admission.
///
/// The dispatcher runs no threads: whoever admits a query answers it.
/// That makes overload deterministic to test: hold `max_inflight`
/// admissions, observe the sheds, then answer the held ones.
pub struct Dispatcher {
    config: ServiceConfig,
    shards: Arc<Vec<Shard>>,
    closed: AtomicBool,
    shed_total: Counter,
    latency: [Histogram; 2],
    /// Theorem-2 solves by the engine `Engine::Auto` picked, in
    /// [`SOLVE_ENGINES`] order.
    solves: [Counter; 2],
    flight: Mutex<Option<FlightRecorder>>,
    flight_armed: AtomicBool,
    seq: AtomicU64,
    #[cfg(test)]
    panic_next: AtomicBool,
}

/// One admitted query's place in its shard, held until the query is
/// answered ([`Admission::answer`]) or dropped.
pub struct Admission<'a> {
    dispatcher: &'a Dispatcher,
    shard: usize,
    depth: usize,
    query: Query,
    admitted: Instant,
}

impl Shard {
    /// Locks the shard's state. A cache step that panicked under the
    /// lock poisoned it and may have left the cache half-updated: the
    /// next locker publishes the stats that step counted and starts over
    /// with an empty cache, so no query meets a broken one.
    fn lock(&self) -> MutexGuard<'_, ShardState> {
        self.state.lock().unwrap_or_else(|poisoned| {
            let mut state = poisoned.into_inner();
            let now = state.cache.stats();
            self.counters.publish(&now.since(&state.published));
            *state = ShardState::new(state.cache.capacity());
            self.state.clear_poison();
            state
        })
    }

    /// Runs one cache step under the lock and publishes the cache-stat
    /// delta it made.
    fn with_cache<T>(&self, step: impl FnOnce(&mut RouteCache) -> T) -> T {
        let mut state = self.lock();
        let out = step(&mut state.cache);
        let now = state.cache.stats();
        self.counters.publish(&now.since(&state.published));
        state.published = now;
        out
    }
}

impl Dispatcher {
    /// Builds the dispatcher and registers its queue-depth gauges, cache
    /// and solve counters and latency histograms on `registry`. `config.workers`
    /// is resolved via [`effective_threads`] (0 → one per core).
    pub fn new(config: ServiceConfig, registry: Arc<MetricsRegistry>) -> Self {
        let workers = effective_threads(config.workers);
        let config = ServiceConfig { workers, ..config };
        let per_shard = if config.cache_capacity == 0 {
            0
        } else {
            config.cache_capacity.div_ceil(workers).max(1)
        };
        let shards: Arc<Vec<Shard>> = Arc::new(
            (0..workers)
                .map(|w| Shard {
                    state: Mutex::new(ShardState::new(per_shard)),
                    depth: AtomicU64::new(0),
                    high_water: AtomicU64::new(0),
                    counters: CacheCounters::new(&registry, &w.to_string()),
                })
                .collect(),
        );
        let gauge_shards = Arc::clone(&shards);
        registry.register_collector(move |snap| {
            for (w, shard) in gauge_shards.iter().enumerate() {
                let label = w.to_string();
                snap.set_gauge(
                    "dbr_service_queue_depth",
                    "Admitted, unanswered queries per shard.",
                    &[("shard", &label)],
                    GaugeMerge::Sum,
                    shard.depth.load(Ordering::Relaxed) as i64,
                );
                snap.set_gauge(
                    "dbr_service_queue_depth_high_water",
                    "Peak queue depth observed per shard.",
                    &[("shard", &label)],
                    GaugeMerge::Max,
                    shard.high_water.load(Ordering::Relaxed) as i64,
                );
            }
        });
        let shed_total = registry.counter(
            "dbr_service_shed_total",
            "Queries shed with 503 because a shard was full.",
        );
        let latency = [QueryKind::Distance, QueryKind::Route].map(|kind| {
            registry.histogram_with(
                "dbr_service_latency_ns",
                "Admission-to-answer latency per query, nanoseconds.",
                &[("endpoint", kind.label())],
            )
        });
        let solves = SOLVE_ENGINES.map(|engine| {
            registry.counter_with(
                "dbr_service_solves_total",
                "Theorem-2 solves, by the engine Engine::Auto picked.",
                &[("engine", engine)],
            )
        });
        Self {
            config,
            shards,
            closed: AtomicBool::new(false),
            shed_total,
            latency,
            solves,
            flight: Mutex::new(None),
            flight_armed: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            #[cfg(test)]
            panic_next: AtomicBool::new(false),
        }
    }

    /// Installs a flight recorder fed one synthetic forward event per
    /// admission decision, carrying the observed queue depth — so an
    /// [`crate::metrics::AnomalyTriggers::queue_depth_limit`] of
    /// [`ServiceConfig::max_inflight`] trips exactly when the service
    /// starts shedding and freezes the pre-overload window.
    pub fn with_flight_recorder(self, recorder: FlightRecorder) -> Self {
        *self.flight_recorder() = Some(recorder);
        self.flight_armed.store(true, Ordering::SeqCst);
        self
    }

    /// The resolved configuration (with `workers` made concrete).
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Number of cache shards.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// The shard a destination hashes to.
    pub fn shard_of(&self, y: &Word) -> usize {
        destination_shard(y, self.shards.len())
    }

    /// Admitted, unanswered queries on one shard.
    pub fn queue_depth(&self, shard: usize) -> usize {
        self.shards[shard].depth.load(Ordering::Relaxed) as usize
    }

    /// Admits `query` to its destination shard, or hands it back when
    /// the shard already holds [`ServiceConfig::max_inflight`] admitted,
    /// unanswered queries or the dispatcher is closed (the caller sheds
    /// it with `503`). Never blocks.
    #[allow(clippy::result_large_err)]
    pub fn admit(&self, query: Query) -> Result<Admission<'_>, Query> {
        let shard = self.shard_of(&query.y);
        let state = &self.shards[shard];
        let bound = self.config.max_inflight as u64;
        let mut depth = state.depth.load(Ordering::Relaxed);
        let admitted = loop {
            if depth >= bound || self.closed.load(Ordering::Acquire) {
                break None;
            }
            match state.depth.compare_exchange_weak(
                depth,
                depth + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break Some(depth + 1),
                Err(now) => depth = now,
            }
        };
        let flight = self.flight_armed.load(Ordering::Relaxed);
        match admitted {
            Some(depth) => {
                state.high_water.fetch_max(depth, Ordering::Relaxed);
                if flight {
                    self.record_flight(&query.x, &query.y, depth as usize);
                }
                Ok(Admission {
                    dispatcher: self,
                    shard,
                    depth: depth as usize,
                    query,
                    admitted: Instant::now(),
                })
            }
            None => {
                self.shed_total.inc();
                if flight {
                    // A shed means the shard sits at its bound: report
                    // the bound itself so a queue-depth trigger set to
                    // `max_inflight` fires on the first shed.
                    self.record_flight(&query.x, &query.y, self.config.max_inflight);
                }
                Err(query)
            }
        }
    }

    /// Kept for perfbench's worker probe: admits `query`, answers it on
    /// the calling thread and sends the body into `reply` (nothing is
    /// sent if the answer panicked). Returns the shard's depth at
    /// admission, or hands the query back when it is shed.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, query: Query, reply: SyncSender<String>) -> Result<usize, Query> {
        let admission = self.admit(query)?;
        let depth = admission.depth();
        if let Some(body) = admission.answer() {
            // A send error means the receiver hung up; the answer is
            // simply discarded.
            let _ = reply.send(body);
        }
        Ok(depth)
    }

    /// Kept for perfbench's worker probe, which spawns one thread per
    /// shard: queries are answered by whoever admits them, so there is
    /// nothing left to run and this returns at once.
    pub fn run_worker(&self, _w: usize) {}

    /// Makes the next [`Admission::answer`] panic under its shard's
    /// lock, in the cache lookup.
    #[cfg(test)]
    pub(crate) fn panic_next_answer(&self) {
        self.panic_next.store(true, Ordering::Relaxed);
    }

    /// Closes admission: every later [`Dispatcher::admit`] sheds.
    /// Admissions already held can still be answered.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// The anomaly the flight recorder captured, if any (without
    /// consuming the recorder).
    pub fn flight_anomaly(&self) -> Option<Anomaly> {
        self.flight_recorder()
            .as_ref()
            .and_then(|f| f.anomaly().cloned())
    }

    /// Takes the flight recorder and finalizes it, writing the dump
    /// file when one was configured and an anomaly fired.
    ///
    /// # Errors
    ///
    /// Returns the dump-file write error.
    pub fn finish_flight(&self) -> std::io::Result<Option<Anomaly>> {
        match self.flight_recorder().take() {
            Some(recorder) => recorder.finish(),
            None => Ok(None),
        }
    }

    /// Counts one undirected solve of a pair in `x`'s `DG(d,k)`; Algorithm
    /// 1's directed answers are not Theorem-2 solves and are not counted.
    fn count_solve(&self, x: &Word) {
        let past_crossover = Engine::Auto.resolve(x.radix(), x.len()) == Engine::SuffixTree;
        self.solves[usize::from(past_crossover)].inc();
    }

    fn flight_recorder(&self) -> MutexGuard<'_, Option<FlightRecorder>> {
        self.flight
            .lock()
            .expect("flight recorder lock: a recording panicked")
    }

    fn record_flight(&self, from: &Word, to: &Word, queue_depth: usize) {
        let mut guard = self.flight_recorder();
        if let Some(flight) = guard.as_mut() {
            // Admission decisions mapped onto the trace vocabulary:
            // one Forward per admitted (or shed) query, sequenced by a
            // monotone counter standing in for simulator time.
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            flight.record(&NetEvent::Forward {
                time: seq,
                message: seq as usize,
                hop: 0,
                from: from.clone(),
                to: to.clone(),
                departs: seq,
                arrives: seq,
                queue_wait: 0,
                queue_depth,
            });
        }
    }
}

impl Admission<'_> {
    /// The shard's depth right after this admission (this query
    /// included).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Answers the query on the calling thread, publishes the
    /// cache-stat delta, the solve it ran (if any) and the
    /// admission-to-answer latency, and releases the admission.
    ///
    /// The shard's lock is held only for the cache steps: a lookup,
    /// and on a miss, once the route is solved outside the lock, the
    /// store. The counters and the cache move as if the whole answer
    /// ran at its last cache step, so every answer matches
    /// [`super::answer_query_cached`] on the shard's cache in that
    /// order, byte for byte and count for count. A pair another thread
    /// cached between the two steps counts as a hit, and its cached
    /// route equals the one solved here, since a solve is a pure
    /// function of the query.
    ///
    /// Returns `None` if the answer panicked. The panic is contained: a
    /// cache left half-updated is replaced by an empty one, so the shard
    /// stays usable and later queries see no poisoned lock.
    pub fn answer(self) -> Option<String> {
        let shard = &self.dispatcher.shards[self.shard];
        #[cfg(test)]
        let inject_panic = self.dispatcher.panic_next.swap(false, Ordering::Relaxed);
        let query = &self.query;
        let body = ANSWER_BUFFERS.with(|buffers| {
            let mut buffers = buffers.borrow_mut();
            let buffers = &mut *buffers;
            let body = catch_unwind(AssertUnwindSafe(|| {
                let hit = !query.directed
                    && shard.with_cache(|cache| {
                        #[cfg(test)]
                        assert!(!inject_panic, "injected answer panic");
                        cache
                            .get(&query.x, &query.y)
                            .map(|route| buffers.route.clone_from(route))
                            .is_some()
                    });
                if !hit {
                    solve_query_into(query, &mut buffers.scratch, &mut buffers.route);
                    if !query.directed {
                        if query.x != query.y {
                            self.dispatcher.count_solve(&query.x);
                        }
                        shard.with_cache(|cache| {
                            cache.get_or_insert(&query.x, &query.y, &buffers.route)
                        });
                    }
                }
                answer_body(query.kind, &buffers.route)
            }))
            .ok();
            if body.is_none() {
                *buffers = AnswerBuffers::default();
                // Reset a cache the panic left poisoned now, not at the
                // shard's next query.
                drop(shard.lock());
            }
            body
        });
        if body.is_some() {
            let hist = &self.dispatcher.latency[match query.kind {
                QueryKind::Distance => 0,
                QueryKind::Route => 1,
            }];
            hist.observe(self.admitted.elapsed().as_nanos() as u64);
        }
        body
    }
}

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.dispatcher.shards[self.shard]
            .depth
            .fetch_sub(1, Ordering::AcqRel);
    }
}

/// The six counter handles a shard publishes cache-stat deltas to:
/// per-shard series plus the cross-shard aggregate (distinct family
/// names, so a scrape never double counts).
struct CacheCounters {
    shard: [Counter; 3],
    aggregate: [Counter; 3],
}

const OUTCOMES: [&str; 3] = ["hit", "miss", "eviction"];

/// `dbr_service_solves_total`'s engine labels: the engines
/// [`Engine::Auto`] resolves to below and past its crossover.
const SOLVE_ENGINES: [&str; 2] = ["bit-parallel", "suffix-tree"];

impl CacheCounters {
    fn new(registry: &MetricsRegistry, shard_label: &str) -> Self {
        let shard = OUTCOMES.map(|outcome| {
            registry.counter_with(
                "dbr_service_cache_shard_total",
                "Route-cache lookups per shard, by outcome.",
                &[("shard", shard_label), ("outcome", outcome)],
            )
        });
        let aggregate = OUTCOMES.map(|outcome| {
            registry.counter_with(
                "dbr_service_cache_total",
                "Route-cache lookups across all shards, by outcome.",
                &[("outcome", outcome)],
            )
        });
        Self { shard, aggregate }
    }

    fn publish(&self, delta: &RouteCacheStats) {
        for (i, n) in [delta.hits, delta.misses, delta.evictions]
            .into_iter()
            .enumerate()
        {
            if n > 0 {
                self.shard[i].add(n);
                self.aggregate[i].add(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::AnomalyTriggers;
    use crate::service::query::{answer_query_cached, answer_query_direct, parse_query};
    use std::sync::mpsc::sync_channel;

    fn config(workers: usize, max_inflight: usize) -> ServiceConfig {
        ServiceConfig {
            workers,
            max_inflight,
            ..ServiceConfig::new(2)
        }
    }

    fn query(q: &str) -> Query {
        parse_query(2, QueryKind::Route, q).unwrap()
    }

    #[test]
    fn submit_routes_to_the_destination_shard_and_workers_answer() {
        let registry = Arc::new(MetricsRegistry::new());
        let dispatcher = Arc::new(Dispatcher::new(config(3, 16), Arc::clone(&registry)));
        assert_eq!(dispatcher.workers(), 3);
        let q = query("x=0110&y=1011");
        let shard = dispatcher.shard_of(&q.y);
        let held = dispatcher.admit(q.clone()).unwrap();
        assert_eq!(held.depth(), 1);
        assert_eq!(dispatcher.queue_depth(shard), 1);
        dispatcher.close();
        assert_eq!(held.answer().unwrap(), answer_query_direct(&q));
        assert_eq!(dispatcher.queue_depth(shard), 0);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value("dbr_service_cache_total", &[("outcome", "miss")]),
            Some(1)
        );
        // The perfbench shim answers on the caller's thread and sends
        // the body into the reply channel; run_worker has nothing to do.
        let open = Dispatcher::new(config(3, 16), Arc::new(MetricsRegistry::new()));
        let (tx, rx) = sync_channel(1);
        assert_eq!(open.submit(q.clone(), tx), Ok(1));
        assert_eq!(rx.recv().unwrap(), answer_query_direct(&q));
        open.run_worker(shard);
        assert_eq!(open.queue_depth(shard), 0);
    }

    #[test]
    fn full_queue_sheds_then_drains_cleanly_after_close() {
        let registry = Arc::new(MetricsRegistry::new());
        let triggers = AnomalyTriggers {
            drop_burst: None,
            no_route_burst: None,
            queue_depth_limit: Some(2),
            queue_wait_limit: None,
        };
        let dispatcher = Dispatcher::new(config(1, 2), Arc::clone(&registry))
            .with_flight_recorder(FlightRecorder::new(16, triggers));
        // Two held admissions fill the shard; the third admission sheds.
        let q = query("x=0110&y=1011");
        let held: Vec<Admission<'_>> = (0..2)
            .map(|_| dispatcher.admit(q.clone()).unwrap())
            .collect();
        assert_eq!(dispatcher.queue_depth(0), 2, "depth stays bounded");
        let rejected = dispatcher.admit(q.clone()).err().unwrap();
        assert_eq!(rejected, q);
        assert_eq!(dispatcher.queue_depth(0), 2);
        assert!(
            matches!(
                dispatcher.flight_anomaly(),
                Some(Anomaly::QueueDepthBreach {
                    depth: 2,
                    limit: 2,
                    ..
                })
            ),
            "{:?}",
            dispatcher.flight_anomaly()
        );
        // Close, then answer: the two admitted queries are still answered.
        dispatcher.close();
        for admission in held {
            assert_eq!(admission.answer().unwrap(), answer_query_direct(&q));
        }
        assert_eq!(
            registry
                .snapshot()
                .counter_value("dbr_service_shed_total", &[]),
            Some(1)
        );
    }

    #[test]
    fn shared_cache_baseline_answers_identically() {
        // One shard: every query meets the one cache, as the old
        // shared-cache baseline did.
        let registry = Arc::new(MetricsRegistry::new());
        let dispatcher = Dispatcher::new(config(1, 16), Arc::clone(&registry));
        let queries = ["x=0110&y=1011", "x=0000&y=1111", "x=1010&y=0101"];
        for (i, q) in queries.iter().enumerate() {
            // Alternate kinds so both endpoints cross the shared cache.
            let kind = if i % 2 == 0 {
                QueryKind::Route
            } else {
                QueryKind::Distance
            };
            let q = parse_query(2, kind, q).unwrap();
            let (tx, rx) = sync_channel(1);
            dispatcher.submit(q.clone(), tx).unwrap();
            assert_eq!(rx.recv().unwrap(), answer_query_direct(&q));
        }
        let snap = registry.snapshot();
        let lookups: u64 = ["hit", "miss"]
            .iter()
            .filter_map(|o| snap.counter_value("dbr_service_cache_total", &[("outcome", o)]))
            .sum();
        assert_eq!(lookups, 3, "every undirected query crosses the cache");
    }

    #[test]
    fn a_panicking_answer_leaves_its_shard_usable_with_an_empty_cache() {
        let registry = Arc::new(MetricsRegistry::new());
        let dispatcher = Dispatcher::new(config(1, 4), Arc::clone(&registry));
        let q = query("x=0110&y=1011");
        assert_eq!(
            dispatcher.admit(q.clone()).unwrap().answer().unwrap(),
            answer_query_direct(&q)
        );
        dispatcher.panic_next_answer();
        assert_eq!(dispatcher.admit(q.clone()).unwrap().answer(), None);
        assert_eq!(dispatcher.queue_depth(0), 0, "the admission is released");
        assert!(!dispatcher.shards[0].state.is_poisoned());
        assert!(dispatcher.shards[0].lock().cache.is_empty());
        // The same query again: a miss on the emptied cache, same bytes.
        assert_eq!(
            dispatcher.admit(q.clone()).unwrap().answer().unwrap(),
            answer_query_direct(&q)
        );
        let snap = registry.snapshot();
        let count =
            |outcome| snap.counter_value("dbr_service_cache_total", &[("outcome", outcome)]);
        assert_eq!(count("miss"), Some(2));
        assert_eq!(count("hit"), Some(0));
    }

    #[test]
    fn concurrent_dispatchers_count_exactly_their_own_work() {
        use debruijn_core::rng::SplitMix64;
        use debruijn_core::DeBruijn;
        use std::sync::Barrier;

        // Two dispatchers answer at once on two threads, each into its
        // own registry: every count is that dispatcher's work, exactly.
        let words: Vec<Word> = DeBruijn::new(2, 6).unwrap().vertices().collect();
        let start = Barrier::new(2);
        std::thread::scope(|scope| {
            for (seed, queries) in [(1, 200), (2, 500)] {
                let (words, start) = (&words, &start);
                scope.spawn(move || {
                    let registry = Arc::new(MetricsRegistry::new());
                    let dispatcher = Dispatcher::new(
                        ServiceConfig {
                            cache_capacity: 16,
                            ..config(2, 16)
                        },
                        Arc::clone(&registry),
                    );
                    let mut replay: Vec<RouteCache> = (0..2).map(|_| RouteCache::new(8)).collect();
                    let (mut scratch, mut path_buf) = (RoutingScratch::new(), RoutePath::empty());
                    let mut rng = SplitMix64::new(seed);
                    let mut solves = 0;
                    start.wait();
                    for _ in 0..queries {
                        let q = Query {
                            kind: QueryKind::Distance,
                            x: words[rng.below_usize(12)].clone(),
                            y: words[rng.below_usize(12)].clone(),
                            directed: rng.below_usize(5) == 0,
                        };
                        let cache = &mut replay[dispatcher.shard_of(&q.y)];
                        if !q.directed && q.x != q.y && !cache.peek(&q.x, &q.y) {
                            solves += 1;
                        }
                        let want = answer_query_cached(&q, cache, &mut scratch, &mut path_buf);
                        assert_eq!(dispatcher.admit(q).unwrap().answer().unwrap(), want);
                    }
                    let mut total = RouteCacheStats::default();
                    for cache in &replay {
                        total.merge(&cache.stats());
                    }
                    assert!(solves > 0 && total.hits > 0);
                    let snap = registry.snapshot();
                    let solved = |engine| {
                        snap.counter_value("dbr_service_solves_total", &[("engine", engine)])
                    };
                    assert_eq!(solved("bit-parallel"), Some(solves));
                    assert_eq!(solved("suffix-tree"), Some(0));
                    let looked_up = |outcome| {
                        snap.counter_value("dbr_service_cache_total", &[("outcome", outcome)])
                    };
                    assert_eq!(looked_up("hit"), Some(total.hits));
                    assert_eq!(looked_up("miss"), Some(total.misses));
                });
            }
        });
    }

    #[test]
    fn a_pair_past_the_auto_crossover_counts_as_a_suffix_tree_solve() {
        use debruijn_core::distance::undirected::auto_bitparallel_max_k;

        let k = auto_bitparallel_max_k(16) + 1;
        assert_eq!(k, 2049);
        let registry = Arc::new(MetricsRegistry::new());
        let dispatcher = Dispatcher::new(ServiceConfig::new(16), Arc::clone(&registry));
        let q = Query {
            kind: QueryKind::Distance,
            x: Word::uniform(16, k, 0).unwrap(),
            y: Word::uniform(16, k, 1).unwrap(),
            directed: false,
        };
        assert_eq!(dispatcher.admit(q).unwrap().answer().unwrap(), "2049\n");
        let snap = registry.snapshot();
        let solved = |engine| snap.counter_value("dbr_service_solves_total", &[("engine", engine)]);
        assert_eq!(solved("suffix-tree"), Some(1));
        assert_eq!(solved("bit-parallel"), Some(0));
    }

    #[test]
    fn cache_counts_equal_a_per_query_replay() {
        use debruijn_core::rng::SplitMix64;
        use debruijn_core::DeBruijn;

        let g = DeBruijn::new(2, 5).unwrap();
        let words: Vec<Word> = g.vertices().collect();
        let mut rng = SplitMix64::new(0x5EED);
        let registry = Arc::new(MetricsRegistry::new());
        let dispatcher = Dispatcher::new(
            ServiceConfig {
                cache_capacity: 12,
                ..config(3, 16)
            },
            Arc::clone(&registry),
        );
        let mut replay: Vec<RouteCache> = (0..3).map(|_| RouteCache::new(4)).collect();
        let (mut scratch, mut path_buf) = (RoutingScratch::new(), RoutePath::empty());
        for i in 0..400 {
            let q = Query {
                kind: if i % 2 == 0 {
                    QueryKind::Route
                } else {
                    QueryKind::Distance
                },
                x: words[rng.below_usize(8)].clone(),
                y: words[rng.below_usize(8)].clone(),
                directed: rng.below_usize(5) == 0,
            };
            let cache = &mut replay[dispatcher.shard_of(&q.y)];
            let want = answer_query_cached(&q, cache, &mut scratch, &mut path_buf);
            assert_eq!(dispatcher.admit(q).unwrap().answer().unwrap(), want);
        }
        let mut total = RouteCacheStats::default();
        for cache in &replay {
            total.merge(&cache.stats());
        }
        assert!(total.hits > 0 && total.misses > 0 && total.evictions > 0);
        let snap = registry.snapshot();
        for (outcome, want) in OUTCOMES
            .into_iter()
            .zip([total.hits, total.misses, total.evictions])
        {
            assert_eq!(
                snap.counter_value("dbr_service_cache_total", &[("outcome", outcome)]),
                Some(want),
                "{outcome}"
            );
        }
    }
}
