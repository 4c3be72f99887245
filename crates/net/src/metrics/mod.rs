//! Unified metrics registry, Prometheus-style exporter, and
//! anomaly-triggered flight recorder.
//!
//! The module is organised as three layers that compose but do not
//! require each other:
//!
//! 1. **Collection** — [`MetricsRegistry`] hands out cheap shared
//!    handles ([`Counter`], [`Gauge`], [`Histogram`]) keyed by metric
//!    name and label set, and accepts [collector
//!    closures](MetricsRegistry::register_collector) for values owned
//!    elsewhere (e.g. the query service's per-shard queue depths).
//!    [`RegistryRecorder`] is a [`Recorder`](crate::Recorder) that
//!    folds the simulator's event stream into a registry, and
//!    [`replay_sharded`] folds a recorded trace in parallel with a
//!    thread-count-independent result.
//! 2. **Snapshot** — [`MetricsRegistry::snapshot`] freezes everything
//!    into a [`MetricsSnapshot`]: plain sorted data that can be
//!    [merged](MetricsSnapshot::merge) across shards and
//!    [rendered](MetricsSnapshot::render) as Prometheus/OpenMetrics
//!    text.
//! 3. **Exposure** — [`ScrapeServer`] serves `/metrics` and
//!    `/healthz` on the crate's one std-only HTTP/1.1 connection plane
//!    (which the query service runs on too), and
//!    [`FlightRecorder`] captures the pre-anomaly event window for
//!    post-mortems when an [`AnomalyTriggers`] condition fires.
//!
//! Design rationale (std-only HTTP, naming conventions, merge
//! semantics) is recorded in
//! `docs/adr/0004-metrics-registry-and-flight-recorder.md`, and the
//! operator-facing walkthrough lives in `docs/OBSERVABILITY.md`.
//!
//! # Examples
//!
//! ```
//! use debruijn_net::metrics::MetricsRegistry;
//! use std::sync::Arc;
//!
//! let registry = Arc::new(MetricsRegistry::new());
//! let hits = registry.counter_with(
//!     "dbr_cache_total",
//!     "Cache lookups by outcome.",
//!     &[("outcome", "hit")],
//! );
//! hits.add(3);
//! let text = registry.snapshot().render();
//! assert!(text.contains("dbr_cache_total{outcome=\"hit\"} 3"));
//! ```

mod export;
mod flight;
mod http;
mod recorder;
mod registry;

pub use export::{FamilySnapshot, GaugeMerge, LabelSet, MetricKind, MetricValue, MetricsSnapshot};
pub use flight::{numbered_path, Anomaly, AnomalyTriggers, Burst, FlightRecorder, MAX_CAPTURES};
pub use http::{
    read_request, HeadTooLarge, HttpRequest, HttpResponse, ScrapeServer, MAX_HEAD_LINE,
    PROMETHEUS_CONTENT_TYPE, RETRY_AFTER_SECS,
};
pub(crate) use http::{scrape_answer, HttpServer, Routes};
pub use recorder::{replay_sharded, RegistryRecorder};
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry};
