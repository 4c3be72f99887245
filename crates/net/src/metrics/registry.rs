//! The live metric store: named families of atomic counters, gauges,
//! and mutex-guarded [`LogHistogram`]s.
//!
//! Handles returned by the registry ([`Counter`], [`Gauge`],
//! [`Histogram`]) are cheap `Arc` clones of the underlying storage:
//! hot paths keep their handles and update them without touching the
//! registry again, so a counter increment is one relaxed atomic add
//! and a histogram observation one uncontended mutex lock. The
//! registry itself is only locked to create or enumerate series.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::telemetry::LogHistogram;

use super::export::{
    label_set, valid_metric_name, FamilySnapshot, GaugeMerge, LabelSet, MetricKind, MetricValue,
    MetricsSnapshot,
};

/// A monotone counter handle (clone to share).
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: an instantaneous `i64` level (clone to share).
/// Negative values are legal (Prometheus gauges may go below zero,
/// and per-shard levels during sharded replay routinely do).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram handle backed by a mutex-guarded [`LogHistogram`]
/// (clone to share).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<Mutex<LogHistogram>>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.0.lock().expect("histogram lock").record(v);
    }

    /// Copies out the current contents.
    pub fn snapshot(&self) -> LogHistogram {
        self.0.lock().expect("histogram lock").clone()
    }

    /// Folds an externally accumulated histogram into this series
    /// (bucket-wise, same guarantees as [`LogHistogram::merge`]).
    pub fn merge_from(&self, other: &LogHistogram) {
        self.0.lock().expect("histogram lock").merge(other);
    }
}

enum Series {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<Mutex<LogHistogram>>),
}

impl Series {
    fn kind(&self) -> MetricKind {
        match self {
            Series::Counter(_) => MetricKind::Counter,
            Series::Gauge(_) => MetricKind::Gauge,
            Series::Histogram(_) => MetricKind::Histogram,
        }
    }
}

struct Family {
    kind: MetricKind,
    help: String,
    gauge_merge: GaugeMerge,
    series: BTreeMap<LabelSet, Series>,
}

/// A collector contributes computed series to every snapshot — the
/// bridge for values that live outside the registry, like the
/// process-global `debruijn-core` profile counters.
type Collector = Box<dyn Fn(&mut MetricsSnapshot) + Send + Sync>;

/// A unified store of named metric families.
///
/// Get-or-create accessors ([`MetricsRegistry::counter_with`] and
/// friends) hand out shareable handles; [`MetricsRegistry::snapshot`]
/// freezes everything into a [`MetricsSnapshot`] for merging or
/// Prometheus rendering. All methods take `&self`, so one registry
/// behind an [`Arc`] serves the simulator, the scrape server, and
/// periodic file exports concurrently.
///
/// # Examples
///
/// ```
/// use debruijn_net::metrics::MetricsRegistry;
///
/// let registry = MetricsRegistry::new();
/// let hits = registry.counter_with(
///     "dbr_cache_total",
///     "Cache lookups by outcome.",
///     &[("outcome", "hit")],
/// );
/// hits.inc();
/// let text = registry.snapshot().render();
/// assert!(text.contains("dbr_cache_total{outcome=\"hit\"} 1"));
/// ```
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Family>>,
    collectors: Mutex<Vec<Collector>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field(
                "families",
                &self.families.lock().expect("registry lock").len(),
            )
            .field(
                "collectors",
                &self.collectors.lock().expect("registry lock").len(),
            )
            .finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn series(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
        gauge_merge: GaugeMerge,
        make: impl FnOnce() -> Series,
    ) -> Series {
        assert!(
            valid_metric_name(name),
            "invalid Prometheus metric name '{name}'"
        );
        let set = label_set(labels);
        let mut families = self.families.lock().expect("registry lock");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: help.to_string(),
            gauge_merge,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind && family.gauge_merge == gauge_merge,
            "metric '{name}' already registered as a {} ({:?} merge)",
            family.kind.type_name(),
            family.gauge_merge
        );
        let series = family.series.entry(set).or_insert_with(make);
        match series {
            Series::Counter(c) => Series::Counter(Arc::clone(c)),
            Series::Gauge(g) => Series::Gauge(Arc::clone(g)),
            Series::Histogram(h) => Series::Histogram(Arc::clone(h)),
        }
    }

    /// Get-or-create the unlabelled counter `name`.
    ///
    /// # Panics
    ///
    /// All accessors panic on an invalid metric or label name, or when
    /// `name` was already registered with a different kind.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Get-or-create the counter series `name{labels}`.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series(
            name,
            help,
            labels,
            MetricKind::Counter,
            GaugeMerge::Sum,
            || Series::Counter(Arc::new(AtomicU64::new(0))),
        ) {
            Series::Counter(c) => Counter(c),
            _ => unreachable!("kind checked above"),
        }
    }

    /// Get-or-create the unlabelled gauge `name`, merging by sum
    /// across shards.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Get-or-create the gauge series `name{labels}` (sum merge).
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        self.gauge_impl(name, help, labels, GaugeMerge::Sum)
    }

    /// Get-or-create the unlabelled gauge `name`, merging by maximum
    /// across shards (watermarks, clocks).
    pub fn max_gauge(&self, name: &str, help: &str) -> Gauge {
        self.max_gauge_with(name, help, &[])
    }

    /// Get-or-create the gauge series `name{labels}` (max merge).
    pub fn max_gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        self.gauge_impl(name, help, labels, GaugeMerge::Max)
    }

    fn gauge_impl(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        merge: GaugeMerge,
    ) -> Gauge {
        match self.series(name, help, labels, MetricKind::Gauge, merge, || {
            Series::Gauge(Arc::new(AtomicI64::new(0)))
        }) {
            Series::Gauge(g) => Gauge(g),
            _ => unreachable!("kind checked above"),
        }
    }

    /// Get-or-create the unlabelled histogram `name`.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// Get-or-create the histogram series `name{labels}`.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.series(
            name,
            help,
            labels,
            MetricKind::Histogram,
            GaugeMerge::Sum,
            || Series::Histogram(Arc::new(Mutex::new(LogHistogram::new()))),
        ) {
            Series::Histogram(h) => Histogram(h),
            _ => unreachable!("kind checked above"),
        }
    }

    /// Registers a collector: a hook run on every
    /// [`MetricsRegistry::snapshot`] that contributes computed series
    /// (the query service's queue-depth gauges are one).
    /// Collectors must not call back into this registry's collector
    /// registration.
    pub fn register_collector(
        &self,
        collector: impl Fn(&mut MetricsSnapshot) + Send + Sync + 'static,
    ) {
        self.collectors
            .lock()
            .expect("registry lock")
            .push(Box::new(collector));
    }

    /// Freezes every family (and runs the collectors) into a
    /// [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        {
            // Built directly rather than through the per-series
            // collector hooks (`set_counter` and friends): names and
            // labels were validated at registration, so freezing a
            // series is one label-set clone and one value copy — this
            // path runs on every scrape, concurrent with recording.
            let families = self.families.lock().expect("registry lock");
            for (name, family) in families.iter() {
                let frozen = snap
                    .families
                    .entry(name.clone())
                    .or_insert_with(|| FamilySnapshot {
                        kind: family.kind,
                        help: family.help.clone(),
                        gauge_merge: family.gauge_merge,
                        series: BTreeMap::new(),
                    });
                for (labels, series) in &family.series {
                    debug_assert_eq!(series.kind(), family.kind);
                    let value = match series {
                        Series::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                        Series::Gauge(g) => MetricValue::Gauge(g.load(Ordering::Relaxed)),
                        Series::Histogram(h) => {
                            MetricValue::Histogram(h.lock().expect("histogram lock").clone())
                        }
                    };
                    frozen.series.insert(labels.clone(), value);
                }
            }
        }
        for collector in self.collectors.lock().expect("registry lock").iter() {
            collector(&mut snap);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_per_series() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("dbr_shared_total", "Shared.");
        let b = registry.counter("dbr_shared_total", "Shared.");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        // Different labels are different series.
        let c = registry.counter_with("dbr_shared_total", "Shared.", &[("x", "1")]);
        c.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn snapshot_freezes_all_kinds() {
        let registry = MetricsRegistry::new();
        registry.counter("dbr_c_total", "C.").add(7);
        registry.gauge("dbr_g", "G.").set(-2);
        registry.max_gauge("dbr_m", "M.").set(99);
        registry.histogram("dbr_h", "H.").observe(42);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("dbr_c_total", &[]), Some(7));
        assert_eq!(snap.gauge_value("dbr_g", &[]), Some(-2));
        assert_eq!(snap.gauge_value("dbr_m", &[]), Some(99));
        assert_eq!(snap.histogram_value("dbr_h", &[]).unwrap().count(), 1);
        // Gauge merge modes survive into the snapshot.
        assert_eq!(snap.families["dbr_g"].gauge_merge, GaugeMerge::Sum);
        assert_eq!(snap.families["dbr_m"].gauge_merge, GaugeMerge::Max);
    }

    #[test]
    fn collectors_contribute_to_snapshots() {
        let registry = MetricsRegistry::new();
        registry.register_collector(|snap| {
            snap.set_counter("dbr_computed_total", "Computed.", &[], 5);
        });
        assert_eq!(
            registry.snapshot().counter_value("dbr_computed_total", &[]),
            Some(5)
        );
    }

    #[test]
    fn updates_from_threads_are_all_counted() {
        let registry = Arc::new(MetricsRegistry::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let registry = Arc::clone(&registry);
                scope.spawn(move || {
                    let c = registry.counter("dbr_mt_total", "MT.");
                    let h = registry.histogram("dbr_mt_h", "MT.");
                    for i in 0..1000 {
                        c.inc();
                        h.observe(i);
                    }
                });
            }
        });
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("dbr_mt_total", &[]), Some(4000));
        assert_eq!(snap.histogram_value("dbr_mt_h", &[]).unwrap().count(), 4000);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_panic() {
        let registry = MetricsRegistry::new();
        registry.counter("dbr_conflict", "X.");
        registry.gauge("dbr_conflict", "X.");
    }

    #[test]
    #[should_panic(expected = "invalid Prometheus metric name")]
    fn invalid_names_panic() {
        MetricsRegistry::new().counter("not a name", "X.");
    }
}
