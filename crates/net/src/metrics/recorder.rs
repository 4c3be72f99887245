//! Feeding the registry: the simulator-event recorder and
//! deterministic sharded trace replay.

use std::collections::HashMap;
use std::sync::Arc;

use crate::record::{NetEvent, Recorder};

use super::export::MetricsSnapshot;
use super::registry::{Counter, Gauge, Histogram, MetricsRegistry};

/// A [`Recorder`] that aggregates every [`NetEvent`] into a
/// [`MetricsRegistry`], under stable `dbr_`-prefixed names (see
/// `docs/OBSERVABILITY.md` for the catalog):
///
/// * counters: injections, deliveries, drops by reason, reroutes,
///   wildcard resolutions by policy and digit, and **per-link**
///   forwards (`dbr_link_forward_total{from,to}`);
/// * gauges: messages in flight (sum-merged across shards) and the
///   latest simulator tick seen (max-merged);
/// * histograms: hops, stretch, end-to-end latency, per-hop latency,
///   queue wait, and queue depth.
///
/// Handles are resolved once and cached (per-link and per-digit
/// handles in maps keyed off the hot registry path), so recording
/// costs atomic adds plus one mutex lock per histogram observation.
pub struct RegistryRecorder {
    registry: Arc<MetricsRegistry>,
    injected: Counter,
    delivered: Counter,
    reroutes: Counter,
    dropped: HashMap<&'static str, Counter>,
    wildcard: HashMap<(&'static str, u8), Counter>,
    forwards: HashMap<(u128, u128), Counter>,
    in_flight: Gauge,
    in_flight_level: i64,
    clock: Gauge,
    clock_level: u64,
    hops: Histogram,
    stretch: Histogram,
    latency: Histogram,
    per_hop_latency: Histogram,
    queue_wait: Histogram,
    queue_depth: Histogram,
}

impl RegistryRecorder {
    /// Wires a recorder onto `registry`, creating every fixed family
    /// up front (so `/metrics` shows them, zero-valued, before the
    /// first event).
    pub fn new(registry: &Arc<MetricsRegistry>) -> Self {
        let r = registry.as_ref();
        Self {
            injected: r.counter(
                "dbr_sim_injected_total",
                "Messages injected into the network.",
            ),
            delivered: r.counter(
                "dbr_sim_delivered_total",
                "Messages accepted at their destination.",
            ),
            reroutes: r.counter(
                "dbr_sim_reroutes_total",
                "Fault-avoiding route computations.",
            ),
            dropped: HashMap::new(),
            wildcard: HashMap::new(),
            forwards: HashMap::new(),
            in_flight: r.gauge("dbr_sim_in_flight", "Messages currently in flight."),
            in_flight_level: 0,
            clock: r.max_gauge("dbr_sim_clock_ticks", "Latest simulator tick observed."),
            clock_level: 0,
            hops: r.histogram("dbr_sim_hops", "Hops per delivered message."),
            stretch: r.histogram(
                "dbr_sim_stretch_hops",
                "Hops beyond the fault-free shortest distance, per delivered message.",
            ),
            latency: r.histogram(
                "dbr_sim_latency_ticks",
                "End-to-end delivery latency in ticks.",
            ),
            per_hop_latency: r.histogram(
                "dbr_sim_per_hop_latency_ticks",
                "Handover-to-arrival latency per forward, in ticks.",
            ),
            queue_wait: r.histogram(
                "dbr_sim_queue_wait_ticks",
                "Ticks each forward waited for a busy link.",
            ),
            queue_depth: r.histogram(
                "dbr_sim_queue_depth",
                "Messages queued ahead on the chosen link at handover.",
            ),
            registry: Arc::clone(registry),
        }
    }

    /// The registry this recorder feeds.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    fn observe_clock(&mut self, time: u64) {
        if time > self.clock_level || self.clock_level == 0 {
            self.clock_level = time;
            self.clock.set(time as i64);
        }
    }

    fn set_in_flight(&mut self, delta: i64) {
        self.in_flight_level += delta;
        self.in_flight.set(self.in_flight_level);
    }
}

impl Recorder for RegistryRecorder {
    fn record(&mut self, event: &NetEvent) {
        self.observe_clock(event.time());
        match event {
            NetEvent::Inject { .. } => {
                self.injected.inc();
                self.set_in_flight(1);
            }
            NetEvent::WildcardResolved { digit, policy, .. } => {
                let registry = &self.registry;
                self.wildcard
                    .entry((policy.name(), *digit))
                    .or_insert_with(|| {
                        registry.counter_with(
                            "dbr_sim_wildcard_resolutions_total",
                            "Wildcard steps resolved, by policy and digit.",
                            &[("policy", policy.name()), ("digit", &digit.to_string())],
                        )
                    })
                    .inc();
            }
            NetEvent::Forward {
                time,
                from,
                to,
                arrives,
                queue_wait,
                queue_depth,
                ..
            } => {
                let registry = &self.registry;
                self.forwards
                    .entry((from.rank(), to.rank()))
                    .or_insert_with(|| {
                        registry.counter_with(
                            "dbr_link_forward_total",
                            "Messages handed to each directed link.",
                            &[("from", &from.to_string()), ("to", &to.to_string())],
                        )
                    })
                    .inc();
                self.per_hop_latency.observe(arrives.saturating_sub(*time));
                self.queue_wait.observe(*queue_wait);
                self.queue_depth.observe(*queue_depth as u64);
            }
            NetEvent::Reroute { .. } => self.reroutes.inc(),
            NetEvent::Deliver {
                hops,
                latency,
                shortest,
                ..
            } => {
                self.delivered.inc();
                self.hops.observe(*hops as u64);
                self.stretch.observe(hops.saturating_sub(*shortest) as u64);
                self.latency.observe(*latency);
                self.set_in_flight(-1);
            }
            NetEvent::Drop { reason, .. } => {
                let registry = &self.registry;
                self.dropped
                    .entry(reason.name())
                    .or_insert_with(|| {
                        registry.counter_with(
                            "dbr_sim_dropped_total",
                            "Messages lost, by drop reason.",
                            &[("reason", reason.name())],
                        )
                    })
                    .inc();
                if reason.was_in_flight() {
                    self.set_in_flight(-1);
                }
            }
        }
    }
}

/// Replays a recorded event stream into per-shard registries on up to
/// `threads` workers and merges the shards deterministically.
///
/// The stream is cut into fixed, thread-count-independent contiguous
/// chunks ([`debruijn_parallel::map_chunks`]); each chunk feeds a
/// fresh [`RegistryRecorder`], and the shard snapshots merge in chunk
/// order. Because counter/histogram merging is exact and gauge
/// families declare their merge mode, the result is **identical for
/// every thread count** — the sharded path is how `dbr trace prom`
/// turns a JSONL trace into a Prometheus snapshot offline. (The live
/// event loop is sequential, so live runs feed one recorder directly;
/// sharding serves replay and post-processing.)
pub fn replay_sharded(threads: usize, events: &[NetEvent]) -> MetricsSnapshot {
    // ~64k events per shard amortizes registry setup without starving
    // parallelism on real traces; the constant only affects speed,
    // never results (the partition is thread-count-independent).
    const CHUNK: usize = 1 << 16;
    let shards = debruijn_parallel::map_chunks(threads, events.len(), CHUNK, |range| {
        let registry = Arc::new(MetricsRegistry::new());
        let mut recorder = RegistryRecorder::new(&registry);
        for event in &events[range] {
            recorder.record(event);
        }
        registry.snapshot()
    });
    let mut merged = MetricsSnapshot::new();
    for shard in &shards {
        merged.merge(shard);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{DropReason, InMemoryRecorder};
    use crate::workload;
    use crate::{FaultHandling, ShardedSimulation, SimConfig};
    use debruijn_core::DeBruijn;

    struct Capture(Vec<NetEvent>);

    impl Recorder for Capture {
        fn record(&mut self, event: &NetEvent) {
            self.0.push(event.clone());
        }
    }

    fn recorded_events(messages: usize, seed: u64) -> Vec<NetEvent> {
        let space = DeBruijn::new(2, 5).unwrap();
        let sim = ShardedSimulation::new(space, SimConfig::default(), 1).unwrap();
        let traffic = workload::uniform_random(space, messages, seed);
        let mut capture = Capture(Vec::new());
        sim.run_recorded(&traffic, &mut capture);
        capture.0
    }

    #[test]
    fn drops_at_injection_never_count_as_in_flight() {
        // A faulty source drops its messages, and a source reroute
        // finds no route to the faulty node, before any Inject event:
        // after every event both folds hold exactly the messages whose
        // Inject came and whose Deliver or Drop did not.
        let space = DeBruijn::new(2, 5).unwrap();
        let faulty = space.word_from_rank(6).unwrap();
        for (handling, reason) in [
            (FaultHandling::Drop, DropReason::FaultySource),
            (FaultHandling::SourceReroute, DropReason::NoRoute),
        ] {
            let config = SimConfig {
                fault_handling: handling,
                ..SimConfig::default()
            };
            let sim = ShardedSimulation::new(space, config, 2)
                .and_then(|sim| sim.with_faults(vec![faulty.clone()]))
                .unwrap();
            let mut capture = Capture(Vec::new());
            sim.run_recorded(&workload::uniform_burst(space, 300, 5), &mut capture);
            let registry = Arc::new(MetricsRegistry::new());
            let mut recorder = RegistryRecorder::new(&registry);
            let gauge = registry.gauge("dbr_sim_in_flight", "Messages currently in flight.");
            let mut memory = InMemoryRecorder::new();
            let mut live = std::collections::BTreeSet::new();
            for event in &capture.0 {
                match event {
                    NetEvent::Inject { message, .. } => live.insert(*message),
                    NetEvent::Deliver { message, .. } | NetEvent::Drop { message, .. } => {
                        live.remove(message)
                    }
                    _ => false,
                };
                recorder.record(event);
                memory.record(event);
                assert_eq!(memory.in_flight(), live.len() as u64, "{event:?}");
                assert_eq!(gauge.get(), live.len() as i64, "{event:?}");
            }
            assert!(memory.drops_by_reason[reason.name()] > 0, "{reason:?}");
            assert!(live.is_empty());
        }
    }

    #[test]
    fn recorder_agrees_with_in_memory_aggregation() {
        let events = recorded_events(300, 7);
        let registry = Arc::new(MetricsRegistry::new());
        let mut recorder = RegistryRecorder::new(&registry);
        let mut memory = InMemoryRecorder::new();
        for event in &events {
            recorder.record(event);
            memory.record(event);
        }
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value("dbr_sim_injected_total", &[]),
            Some(memory.injected)
        );
        assert_eq!(
            snap.counter_value("dbr_sim_delivered_total", &[]),
            Some(memory.delivered)
        );
        let hops = snap.histogram_value("dbr_sim_hops", &[]).unwrap();
        assert_eq!(hops.count(), memory.hops.count());
        assert_eq!(hops.sum(), memory.hops.sum());
        let wait = snap
            .histogram_value("dbr_sim_queue_wait_ticks", &[])
            .unwrap();
        assert_eq!(wait.count(), memory.queue_wait.count());
        assert_eq!(wait.max(), memory.queue_wait.max());
        // Every message terminated, so the in-flight level returned to 0.
        assert_eq!(snap.gauge_value("dbr_sim_in_flight", &[]), Some(0));
        // The clock watermark is the last event's time.
        let last = events.iter().map(NetEvent::time).max().unwrap();
        assert_eq!(
            snap.gauge_value("dbr_sim_clock_ticks", &[]),
            Some(last as i64)
        );
    }

    #[test]
    fn per_link_forward_counters_sum_to_total_hops() {
        let events = recorded_events(200, 13);
        let forwards = events
            .iter()
            .filter(|e| matches!(e, NetEvent::Forward { .. }))
            .count() as u64;
        let registry = Arc::new(MetricsRegistry::new());
        let mut recorder = RegistryRecorder::new(&registry);
        for event in &events {
            recorder.record(event);
        }
        let snap = registry.snapshot();
        let family = &snap.families["dbr_link_forward_total"];
        let total: u64 = family
            .series
            .values()
            .map(|v| match v {
                super::super::export::MetricValue::Counter(n) => *n,
                _ => 0,
            })
            .sum();
        assert_eq!(total, forwards);
        assert!(family.series.len() > 1, "traffic spans several links");
    }

    #[test]
    fn sharded_replay_is_thread_count_invariant() {
        let events = recorded_events(400, 99);
        let serial = replay_sharded(1, &events);
        for threads in [2, 4, 8] {
            let parallel = replay_sharded(threads, &events);
            assert_eq!(serial, parallel, "threads={threads}");
            assert_eq!(serial.render(), parallel.render());
        }
        // And the sharded result equals the single-recorder result.
        let registry = Arc::new(MetricsRegistry::new());
        let mut recorder = RegistryRecorder::new(&registry);
        for event in &events {
            recorder.record(event);
        }
        assert_eq!(serial, registry.snapshot());
    }
}
