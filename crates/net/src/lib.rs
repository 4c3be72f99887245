//! Deterministic discrete-event simulator for de Bruijn networks.
//!
//! The paper describes the *protocol* of a de Bruijn multiprocessor
//! network — five-field messages whose routing-path field is a list of
//! `(a, b)` shift steps, popped one per hop (§3) — but contains no system
//! evaluation. This crate supplies the missing substrate: a deterministic
//! store-and-forward simulator that executes exactly that protocol, so the
//! routing algorithms can be evaluated end-to-end (experiments E6–E8):
//!
//! * [`RouterKind`] — which algorithm the source uses to fill the
//!   routing-path field (trivial `k`-hop, Algorithm 1, 2 or 4, or a
//!   seeded pick among all shortest routes);
//! * [`WildcardPolicy`] — how forwarding nodes resolve the paper's `*`
//!   steps (fixed digit, random, round-robin, or least-loaded link — the
//!   traffic balancing the paper's §3 remark anticipates);
//! * [`ShardedSimulation`] — the one engine: per-link FIFO queues,
//!   configurable latency/service times ([`SimConfig`]), node fault
//!   injection with drop or source rerouting, and deterministic
//!   parallel execution over node shards. It forwards on precomputed
//!   next-hop tiers where those implement the configuration, and
//!   otherwise carries each message's routing-path field and pops one
//!   `(a, b)` step per hop ([`NextHopMode`]);
//! * [`workload`] — reproducible traffic patterns (uniform random,
//!   permutation, hotspot, all-pairs);
//! * [`record`] — pluggable observability: a [`Recorder`] sink trait fed
//!   span-style [`NetEvent`]s by [`ShardedSimulation::run_recorded`], one
//!   fold of events into counters and distributions ([`EventFold`],
//!   exact as [`InMemoryRecorder`]) and line-delimited JSON export
//!   ([`record::JsonlRecorder`]);
//! * [`telemetry`] — bounded-memory aggregation for production-scale
//!   runs: `O(1)`-record log-bucketed histograms ([`LogHistogram`]),
//!   the fold plus per-link accumulators ([`Telemetry`]), periodic
//!   progress snapshots ([`SnapshotRecorder`]), and Chrome trace-event
//!   export ([`ChromeTraceRecorder`]);
//! * [`metrics`] — a unified [`MetricsRegistry`](metrics::MetricsRegistry)
//!   of named counters/gauges/histograms with Prometheus text export, a
//!   std-only HTTP scrape server ([`metrics::ScrapeServer`]), and an
//!   anomaly-triggered [`metrics::FlightRecorder`] for post-mortem event
//!   capture;
//! * [`service`] — a query service over the routing engines
//!   ([`QueryService`]): HTTP/1.1 keep-alive connection threads that
//!   answer each query under its destination shard's route-cache lock,
//!   and bounded per-shard admission that sheds overload with `503` +
//!   `Retry-After` — answers byte-identical to the direct engine at any
//!   shard count.
//!
//! Everything is deterministic given the seed in [`SimConfig`].
//!
//! # Example
//!
//! ```
//! use debruijn_core::DeBruijn;
//! use debruijn_net::{RouterKind, ShardedSimulation, SimConfig, workload};
//!
//! let space = DeBruijn::new(2, 4)?;
//! let config = SimConfig { router: RouterKind::Algorithm2, ..SimConfig::default() };
//! let sim = ShardedSimulation::new(space, config, 1)?;
//! let traffic = workload::uniform_random(space, 200, 7);
//! let report = sim.run(&traffic);
//! assert_eq!(report.delivered, 200);
//! // Optimal routing averages well below the k-hop trivial baseline.
//! assert!(report.mean_hops() < 4.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod config;
pub mod metrics;
pub mod monitor;
pub mod policy;
pub mod profiler;
pub mod record;
pub mod router;
pub mod service;
pub mod shard;
pub mod stats;
pub mod telemetry;
pub mod workload;

pub use config::{FaultHandling, Injection, LinkParams, NetError, SimConfig};
pub use monitor::{Localizer, MonitorConfig, MonitorSet, Placement, Verdict};
pub use policy::WildcardPolicy;
pub use profiler::{
    CriticalPath, EngineProfile, HopSpan, Phase, ProfileConfig, SampledDelivery, SpanSampler,
};
pub use record::{
    DropReason, EventClass, EventFold, InMemoryRecorder, NetEvent, NullRecorder, Recorder,
};
pub use router::RouterKind;
pub use service::{QueryService, ServiceConfig};
pub use shard::{NextHopMode, ShardedSimulation};
pub use stats::{ExactHistogram, SimReport};
pub use telemetry::{ChromeTraceRecorder, LogHistogram, SnapshotRecorder, Telemetry};

/// Behavioural tests of the whole simulation (`sim/tests.rs`); the
/// engine's own tests, on tiers, shards and threads, are in `shard`.
#[cfg(test)]
mod sim {
    mod tests;
}
